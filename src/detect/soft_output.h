// Soft-output (max-log) MIMO detection -- the paper's Section 7 extension
// direction: "soft detectors consist of several constrained maximum-
// likelihood problems and therefore the sphere decoder can be of use".
//
// For every transmitted bit b the max-log LLR is
//   LLR_b = ( min_{s: b(s)=1} ||y - Hs||^2 - min_{s: b(s)=0} ||y - Hs||^2 ) / N0,
// i.e. positive when bit 0 is more likely. One unconstrained Geosphere
// search yields the ML solution and one of the two minima for every bit;
// each counter-hypothesis minimum is then a constrained ML problem solved
// by re-running the search with that bit pinned to the complement
// (the "repeated tree search" strategy). All searches reuse Geosphere's
// zigzag enumeration and geometric pruning, so the per-bit searches stay
// cheap at practical SNR.
//
// SoftGeosphereDetector follows the detection contract: prepare(h, n0)
// QR-factorizes the channel once and is shared by every subsequent hard
// solve_batch() (the unconstrained search only) and soft
// solve_soft_batch() (the unconstrained search plus the per-bit
// counter-hypothesis searches) -- so the ~1 + clients*Q constrained
// searches per received vector never re-factorize, and neither do the
// other received vectors on the same subcarrier. The one-shot solve() and
// solve_soft() are batches of one.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "constellation/constellation.h"
#include "detect/detector.h"
#include "detect/prepare/batch_qr.h"
#include "detect/sphere/enumerators.h"
#include "detect/sphere/simd/rotate.h"
#include "linalg/matrix.h"

namespace geosphere {

class SoftGeosphereDetector final : public Detector, public SoftDetector {
 public:
  /// `llr_clamp`: counter-hypothesis searches are bounded; when no
  /// counter-hypothesis lies within the clamp radius the LLR saturates at
  /// +/- llr_clamp (standard max-log practice).
  explicit SoftGeosphereDetector(const Constellation& c, double llr_clamp = 30.0);

  SoftDetector* soft() override { return this; }

  std::string name() const override { return "soft-geosphere"; }

  double llr_clamp() const { return llr_clamp_; }

 protected:
  /// Hard decisions only: one SIMD-batched Q^H Y rotation (vectors as
  /// lanes, see simd/rotate.h) plus packed root-center divides, then one
  /// unconstrained Geosphere search per column (same ML solution as the
  /// hard Geosphere detector, no counter-hypothesis cost).
  void do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) override;

  /// Hard decisions plus max-log LLRs for every transmitted bit: the same
  /// shared rotation and root centers, then each column's ~1 + streams*Q
  /// searches against its rotated row.
  void do_solve_soft_batch(const linalg::CMatrix& y_batch, SoftBatchResult& out) override;

  /// Validates inputs and QR-factorizes the channels shared by the
  /// unconstrained and per-bit searches: packed Householder QR across the
  /// batch (prepare/batch_qr.h); select copies slot i's factorization into
  /// the active workspace. Requires noise_var > 0 (the LLR normalization
  /// divides by it). Shape, noise and rank failures are recorded and
  /// thrown at select time.
  void do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                        double noise_var) override;
  void do_select_prepared(std::size_t i) override;

  Detector& owner() override { return *this; }

 private:
  struct Search {
    double best_dist = 0.0;
    bool found = false;
  };

  /// Depth-first search reading the rotated received vector from `yhat`
  /// and its packed root-level tree center; `mask_level`/`mask` optionally
  /// restrict the symbol at one tree level to a subset of constellation
  /// indices. Leaves the winning path in best_.
  Search search(const cf64* yhat, cf64 root_center, double radius_sq,
                std::ptrdiff_t mask_level, const std::vector<std::uint8_t>* mask,
                DetectionStats& stats);

  /// Rotates the batch (yhat_t_batch_) and packs its root centers, after
  /// checking the row count -- the shared head of both batch solves.
  void rotate(const linalg::CMatrix& y_batch);

  /// The soft solve of one rotated vector: the unconstrained search plus
  /// the per-bit counter-hypothesis searches, writing nc decisions to
  /// `indices` and nc * Q LLRs (stream-major) to `llrs`. Throws
  /// std::runtime_error when the unconstrained search reaches no leaf.
  void solve_soft_row(const cf64* yhat, cf64 root_center, unsigned* indices, double* llrs,
                      DetectionStats& stats);

  double llr_clamp_;

  // Prepared channel state, shared by every search until the next prepare.
  std::size_t na_ = 0;
  linalg::CMatrix r_;
  linalg::CMatrix qh_;
  double noise_var_ = 0.0;
  std::vector<double> scale_;
  std::vector<double> diag_;  ///< Per level: r_ll * alpha (center denominator).

  // Batched-prepare state (prepare_batch override; see prepare/batch_qr.h).
  prepare::BatchQr batch_qr_;
  std::vector<prepare::QrSlot> slot_qr_;
  /// Deferred batch failure: 0 ok, 1 bad shape, 2 bad noise variance.
  std::uint8_t batch_error_ = 0;
  double batch_noise_var_ = 0.0;
  std::size_t batch_na_ = 0;

  /// Counter-hypothesis symbol masks, fixed by the constellation:
  /// bit_masks_[b * 2 + want][idx] == 1 iff bit b of symbol idx is `want`.
  std::vector<std::vector<std::uint8_t>> bit_masks_;

  // Per-search workspaces.
  sphere::GeoEnumerator enum_proto_;  ///< Attached prototype (zigzag + pruning).
  std::vector<sphere::GeoEnumerator> level_enum_;
  std::vector<unsigned> current_;
  std::vector<double> partial_;
  std::vector<unsigned> best_;  ///< Best path of the last search.
  std::vector<std::uint8_t> ml_bits_;

  // Per-batch workspaces (shared SIMD rotation and root centers).
  linalg::CMatrix yhat_t_batch_;  ///< (Q^H Y)^T -- one row per vector.
  sphere::simd::RotateScratch rot_scratch_;
  std::vector<cf64> root_centers_;  ///< Packed per-vector root centers.
};

}  // namespace geosphere
