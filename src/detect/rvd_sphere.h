// Real-valued decomposition (RVD) sphere decoder: the alternative tree
// formulation used by much of the VLSI literature (e.g. the K-best
// decoders of paper Section 6.1). The complex system y = Hs + w becomes
//
//   [Re y]   [Re H  -Im H] [Re s]
//   [Im y] = [Im H   Re H] [Im s] + real noise
//
// i.e. a tree of height 2*n_c with branching sqrt(M) (one PAM component
// per level) instead of Geosphere's height-n_c, branching-M complex tree.
// Exact ML, Schnorr-Euchner order per level via the 1D zigzag. Included as
// an ablation point: RVD trades more tree levels (and typically more node
// visits) for trivially cheap per-level enumeration.
//
// prepare() builds the real embedding of H and QR-factorizes it once;
// solve_batch() embeds and rotates the whole batch, then runs one search
// per received vector.
#pragma once

#include <cstddef>
#include <vector>

#include "detect/detector.h"
#include "detect/prepare/batch_qr.h"
#include "detect/sphere/zigzag1d.h"

namespace geosphere {

class RvdSphereDecoder final : public Detector {
 public:
  explicit RvdSphereDecoder(const Constellation& c) : Detector(c) {}

  std::string name() const override { return "RVD-SD"; }

 protected:
  /// Embeds the whole batch into the real formulation and rotates it with
  /// one mat-mat product, then runs one search per column.
  void do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) override;
  /// Builds every slot's real embedding, then one packed Householder QR
  /// across the batch (prepare/batch_qr.h); select copies slot i's
  /// factorization into the active workspace, or throws the batch's shape
  /// error or the slot's rank-deficiency error.
  void do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                        double noise_var) override;
  void do_select_prepared(std::size_t i) override;

 private:
  /// Depth-first search over the real-valued tree, reading the rotated
  /// embedding from `yhat` (length 2 * nc_); leaves the winning PAM levels
  /// in best_ and accumulates counters into `stats`. Throws
  /// std::runtime_error when the search reaches no leaf.
  void search(const cf64* yhat, DetectionStats& stats);

  /// Recombines best_'s PAM components into per-stream QAM indices.
  void emit_indices(unsigned* indices) const;

  // Prepared channel state (real embedding, QR-factorized).
  std::size_t na_ = 0;  ///< Receive antennas of the prepared (complex) H.
  std::size_t nc_ = 0;  ///< Streams of the prepared (complex) H.
  linalg::CMatrix r_;   ///< Upper triangular (real values) of the embedding.
  linalg::CMatrix qh_;  ///< Q^H of the embedding.
  linalg::CMatrix yr_batch_;      ///< Real embedding of Y (per-batch scratch).
  linalg::CMatrix yhat_t_batch_;  ///< (Q^H Yr)^T -- one row per vector.

  // Batched-prepare state (prepare_batch override; see prepare/batch_qr.h).
  prepare::BatchQr batch_qr_;
  std::vector<prepare::QrSlot> slot_qr_;
  std::vector<linalg::CMatrix> batch_hr_;  ///< Per-slot real embeddings.
  bool batch_shape_bad_ = false;  ///< Deferred shape invalid_argument.
  std::size_t batch_na_ = 0;
  std::size_t batch_nc_ = 0;

  // Reused per-solve workspaces.
  std::vector<sphere::Zigzag1D> level_enum_;
  std::vector<double> level_scale_;
  std::vector<double> partial_;
  std::vector<double> centers_;
  std::vector<int> current_;
  std::vector<int> best_;
};

}  // namespace geosphere
