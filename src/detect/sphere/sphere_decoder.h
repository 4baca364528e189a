// Depth-first Schnorr-Euchner sphere decoder (paper Section 2), templated
// on the child-enumeration strategy so Geosphere and the baselines share
// identical traversal and pruning logic. All instantiations return the
// exact maximum-likelihood solution (Eq. 1), and -- because every
// enumerator yields children in the same sorted order -- visit identical
// node sequences; only the PED-computation counts differ (Section 5.3).
//
// prepare() performs the per-channel work once (column ordering,
// Householder QR, per-level scale factors, workspace sizing); solve_batch()
// rotates the received vectors into the triangular basis together and runs
// one tree search per vector -- so an OFDM frame pays the factorization
// once per subcarrier, not once per received vector.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "detect/detector.h"
#include "detect/prepare/batch_qr.h"
#include "detect/sphere/enumerators.h"
#include "detect/sphere/preprocess.h"
#include "detect/sphere/simd/rotate.h"

namespace geosphere::sphere {

struct SphereConfig {
  /// Order channel columns by energy before the QR decomposition
  /// (off by default: the paper's decoders process columns as-is).
  bool sorted_qr = false;
  /// Initial squared sphere radius. The default (infinite) finds a
  /// solution unless every branch cost overflows; a finite radius may prune
  /// everything. Either way the solve throws std::runtime_error.
  double initial_radius_sq = std::numeric_limits<double>::infinity();
};

template <class Enumerator>
class SphereDecoder final : public Detector {
 public:
  SphereDecoder(const Constellation& c, Enumerator prototype, std::string name,
                SphereConfig config = {})
      : Detector(c), prototype_(prototype), name_(std::move(name)), config_(config) {
    prototype_.attach(c);
  }

  std::string name() const override { return name_; }
  const SphereConfig& config() const { return config_; }

  /// Adopts `slot`, a packed-QR factorization of `h` (prepare/batch_qr.h),
  /// instead of refactorizing -- the hybrid detector shares its routing QR
  /// this way. Checks h's shape and throws on !slot.rank_ok exactly as
  /// prepare(h, noise_var) would, and installs the same bits (the detector's
  /// unsorted config makes the factorization permutation-free).
  void prepare_adopted(const linalg::CMatrix& h, const prepare::QrSlot& slot);

 protected:
  /// One SIMD-batched Q^H Y rotation for the whole batch (vectors as lanes,
  /// see simd/rotate.h) plus packed root-center divides, then one search
  /// per row. Every tier's rotation row and root center is bit-identical
  /// to the scalar per-vector arithmetic, so a vector's result does not
  /// depend on the tier, its column or the batch size.
  void do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) override;
  /// Packed Householder QR across the batch (prepare/batch_qr.h), with
  /// per-slot column orderings first when sorted QR is configured; select
  /// copies slot i's factorization into the active workspace. Shape and
  /// rank failures are recorded per batch/slot and thrown at select time.
  void do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                        double noise_var) override;
  void do_select_prepared(std::size_t i) override;

 private:
  /// Depth-first search against the prepared channel, reading the rotated
  /// received vector from `yhat` (length nc_) and its packed root-level
  /// center; leaves the winning path in best_ and accumulates counters into
  /// `stats`. Returns false if the search reaches no leaf.
  bool search(const cf64* yhat, DetectionStats& stats, cf64 root_center);

  /// Installs the per-level state derived from the already-set na_/nc_/r_
  /// (workspace sizing, level scales and center denominators) -- the tail
  /// of both do_select_prepared and prepare_adopted.
  void finish_install();

  Enumerator prototype_;
  std::string name_;
  SphereConfig config_;

  // Prepared channel state (owned; valid until the next prepare()).
  std::size_t na_ = 0;                ///< Receive antennas of the prepared H.
  std::size_t nc_ = 0;                ///< Streams of the prepared H.
  std::vector<std::size_t> perm_;     ///< Detection-order column permutation.
  linalg::CMatrix r_;                 ///< Upper-triangular QR factor.
  linalg::CMatrix qh_;                ///< Q^H, applied to each received vector.
  linalg::CMatrix yhat_t_batch_;      ///< (Q^H Y)^T -- one row per vector.

  // Per-level state, reused across searches to avoid allocation.
  std::vector<Enumerator> level_enum_;
  std::vector<double> level_scale_;     ///< |r_ll|^2 * alpha^2.
  std::vector<double> level_diag_;      ///< r_ll * alpha (center denominator).
  std::vector<double> partial_dist_;    ///< partial_dist_[l] = d(s^(l)); [nc] = 0.
  std::vector<unsigned> current_;       ///< Symbol index per level on the path.
  std::vector<unsigned> best_;

  // Batched-prepare state (prepare_batch override; see prepare/batch_qr.h).
  prepare::BatchQr batch_qr_;
  std::vector<prepare::QrSlot> slot_qr_;
  std::vector<std::vector<std::size_t>> slot_perm_;
  std::vector<linalg::CMatrix> batch_hp_;  ///< Permuted copies (sorted QR only).
  bool batch_shape_bad_ = false;  ///< Deferred shape invalid_argument.
  std::size_t batch_na_ = 0;
  std::size_t batch_nc_ = 0;

  // Batched-solve state: SIMD rotation scratch (see simd/rotate.h).
  simd::RotateScratch rot_scratch_;
  std::vector<cf64> root_centers_;  ///< Packed per-vector root centers.
};

/// Geosphere: 2D zigzag enumeration + geometric pruning (the full system).
std::unique_ptr<Detector> make_geosphere(const Constellation& c, SphereConfig config = {});

/// Geosphere as its concrete decoder type, for callers that hand it
/// externally computed factorizations (prepare_adopted -- the hybrid
/// detector's shared routing QR).
std::unique_ptr<SphereDecoder<GeoEnumerator>> make_geosphere_typed(const Constellation& c,
                                                                   SphereConfig config = {});

/// Geosphere without geometric pruning ("2D zigzag only" variant of the
/// paper's Section 5.3.2 breakdown).
std::unique_ptr<Detector> make_geosphere_zigzag_only(const Constellation& c,
                                                     SphereConfig config = {});

/// ETH-SD: the Burg et al. depth-first decoder with Hess et al. enumeration,
/// the paper's primary complexity baseline.
std::unique_ptr<Detector> make_eth_sd(const Constellation& c, SphereConfig config = {});

/// Shabany-style neighbour-expansion enumeration (related work, Section 6.1).
std::unique_ptr<Detector> make_shabany_sd(const Constellation& c, SphereConfig config = {});

}  // namespace geosphere::sphere
