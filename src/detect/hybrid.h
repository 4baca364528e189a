// Condition-number threshold hybrid (Maurer et al., paper Section 6.1):
// zero-forcing on well-conditioned channels, sphere decoding otherwise.
// The paper argues Geosphere obviates this design because its complexity
// already adapts to the channel -- the ablation bench quantifies that.
#pragma once

#include <memory>
#include <vector>

#include "detect/detector.h"
#include "detect/prepare/batch_qr.h"
#include "detect/sphere/sphere_decoder.h"
#include "detect/zero_forcing.h"

namespace geosphere {

class HybridDetector final : public Detector {
 public:
  /// Switches to the sphere decoder when kappa^2(H) exceeds
  /// `threshold_kappa_sq_db` (decibels). Conditioning is estimated from
  /// the diagonal of the channel's QR factor (linalg::qr_diag_condition_sq_db),
  /// so the routing decision rides the same factorization the sphere
  /// decoder adopts -- one QR per channel covers both.
  HybridDetector(const Constellation& c, double threshold_kappa_sq_db);

  std::string name() const override { return "Hybrid-ZF/Geosphere"; }

  /// Fraction of prepared channels routed to the sphere decoder so far.
  /// The routing decision is per channel (per prepare() call), so every
  /// solve against the same channel, batched or one-shot, uses the same
  /// inner detector.
  double sphere_fraction() const {
    return calls_ == 0 ? 0.0 : static_cast<double>(sphere_calls_) / static_cast<double>(calls_);
  }

 protected:
  /// Routes the whole batch to the inner detector chosen by prepare() --
  /// one routing decision per prepared channel, batched all the way down
  /// (a one-shot solve() is a batch of one here too).
  void do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) override;
  /// One packed Householder QR across the batch (prepare/batch_qr.h);
  /// select reads slot i's conditioning off R's diagonal, counts the
  /// routing decision, and hands the sphere decoder the already-computed
  /// factorization (prepare_adopted). ZF-routed slots run ZF's own
  /// prepare() (a batch of one) at select -- routing, not filtering, is
  /// what shares the batched factorization. Degenerate shapes cannot be
  /// QR-routed; both inner detectors reject them, so they go to ZF for its
  /// exception.
  void do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                        double noise_var) override;
  void do_select_prepared(std::size_t i) override;

 private:
  double threshold_db_;
  std::unique_ptr<ZeroForcingDetector> zf_;
  std::unique_ptr<sphere::SphereDecoder<sphere::GeoEnumerator>> geosphere_;
  Detector* active_ = nullptr;  ///< The inner detector chosen by prepare().
  std::uint64_t calls_ = 0;
  std::uint64_t sphere_calls_ = 0;

  // Batched-prepare state (prepare_batch override; see prepare/batch_qr.h).
  prepare::BatchQr batch_qr_;
  std::vector<prepare::QrSlot> slot_qr_;
  const linalg::CMatrix* batch_hs_ = nullptr;  ///< Caller-owned (contract).
  double batch_noise_var_ = 0.0;
  bool batch_shape_bad_ = false;  ///< Degenerate shapes: ZF rejects at select.
};

}  // namespace geosphere
