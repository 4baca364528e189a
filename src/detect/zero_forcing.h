// Zero-forcing detector: the baseline the paper improves upon.
#pragma once

#include <cstdint>
#include <vector>

#include "detect/detector.h"
#include "detect/prepare/batch_linear.h"

namespace geosphere {

/// Left-multiplies the received vector by the channel pseudo-inverse
/// (H^H H)^{-1} H^H and slices each stream independently. On poorly
/// conditioned channels this amplifies noise by [(H^H H)^{-1}]_kk per
/// stream (paper Sections 1 and 5.1). prepare() builds the filter once;
/// solve() is one filter application plus slicing per received vector.
class ZeroForcingDetector final : public Detector {
 public:
  explicit ZeroForcingDetector(const Constellation& c) : Detector(c) {}

  /// Post-equalization (pre-slicing) soft symbol estimates from the most
  /// recent solve() call; useful for soft-decision decoding and tests.
  const CVector& last_equalized() const { return equalized_; }

  std::string name() const override { return "ZF"; }

 protected:
  void do_solve(const CVector& y, DetectionResult& out) override;
  /// One mat-mat product pinv(H) * Y instead of a mat-vec per column.
  void do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) override;
  /// Packed pseudo-inverses across the batch (prepare/batch_linear.h);
  /// select copies slot i's filter into the active workspace.
  void do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                        double noise_var) override;
  void do_select_prepared(std::size_t i) override;

 private:
  linalg::CMatrix filter_;  ///< pinv(H), built by prepare().
  CVector equalized_;
  linalg::CMatrix equalized_batch_;  ///< Per-batch scratch (filter_ * Y).
  prepare::BatchLinear batch_linear_;
  std::vector<linalg::CMatrix> slot_filters_;
  /// Per-slot deferred failure: 0 ok, 1 bad shape, 2 singular.
  std::vector<std::uint8_t> slot_errors_;
};

}  // namespace geosphere
