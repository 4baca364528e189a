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
/// solve_batch() is one filter product pinv(H) * Y plus slicing, and
/// solve() runs it on a one-column Y.
class ZeroForcingDetector final : public Detector {
 public:
  explicit ZeroForcingDetector(const Constellation& c) : Detector(c) {}

  /// Post-equalization (pre-slicing) soft symbol estimates of the most
  /// recent solve: n_c x count, column v for received vector v (one column
  /// after solve()). Useful for soft-decision decoding and tests.
  const linalg::CMatrix& last_equalized() const { return equalized_; }

  std::string name() const override { return "ZF"; }

 protected:
  /// One mat-mat product pinv(H) * Y, then per-stream slicing.
  void do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) override;
  /// Packed pseudo-inverses across the batch (prepare/batch_linear.h);
  /// select copies slot i's filter into the active workspace.
  void do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                        double noise_var) override;
  void do_select_prepared(std::size_t i) override;

 private:
  linalg::CMatrix filter_;     ///< pinv(H), built by prepare().
  linalg::CMatrix equalized_;  ///< filter_ * Y of the last solve.
  prepare::BatchLinear batch_linear_;
  std::vector<linalg::CMatrix> slot_filters_;
  /// Per-slot deferred failure: 0 ok, 1 bad shape, 2 singular.
  std::vector<std::uint8_t> slot_errors_;
};

}  // namespace geosphere
