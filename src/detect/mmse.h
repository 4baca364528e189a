// Linear MMSE detector (classical improvement over zero-forcing; see the
// paper's related-work discussion of linear filtering).
#pragma once

#include <vector>

#include "detect/detector.h"
#include "detect/prepare/batch_linear.h"

namespace geosphere {

/// Filters with (H^H H + N0 I)^{-1} H^H (unit symbol energy), balancing
/// stream separation against noise amplification. Converges to ZF as
/// N0 -> 0, which the tests exploit. prepare() forms H^H and the inverted
/// regularized Gram matrix once; solve() is two small mat-vec products
/// plus slicing per received vector.
class MmseDetector final : public Detector {
 public:
  explicit MmseDetector(const Constellation& c) : Detector(c) {}

  const CVector& last_equalized() const { return equalized_; }

  std::string name() const override { return "MMSE"; }

 protected:
  void do_solve(const CVector& y, DetectionResult& out) override;
  /// Two mat-mat products (H^H Y, then Gram^{-1} against the result)
  /// instead of two mat-vecs per column.
  void do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) override;
  /// Packed regularized-Gram inversions across the batch
  /// (prepare/batch_linear.h); select copies slot i into the workspace.
  void do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                        double noise_var) override;
  void do_select_prepared(std::size_t i) override;

 private:
  linalg::CMatrix hh_;        ///< H^H.
  linalg::CMatrix gram_inv_;  ///< (H^H H + N0 I)^{-1}.
  prepare::BatchLinear batch_linear_;
  std::vector<prepare::GramInvSlot> slots_;
  CVector matched_;           ///< H^H y (per-solve scratch).
  CVector equalized_;
  linalg::CMatrix matched_batch_;    ///< Per-batch scratch (H^H Y).
  linalg::CMatrix equalized_batch_;  ///< Per-batch scratch.
};

}  // namespace geosphere
