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
/// regularized Gram matrix once; solve_batch() is two mat-mat products
/// plus slicing, and solve() runs it on a one-column Y.
class MmseDetector final : public Detector {
 public:
  explicit MmseDetector(const Constellation& c) : Detector(c) {}

  /// Equalizer output of the most recent solve: n_c x count, column v for
  /// received vector v (one column after solve()).
  const linalg::CMatrix& last_equalized() const { return equalized_; }

  std::string name() const override { return "MMSE"; }

 protected:
  /// Two mat-mat products (H^H Y, then Gram^{-1} against the result),
  /// then per-stream slicing.
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
  linalg::CMatrix matched_;    ///< Per-batch scratch (H^H Y).
  linalg::CMatrix equalized_;  ///< Gram^{-1} H^H Y of the last solve.
};

}  // namespace geosphere
