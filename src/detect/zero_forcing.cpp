#include "detect/zero_forcing.h"

#include <stdexcept>

namespace geosphere {

void ZeroForcingDetector::do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                                           double /*noise_var*/) {
  if (count == 0) return;
  if (hs[0].rows() < hs[0].cols()) {
    // pseudo_inverse's shape check, deferred to select time per slot.
    slot_errors_.assign(count, 1);
    return;
  }
  batch_linear_.pseudo_inverse(hs, count, slot_filters_, slot_errors_);
  for (auto& e : slot_errors_)
    if (e != 0) e = 2;
}

void ZeroForcingDetector::do_select_prepared(std::size_t i) {
  if (slot_errors_[i] == 1)
    throw std::invalid_argument("pseudo_inverse expects a tall (or square) matrix");
  if (slot_errors_[i] == 2) throw std::domain_error("inverse/solve: singular matrix");
  filter_ = slot_filters_[i];
}

void ZeroForcingDetector::do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) {
  // Column v of filter_ * Y is bit-identical to the mat-vec filter_ * y_v
  // (the multiply_into accumulation-order guarantee), whatever the batch
  // size, so a vector's decisions do not depend on its column.
  multiply_into(filter_, y_batch, equalized_);
  const std::size_t nc = filter_.rows();
  const std::size_t count = y_batch.cols();
  out.count = count;
  out.streams = nc;
  out.indices.resize(count * nc);
  DetectionStats stats;
  for (std::size_t v = 0; v < count; ++v)
    for (std::size_t k = 0; k < nc; ++k) {
      out.indices[v * nc + k] = constellation().slice(equalized_(k, v));
      ++stats.slicer_ops;
    }
  out.stats = stats;
}

}  // namespace geosphere
