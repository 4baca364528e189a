#include "detect/mmse.h"

#include <stdexcept>

namespace geosphere {

void MmseDetector::do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                                    double noise_var) {
  batch_linear_.gram_inverse(hs, count, /*add_noise=*/true, noise_var, slots_);
}

void MmseDetector::do_select_prepared(std::size_t i) {
  const prepare::GramInvSlot& slot = slots_[i];
  if (slot.singular) throw std::domain_error("inverse/solve: singular matrix");
  hh_ = slot.hh;
  gram_inv_ = slot.inv;
}

void MmseDetector::do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) {
  // Each mat-mat column is bit-identical to the corresponding mat-vec, and
  // the second product consumes the first's columns unchanged -- so a
  // vector's equalizer output does not depend on its column or the batch
  // size, down to the last bit.
  multiply_into(hh_, y_batch, matched_);
  multiply_into(gram_inv_, matched_, equalized_);
  const std::size_t nc = gram_inv_.rows();
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
