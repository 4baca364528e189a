#include "detect/sphere/tree_problem.h"

#include <stdexcept>
#include <string>

namespace geosphere::sphere {

// Messages are built on the throwing paths only: a warm select or rotate
// must not allocate.

void TreeProblem::prepare_batch(const linalg::CMatrix* hs, std::size_t count) {
  if (count == 0) return;
  shape_bad_ = hs[0].cols() == 0 || hs[0].rows() < hs[0].cols();
  if (!shape_bad_) batch_qr_.run(hs, count, slots_);
}

void TreeProblem::check_shape() const {
  if (shape_bad_)
    throw std::invalid_argument(std::string(who_) + ": requires 1 <= n_c <= n_a");
}

void TreeProblem::select(std::size_t i) {
  check_shape();
  const prepare::QrSlot& slot = slots_[i];
  if (!slot.rank_ok)
    throw std::domain_error(std::string(who_) +
                            ": channel matrix is (numerically) rank deficient");
  na = slot.qh.cols();
  nc = slot.r.cols();
  qh = slot.qh;
  r = slot.r;
  scale.resize(nc);
  diag.resize(nc);
  for (std::size_t l = 0; l < nc; ++l) {
    const double rll = r(l, l).real();
    scale[l] = rll * rll * alpha_ * alpha_;
    diag[l] = rll * alpha_;
  }
}

void TreeProblem::rotate(const linalg::CMatrix& y_batch) {
  if (y_batch.rows() != na)
    throw std::invalid_argument(std::string(who_) + ": Y/H shape mismatch");
  simd::rotate_transpose(qh, y_batch, yhat_t, rot_scratch_);
  simd::packed_root_centers(yhat_t, nc - 1, diag[nc - 1], root_centers, rot_scratch_);
}

}  // namespace geosphere::sphere
