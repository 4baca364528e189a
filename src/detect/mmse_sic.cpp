#include "detect/mmse_sic.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace geosphere {

void MmseSicDetector::do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                                       double noise_var) {
  if (count == 0) return;
  const std::size_t na = hs[0].rows();
  const std::size_t nc = hs[0].cols();

  if (slot_stages_.size() < count) slot_stages_.resize(count);
  if (hsubs_.size() < count) hsubs_.resize(count);
  slot_singular_.assign(count, 0);

  // Per-slot detection order: descending received stream SNR = column
  // energy (linalg::norm_sq's sum, in place). std::sort is not stable, so
  // it sorts the same iota input as ever to break ties the same way.
  order_.resize(count * nc);
  energy_.resize(nc);
  for (std::size_t s = 0; s < count; ++s) {
    const linalg::CMatrix& h = hs[s];
    for (std::size_t k = 0; k < nc; ++k) {
      double e = 0.0;
      for (std::size_t i = 0; i < na; ++i) e += std::norm(h(i, k));
      energy_[k] = e;
    }
    std::size_t* order = order_.data() + s * nc;
    std::iota(order, order + nc, std::size_t{0});
    std::sort(order, order + nc,
              [&](std::size_t a, std::size_t b) { return energy_[a] > energy_[b]; });
    slot_stages_[s].resize(nc);
  }

  // Stage-major: every slot's stage-k reduced system has the same shape, so
  // one packed Gram inversion covers the whole batch per stage. Each stage
  // filters over the remaining (uncancelled) streams only, order[k..nc);
  // the target stream is the first column of the reduced system, so only
  // row 0 of the inverted Gram matrix is ever applied.
  for (std::size_t k = 0; k < nc; ++k) {
    const std::size_t rem = nc - k;
    for (std::size_t s = 0; s < count; ++s) {
      const std::size_t* remaining = order_.data() + s * nc + k;
      linalg::CMatrix& hsub = hsubs_[s];
      hsub.resize_shape(na, rem);
      for (std::size_t i = 0; i < na; ++i)
        for (std::size_t j = 0; j < rem; ++j) hsub(i, j) = hs[s](i, remaining[j]);
    }
    batch_linear_.gram_inverse(hsubs_.data(), count, /*add_noise=*/true, noise_var,
                               gram_slots_);
    for (std::size_t s = 0; s < count; ++s) {
      const prepare::GramInvSlot& slot = gram_slots_[s];
      if (slot.singular) slot_singular_[s] = 1;
      Stage& stage = slot_stages_[s][k];
      stage.target = order_[s * nc + k];
      stage.hh = slot.hh;
      stage.filter_row.assign(slot.inv.row_data(0), slot.inv.row_data(0) + rem);
      hs[s].col_into(stage.target, stage.column);
    }
  }
}

void MmseSicDetector::do_select_prepared(std::size_t i) {
  // Any singular stage makes the whole cascade unusable.
  if (slot_singular_[i]) throw std::domain_error("inverse/solve: singular matrix");
  selected_ = i;
}

void MmseSicDetector::do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) {
  // Stage-major: one mat-mat matched filter per stage across the batch.
  // Each matched-filter column is bit-identical to the mat-vec of that
  // column's residual, and the dot product and cancellation touch only
  // their own column, so a vector's decisions do not depend on its column
  // or the batch size.
  const std::vector<Stage>& stages = slot_stages_[selected_];
  const std::size_t nc = stages.size();
  const std::size_t na = y_batch.rows();
  const std::size_t count = y_batch.cols();
  out.count = count;
  out.streams = nc;
  out.indices.assign(count * nc, 0);
  DetectionStats stats;
  residual_ = y_batch;

  for (const Stage& stage : stages) {
    multiply_into(stage.hh, residual_, matched_);
    const std::size_t rem = stage.hh.rows();
    for (std::size_t v = 0; v < count; ++v) {
      cf64 est{};
      for (std::size_t j = 0; j < rem; ++j)
        est += stage.filter_row[j] * matched_(j, v);

      const unsigned idx = constellation().slice(est);
      ++stats.slicer_ops;
      out.indices[v * nc + stage.target] = idx;

      // Cancel the hard decision from the residual.
      const cf64 s = constellation().point(idx);
      for (std::size_t i = 0; i < na; ++i)
        residual_(i, v) -= stage.column[i] * s;
    }
  }
  out.stats = stats;
}

}  // namespace geosphere
