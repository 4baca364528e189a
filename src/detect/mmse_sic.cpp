#include "detect/mmse_sic.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace geosphere {

void MmseSicDetector::do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                                       double noise_var) {
  if (count == 0) return;
  const std::size_t nc = hs[0].cols();

  slot_stages_.assign(count, {});
  slot_singular_.assign(count, 0);

  // Per-slot detection order: descending received stream SNR = column
  // energy.
  std::vector<std::vector<std::size_t>> remaining(count);
  std::vector<double> energy(nc);
  for (std::size_t s = 0; s < count; ++s) {
    std::vector<std::size_t>& order = remaining[s];
    order.resize(nc);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t k = 0; k < nc; ++k) energy[k] = linalg::norm_sq(hs[s].col(k));
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return energy[a] > energy[b]; });
    slot_stages_[s].reserve(nc);
  }

  // Stage-major: every slot's stage-k reduced system has the same shape, so
  // one packed Gram inversion covers the whole batch per stage. Each stage
  // filters over the remaining (uncancelled) streams only; the target
  // stream is the first column of the reduced system, so only row 0 of the
  // inverted Gram matrix is ever applied.
  std::vector<linalg::CMatrix> hsubs(count);
  std::vector<prepare::GramInvSlot> gram_slots;
  for (std::size_t k = 0; k < nc; ++k) {
    for (std::size_t s = 0; s < count; ++s)
      hsubs[s] = hs[s].select_cols(remaining[s]);
    batch_linear_.gram_inverse(hsubs.data(), count, /*add_noise=*/true, noise_var,
                               gram_slots);
    for (std::size_t s = 0; s < count; ++s) {
      if (gram_slots[s].singular) slot_singular_[s] = 1;
      Stage stage;
      stage.target = remaining[s].front();
      stage.hh = std::move(gram_slots[s].hh);
      stage.filter_row = gram_slots[s].inv.row(0);
      stage.column = hs[s].col(stage.target);
      slot_stages_[s].push_back(std::move(stage));
      remaining[s].erase(remaining[s].begin());
    }
  }
}

void MmseSicDetector::do_select_prepared(std::size_t i) {
  // Any singular stage makes the whole cascade unusable.
  if (slot_singular_[i]) throw std::domain_error("inverse/solve: singular matrix");
  stages_ = slot_stages_[i];
}

void MmseSicDetector::do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) {
  // Stage-major: one mat-mat matched filter per stage across the batch.
  // Each matched-filter column is bit-identical to the mat-vec of that
  // column's residual, and the dot product and cancellation touch only
  // their own column, so a vector's decisions do not depend on its column
  // or the batch size.
  const std::size_t nc = stages_.size();
  const std::size_t na = y_batch.rows();
  const std::size_t count = y_batch.cols();
  out.count = count;
  out.streams = nc;
  out.indices.assign(count * nc, 0);
  DetectionStats stats;
  residual_ = y_batch;

  for (const Stage& stage : stages_) {
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
