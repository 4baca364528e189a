#include "detect/fsd.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "detect/sphere/center.h"
#include "detect/sphere/simd/dispatch.h"

namespace geosphere {

FsdDetector::FsdDetector(const Constellation& c)
    : Detector(c), enumerator_({.geometric_pruning = false}) {
  enumerator_.attach(c);
}

void FsdDetector::do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                                   double /*noise_var*/) {
  if (count == 0) return;
  const std::size_t nc = hs[0].cols();
  batch_shape_bad_ = nc == 0 || hs[0].rows() < nc;
  if (batch_shape_bad_) return;  // invalid_argument, at select.
  batch_qr_.run(hs, count, slot_qr_);
}

void FsdDetector::do_select_prepared(std::size_t i) {
  if (batch_shape_bad_)
    throw std::invalid_argument("TreeProblem: requires 1 <= n_c <= n_a");
  const prepare::QrSlot& slot = slot_qr_[i];
  if (!slot.rank_ok)
    throw std::domain_error("TreeProblem: channel matrix is (numerically) rank deficient");
  problem_.install_factorized(slot.qh, slot.r, constellation());
}

void FsdDetector::do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) {
  problem_.rotate_batch(y_batch, yhat_t_batch_);
  const std::size_t nc = problem_.r.cols();
  const std::size_t count = y_batch.cols();
  out.count = count;
  out.streams = nc;
  out.indices.resize(count * nc);
  DetectionStats stats;
  for (std::size_t v = 0; v < count; ++v) {
    const std::vector<unsigned>& path = search(yhat_t_batch_.row_data(v), stats);
    for (std::size_t k = 0; k < nc; ++k) out.indices[v * nc + k] = path[k];
  }
  out.stats = stats;
}

const std::vector<unsigned>& FsdDetector::search(const cf64* yhat, DetectionStats& stats) {
  const std::size_t nc = problem_.r.cols();
  const Constellation& cons = constellation();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const sphere::simd::Kernel& kern = sphere::simd::active_kernel();

  // Full expansion of the top level.
  std::size_t used = 0;
  {
    const std::size_t top = nc - 1;
    root_.assign(nc, 0);
    enumerator_.reset(problem_.center(yhat, top, root_, cons), stats);
    while (const auto child = enumerator_.next(kInf, stats)) {
      ++stats.visited_nodes;
      // Grown independently: nc can change across prepares, so the flat
      // path rows are sized by (count, nc), not just count.
      if (paths_pd_.size() <= used) paths_pd_.resize(used + 1);
      if (paths_flat_.size() < (used + 1) * nc) paths_flat_.resize((used + 1) * nc);
      unsigned* p = paths_flat_.data() + used * nc;
      std::fill(p, p + nc, 0u);
      p[top] = cons.index_from_levels(child->li, child->lq);
      paths_pd_[used] = problem_.scale[top] * child->cost_grid;
      ++used;
    }
  }
  if (used == 0)
    throw std::runtime_error("FsdDetector: no solution found (unbounded search)");

  // Single-child (sliced) plunge, level-major: every path's decisions at a
  // level depend only on its own higher levels, so the paths are lockstep
  // lanes and each level's centers compute packed across all of them.
  for (std::size_t level = nc - 1; level-- > 0;) {
    centers_.resize(used);
    sphere::tree_center_lanes(
        problem_.r, yhat, level, cons, problem_.diag[level], kern, used,
        [&](std::size_t i, std::size_t j) { return paths_flat_[i * nc + j]; },
        centers_.data());
    for (std::size_t i = 0; i < used; ++i) {
      enumerator_.reset(centers_[i], stats);
      const auto child = enumerator_.next(kInf, stats);
      if (!child)
        throw std::runtime_error("FsdDetector: no solution found (unbounded search)");
      ++stats.visited_nodes;
      paths_flat_[i * nc + level] = cons.index_from_levels(child->li, child->lq);
      paths_pd_[i] += problem_.scale[level] * child->cost_grid;
    }
  }

  std::size_t best = 0;
  for (std::size_t i = 1; i < used; ++i)
    if (paths_pd_[i] < paths_pd_[best]) best = i;
  best_path_.assign(paths_flat_.begin() + static_cast<std::ptrdiff_t>(best * nc),
                    paths_flat_.begin() + static_cast<std::ptrdiff_t>((best + 1) * nc));
  return best_path_;
}

}  // namespace geosphere
