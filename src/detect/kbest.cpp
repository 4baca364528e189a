#include "detect/kbest.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "detect/sphere/center.h"
#include "detect/sphere/simd/dispatch.h"

namespace geosphere {

KBestDetector::KBestDetector(const Constellation& c, unsigned k)
    : Detector(c), k_(k), enumerator_({.geometric_pruning = false}) {
  if (k == 0) throw std::invalid_argument("KBestDetector: k must be >= 1");
  enumerator_.attach(c);
}

std::string KBestDetector::name() const { return "KBest-" + std::to_string(k_); }

void KBestDetector::do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                                     double /*noise_var*/) {
  if (count == 0) return;
  const std::size_t nc = hs[0].cols();
  batch_shape_bad_ = nc == 0 || hs[0].rows() < nc;
  if (batch_shape_bad_) return;  // invalid_argument, at select.
  batch_qr_.run(hs, count, slot_qr_);
}

void KBestDetector::do_select_prepared(std::size_t i) {
  if (batch_shape_bad_)
    throw std::invalid_argument("TreeProblem: requires 1 <= n_c <= n_a");
  const prepare::QrSlot& slot = slot_qr_[i];
  if (!slot.rank_ok)
    throw std::domain_error("TreeProblem: channel matrix is (numerically) rank deficient");
  problem_.install_factorized(slot.qh, slot.r, constellation());
}

void KBestDetector::do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) {
  problem_.rotate_batch(y_batch, yhat_t_batch_);
  const std::size_t nc = problem_.r.cols();
  const std::size_t count = y_batch.cols();
  out.count = count;
  out.streams = nc;
  out.indices.resize(count * nc);
  DetectionStats stats;
  for (std::size_t v = 0; v < count; ++v) {
    search(yhat_t_batch_.row_data(v), stats);
    for (std::size_t k = 0; k < nc; ++k) out.indices[v * nc + k] = surv_path_[k];
  }
  out.stats = stats;
}

void KBestDetector::search(const cf64* yhat, DetectionStats& stats) {
  const std::size_t nc = problem_.r.cols();
  const Constellation& cons = constellation();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const sphere::simd::Kernel& kern = sphere::simd::active_kernel();

  surv_pd_.assign(1, 0.0);
  surv_path_.assign(nc, 0);
  std::size_t survivor_count = 1;

  for (std::size_t level = nc; level-- > 0;) {
    // The survivors are lockstep lanes at this level: their centers share
    // one broadcast r(level, j) per term through the dispatched kernel.
    centers_.resize(survivor_count);
    sphere::tree_center_lanes(
        problem_.r, yhat, level, cons, problem_.diag[level], kern, survivor_count,
        [&](std::size_t s, std::size_t j) { return surv_path_[s * nc + j]; },
        centers_.data());

    std::size_t used = 0;
    for (std::size_t s = 0; s < survivor_count; ++s) {
      enumerator_.reset(centers_[s], stats);
      // The sorted enumerator delivers children best-first, so K children
      // per survivor suffice to find the global K best (sorted K-best).
      for (unsigned t = 0; t < k_; ++t) {
        const auto child = enumerator_.next(kInf, stats);
        if (!child) break;
        ++stats.visited_nodes;
        // Grown independently: nc can change across prepares, so the flat
        // path rows are sized by (count, nc), not just count.
        if (exp_pd_.size() <= used) exp_pd_.resize(used + 1);
        if (exp_path_.size() < (used + 1) * nc) exp_path_.resize((used + 1) * nc);
        unsigned* next = exp_path_.data() + used * nc;
        std::copy(surv_path_.data() + s * nc, surv_path_.data() + (s + 1) * nc, next);
        next[level] = cons.index_from_levels(child->li, child->lq);
        exp_pd_[used] = surv_pd_[s] + problem_.scale[level] * child->cost_grid;
        ++used;
      }
    }
    if (used == 0)
      throw std::runtime_error("KBestDetector: no solution found (unbounded search)");
    // Sort (pd, slot) keys instead of whole candidates. The comparator
    // reads pd alone, so std::sort's comparison/swap sequence -- and with
    // it the resulting permutation, ties included -- is the same one the
    // array-of-structs sort produced.
    order_.resize(used);
    for (std::size_t i = 0; i < used; ++i)
      order_[i] = {exp_pd_[i], static_cast<unsigned>(i)};
    std::sort(order_.begin(), order_.end(),
              [](const std::pair<double, unsigned>& a,
                 const std::pair<double, unsigned>& b) { return a.first < b.first; });
    survivor_count = std::min<std::size_t>(used, k_);
    surv_pd_.resize(survivor_count);
    surv_path_.resize(survivor_count * nc);
    for (std::size_t s = 0; s < survivor_count; ++s) {
      const std::size_t slot = order_[s].second;
      surv_pd_[s] = exp_pd_[slot];
      std::copy(exp_path_.data() + slot * nc, exp_path_.data() + (slot + 1) * nc,
                surv_path_.data() + s * nc);
    }
  }
}

}  // namespace geosphere
