#include "detect/soft_sts.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "detect/sphere/center.h"

namespace geosphere {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

SoftGeosphereStsDetector::SoftGeosphereStsDetector(const Constellation& c,
                                                   double llr_clamp)
    : Detector(c), llr_clamp_(llr_clamp), problem_("SoftGeosphereStsDetector", c.scale()),
      enum_proto_({.geometric_pruning = true}) {
  if (llr_clamp <= 0.0)
    throw std::invalid_argument("SoftGeosphereStsDetector: llr_clamp must be positive");
  enum_proto_.attach(c);

  // Pack each symbol's bits into one word so the leaf updates can diff a
  // whole symbol against the ML candidate with a single XOR.
  const unsigned bits = c.bits_per_symbol();
  std::vector<std::uint8_t> sym_bits(bits);
  bit_word_.assign(c.order(), 0);
  for (unsigned idx = 0; idx < c.order(); ++idx) {
    c.bits_from_index(idx, sym_bits.data());
    for (unsigned b = 0; b < bits; ++b)
      if (sym_bits[b]) bit_word_[idx] |= 1u << b;
  }
}

void SoftGeosphereStsDetector::do_prepare_batch(const linalg::CMatrix* hs,
                                                std::size_t count, double noise_var) {
  noise_var_ = noise_var;
  problem_.prepare_batch(hs, count);
}

void SoftGeosphereStsDetector::do_select_prepared(std::size_t i) {
  problem_.check_shape();
  if (!(noise_var_ > 0.0))  // NaN fails too.
    throw std::invalid_argument(
        "SoftGeosphereStsDetector: needs positive noise variance");
  problem_.select(i);
  const std::size_t nc = problem_.nc;
  search_.resize(nc, enum_proto_);
  if (ml_best_.size() != nc) {
    ml_best_.assign(nc, 0);
    ml_word_.assign(nc, 0);
    radius_epoch_.assign(nc, 0);
    radius_cache_.assign(nc, 0.0);
    decided_max_.assign(nc, 0.0);
    row_max_.assign(nc, kInf);
    open_max_.assign(nc, kInf);
  }
  lambda_bar_.assign(nc * constellation().bits_per_symbol(), kInf);
}

inline double SoftGeosphereStsDetector::masked_row_max(std::size_t j) const {
  const unsigned bits = constellation().bits_per_symbol();
  const unsigned diff = bit_word_[search_.current[j]] ^ ml_word_[j];
  const double* row = lambda_bar_.data() + j * bits;
  // Decided row: this subtree can only serve bits whose path value already
  // differs from the ML candidate's -- other bits' counter-hypotheses live
  // in sibling subtrees (and a later ML flip re-admits its bits at
  // old-lambda_ml, which every prune here respected). A masked-off bit
  // reads as +0.0 through an all-zero mask, with no branch per bit.
  double m = 0.0;
  for (unsigned b = 0; b < bits; ++b) {
    const std::uint64_t keep = std::uint64_t{0} - ((diff >> b) & 1u);
    m = std::max(m, std::bit_cast<double>(std::bit_cast<std::uint64_t>(row[b]) & keep));
  }
  return m;
}

inline void SoftGeosphereStsDetector::set_radius(std::size_t level, double decided) {
  // Open levels (<= `level`): both bit values are still reachable below,
  // so every bit of those rows counts -- their prefix max is open_max_.
  // Clamp bound: leaves at lambda_ml + clamp * N0 or farther saturate the
  // LLR in both soft strategies, so they never need to be visited. Same
  // expression as the reference detector's counter_radius.
  const double r = std::max(std::max(lambda_ml_, decided), open_max_[level]);
  decided_max_[level] = decided;
  radius_cache_[level] = std::min(r, lambda_ml_ + llr_clamp_ * noise_var_);
  radius_epoch_[level] = epoch_;
}

inline void SoftGeosphereStsDetector::leaf_update(DetectionStats& stats) {
  const std::size_t nc = problem_.nc;
  const unsigned bits = constellation().bits_per_symbol();
  const double d = search_.partial[0];

  if (!ml_found_) {
    // First leaf: becomes the ML candidate; no other visited leaf exists
    // yet, so the counter table stays empty.
    for (std::size_t k = 0; k < nc; ++k) {
      ml_best_[k] = search_.current[k];
      ml_word_[k] = bit_word_[search_.current[k]];
    }
    lambda_ml_ = d;
    ml_found_ = true;
    ++epoch_;
    return;
  }

  // Lowest table row written by this leaf (nc: none); rows it writes get
  // their row max refreshed, and the prefix max from it upward.
  std::size_t lowest = nc;
  const auto refresh_row = [&](std::size_t k) {
    const double* row = lambda_bar_.data() + k * bits;
    double m = row[0];
    for (unsigned b = 1; b < bits; ++b) m = std::max(m, row[b]);
    row_max_[k] = m;
    lowest = std::min(lowest, k);
  };

  const bool flip = d < lambda_ml_;
  for (std::size_t k = 0; k < nc; ++k) {
    const unsigned w = bit_word_[search_.current[k]];
    unsigned diff = w ^ ml_word_[k];
    bool row_changed = false;
    for (; diff != 0; diff &= diff - 1) {
      const std::size_t slot = k * bits + static_cast<unsigned>(std::countr_zero(diff));
      if (flip) {
        // ML flip: for every bit where the new leaf differs, the OLD
        // candidate is the closest visited leaf with the now-countered
        // value (lambda_ml is the min over all visited leaves), so old
        // lambda_ml is the exact new counter distance -- and it never
        // exceeds the slot's old value.
        lambda_bar_[slot] = lambda_ml_;
      } else if (d < lambda_bar_[slot]) {
        // Ordinary leaf: a counter-hypothesis candidate for every
        // differing bit.
        lambda_bar_[slot] = d;
      } else {
        continue;
      }
      ++stats.counter_updates;
      row_changed = true;
    }
    if (row_changed) refresh_row(k);
    if (flip) {
      ml_best_[k] = search_.current[k];
      ml_word_[k] = w;
    }
  }
  if (flip) lambda_ml_ = d;
  for (std::size_t j = lowest; j < nc; ++j)
    open_max_[j] = j == 0 ? row_max_[0] : std::max(open_max_[j - 1], row_max_[j]);
  if (flip || lowest < nc) ++epoch_;
}

void SoftGeosphereStsDetector::sts_search(const cf64* yhat, cf64 root_center,
                                          DetectionStats& stats_out) {
  const std::size_t nc = problem_.nc;
  const Constellation& cons = constellation();
  DetectionStats stats;  // Search-local, added to the caller's once.
  ++stats.tree_searches;

  ml_found_ = false;
  lambda_ml_ = kInf;
  std::fill(lambda_bar_.begin(), lambda_bar_.end(), kInf);
  std::fill(row_max_.begin(), row_max_.end(), kInf);
  std::fill(open_max_.begin(), open_max_.end(), kInf);
  // epoch_ = 1 with all stamps at 0 marks every cached radius stale.
  epoch_ = 1;
  std::fill(radius_epoch_.begin(), radius_epoch_.end(), 0);
  search_.partial[nc] = 0.0;

  const auto center_at = [&](std::size_t l) {
    return sphere::tree_center(problem_.r, yhat, l, search_.current.data(), cons,
                               problem_.diag[l]);
  };

  std::size_t level = nc - 1;
  search_.level_enum[level].reset(root_center, stats);

  for (;;) {
    // A level's radius is set on descent; a table or ML change since then
    // (a newer epoch) recomputes its decided part over every decided row.
    if (radius_epoch_[level] != epoch_) {
      double decided = 0.0;
      for (std::size_t j = level + 1; j < nc; ++j)
        decided = std::max(decided, masked_row_max(j));
      set_radius(level, decided);
    }
    const double budget =
        (radius_cache_[level] - search_.partial[level + 1]) / problem_.scale[level];
    const auto child = search_.level_enum[level].next(budget, stats);
    if (!child) {
      ++level;
      if (level == nc) break;
      continue;
    }
    ++stats.visited_nodes;
    search_.current[level] = cons.index_from_levels(child->li, child->lq);
    search_.partial[level] =
        search_.partial[level + 1] + problem_.scale[level] * child->cost_grid;
    if (level == 0) {
      leaf_update(stats);
    } else {
      // The path grew by row `level`, and this level's radius is current
      // (set above at this epoch): the child's decided part adds one row.
      const double decided = std::max(decided_max_[level], masked_row_max(level));
      --level;
      search_.level_enum[level].reset(center_at(level), stats);
      set_radius(level, decided);
    }
  }
  stats_out += stats;

  if (!ml_found_)
    throw std::runtime_error(
        "SoftGeosphereStsDetector: no solution found (unbounded search)");
}

void SoftGeosphereStsDetector::emit_llrs(double* llrs) const {
  const std::size_t nc = problem_.nc;
  const unsigned bits = constellation().bits_per_symbol();
  // Identical formulas (and expression order) to the repeated-tree-search
  // reference: a counter-hypothesis counts as "found" only strictly inside
  // the clamp radius, then its LLR magnitude is min(delta, clamp). Together
  // with the exactness of lambda_bar below that radius, every emitted LLR
  // is bit-identical to the reference detector's.
  const double counter_radius = lambda_ml_ + llr_clamp_ * noise_var_;
  for (std::size_t k = 0; k < nc; ++k) {
    for (unsigned b = 0; b < bits; ++b) {
      const double lbar = lambda_bar_[k * bits + b];
      const double delta =
          lbar < counter_radius ? (lbar - lambda_ml_) / noise_var_ : llr_clamp_;
      // Positive LLR favours bit 0.
      const double magnitude = std::min(delta, llr_clamp_);
      const unsigned ml_bit = (ml_word_[k] >> b) & 1u;
      llrs[k * bits + b] = (ml_bit == 0) ? magnitude : -magnitude;
    }
  }
}

void SoftGeosphereStsDetector::do_solve_batch(const linalg::CMatrix& y_batch,
                                              BatchResult& out) {
  problem_.rotate(y_batch);
  const std::size_t nc = problem_.nc;
  const std::size_t count = y_batch.cols();
  out.count = count;
  out.streams = nc;
  out.indices.resize(count * nc);
  DetectionStats stats;
  for (std::size_t v = 0; v < count; ++v) {
    if (!search_.run(problem_, problem_.yhat_t.row_data(v), problem_.root_centers[v],
                     constellation(), stats))
      throw std::runtime_error(
          "SoftGeosphereStsDetector: no solution found (unbounded search)");
    std::copy(search_.best.begin(), search_.best.end(),
              out.indices.begin() + static_cast<std::ptrdiff_t>(v * nc));
  }
  out.stats = stats;
}

void SoftGeosphereStsDetector::do_solve_soft_batch(const linalg::CMatrix& y_batch,
                                                   SoftBatchResult& out) {
  problem_.rotate(y_batch);
  // One STS pass per column against warm workspaces.
  const std::size_t nc = problem_.nc;
  const unsigned bits = constellation().bits_per_symbol();
  const std::size_t count = y_batch.cols();
  out.count = count;
  out.streams = nc;
  out.indices.resize(count * nc);
  out.llrs.resize(count * nc * bits);
  DetectionStats stats;
  for (std::size_t v = 0; v < count; ++v) {
    sts_search(problem_.yhat_t.row_data(v), problem_.root_centers[v], stats);
    std::copy(ml_best_.begin(), ml_best_.end(),
              out.indices.begin() + static_cast<std::ptrdiff_t>(v * nc));
    emit_llrs(out.llrs.data() + (v * nc) * bits);
  }
  out.stats = stats;
}

}  // namespace geosphere
