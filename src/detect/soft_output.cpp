#include "detect/soft_output.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "detect/sphere/center.h"

namespace geosphere {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

SoftGeosphereDetector::SoftGeosphereDetector(const Constellation& c, double llr_clamp)
    : Detector(c), llr_clamp_(llr_clamp),
      enum_proto_({.geometric_pruning = true}) {
  if (llr_clamp <= 0.0)
    throw std::invalid_argument("SoftGeosphereDetector: llr_clamp must be positive");
  enum_proto_.attach(c);

  // The per-bit counter-hypothesis masks depend only on the constellation,
  // so build all 2 * bits of them once instead of on every solve.
  const unsigned bits = c.bits_per_symbol();
  std::vector<std::uint8_t> sym_bits(bits);
  bit_masks_.assign(2 * static_cast<std::size_t>(bits),
                    std::vector<std::uint8_t>(c.order(), 0));
  for (unsigned idx = 0; idx < c.order(); ++idx) {
    c.bits_from_index(idx, sym_bits.data());
    for (unsigned b = 0; b < bits; ++b)
      bit_masks_[b * 2 + sym_bits[b]][idx] = 1;
  }
}

SoftGeosphereDetector::Search SoftGeosphereDetector::search(
    const cf64* yhat, cf64 root_center, double radius_sq, std::ptrdiff_t mask_level,
    const std::vector<std::uint8_t>* mask, DetectionStats& stats_out) {
  const std::size_t nc = scale_.size();
  const Constellation& cons = constellation();

  DetectionStats stats;  // Search-local, added to the caller's once.
  ++stats.tree_searches;
  Search out;
  out.best_dist = radius_sq;
  partial_[nc] = 0.0;

  const auto center_at = [&](std::size_t l) {
    return sphere::tree_center(r_, yhat, l, current_.data(), cons, diag_[l]);
  };

  std::size_t level = nc - 1;
  level_enum_[level].reset(root_center, stats);

  for (;;) {
    const double budget = (out.best_dist - partial_[level + 1]) / scale_[level];
    const auto child = level_enum_[level].next(budget, stats);
    if (!child) {
      ++level;
      if (level == nc) break;
      continue;
    }
    const unsigned idx = cons.index_from_levels(child->li, child->lq);
    // Constrained level: skip children outside the allowed subset. Skipped
    // children cost their enumeration PED but are never descended into --
    // the repeated-tree-search trade-off.
    if (mask != nullptr && static_cast<std::ptrdiff_t>(level) == mask_level &&
        !(*mask)[idx])
      continue;

    ++stats.visited_nodes;
    current_[level] = idx;
    partial_[level] = partial_[level + 1] + scale_[level] * child->cost_grid;
    if (level == 0) {
      out.best_dist = partial_[0];
      std::copy(current_.begin(), current_.end(), best_.begin());
      out.found = true;
    } else {
      --level;
      level_enum_[level].reset(center_at(level), stats);
    }
  }
  stats_out += stats;
  return out;
}

void SoftGeosphereDetector::do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                                             double noise_var) {
  if (count == 0) return;
  const std::size_t nc = hs[0].cols();
  // Validation order: shape first, then the noise variance; both throw for
  // every slot, deferred to select time.
  batch_error_ = 0;
  if (nc == 0 || hs[0].rows() < nc) {
    batch_error_ = 1;
    return;
  }
  if (noise_var <= 0.0) {
    batch_error_ = 2;
    return;
  }
  batch_qr_.run(hs, count, slot_qr_);
  batch_noise_var_ = noise_var;
  batch_na_ = hs[0].rows();
}

void SoftGeosphereDetector::do_select_prepared(std::size_t i) {
  if (batch_error_ == 1)
    throw std::invalid_argument("SoftGeosphereDetector: shape mismatch");
  if (batch_error_ == 2)
    throw std::invalid_argument("SoftGeosphereDetector: needs positive noise variance");
  const prepare::QrSlot& slot = slot_qr_[i];
  if (!slot.rank_ok)
    throw std::domain_error("SoftGeosphereDetector: rank-deficient channel");
  na_ = batch_na_;
  qh_ = slot.qh;
  r_ = slot.r;
  noise_var_ = batch_noise_var_;
  const std::size_t nc = r_.cols();
  const double alpha = constellation().scale();
  scale_.assign(nc, 0.0);
  diag_.assign(nc, 0.0);
  for (std::size_t l = 0; l < nc; ++l) {
    const double rll = r_(l, l).real();
    scale_[l] = rll * rll * alpha * alpha;
    // Same product the per-node center division used to form -- hoisted
    // once per channel, bit-identical.
    diag_[l] = rll * alpha;
  }
  if (level_enum_.size() != nc) {
    level_enum_.assign(nc, enum_proto_);
    current_.assign(nc, 0);
    partial_.assign(nc + 1, 0.0);
    best_.assign(nc, 0);
  }
}

void SoftGeosphereDetector::rotate(const linalg::CMatrix& y_batch) {
  if (y_batch.rows() != na_)
    throw std::invalid_argument("SoftGeosphereDetector: shape mismatch");
  // One SIMD-batched rotation and packed root centers for the whole batch:
  // row v of (Q^H Y)^T is bit-identical to the mat-vec Q^H y_v (see
  // simd/rotate.h), and every search of one vector shares its root center.
  const std::size_t nc = scale_.size();
  sphere::simd::rotate_transpose(qh_, y_batch, yhat_t_batch_, rot_scratch_);
  sphere::simd::packed_root_centers(yhat_t_batch_, nc - 1, diag_[nc - 1], root_centers_,
                                    rot_scratch_);
}

void SoftGeosphereDetector::do_solve_batch(const linalg::CMatrix& y_batch,
                                           BatchResult& out) {
  rotate(y_batch);
  const std::size_t nc = scale_.size();
  const std::size_t count = y_batch.cols();
  out.count = count;
  out.streams = nc;
  out.indices.resize(count * nc);
  DetectionStats stats;
  // There is no column permutation here, so the paths copy straight out.
  for (std::size_t v = 0; v < count; ++v) {
    if (!search(yhat_t_batch_.row_data(v), root_centers_[v], kInf, -1, nullptr, stats)
             .found)
      throw std::runtime_error(
          "SoftGeosphereDetector: no solution found (unbounded search)");
    std::copy(best_.begin(), best_.end(),
              out.indices.begin() + static_cast<std::ptrdiff_t>(v * nc));
  }
  out.stats = stats;
}

void SoftGeosphereDetector::do_solve_soft_batch(const linalg::CMatrix& y_batch,
                                                SoftBatchResult& out) {
  rotate(y_batch);
  const std::size_t nc = scale_.size();
  const unsigned bits = constellation().bits_per_symbol();
  const std::size_t count = y_batch.cols();
  out.count = count;
  out.streams = nc;
  out.indices.resize(count * nc);
  out.llrs.resize(count * nc * bits);
  DetectionStats stats;
  for (std::size_t v = 0; v < count; ++v)
    solve_soft_row(yhat_t_batch_.row_data(v), root_centers_[v], out.indices.data() + v * nc,
                   out.llrs.data() + v * nc * bits, stats);
  out.stats = stats;
}

void SoftGeosphereDetector::solve_soft_row(const cf64* yhat, cf64 root_center,
                                           unsigned* indices, double* llrs,
                                           DetectionStats& stats) {
  const std::size_t nc = scale_.size();
  const Constellation& cons = constellation();
  const unsigned bits = cons.bits_per_symbol();

  // Unconstrained pass: ML solution.
  const Search ml = search(yhat, root_center, kInf, -1, nullptr, stats);
  if (!ml.found)
    throw std::runtime_error("SoftGeosphereDetector: no solution found (unbounded search)");
  std::copy(best_.begin(), best_.end(), indices);
  ml_bits_.resize(bits);

  // Counter-hypothesis radius: LLR magnitudes are clamped, so any solution
  // farther than d_ml + clamp * N0 cannot change the result.
  const double counter_radius = ml.best_dist + llr_clamp_ * noise_var_;

  for (std::size_t k = 0; k < nc; ++k) {
    cons.bits_from_index(indices[k], ml_bits_.data());
    for (unsigned b = 0; b < bits; ++b) {
      // Allowed set: symbols whose bit b is the complement of the ML bit.
      // The counter search only reports its distance; its path in best_
      // is not read.
      const unsigned want = ml_bits_[b] ^ 1u;
      const std::vector<std::uint8_t>& mask = bit_masks_[b * 2 + want];
      const Search counter = search(yhat, root_center, counter_radius,
                                    static_cast<std::ptrdiff_t>(k), &mask, stats);
      const double delta = counter.found
                               ? (counter.best_dist - ml.best_dist) / noise_var_
                               : llr_clamp_;
      // Positive LLR favours bit 0.
      const double magnitude = std::min(delta, llr_clamp_);
      llrs[k * bits + b] = (ml_bits_[b] == 0) ? magnitude : -magnitude;
    }
  }
}

}  // namespace geosphere
