#include "detect/sphere/sphere_decoder.h"

#include <algorithm>
#include <stdexcept>

#include "detect/sphere/center.h"

namespace geosphere::sphere {

template <class Enumerator>
void SphereDecoder<Enumerator>::finish_install() {
  const std::size_t nc = nc_;
  const double alpha = constellation().scale();
  if (level_enum_.size() != nc) {
    level_enum_.assign(nc, prototype_);
    level_scale_.assign(nc, 0.0);
    partial_dist_.assign(nc + 1, 0.0);
    current_.assign(nc, 0);
    best_.assign(nc, 0);
  }
  level_diag_.assign(nc, 0.0);
  for (std::size_t l = 0; l < nc; ++l) {
    const double rll = r_(l, l).real();
    level_scale_[l] = rll * rll * alpha * alpha;
    // The center denominator rll * alpha is the same product the search
    // used to form per node; hoisting it here is bit-identical.
    level_diag_[l] = rll * alpha;
  }
}

template <class Enumerator>
void SphereDecoder<Enumerator>::prepare_adopted(const linalg::CMatrix& h,
                                                const prepare::QrSlot& slot) {
  run_as_prepare([&] {
    const std::size_t nc = h.cols();
    const std::size_t na = h.rows();
    if (nc == 0 || na < nc)
      throw std::invalid_argument("SphereDecoder: requires 1 <= n_c <= n_a");
    if (!slot.rank_ok)
      throw std::domain_error(
          "SphereDecoder: channel matrix is (numerically) rank deficient");
    // Unsorted configuration assumed: the adopted factorization carries no
    // permutation.
    perm_ = identity_order(nc);
    na_ = na;
    nc_ = nc;
    qh_ = slot.qh;
    r_ = slot.r;
    finish_install();
  });
}

template <class Enumerator>
void SphereDecoder<Enumerator>::do_prepare_batch(const linalg::CMatrix* hs,
                                                 std::size_t count, double /*noise_var*/) {
  if (count == 0) return;
  const std::size_t nc = hs[0].cols();
  const std::size_t na = hs[0].rows();
  batch_shape_bad_ = nc == 0 || na < nc;
  if (batch_shape_bad_) return;  // invalid_argument, at select.

  slot_perm_.assign(count, {});
  if (config_.sorted_qr) {
    // Per-slot detection order, then QR of the permuted copies (the rank
    // tolerance inside the packed driver reads the permuted copy's
    // Frobenius norm).
    batch_hp_.resize(count);
    for (std::size_t s = 0; s < count; ++s) {
      slot_perm_[s] = column_norm_order(hs[s]);
      batch_hp_[s] = hs[s].select_cols(slot_perm_[s]);
    }
    batch_qr_.run(batch_hp_.data(), count, slot_qr_);
  } else {
    for (std::size_t s = 0; s < count; ++s) slot_perm_[s] = identity_order(nc);
    batch_qr_.run(hs, count, slot_qr_);
  }
  batch_na_ = na;
  batch_nc_ = nc;
}

template <class Enumerator>
void SphereDecoder<Enumerator>::do_select_prepared(std::size_t i) {
  if (batch_shape_bad_)
    throw std::invalid_argument("SphereDecoder: requires 1 <= n_c <= n_a");
  const prepare::QrSlot& slot = slot_qr_[i];
  if (!slot.rank_ok)
    throw std::domain_error("SphereDecoder: channel matrix is (numerically) rank deficient");
  na_ = batch_na_;
  nc_ = batch_nc_;
  perm_ = slot_perm_[i];
  qh_ = slot.qh;
  r_ = slot.r;
  finish_install();
}

template <class Enumerator>
bool SphereDecoder<Enumerator>::search(const cf64* yhat, DetectionStats& stats_out,
                                       cf64 root_center) {
  const std::size_t nc = nc_;
  const Constellation& cons = constellation();
  DetectionStats stats;  // Search-local, added to the caller's once.
  ++stats.tree_searches;

  double radius_sq = config_.initial_radius_sq;
  bool found = false;
  partial_dist_[nc] = 0.0;

  // Center of level l given decisions above it, in grid units (the shared
  // bit-exact kernel; see center.h).
  const auto center_at = [&](std::size_t l) {
    return tree_center(r_, yhat, l, current_.data(), cons, level_diag_[l]);
  };

  std::size_t level = nc - 1;
  level_enum_[level].reset(root_center, stats);

  for (;;) {
    const double budget = (radius_sq - partial_dist_[level + 1]) / level_scale_[level];
    const std::optional<Child> child = level_enum_[level].next(budget, stats);
    if (!child) {
      ++level;  // Backtrack.
      if (level == nc) break;
      continue;
    }
    ++stats.visited_nodes;
    current_[level] = cons.index_from_levels(child->li, child->lq);
    partial_dist_[level] = partial_dist_[level + 1] + level_scale_[level] * child->cost_grid;

    if (level == 0) {
      // Leaf inside the sphere: tighten the radius (Section 2.1) and keep
      // searching; the enumerator's sorted order guarantees the sibling
      // scan terminates immediately when nothing closer remains.
      radius_sq = partial_dist_[0];
      std::copy(current_.begin(), current_.end(), best_.begin());
      found = true;
    } else {
      --level;
      level_enum_[level].reset(center_at(level), stats);
    }
  }
  stats_out += stats;
  return found;
}

template <class Enumerator>
void SphereDecoder<Enumerator>::do_solve_batch(const linalg::CMatrix& y_batch,
                                               BatchResult& out) {
  if (y_batch.rows() != na_)
    throw std::invalid_argument("SphereDecoder: Y/H shape mismatch");

  // One SIMD-batched transposed rotation for the whole batch (vectors as
  // lanes; see simd/rotate.h): row v of (Q^H Y)^T is bit-identical to the
  // mat-vec Q^H y_v, so every search sees exactly its own vector's input,
  // read in place from one contiguous span. The root-center divides are
  // the only other batch-wide work, packed the same way.
  simd::rotate_transpose(qh_, y_batch, yhat_t_batch_, rot_scratch_);
  simd::packed_root_centers(yhat_t_batch_, nc_ - 1, level_diag_[nc_ - 1], root_centers_,
                            rot_scratch_);

  const std::size_t count = y_batch.cols();
  out.count = count;
  out.streams = nc_;
  out.indices.resize(count * nc_);
  DetectionStats stats;
  for (std::size_t v = 0; v < count; ++v) {
    if (!search(yhat_t_batch_.row_data(v), stats, root_centers_[v]))
      throw std::runtime_error(
          "SphereDecoder: no solution inside the configured initial radius");
    // Undo the detection-order permutation.
    unsigned* dst = out.indices.data() + v * nc_;
    for (std::size_t j = 0; j < nc_; ++j) dst[perm_[j]] = best_[j];
  }
  out.stats = stats;
}

template class SphereDecoder<GeoEnumerator>;
template class SphereDecoder<HessEnumerator>;
template class SphereDecoder<ShabanyEnumerator>;

std::unique_ptr<Detector> make_geosphere(const Constellation& c, SphereConfig config) {
  return make_geosphere_typed(c, config);
}

std::unique_ptr<SphereDecoder<GeoEnumerator>> make_geosphere_typed(const Constellation& c,
                                                                   SphereConfig config) {
  return std::make_unique<SphereDecoder<GeoEnumerator>>(
      c, GeoEnumerator({.geometric_pruning = true}), "Geosphere", config);
}

std::unique_ptr<Detector> make_geosphere_zigzag_only(const Constellation& c,
                                                     SphereConfig config) {
  return std::make_unique<SphereDecoder<GeoEnumerator>>(
      c, GeoEnumerator({.geometric_pruning = false}), "Geosphere-2DZZ", config);
}

std::unique_ptr<Detector> make_eth_sd(const Constellation& c, SphereConfig config) {
  return std::make_unique<SphereDecoder<HessEnumerator>>(c, HessEnumerator{}, "ETH-SD",
                                                         config);
}

std::unique_ptr<Detector> make_shabany_sd(const Constellation& c, SphereConfig config) {
  return std::make_unique<SphereDecoder<ShabanyEnumerator>>(c, ShabanyEnumerator{},
                                                            "Shabany-SD", config);
}

}  // namespace geosphere::sphere
