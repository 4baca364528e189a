#include "detect/sphere/enumerators.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace geosphere::sphere {

using detail::argmin_cost;
using detail::grid_coord;

// ---- HessEnumerator --------------------------------------------------------

void HessEnumerator::attach(const Constellation& c) {
  levels_ = c.pam_levels();
  rows_.resize(static_cast<std::size_t>(levels_));
}

double HessEnumerator::cost_of(int li, int lq) const {
  const double dx = grid_coord(li, levels_) - ci_;
  const double dy = grid_coord(lq, levels_) - cq_;
  return dx * dx + dy * dy;
}

void HessEnumerator::reset(cf64 center, DetectionStats& stats) {
  assert(levels_ > 0 && "attach() must be called before reset()");
  ci_ = center.real();
  cq_ = center.imag();
  ++stats.slicer_ops;
  // The method's inherent cost: one exact distance per horizontal row up
  // front, so the cross-row comparison can deliver the global minimum.
  for (int lq = 0; lq < levels_; ++lq) {
    Row& row = rows_[static_cast<std::size_t>(lq)];
    row.zigzag.reset(ci_, levels_);
    row.li = row.zigzag.take();
    row.cost = cost_of(row.li, lq);
    ++stats.ped_computations;
    row.active = true;
    row.needs_refill = false;
  }
}

std::optional<Child> HessEnumerator::next(double budget, DetectionStats& stats) {
  // Refill rows whose candidate was consumed by a previous call (lazy, so
  // the final pop of a node does not pay for a successor it never uses --
  // generous accounting for the baseline).
  for (int lq = 0; lq < levels_; ++lq) {
    Row& row = rows_[static_cast<std::size_t>(lq)];
    if (!row.active || !row.needs_refill) continue;
    row.needs_refill = false;
    if (row.zigzag.done()) {
      row.active = false;
      continue;
    }
    row.li = row.zigzag.take();
    row.cost = cost_of(row.li, lq);
    ++stats.ped_computations;
    if (row.cost >= budget) row.active = false;  // Sorted within the row.
  }

  int best_lq = -1;
  for (int lq = 0; lq < levels_; ++lq) {
    const Row& row = rows_[static_cast<std::size_t>(lq)];
    if (!row.active) continue;
    if (best_lq < 0 || row.cost < rows_[static_cast<std::size_t>(best_lq)].cost)
      best_lq = lq;
  }
  if (best_lq < 0) return std::nullopt;
  Row& row = rows_[static_cast<std::size_t>(best_lq)];
  if (row.cost >= budget) return std::nullopt;  // Per-row minima: node exhausted.
  row.needs_refill = true;
  return Child{row.li, best_lq, row.cost};
}

// ---- ShabanyEnumerator -----------------------------------------------------

void ShabanyEnumerator::attach(const Constellation& c) {
  levels_ = c.pam_levels();
  const auto n = static_cast<std::size_t>(levels_);
  column_.resize(n);
  row_.resize(n);
  column_init_.assign(n, 0);
  row_init_.assign(n, 0);
  column_closed_.assign(n, 0);
  row_closed_.assign(n, 0);
  visited_.assign(n * n, 0);
  queue_.reserve(2 * n);
}

double ShabanyEnumerator::cost_of(int li, int lq) const {
  const double dx = grid_coord(li, levels_) - ci_;
  const double dy = grid_coord(lq, levels_) - cq_;
  return dx * dx + dy * dy;
}

void ShabanyEnumerator::reset(cf64 center, DetectionStats& stats) {
  assert(levels_ > 0 && "attach() must be called before reset()");
  ci_ = center.real();
  cq_ = center.imag();
  std::fill(column_init_.begin(), column_init_.end(), std::uint8_t{0});
  std::fill(row_init_.begin(), row_init_.end(), std::uint8_t{0});
  std::fill(column_closed_.begin(), column_closed_.end(), std::uint8_t{0});
  std::fill(row_closed_.begin(), row_closed_.end(), std::uint8_t{0});
  std::fill(visited_.begin(), visited_.end(), std::uint8_t{0});
  pending_vertical_ = -1;
  pending_horizontal_ = -1;
  queue_.clear();

  // Slice and seed; the sliced point consumes the head of both its column
  // and row iterators.
  Zigzag1D slicer;
  slicer.reset(ci_, levels_);
  const int li0 = slicer.start_level();
  auto& colq = column_[static_cast<std::size_t>(li0)];
  colq.reset(cq_, levels_);
  const int lq0 = colq.take();
  column_init_[static_cast<std::size_t>(li0)] = 1;
  Zigzag1D& r0 = row_[static_cast<std::size_t>(lq0)];
  r0.reset(ci_, levels_);
  r0.take();
  row_init_[static_cast<std::size_t>(lq0)] = 1;
  ++stats.slicer_ops;

  const double cost = cost_of(li0, lq0);
  ++stats.ped_computations;
  mark_visited(li0, lq0);
  queue_.push_back({cost, li0, lq0});
  ++stats.queue_ops;
}

void ShabanyEnumerator::advance_vertical(int li, double budget, DetectionStats& stats) {
  const auto idx = static_cast<std::size_t>(li);
  if (column_closed_[idx]) return;
  if (!column_init_[idx]) {
    column_[idx].reset(cq_, levels_);
    column_init_[idx] = 1;
  }
  Zigzag1D& z = column_[idx];
  while (!z.done()) {
    const int lq = z.take();
    if (visited(li, lq)) continue;
    const double cost = cost_of(li, lq);
    ++stats.ped_computations;
    mark_visited(li, lq);
    if (cost >= budget) {
      z.close();
      column_closed_[idx] = 1;
      return;
    }
    queue_.push_back({cost, li, lq});
    ++stats.queue_ops;
    return;
  }
  column_closed_[idx] = 1;
}

void ShabanyEnumerator::advance_horizontal(int lq, double budget, DetectionStats& stats) {
  const auto idx = static_cast<std::size_t>(lq);
  if (row_closed_[idx]) return;
  if (!row_init_[idx]) {
    row_[idx].reset(ci_, levels_);
    row_init_[idx] = 1;
  }
  Zigzag1D& z = row_[idx];
  while (!z.done()) {
    const int li = z.take();
    if (visited(li, lq)) continue;
    const double cost = cost_of(li, lq);
    ++stats.ped_computations;
    mark_visited(li, lq);
    if (cost >= budget) {
      z.close();
      row_closed_[idx] = 1;
      return;
    }
    queue_.push_back({cost, li, lq});
    ++stats.queue_ops;
    return;
  }
  row_closed_[idx] = 1;
}

std::optional<Child> ShabanyEnumerator::next(double budget, DetectionStats& stats) {
  // Deferred generation, as for GeoEnumerator.
  if (pending_vertical_ >= 0) {
    advance_vertical(pending_vertical_, budget, stats);
    pending_vertical_ = -1;
  }
  if (pending_horizontal_ >= 0) {
    advance_horizontal(pending_horizontal_, budget, stats);
    pending_horizontal_ = -1;
  }

  if (queue_.empty()) return std::nullopt;
  const std::size_t mi = argmin_cost(queue_.data(), queue_.size());
  if (queue_[mi].cost >= budget) return std::nullopt;

  const Entry e = queue_[mi];
  queue_[mi] = queue_.back();
  queue_.pop_back();
  ++stats.queue_ops;

  // Unlike GeoEnumerator there is no one-candidate-per-column rule: every
  // dequeue owes both neighbours, costing extra exact distances.
  pending_vertical_ = e.li;
  pending_horizontal_ = e.lq;
  return Child{e.li, e.lq, e.cost};
}

}  // namespace geosphere::sphere
