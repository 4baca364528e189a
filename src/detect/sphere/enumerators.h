// Child-enumeration strategies for the depth-first sphere decoder.
//
// All enumerators implement the same contract and must produce children in
// exactly non-decreasing Euclidean distance from the (continuous) center --
// i.e. non-decreasing branch cost, the Schnorr-Euchner order. They differ
// only in how much computation (exact partial-distance evaluations) that
// takes, which is precisely what the paper measures:
//
//  * GeoEnumerator   -- the paper's contribution (Section 3.1.1 + 3.2):
//                       2D zigzag over the QAM grid with at most one
//                       outstanding candidate per vertical PAM
//                       subconstellation, optionally guarded by the
//                       geometric lower-bound table (geometric pruning).
//  * HessEnumerator  -- the ETH-SD baseline (Burg et al. VLSI decoder with
//                       the Hess et al. enumeration): split the QAM
//                       constellation into sqrt(M) horizontal PAM rows,
//                       1D-zigzag inside each row, compare exact distances
//                       across all rows.
//  * ShabanyEnumerator -- the related-work scheme the paper contrasts in
//                       Section 6.1: like the 2D zigzag but without the
//                       one-candidate-per-subconstellation rule, so it
//                       computes more exact distances.
//
// Cost units: squared distance in grid units (points at odd integers,
// spacing 2). The sphere decoder rescales by |r_ll|^2 * alpha^2.
#pragma once

#include <array>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <vector>

#include "common/types.h"
#include "constellation/constellation.h"
#include "detect/detector.h"
#include "detect/sphere/geometry_table.h"
#include "detect/sphere/zigzag1d.h"

namespace geosphere::sphere {

/// One enumerated child: PAM level indices and its exact squared distance
/// from the center, in grid units.
struct Child {
  int li = 0;
  int lq = 0;
  double cost_grid = 0.0;
};

namespace detail {

/// Smallest-cost entry index among q[0, n); the queues hold at most
/// ~sqrt(M) entries, so a linear scan beats heap bookkeeping.
template <typename Entry>
inline std::size_t argmin_cost(const Entry* q, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (q[i].cost < q[best].cost) best = i;
  return best;
}

inline double grid_coord(int level, int levels) {
  return static_cast<double>(2 * level - (levels - 1));
}

}  // namespace detail

// ---------------------------------------------------------------------------

/// Geosphere's two-dimensional zigzag enumeration (paper Fig. 5/6), with
/// optional geometric pruning (Section 3.2).
class GeoEnumerator {
 public:
  struct Options {
    /// When true, candidate generation is guarded by the geometric
    /// lower-bound table: generations whose bound already exceeds the
    /// remaining budget are skipped without computing an exact distance,
    /// and -- by zigzag monotonicity of the offsets -- close the entire
    /// remaining column (vertical) or all remaining columns (horizontal).
    bool geometric_pruning = true;
  };

  GeoEnumerator() = default;
  explicit GeoEnumerator(Options options) : options_(options) {}

  // The enumerator is the innermost loop of every Geosphere-family tree
  // search (one reset per node descent, one next per candidate), and an
  // out-of-line call costs more than the zigzag arithmetic it wraps. So
  // reset() and next() are always inlined into the searches, and their
  // bodies below are kept lean enough for that: no growth path (the
  // column zigzags and the queue are fixed arrays of kMaxLevels, and each
  // column contributes at most one queue entry, so the queue never holds
  // more than pam_levels) and no libm call (Zigzag1D's start level is
  // plain arithmetic).

  /// Largest supported PAM level count: 16 (256-QAM).
  static constexpr int kMaxLevels = kMaxPamOffset;

  void attach(const Constellation& c) {
    assert(c.pam_levels() <= kMaxLevels);
    levels_ = c.pam_levels();
  }

  /// Begin enumerating children around `center` (grid units). Performs the
  /// slicing step and seeds the queue with the sliced point.
  [[gnu::always_inline]] void reset(cf64 center, DetectionStats& stats);

  /// Next child with exact cost < budget, in non-decreasing cost order;
  /// std::nullopt when no remaining child can satisfy the budget. `budget`
  /// must be non-increasing across calls within one reset (the sphere
  /// radius only shrinks).
  [[gnu::always_inline]] std::optional<Child> next(double budget, DetectionStats& stats);

  const Options& options() const { return options_; }

 private:
  struct Entry {
    double cost;
    int li;
    int lq;
  };

  void open_next_column(double budget, DetectionStats& stats);
  void advance_column(int li, double budget, DetectionStats& stats);
  double cost_of(int li, int lq) const {
    const double dx = detail::grid_coord(li, levels_) - ci_;
    const double dy = detail::grid_coord(lq, levels_) - cq_;
    return dx * dx + dy * dy;
  }

  Options options_{};
  int levels_ = 0;

  double ci_ = 0.0, cq_ = 0.0;  ///< Center, grid units.
  int li0_ = 0, lq0_ = 0;       ///< Sliced point (lower-bound reference).

  Zigzag1D horizontal_;                        ///< Column-opening order.
  std::array<Zigzag1D, kMaxLevels> column_{};  ///< Per-column vertical zigzag.
  Zigzag1D column_entered_;                    ///< A column right after its entry row.
  bool horizontal_closed_ = false;             ///< No further columns can fit.
  int newest_column_ = -1;                     ///< Most recently opened column.

  // Successor generation is deferred from the pop that causes it to the
  // following next() call, when the (possibly much smaller) budget is
  // known. This is the paper's "defer the Euclidean distance computation
  // until as late as possible": after a leaf tightens the radius,
  // geometric pruning closes the pending generations without computing a
  // single exact distance (Section 5.3 discussion).
  int pending_advance_ = -1;    ///< Column owed a vertical successor.
  bool pending_open_ = false;   ///< A horizontal column-open is owed.

  std::array<Entry, kMaxLevels> queue_{};  ///< <=1 outstanding candidate per column.
  std::size_t queue_size_ = 0;
};

// ---------------------------------------------------------------------------

/// Hess et al. row-subconstellation enumeration (the ETH-SD baseline).
class HessEnumerator {
 public:
  void attach(const Constellation& c);
  void reset(cf64 center, DetectionStats& stats);
  std::optional<Child> next(double budget, DetectionStats& stats);

 private:
  struct Row {
    bool active = false;
    bool needs_refill = false;
    int li = 0;        ///< Current candidate column in this row.
    double cost = 0.0; ///< Its exact cost.
    Zigzag1D zigzag;   ///< Horizontal zigzag within the row.
  };

  double cost_of(int li, int lq) const;

  int levels_ = 0;
  double ci_ = 0.0, cq_ = 0.0;
  std::vector<Row> rows_;
};

// ---------------------------------------------------------------------------

/// Shabany-style neighbour expansion: each dequeued point proposes both its
/// vertical successor (within its column) and its horizontal successor
/// (within its row), deduplicated by a visited set. More exact-distance
/// computations than GeoEnumerator (paper Section 6.1: 25% more to find the
/// third-smallest child of a node).
class ShabanyEnumerator {
 public:
  void attach(const Constellation& c);
  void reset(cf64 center, DetectionStats& stats);
  std::optional<Child> next(double budget, DetectionStats& stats);

 private:
  struct Entry {
    double cost;
    int li;
    int lq;
  };

  void propose(int li, int lq, double budget, DetectionStats& stats);
  void advance_vertical(int li, double budget, DetectionStats& stats);
  void advance_horizontal(int lq, double budget, DetectionStats& stats);
  double cost_of(int li, int lq) const;
  bool visited(int li, int lq) const {
    return visited_[static_cast<std::size_t>(li * levels_ + lq)] != 0;
  }
  void mark_visited(int li, int lq) {
    visited_[static_cast<std::size_t>(li * levels_ + lq)] = 1;
  }

  int levels_ = 0;
  double ci_ = 0.0, cq_ = 0.0;

  std::vector<Zigzag1D> column_;  ///< Vertical iterator per column.
  std::vector<Zigzag1D> row_;     ///< Horizontal iterator per row.
  std::vector<std::uint8_t> column_init_, row_init_;
  std::vector<std::uint8_t> column_closed_, row_closed_;
  std::vector<std::uint8_t> visited_;
  int pending_vertical_ = -1;    ///< Column owed a successor (deferred).
  int pending_horizontal_ = -1;  ///< Row owed a successor (deferred).
  std::vector<Entry> queue_;
};

// ---- GeoEnumerator inline hot path ----------------------------------------

inline void GeoEnumerator::reset(cf64 center, DetectionStats& stats) {
  assert(levels_ > 0 && "attach() must be called before reset()");
  ci_ = center.real();
  cq_ = center.imag();
  horizontal_closed_ = false;
  pending_advance_ = -1;
  pending_open_ = false;

  // Slice the received symbol (paper Fig. 5, step 2) and seed the queue
  // with the closest constellation point.
  horizontal_.reset(ci_, levels_);
  li0_ = horizontal_.take();
  Zigzag1D& first = column_[static_cast<std::size_t>(li0_)];
  first.reset(cq_, levels_);
  lq0_ = first.take();
  column_entered_ = first;
  ++stats.slicer_ops;

  const double cost = cost_of(li0_, lq0_);
  ++stats.ped_computations;
  newest_column_ = li0_;
  queue_[0] = {cost, li0_, lq0_};
  queue_size_ = 1;
  ++stats.queue_ops;
}

inline void GeoEnumerator::advance_column(int li, double budget, DetectionStats& stats) {
  Zigzag1D& vz = column_[static_cast<std::size_t>(li)];
  if (vz.done()) return;

  const int lq = vz.peek_level();
  if (options_.geometric_pruning) {
    // |dQ| offsets are non-decreasing along the vertical zigzag, so one
    // failed lower-bound test closes the whole remaining column without
    // any exact distance computation (paper Section 3.2).
    ++stats.lb_lookups;
    const int di = std::abs(li - li0_);
    if (geometric_lower_bound_sq(di, vz.offset(lq)) >= budget) {
      ++stats.lb_prunes;
      vz.close();
      return;
    }
  }
  vz.consume(lq);
  const double cost = cost_of(li, lq);
  ++stats.ped_computations;
  if (cost >= budget) {
    vz.close();  // Costs are sorted within a column.
    return;
  }
  queue_[queue_size_++] = {cost, li, lq};
  ++stats.queue_ops;
}

inline void GeoEnumerator::open_next_column(double budget, DetectionStats& stats) {
  if (horizontal_closed_ || horizontal_.done()) return;

  const int li = horizontal_.peek_level();
  if (options_.geometric_pruning) {
    // Entry points of successive columns sit on the sliced row (dQ = 0)
    // with non-decreasing |dI|, so one failed test closes all remaining
    // columns.
    ++stats.lb_lookups;
    if (geometric_lower_bound_sq(horizontal_.offset(li), 0) >= budget) {
      ++stats.lb_prunes;
      horizontal_closed_ = true;
      return;
    }
  }
  horizontal_.consume(li);
  // Every column's vertical zigzag runs around the same center, so a new
  // column starts in the state the first column had after its entry row.
  Zigzag1D& vz = column_[static_cast<std::size_t>(li)];
  vz = column_entered_;
  const int lq = lq0_;  // Entry row: the sliced row.
  const double cost = cost_of(li, lq);
  ++stats.ped_computations;
  newest_column_ = li;
  if (cost >= budget) {
    // Entry costs are monotone across the column-opening order, so no
    // later column can fit either.
    vz.close();
    horizontal_closed_ = true;
    return;
  }
  queue_[queue_size_++] = {cost, li, lq};
  ++stats.queue_ops;
}

inline std::optional<Child> GeoEnumerator::next(double budget, DetectionStats& stats) {
  // Materialize generations owed by the previous pop, now that the current
  // (possibly shrunken) budget is known.
  if (pending_advance_ >= 0) {
    advance_column(pending_advance_, budget, stats);
    pending_advance_ = -1;
  }
  if (pending_open_) {
    open_next_column(budget, stats);
    pending_open_ = false;
  }

  if (queue_size_ == 0) return std::nullopt;
  const std::size_t mi = detail::argmin_cost(queue_.data(), queue_size_);
  if (queue_[mi].cost >= budget) return std::nullopt;  // Sorted: node exhausted.

  const Entry e = queue_[mi];
  queue_[mi] = queue_[--queue_size_];
  ++stats.queue_ops;

  // Exploring e (paper Fig. 5, step 3) owes: the next point of e's column
  // (vertical zigzag), and -- if e was the first point dequeued from the
  // newest column -- the entry of the next column (horizontal zigzag, with
  // the one-candidate-per-subconstellation rule structural: each column
  // contributes at most one queue entry).
  pending_advance_ = e.li;
  pending_open_ = (e.li == newest_column_);

  return Child{e.li, e.lq, e.cost};
}

}  // namespace geosphere::sphere
