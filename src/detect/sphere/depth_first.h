// The plain depth-first Schnorr-Euchner search (paper Section 2) over a
// prepared channel (tree_problem.h): from an unbounded radius, descend to
// the cheapest child at every level, tighten the radius to each leaf
// reached and backtrack until no child fits. The enumerator decides the
// child order and what a PED costs; the search is the same for all of
// them. SphereDecoder runs it for every hard tree detector, and
// soft-geosphere-sts for its hard decisions. The single tree search runs
// its own loop over the same workspaces.
//
// Partial distances are sums of products: every TU that instantiates the
// search is compiled with -ffp-contract=off (CMakeLists.txt), so a vector's
// result does not depend on which detector searched it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/types.h"
#include "constellation/constellation.h"
#include "detect/detector.h"
#include "detect/sphere/center.h"
#include "detect/sphere/tree_problem.h"

namespace geosphere::sphere {

template <class Enumerator>
struct DepthFirstSearch {
  std::vector<Enumerator> level_enum;  ///< One enumerator per tree level.
  std::vector<double> partial;         ///< partial[l] = d(s^(l)); partial[nc] = 0.
  std::vector<unsigned> current;       ///< Symbol index per level on the path.
  std::vector<unsigned> best;          ///< The closest leaf of the last run().

  /// Sizes the workspaces for `nc` tree levels, every enumerator a copy of
  /// the attached `prototype`. A no-op when they already have nc levels.
  void resize(std::size_t nc, const Enumerator& prototype) {
    if (level_enum.size() == nc) return;
    level_enum.assign(nc, prototype);
    partial.assign(nc + 1, 0.0);
    current.assign(nc, 0);
    best.assign(nc, 0);
  }

  /// Searches the rotated received vector `yhat` (one entry per level) of
  /// the selected channel `p`, starting from its packed root-level center.
  /// Leaves the closest leaf in `best` and returns true, or returns false
  /// when the search reaches no leaf. Adds its counters to `stats`.
  bool run(const TreeProblem& p, const cf64* yhat, cf64 root_center,
           const Constellation& cons, DetectionStats& stats_out) {
    const std::size_t nc = p.nc;
    DetectionStats stats;  // Search-local, added to the caller's once.
    ++stats.tree_searches;

    double radius_sq = std::numeric_limits<double>::infinity();
    bool found = false;
    partial[nc] = 0.0;

    std::size_t level = nc - 1;
    level_enum[level].reset(root_center, stats);

    for (;;) {
      const double budget = (radius_sq - partial[level + 1]) / p.scale[level];
      const auto child = level_enum[level].next(budget, stats);
      if (!child) {
        ++level;  // Backtrack.
        if (level == nc) break;
        continue;
      }
      ++stats.visited_nodes;
      current[level] = cons.index_from_levels(child->li, child->lq);
      partial[level] = partial[level + 1] + p.scale[level] * child->cost_grid;

      if (level == 0) {
        // Leaf inside the sphere: tighten the radius (Section 2.1) and keep
        // searching; the enumerator's sorted order ends the sibling scan as
        // soon as nothing closer remains.
        radius_sq = partial[0];
        std::copy(current.begin(), current.end(), best.begin());
        found = true;
      } else {
        --level;
        // The child level's center, given the decisions above it.
        level_enum[level].reset(
            tree_center(p.r, yhat, level, current.data(), cons, p.diag[level]), stats);
      }
    }
    stats_out += stats;
    return found;
  }
};

}  // namespace geosphere::sphere
