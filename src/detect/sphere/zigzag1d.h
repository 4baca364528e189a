// One-dimensional zigzag enumeration over PAM levels (paper Section 3.1,
// Fig. 4 left): visit levels in exactly non-decreasing distance from a
// continuous center coordinate, starting from the sliced level and
// alternating sides, handling constellation boundaries.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdlib>

#include "constellation/constellation.h"

namespace geosphere::sphere {

class Zigzag1D {
 public:
  /// Prepare enumeration of levels [0, levels) whose grid coordinates are
  /// g(l) = 2l - (levels-1), around continuous center `center` (grid units).
  /// The start level is nearest_pam_level(center, levels), the slicer's
  /// rounding rule (constellation/constellation.h states its contract).
  void reset(double center, int levels) {
    assert(levels >= 1);
    levels_ = levels;
    center_ = center;
    start_ = nearest_pam_level(center, levels);
    below_ = start_ - 1;
    above_ = start_ + 1;
    pending_start_ = true;
  }

  bool done() const { return !pending_start_ && below_ < 0 && above_ >= levels_; }

  /// Next level in the zigzag order, without consuming it.
  int peek_level() const {
    assert(!done());
    if (pending_start_) return start_;
    const bool below_ok = below_ >= 0;
    const bool above_ok = above_ < levels_;
    if (below_ok && above_ok)
      return distance(below_) <= distance(above_) ? below_ : above_;
    return below_ok ? below_ : above_;
  }

  /// |level - start|: the PAM offset used by the geometric lower-bound
  /// table. Non-decreasing along the enumeration.
  int offset(int level) const { return std::abs(level - start_); }

  /// Consume `l`, which must be peek_level() -- for callers that already
  /// peeked, so the zigzag comparison is not repeated.
  void consume(int l) {
    if (pending_start_)
      pending_start_ = false;
    else if (l == below_)
      --below_;
    else
      ++above_;
  }

  /// Consume and return the next level.
  int take() {
    const int l = peek_level();
    consume(l);
    return l;
  }

  int start_level() const { return start_; }

  /// Permanently exhaust the enumeration (used when a budget test proves
  /// no remaining level can qualify -- costs are monotone along the order).
  void close() {
    pending_start_ = false;
    below_ = -1;
    above_ = levels_;
  }

 private:
  double distance(int level) const {
    const double g = static_cast<double>(2 * level - (levels_ - 1));
    return std::abs(g - center_);
  }

  int levels_ = 1;
  double center_ = 0.0;
  int start_ = 0;
  int below_ = -1;
  int above_ = 1;
  bool pending_start_ = true;
};

}  // namespace geosphere::sphere
