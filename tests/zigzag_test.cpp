#include "detect/sphere/zigzag1d.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.h"
#include "detect/sphere/geometry_table.h"

namespace geosphere::sphere {
namespace {

double grid_of(int level, int levels) { return static_cast<double>(2 * level - (levels - 1)); }

std::vector<int> drain(Zigzag1D& z) {
  std::vector<int> out;
  while (!z.done()) out.push_back(z.take());
  return out;
}

TEST(Zigzag1D, VisitsAllLevelsExactlyOnce) {
  Rng rng(1);
  for (int levels : {1, 2, 4, 8, 16}) {
    for (int trial = 0; trial < 200; ++trial) {
      Zigzag1D z;
      z.reset(rng.uniform(-2.0 * levels, 2.0 * levels), levels);
      const auto order = drain(z);
      ASSERT_EQ(order.size(), static_cast<std::size_t>(levels));
      std::set<int> unique(order.begin(), order.end());
      EXPECT_EQ(unique.size(), order.size());
      EXPECT_EQ(*unique.begin(), 0);
      EXPECT_EQ(*unique.rbegin(), levels - 1);
    }
  }
}

TEST(Zigzag1D, OrderIsNonDecreasingDistance) {
  Rng rng(2);
  for (int levels : {2, 4, 8, 16}) {
    for (int trial = 0; trial < 300; ++trial) {
      const double center = rng.uniform(-2.5 * levels, 2.5 * levels);
      Zigzag1D z;
      z.reset(center, levels);
      double prev = -1.0;
      while (!z.done()) {
        const double d = std::abs(grid_of(z.take(), levels) - center);
        EXPECT_GE(d, prev - 1e-12);
        prev = d;
      }
    }
  }
}

TEST(Zigzag1D, StartIsSlicedNearestLevel) {
  Rng rng(3);
  for (int levels : {2, 4, 8, 16}) {
    for (int trial = 0; trial < 200; ++trial) {
      const double center = rng.uniform(-2.0 * levels, 2.0 * levels);
      Zigzag1D z;
      z.reset(center, levels);
      const int start = z.peek_level();
      double best = std::abs(grid_of(start, levels) - center);
      for (int l = 0; l < levels; ++l)
        EXPECT_LE(best, std::abs(grid_of(l, levels) - center) + 1e-12);
    }
  }
}

TEST(Zigzag1D, PeekOffsetsAreNonDecreasing) {
  // The geometric-pruning close-off relies on this monotonicity.
  Rng rng(4);
  for (int levels : {2, 4, 8, 16}) {
    for (int trial = 0; trial < 200; ++trial) {
      Zigzag1D z;
      z.reset(rng.uniform(-2.0 * levels, 2.0 * levels), levels);
      int prev = -1;
      while (!z.done()) {
        const int off = z.offset(z.peek_level());
        EXPECT_GE(off, prev);
        prev = off;
        z.take();
      }
    }
  }
}

TEST(Zigzag1D, InteriorAlternationMatchesPaperPattern) {
  // Center inside an interior cell: the order is start, +d, -d, +2d, ...
  Zigzag1D z;
  z.reset(0.9, 8);  // Levels at -7,-5,...,7; 0.9 slices to level 4 (grid 1).
  EXPECT_EQ(z.take(), 4);
  EXPECT_EQ(z.take(), 3);  // grid -1 at distance 1.9? No: |-1-0.9|=1.9 vs |3-0.9|=2.1.
  EXPECT_EQ(z.take(), 5);
  EXPECT_EQ(z.take(), 2);
  EXPECT_EQ(z.take(), 6);
}

TEST(Zigzag1D, CloseStopsEnumeration) {
  Zigzag1D z;
  z.reset(0.0, 8);
  z.take();
  z.close();
  EXPECT_TRUE(z.done());
}

TEST(Zigzag1D, SingleLevel) {
  Zigzag1D z;
  z.reset(5.0, 1);
  EXPECT_FALSE(z.done());
  EXPECT_EQ(z.take(), 0);
  EXPECT_TRUE(z.done());
}

/// The start-level contract of Zigzag1D::reset, spelled with lround: the
/// rounded, clamped raw coordinate, and 0 where lround has no defined
/// result (NaN, +/-inf and |raw| >= 2^63; glibc returns LONG_MIN there).
int lround_clamp_start(double center, int levels) {
  const double raw = (center + static_cast<double>(levels - 1)) / 2.0;
  if (!(std::abs(raw) < 0x1p63)) return 0;
  return static_cast<int>(std::clamp<long>(std::lround(raw), 0, levels - 1));
}

TEST(Zigzag1D, StartLevelMatchesLroundClamp) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> centers;
  // Every integer center in [-40, 40] -- which covers the grid midpoints,
  // where raw is a half-integer -- and both nextafter neighbours.
  for (int c = -40; c <= 40; ++c) {
    const double x = c;
    centers.insert(centers.end(), {x, std::nextafter(x, -inf), std::nextafter(x, inf)});
  }
  centers.insert(centers.end(), {0.0, -0.0, 1e157, -1e157, inf, -inf,
                                 std::numeric_limits<double>::quiet_NaN()});
  Rng rng(5);
  for (int i = 0; i < 1000000; ++i) {
    // Half near the grid, half arbitrary bit patterns (every magnitude,
    // plus some infinities and NaNs).
    if (i % 2 == 0) {
      centers.push_back(rng.uniform(-40.0, 40.0));
    } else {
      const std::uint64_t bits = rng.engine()();
      double x = 0.0;
      std::memcpy(&x, &bits, sizeof x);
      centers.push_back(x);
    }
  }
  for (int levels : {2, 4, 8, 16}) {
    // Raw values at the rounding and conversion edges, reached through
    // center = 2 raw - (levels - 1) (exactly where that is representable).
    std::vector<double> edge_centers;
    for (double raw : {0.49999999999999994, 0x1p52 + 0.5, 0x1p62, std::nextafter(0x1p63, 0.0),
                       0x1p63, std::nextafter(0x1p63, inf)})
      for (double sign : {1.0, -1.0})
        edge_centers.push_back(2.0 * sign * raw - static_cast<double>(levels - 1));
    Zigzag1D z;
    for (const std::vector<double>* set : {&centers, &edge_centers})
      for (double center : *set) {
        z.reset(center, levels);
        ASSERT_EQ(z.start_level(), lround_clamp_start(center, levels))
            << "levels " << levels << ", center " << center;
      }
  }
}

// ---- Geometric lower-bound table -------------------------------------------

TEST(GeometryTable, MatchesPaperFormula) {
  EXPECT_DOUBLE_EQ(geometric_lower_bound_sq(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(geometric_lower_bound_sq(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(geometric_lower_bound_sq(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(geometric_lower_bound_sq(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(geometric_lower_bound_sq(2, 2), 18.0);  // (2*2-1)^2 * 2.
  EXPECT_DOUBLE_EQ(geometric_lower_bound_sq(3, 1), 26.0);  // 25 + 1.
}

TEST(GeometryTable, MonotoneInEachArgument) {
  for (int di = 0; di < kMaxPamOffset; ++di) {
    for (int dq = 0; dq < kMaxPamOffset; ++dq) {
      EXPECT_LE(geometric_lower_bound_sq(di, dq), geometric_lower_bound_sq(di + 1, dq));
      EXPECT_LE(geometric_lower_bound_sq(di, dq), geometric_lower_bound_sq(di, dq + 1));
    }
  }
}

TEST(GeometryTable, LowerBoundsExactCostForInteriorCenters) {
  // For any center within the sliced point's decision cell (|residual| <= 1
  // per axis) the bound must not exceed the exact squared distance.
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    const double rx = rng.uniform(-1.0, 1.0);
    const double ry = rng.uniform(-1.0, 1.0);
    const int di = rng.uniform_int(kMaxPamOffset + 1);
    const int dq = rng.uniform_int(kMaxPamOffset + 1);
    // Point at grid offset (2*di, 2*dq) from the sliced point; center at
    // (rx, ry) relative to the sliced point.
    const double dx = 2.0 * di - rx;
    const double dy = 2.0 * dq - ry;
    const double exact = dx * dx + dy * dy;
    EXPECT_LE(geometric_lower_bound_sq(di, dq), exact + 1e-12)
        << "di=" << di << " dq=" << dq << " rx=" << rx << " ry=" << ry;
  }
}

TEST(GeometryTable, BoundHoldsForClampedOutsideCenters) {
  // Received symbol beyond the constellation edge: slice clamps, offsets
  // only grow, the bound must still hold.
  Rng rng(8);
  for (int trial = 0; trial < 2000; ++trial) {
    const double beyond = rng.uniform(0.0, 10.0);  // Distance past the edge.
    const int di = rng.uniform_int(kMaxPamOffset + 1);
    const double dx = 2.0 * di + beyond;  // Points lie away from the center.
    EXPECT_LE(geometric_lower_bound_sq(di, 0), dx * dx + 1e-12);
  }
}

}  // namespace
}  // namespace geosphere::sphere
