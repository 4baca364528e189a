#include "constellation/constellation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.h"

namespace geosphere {
namespace {

class ConstellationProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ConstellationProperty, UnitAverageEnergy) {
  const Constellation& c = Constellation::qam(GetParam());
  double energy = 0.0;
  for (unsigned i = 0; i < c.order(); ++i) energy += std::norm(c.point(i));
  EXPECT_NEAR(energy / c.order(), 1.0, 1e-12);
}

TEST_P(ConstellationProperty, PointsAreDistinctOddGrid) {
  const Constellation& c = Constellation::qam(GetParam());
  std::set<std::pair<int, int>> seen;
  for (unsigned i = 0; i < c.order(); ++i) {
    const int gi = c.grid_of_level(c.level_i(i));
    const int gq = c.grid_of_level(c.level_q(i));
    EXPECT_EQ(std::abs(gi) % 2, 1);
    EXPECT_EQ(std::abs(gq) % 2, 1);
    EXPECT_TRUE(seen.emplace(gi, gq).second) << "duplicate point";
    // point() agrees with the grid representation.
    EXPECT_NEAR(c.point(i).real(), c.scale() * gi, 1e-12);
    EXPECT_NEAR(c.point(i).imag(), c.scale() * gq, 1e-12);
  }
}

TEST_P(ConstellationProperty, BitsRoundTrip) {
  const Constellation& c = Constellation::qam(GetParam());
  std::vector<std::uint8_t> bits(c.bits_per_symbol());
  std::set<unsigned> seen;
  for (unsigned i = 0; i < c.order(); ++i) {
    c.bits_from_index(i, bits.data());
    EXPECT_EQ(c.index_from_bits(bits.data()), i);
    unsigned packed = 0;
    for (const std::uint8_t b : bits) packed = (packed << 1) | b;
    EXPECT_TRUE(seen.insert(packed).second) << "bit pattern not unique";
  }
}

TEST_P(ConstellationProperty, GrayAdjacencyOneBit) {
  // Horizontally or vertically adjacent points differ in exactly one bit:
  // the defining property of the Gray mapping.
  const Constellation& c = Constellation::qam(GetParam());
  const int levels = c.pam_levels();
  for (int li = 0; li < levels; ++li) {
    for (int lq = 0; lq < levels; ++lq) {
      const unsigned idx = c.index_from_levels(li, lq);
      if (li + 1 < levels) {
        EXPECT_EQ(c.bit_difference(idx, c.index_from_levels(li + 1, lq)), 1u);
      }
      if (lq + 1 < levels) {
        EXPECT_EQ(c.bit_difference(idx, c.index_from_levels(li, lq + 1)), 1u);
      }
    }
  }
}

TEST_P(ConstellationProperty, SliceIsNearestPoint) {
  const Constellation& c = Constellation::qam(GetParam());
  Rng rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    // Cover inside and far outside the constellation.
    const cf64 y{rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
    const unsigned sliced = c.slice(y);
    double best = std::numeric_limits<double>::infinity();
    unsigned best_idx = 0;
    for (unsigned i = 0; i < c.order(); ++i) {
      const double d = std::norm(y - c.point(i));
      if (d < best) {
        best = d;
        best_idx = i;
      }
    }
    EXPECT_NEAR(std::norm(y - c.point(sliced)), best, 1e-12)
        << "slice disagrees with argmin for y=" << y << " got " << sliced << " want "
        << best_idx;
  }
}

TEST_P(ConstellationProperty, SliceOfPointIsIdentity) {
  const Constellation& c = Constellation::qam(GetParam());
  for (unsigned i = 0; i < c.order(); ++i) EXPECT_EQ(c.slice(c.point(i)), i);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, ConstellationProperty,
                         ::testing::Values(4u, 16u, 64u, 256u));

TEST(Constellation, RejectsUnsupportedOrders) {
  EXPECT_THROW(Constellation(2), std::invalid_argument);
  EXPECT_THROW(Constellation(8), std::invalid_argument);
  EXPECT_THROW(Constellation(32), std::invalid_argument);
  EXPECT_THROW(Constellation(128), std::invalid_argument);  // Non-square QAM unsupported.
  EXPECT_THROW(Constellation(512), std::invalid_argument);
}

TEST(Constellation, BitsPerSymbol) {
  EXPECT_EQ(Constellation::qam(4).bits_per_symbol(), 2u);
  EXPECT_EQ(Constellation::qam(16).bits_per_symbol(), 4u);
  EXPECT_EQ(Constellation::qam(64).bits_per_symbol(), 6u);
  EXPECT_EQ(Constellation::qam(256).bits_per_symbol(), 8u);
}

TEST(Constellation, SliceClampsOutsidePoints) {
  const Constellation& c = Constellation::qam(16);
  // Far in the top-right corner: must clamp to the maximum levels.
  const unsigned idx = c.slice(cf64{100.0, 100.0});
  EXPECT_EQ(c.level_i(idx), c.pam_levels() - 1);
  EXPECT_EQ(c.level_q(idx), c.pam_levels() - 1);
  const unsigned idx2 = c.slice(cf64{-100.0, 100.0});
  EXPECT_EQ(c.level_i(idx2), 0);
  EXPECT_EQ(c.level_q(idx2), c.pam_levels() - 1);
}

/// The libm reference of the slicer's rounding: clamp(lround(raw), 0, L-1),
/// where lround's out-of-range result (LONG_MIN on glibc, for NaN, +/-inf
/// and |raw| >= 2^63) maps to level 0 -- spelled out, as zigzag_test does,
/// instead of relying on lround's unspecified value there.
int lround_clamp_level(double grid_coord, int levels) {
  const double raw = (grid_coord + static_cast<double>(levels - 1)) / 2.0;
  if (!(std::abs(raw) < 0x1p63)) return 0;
  return static_cast<int>(std::clamp<long>(std::lround(raw), 0, levels - 1));
}

TEST(Constellation, SliceLevelMatchesLroundClamp) {
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(63);
  for (unsigned order : {4u, 16u, 64u, 256u}) {
    const Constellation& c = Constellation::qam(order);
    const int levels = c.pam_levels();
    // Raw values (raw = (g + L - 1) / 2) at every rounding edge: the
    // half-integers around and inside the grid, their nextafter neighbours,
    // the top clamp edge L - 0.5 with one ulp either side, the largest
    // double below 0.5, and the conversion edge 2^63.
    std::vector<double> raws;
    for (int k = -4; k <= levels + 3; ++k) {
      const double half = k + 0.5;
      raws.insert(raws.end(),
                  {half, std::nextafter(half, -inf), std::nextafter(half, inf), double(k)});
    }
    const double top = levels - 0.5;
    raws.insert(raws.end(), {std::nextafter(top, -inf), top, std::nextafter(top, inf),
                             0.49999999999999994, std::nextafter(0x1p63, 0.0), 0x1p63,
                             std::nextafter(0x1p63, inf), -0x1p63,
                             std::nextafter(-0x1p63, -inf)});
    std::vector<double> coords;
    for (double raw : raws) coords.push_back(2.0 * raw - static_cast<double>(levels - 1));
    coords.insert(coords.end(),
                  {0.0, -0.0, inf, -inf, std::numeric_limits<double>::quiet_NaN()});
    // 10^5 random values: half near the grid, half arbitrary bit patterns
    // (every magnitude, some infinities and NaNs).
    for (int i = 0; i < 100000; ++i) {
      if (i % 2 == 0) {
        coords.push_back(rng.uniform(-2.0 * levels, 2.0 * levels));
      } else {
        const std::uint64_t bits = rng.engine()();
        double x = 0.0;
        std::memcpy(&x, &bits, sizeof x);
        coords.push_back(x);
      }
    }
    for (double g : coords)
      ASSERT_EQ(c.slice_level(g), lround_clamp_level(g, levels))
          << order << "-QAM, grid coordinate " << g;
  }
}

TEST(Constellation, QamCacheReturnsSameInstance) {
  EXPECT_EQ(&Constellation::qam(64), &Constellation::qam(64));
  EXPECT_NE(&Constellation::qam(16), &Constellation::qam(64));
}

TEST(Constellation, BitDifferenceSymmetricZeroOnEqual) {
  const Constellation& c = Constellation::qam(64);
  Rng rng(3);
  for (int t = 0; t < 100; ++t) {
    const auto a = static_cast<unsigned>(rng.uniform_int(64));
    const auto b = static_cast<unsigned>(rng.uniform_int(64));
    EXPECT_EQ(c.bit_difference(a, b), c.bit_difference(b, a));
    EXPECT_EQ(c.bit_difference(a, a), 0u);
  }
}

}  // namespace
}  // namespace geosphere
