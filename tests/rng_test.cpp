// Tests for the seeded random source: the engine and the draws against the
// standard engine and libstdc++'s distributions, bit for bit; bounded-integer
// distribution sanity (the Lemire rejection path); and the counter-based
// per-frame seeding that underpins parallel determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"

namespace geosphere {
namespace {

/// memcmp equality, so zero signs and NaN payloads count.
bool same_bits(const void* a, const void* b, std::size_t bytes) {
  return bytes == 0 || std::memcmp(a, b, bytes) == 0;
}

TEST(RngEngine, MatchesStandardMt19937_64) {
  Mt19937_64 standard_seed;  // 5489, the standard's default.
  for (int i = 1; i < 10000; ++i) standard_seed();
  EXPECT_EQ(standard_seed(), 9981545732273789042ull);

  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489}, ~std::uint64_t{0},
        Rng::derive_seed(1, 0), Rng::derive_seed(7, 3, 9), Rng::derive_seed(1, 1, 0, 0)}) {
    Mt19937_64 ours(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 5000; ++i) ASSERT_EQ(ours(), reference()) << "seed " << seed << " word " << i;
  }
}

/// The conversion on words no random draw is likely to reach, including the
/// top of the range, where libstdc++ clamps RN(u) / 2^64 == 1 to
/// nextafter(1, 0), and every power of two.
TEST(Rng, CanonicalMatchesGenerateCanonicalOnEdgeWords) {
#ifdef __GLIBCXX__
  struct FixedWord {  // A UniformRandomBitGenerator that returns one word.
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type word;
    result_type operator()() { return word; }
  };
  std::vector<std::uint64_t> words = {0,
                                      1,
                                      std::uint64_t{1} << 53,
                                      std::uint64_t{1} << 63,
                                      ~std::uint64_t{0} - 1024,  // 2^64 - 1025
                                      ~std::uint64_t{0} - 1023,  // 2^64 - 1024
                                      ~std::uint64_t{0}};
  for (int e = 0; e < 64; ++e) {
    const std::uint64_t p = std::uint64_t{1} << e;
    for (std::uint64_t d = 0; d <= 64; ++d) {
      words.push_back(p + d);
      words.push_back(p - d);
    }
  }
  for (std::uint64_t d = 0; d <= 4096; ++d) words.push_back(~std::uint64_t{0} - d);
  for (const std::uint64_t w : words) {
    FixedWord engine{w};
    const double reference = std::generate_canonical<double, 53>(engine);
    const double ours = Rng::canonical(w);
    ASSERT_TRUE(same_bits(&ours, &reference, sizeof ours))
        << "word " << w << ": " << ours << " vs " << reference;
  }
  EXPECT_EQ(Rng::canonical(~std::uint64_t{0}), std::nextafter(1.0, 0.0));
#else
  GTEST_SKIP() << "the reference is libstdc++'s generate_canonical";
#endif
}

#ifdef __GLIBCXX__
/// The reference: the standard engine and libstdc++'s distributions, called
/// per draw.
class LibstdcxxRng {
 public:
  explicit LibstdcxxRng(std::uint64_t seed) : engine_(seed) {}
  double uniform() { return unit_(engine_); }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  int uniform_int(int n) {
    const std::uint32_t range = static_cast<std::uint32_t>(n);
    std::uint64_t m =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(engine_())) * range;
    auto lo = static_cast<std::uint32_t>(m);
    if (lo < range) {
      const std::uint32_t threshold = (0u - range) % range;
      while (lo < threshold) {
        m = static_cast<std::uint64_t>(static_cast<std::uint32_t>(engine_())) * range;
        lo = static_cast<std::uint32_t>(m);
      }
    }
    return static_cast<int>(m >> 32);
  }
  double gaussian(double mean = 0.0, double stddev = 1.0) {
    return mean + stddev * normal_(engine_);
  }
  cf64 cgaussian(double variance = 1.0) {
    const double s = std::sqrt(variance / 2.0);
    return {s * normal_(engine_), s * normal_(engine_)};
  }
  std::uint8_t bit() { return static_cast<std::uint8_t>(engine_() & 1u); }
  LibstdcxxRng fork() { return LibstdcxxRng(engine_()); }
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::normal_distribution<double> normal_{0.0, 1.0};
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};
#endif

TEST(Rng, DrawsMatchLibstdcxxReference) {
#ifdef __GLIBCXX__
  // Random sequences of every draw on both generators. Lengths straddle the
  // 312-word twist (156 polar attempts); an odd number of gaussian() calls
  // before a fill leaves a saved normal pending; the variances reach 0 and
  // both ends of the double range.
  const std::size_t lengths[] = {0, 1, 155, 156, 157, 311, 312, 313, 3000};
  const double variances[] = {0.0, 1e-300, 1e300, 1.0, 0.37};
  const int ns[] = {1, 2, 3, 7, 1000, 2147483647};
  std::vector<cf64> ours_fill, reference_fill;
  BitVector ours_bits;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    std::mt19937 pick(static_cast<std::uint32_t>(seed));
    const auto choose = [&](std::size_t n) { return static_cast<std::size_t>(pick() % n); };
    const auto length = [&] {
      return choose(3) == 0 ? lengths[choose(std::size(lengths))] : choose(400);
    };
    const std::uint64_t rng_seed = seed < 3 ? seed : Rng::derive_seed(seed, 0);
    Rng ours(rng_seed);
    LibstdcxxRng reference(rng_seed);
    for (int op = 0; op < 16; ++op) {
      const std::string where = "seed " + std::to_string(seed) + " op " + std::to_string(op);
      switch (choose(11)) {
        case 0: {
          const std::uint8_t a = ours.bit(), b = reference.bit();
          ASSERT_EQ(a, b) << where << " bit";
          break;
        }
        case 1: {
          const std::size_t n = length();
          ours.bits(n, ours_bits);
          ASSERT_EQ(ours_bits.size(), n) << where;
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(ours_bits[i], reference.bit()) << where << " bits[" << i << "]";
          break;
        }
        case 2: {
          const double a = ours.uniform(), b = reference.uniform();
          ASSERT_TRUE(same_bits(&a, &b, sizeof a)) << where << " uniform";
          break;
        }
        case 3: {
          const double lo = -5.0 + 0.1 * static_cast<double>(choose(100));
          const double hi = lo + 1e-3 + 3.0 * static_cast<double>(choose(4));
          const double a = ours.uniform(lo, hi), b = reference.uniform(lo, hi);
          ASSERT_TRUE(same_bits(&a, &b, sizeof a)) << where << " uniform(lo, hi)";
          break;
        }
        case 4: {
          const int n = ns[choose(std::size(ns))];
          ASSERT_EQ(ours.uniform_int(n), reference.uniform_int(n)) << where << " uniform_int";
          break;
        }
        case 5: {
          const double mean = choose(2) == 0 ? 0.0 : -1.5;
          const double stddev = choose(2) == 0 ? 1.0 : 2.5;
          const double a = ours.gaussian(mean, stddev), b = reference.gaussian(mean, stddev);
          ASSERT_TRUE(same_bits(&a, &b, sizeof a)) << where << " gaussian";
          break;
        }
        case 6: {
          const double v = variances[choose(std::size(variances))];
          const cf64 a = ours.cgaussian(v), b = reference.cgaussian(v);
          ASSERT_TRUE(same_bits(&a, &b, sizeof a)) << where << " cgaussian";
          break;
        }
        case 7:
        case 8: {
          if (choose(2) == 0) {  // An odd number of gaussian() calls first.
            for (std::size_t i = 0, odd = 2 * choose(2) + 1; i < odd; ++i) {
              const double a = ours.gaussian(), b = reference.gaussian();
              ASSERT_TRUE(same_bits(&a, &b, sizeof a)) << where << " gaussian before fill";
            }
          }
          const std::size_t n = length();
          const double v = variances[choose(std::size(variances))];
          ours_fill.assign(n + 1, cf64(7.0, 7.0));
          ours.fill_cgaussian(v, ours_fill.data(), n);
          reference_fill.assign(n + 1, cf64(7.0, 7.0));
          for (std::size_t i = 0; i < n; ++i) reference_fill[i] = reference.cgaussian(v);
          ASSERT_TRUE(same_bits(ours_fill.data(), reference_fill.data(),
                                (n + 1) * sizeof(cf64)))
              << where << " fill_cgaussian of " << n << " at variance " << v;
          break;
        }
        case 9: {
          Rng child = ours.fork();
          LibstdcxxRng reference_child = reference.fork();
          for (int i = 0; i < 4; ++i) {
            const cf64 a = child.cgaussian(), b = reference_child.cgaussian();
            ASSERT_TRUE(same_bits(&a, &b, sizeof a)) << where << " fork";
          }
          break;
        }
        default:
          ASSERT_EQ(ours.engine()(), reference.engine()()) << where << " engine()()";
          break;
      }
    }
    // Both generators end at the same position of the same stream.
    ASSERT_EQ(ours.engine()(), reference.engine()()) << "seed " << seed << " end";
  }
#else
  GTEST_SKIP() << "the reference is libstdc++'s distributions";
#endif
}

TEST(Rng, FillCgaussianEqualsSequentialCalls) {
  // On any standard library: a fill is n cgaussian() calls, from any engine
  // position and with or without a saved normal pending.
  std::vector<cf64> filled, called;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    for (const std::size_t skip : {std::size_t{0}, std::size_t{1}, std::size_t{153}}) {
      for (const std::size_t n : {0, 1, 2, 155, 156, 157, 311, 312, 313, 1000}) {
        for (const bool pending : {false, true}) {
          Rng a(Rng::derive_seed(seed, n, skip));
          Rng b(Rng::derive_seed(seed, n, skip));
          for (std::size_t i = 0; i < skip; ++i) {
            a.engine()();
            b.engine()();
          }
          if (pending) {
            a.gaussian();
            b.gaussian();
          }
          filled.assign(n, cf64{});
          a.fill_cgaussian(0.5, filled.data(), n);
          called.resize(n);
          for (cf64& v : called) v = b.cgaussian(0.5);
          ASSERT_TRUE(same_bits(filled.data(), called.data(), n * sizeof(cf64)))
              << "seed " << seed << " skip " << skip << " n " << n << " pending " << pending;
          const double next_a = a.gaussian(), next_b = b.gaussian();
          ASSERT_TRUE(same_bits(&next_a, &next_b, sizeof next_a)) << "position after the fill";
        }
      }
    }
  }
}

TEST(RngUniformInt, StaysInRange) {
  Rng rng(1);
  for (const int n : {1, 2, 3, 7, 10, 1000}) {
    for (int i = 0; i < 2000; ++i) {
      const int v = rng.uniform_int(n);
      ASSERT_GE(v, 0) << "n=" << n;
      ASSERT_LT(v, n) << "n=" << n;
    }
  }
}

TEST(RngUniformInt, DegenerateRangeIsConstantZero) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(1), 0);
}

TEST(RngUniformInt, DistributionIsUniform) {
  // Chi-square sanity on a fixed seed: 10 bins x 100k draws. With a fair
  // generator the statistic is ~9 (df = 9); 30 corresponds to p ~ 4e-4,
  // far beyond anything a correct implementation produces on this seed.
  constexpr int kBins = 10;
  constexpr int kDraws = 100000;
  Rng rng(12345);
  std::vector<int> counts(kBins, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_int(kBins)];

  const double expected = static_cast<double>(kDraws) / kBins;
  double chi_sq = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi_sq += d * d / expected;
  }
  EXPECT_LT(chi_sq, 30.0) << "chi^2 = " << chi_sq;
}

TEST(RngUniformInt, NonPowerOfTwoRangeHasNoModuloBias) {
  // A biased bounded generator over n=3 systematically favors low values;
  // check each bin is within 1% of fair share on a large fixed-seed draw.
  constexpr int kDraws = 300000;
  Rng rng(99);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_int(3)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kDraws, 1.0 / 3.0, 0.01);
  }
}

TEST(RngDeriveSeed, DistinctAcrossIndicesAndMasters) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t master : {0ull, 1ull, 0xDEADBEEFull}) {
    for (std::uint64_t index = 0; index < 1000; ++index)
      seen.insert(Rng::derive_seed(master, index));
  }
  // All 3000 derived seeds distinct (splitmix64 avalanche).
  EXPECT_EQ(seen.size(), 3000u);
}

TEST(RngForFrame, ReproducibleAndIndependentOfCallOrder) {
  // The same (seed, frame) pair always yields the same stream...
  Rng a = Rng::for_frame(7, 3);
  Rng b = Rng::for_frame(7, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.engine()(), b.engine()());

  // ...no matter what other frames were drawn first.
  Rng scrambled = Rng::for_frame(7, 99);
  (void)scrambled.uniform();
  Rng c = Rng::for_frame(7, 3);
  Rng d = Rng::for_frame(7, 3);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(c.uniform(), d.uniform());
}

TEST(RngForFrame, DifferentFramesGiveDifferentStreams) {
  Rng f0 = Rng::for_frame(1, 0);
  Rng f1 = Rng::for_frame(1, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += f0.bit() == f1.bit() ? 1 : 0;
  // Two independent bit streams agree on roughly half the draws.
  EXPECT_GT(same, 10);
  EXPECT_LT(same, 54);
}

}  // namespace
}  // namespace geosphere
