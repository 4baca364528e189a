// Seeded random number generation for reproducible Monte-Carlo experiments.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace geosphere {

/// The 64-bit Mersenne Twister, word for word std::mt19937_64: the same
/// seeding, twist and tempering, so every seed yields the standard's output
/// sequence (the 10000th word from seed 5489 is 9981545732273789042). It
/// satisfies UniformRandomBitGenerator. Unlike the standard engine it
/// exposes its state array, so bulk draws can temper a run of untempered
/// words where they lie (next_raw(), then advance() past the words used)
/// instead of paying a call per word; the words come out the same and in
/// the same order.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateSize = 312;

  explicit Mt19937_64(result_type seed = 5489u) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateSize; ++i)
      state_[i] = 6364136223846793005ull * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ == kStateSize) twist();
    return temper(state_[pos_++]);
  }

  /// The output transform applied to each state word.
  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

  /// Words left before the next twist; twists first when none are left, so
  /// the result is at least 1.
  std::size_t refill() {
    if (pos_ == kStateSize) twist();
    return kStateSize - pos_;
  }
  /// The untempered word the next draw tempers, followed by the rest of the
  /// run refill() counted.
  const result_type* next_raw() const { return state_.data() + pos_; }
  /// Consumes `n` words of the current run (n <= refill()).
  void advance(std::size_t n) { pos_ += n; }

 private:
  void twist();

  std::array<result_type, kStateSize> state_;  // Every word is set by the constructor.
  std::size_t pos_ = kStateSize;  // The first draw twists, as the standard engine does.
};

/// Deterministic random source. Every experiment takes an explicit Rng so
/// that channel draws, payloads and noise are reproducible from a seed and
/// identical across the detectors being compared.
///
/// Parallel experiments use counter-based seeding: `Rng::for_frame(seed, f)`
/// derives an independent generator for frame `f` from the master seed, so a
/// frame's draws depend only on (seed, f) -- never on which thread ran it or
/// in what order. This is what makes `sim::Engine` results bit-identical
/// regardless of thread count.
///
/// The draws are defined here, not by the standard library: the engine is
/// std::mt19937_64 (above), and uniform() and the Gaussians spell out what
/// libstdc++'s uniform_real_distribution<double> and
/// normal_distribution<double> compute on it, so the only outside
/// dependency left is libm's `log`. Why each draw is exact:
///
///  * Uniform. With a 64-bit engine, libstdc++'s generate_canonical<double,
///    53> takes one word u and returns RN(u) / 2^64, or nextafter(1, 0) when
///    that rounds up to 1. Its uint64 -> double conversion branches on u's
///    top bit, a branch that mispredicts half the time. canonical() converts
///    without it: both 32-bit halves convert exactly (the magic-number
///    trick), hi * 2^32 is exact, and the one add rounds once, so the sum is
///    RN(u). uniform() is that value times (1 - 0) plus 0, i.e. itself.
///  * Normal. libstdc++'s Marsaglia polar method (bits/random.tcc): x = 2U-1,
///    y = 2U-1, rejected while r2 = x*x + y*y is > 1 or == 0; then mult =
///    sqrt(-2 * log(r2) / r2), the draw is y * mult and x * mult is saved
///    for the next call. Every result passes through `* stddev + mean` with
///    (1, 0), which turns -0.0 into +0.0 (mult is -0.0 at r2 == 1), so that
///    step is kept. The arithmetic lives in rng.cpp, which is compiled
///    without FP contraction: fused into one FMA, x*x + y*y would round
///    differently.
///  * Bulk draws. bits() and fill_cgaussian() temper runs of the state array
///    in place of per-word calls and advance the position by exactly the
///    words they consume; a rejected polar attempt still consumes its two.
///    fill_cgaussian() first evaluates the rejection test over a run of
///    attempts and compacts the accepted ones in order, then takes log,
///    sqrt and the division once per accepted pair: the same IEEE
///    operations on the same operands. A saved normal pending at the start
///    would shift the pairing for the whole fill, so that case falls back
///    to per-sample calls.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// splitmix64 output at position `index` of the stream seeded by `master`:
  /// a statistically independent 64-bit value per (master, index) pair.
  /// Used to derive per-frame / per-sweep-point seeds from one master seed.
  static std::uint64_t derive_seed(std::uint64_t master, std::uint64_t index) {
    std::uint64_t z = master + (index + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Multi-index derivations for nested counter spaces, chaining the
  /// splitmix64 step per index: derive_seed(seed, cell, tti, frame) is the
  /// serving layer's per-frame seed, independent for every (cell, tti,
  /// frame) triple and -- like the single-index form -- independent of
  /// which thread does the work or in what order.
  static std::uint64_t derive_seed(std::uint64_t master, std::uint64_t i,
                                   std::uint64_t j) {
    return derive_seed(derive_seed(master, i), j);
  }
  static std::uint64_t derive_seed(std::uint64_t master, std::uint64_t i,
                                   std::uint64_t j, std::uint64_t k) {
    return derive_seed(derive_seed(master, i, j), k);
  }

  /// The dedicated generator for frame `frame_index` of the experiment with
  /// master seed `master_seed` (counter-based per-frame seeding).
  static Rng for_frame(std::uint64_t master_seed, std::uint64_t frame_index) {
    return Rng(derive_seed(master_seed, frame_index));
  }

  /// generate_canonical<double, 53> of one 64-bit word: RN(word) / 2^64,
  /// clamped to nextafter(1, 0) when it rounds up to 1. Branch-free.
  static double canonical(std::uint64_t word) {
    const double hi =
        std::bit_cast<double>(0x4530000000000000ull | (word >> 32)) - 0x1p84;  // hi * 2^32
    const double lo =
        std::bit_cast<double>(0x4330000000000000ull | (word & 0xFFFFFFFFull)) - 0x1p52;
    const double u = (hi + lo) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
  }

  /// Uniform double in [0, 1).
  double uniform() { return canonical(engine_()); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Requires n > 0. Lemire's multiply-shift
  /// bounded rejection over the low 32 bits of each engine draw: no
  /// per-call distribution construction, one 64-bit multiply per draw and
  /// a rejection branch that almost never triggers. Plain 64-bit math
  /// (n < 2^31), so it is portable to compilers without __int128.
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

  /// Real Gaussian N(mean, stddev^2).
  double gaussian(double mean = 0.0, double stddev = 1.0);

  /// Circularly-symmetric complex Gaussian CN(0, variance): each real
  /// dimension has variance `variance / 2`. The real part is drawn first.
  cf64 cgaussian(double variance = 1.0);

  /// `n` cgaussian(variance) draws into out[0..n), bit-identical to the
  /// calls in sequence and leaving the generator where they would.
  void fill_cgaussian(double variance, cf64* out, std::size_t n);

  /// A single random bit.
  std::uint8_t bit() { return static_cast<std::uint8_t>(engine_() & 1u); }

  /// `n` random bits into `out` (resized to n), one engine word each:
  /// bit-identical to n bit() calls.
  void bits(std::size_t n, BitVector& out);
  BitVector bits(std::size_t n) {
    BitVector out;
    bits(n, out);
    return out;
  }

  /// Derive an independent child generator (e.g. one per link / frame).
  Rng fork() { return Rng(engine_()); }

  Mt19937_64& engine() { return engine_; }

 private:
  /// One normal_distribution<double>(0, 1) draw.
  double normal();

  Mt19937_64 engine_;
  double saved_ = 0.0;  ///< The polar method's second value, when pending.
  bool saved_available_ = false;
};

}  // namespace geosphere
