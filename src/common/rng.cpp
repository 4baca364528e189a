// The normal draws and the bulk draws of common/rng.h. This TU is compiled
// without FP contraction (CMakeLists.txt, GEOSPHERE_EXACT_FP_SOURCES); the
// exactness argument is in rng.h.
#include "common/rng.h"

#include <algorithm>
#include <cmath>

namespace geosphere {

namespace {

/// libstdc++'s `ret * stddev + mean` at (1, 0): the identity, except that
/// -0.0 becomes +0.0.
inline double standard_normal_output(double ret) { return ret * 1.0 + 0.0; }

}  // namespace

void Mt19937_64::twist() {
  constexpr std::size_t kShift = 156;  // The standard's m.
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kLower = ~kUpper;
  constexpr result_type kMatrix = 0xB5026F5AA96619E9ull;
  const auto mix = [](result_type upper, result_type lower, result_type far) {
    const result_type y = (upper & kUpper) | (lower & kLower);
    return far ^ (y >> 1) ^ ((result_type{0} - (y & 1u)) & kMatrix);
  };
  std::size_t k = 0;
  for (; k < kStateSize - kShift; ++k)
    state_[k] = mix(state_[k], state_[k + 1], state_[k + kShift]);
  for (; k < kStateSize - 1; ++k)
    state_[k] = mix(state_[k], state_[k + 1], state_[k + kShift - kStateSize]);
  state_[kStateSize - 1] = mix(state_[kStateSize - 1], state_[0], state_[kShift - 1]);
  pos_ = 0;
}

double Rng::normal() {
  double ret;
  if (saved_available_) {
    saved_available_ = false;
    ret = saved_;
  } else {
    double x, y, r2;
    do {
      x = 2.0 * uniform() - 1.0;
      y = 2.0 * uniform() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2 * std::log(r2) / r2);
    saved_ = x * mult;
    saved_available_ = true;
    ret = y * mult;
  }
  return standard_normal_output(ret);
}

double Rng::gaussian(double mean, double stddev) { return mean + stddev * normal(); }

cf64 Rng::cgaussian(double variance) {
  const double s = std::sqrt(variance / 2.0);
  const double re = s * normal();
  return {re, s * normal()};
}

void Rng::fill_cgaussian(double variance, cf64* out, std::size_t n) {
  if (saved_available_) {  // The pairing is shifted by one for the whole fill.
    for (std::size_t i = 0; i < n; ++i) out[i] = cgaussian(variance);
    return;
  }
  // Without a saved value, sample i is exactly one accepted polar pair:
  // real part y * mult, imaginary part x * mult (the saved value).
  const double s = std::sqrt(variance / 2.0);
  constexpr std::size_t kRun = Mt19937_64::kStateSize / 2;  // Attempts per state array.
  double xs[kRun] = {}, ys[kRun] = {}, r2s[kRun] = {}, logs[kRun] = {};
  std::size_t done = 0;
  while (done < n) {
    const std::size_t words = engine_.refill();
    if (words < 2) {  // This attempt straddles the twist: take it per call.
      out[done++] = cgaussian(variance);
      continue;
    }
    // At most one sample per attempt, so evaluating no more attempts than
    // samples still owed never consumes a word past the last one needed.
    const std::size_t attempts = std::min(words / 2, n - done);
    const std::uint64_t* w = engine_.next_raw();
    std::size_t accepted = 0;
    for (std::size_t a = 0; a < attempts; ++a) {
      const double x = 2.0 * canonical(Mt19937_64::temper(w[2 * a])) - 1.0;
      const double y = 2.0 * canonical(Mt19937_64::temper(w[2 * a + 1])) - 1.0;
      const double r2 = x * x + y * y;
      xs[accepted] = x;
      ys[accepted] = y;
      r2s[accepted] = r2;
      accepted += !(r2 > 1.0 || r2 == 0.0);
    }
    engine_.advance(2 * attempts);
    for (std::size_t j = 0; j < accepted; ++j) logs[j] = std::log(r2s[j]);
    for (std::size_t j = 0; j < accepted; ++j) {
      const double mult = std::sqrt(-2 * logs[j] / r2s[j]);
      out[done + j] = {s * standard_normal_output(ys[j] * mult),
                       s * standard_normal_output(xs[j] * mult)};
    }
    done += accepted;
  }
}

void Rng::bits(std::size_t n, BitVector& out) {
  out.resize(n);
  std::size_t done = 0;
  while (done < n) {
    const std::size_t run = std::min(engine_.refill(), n - done);
    const std::uint64_t* w = engine_.next_raw();
    for (std::size_t i = 0; i < run; ++i)
      out[done + i] = static_cast<std::uint8_t>(Mt19937_64::temper(w[i]) & 1u);
    engine_.advance(run);
    done += run;
  }
}

}  // namespace geosphere
