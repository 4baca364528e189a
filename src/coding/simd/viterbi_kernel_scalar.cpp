// Portable scalar reference for both Viterbi ACS ops: the bit-exactness
// anchor the SSE2/AVX2 tiers are held to. The int16 op is integer
// arithmetic on a fixed renormalization schedule, so "bit-exact" needs no
// floating-point pinning there -- the SIMD tiers only have to perform the
// same adds, compares and the same tie rule. The double op follows the
// operation sequence in viterbi_kernel.h, branch-free, in a TU built with
// -ffp-contract=off.
#include "coding/simd/viterbi_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace geosphere::coding::simd {

namespace {

void acs_scalar(const std::int16_t* quantized, std::size_t steps, std::int16_t* metric,
                std::int16_t* scratch, std::uint64_t* decisions) {
  std::int16_t* cur = metric;
  std::int16_t* nxt = scratch;
  for (std::size_t t = 0; t < steps; ++t) {
    const int v0 = quantized[2 * t];
    const int v1 = quantized[2 * t + 1];
    std::uint64_t word = 0;
    for (std::size_t p = 0; p < 32; ++p) {
      const int d0 = v0 - kPolarity0[p];
      const int d1 = v1 - kPolarity1[p];
      const int e = (d0 < 0 ? -d0 : d0) + (d1 < 0 ? -d1 : d1);
      const int f = kMaxBranchCost - e;
      const int m0 = cur[2 * p];
      const int m1 = cur[2 * p + 1];
      // Ties keep the even predecessor (dropped bit 0) -- the double
      // decoder's strict-< update order.
      const int lo_even = m0 + e, lo_odd = m1 + f;
      const int hi_even = m0 + f, hi_odd = m1 + e;
      const bool lo_take_odd = lo_odd < lo_even;
      const bool hi_take_odd = hi_odd < hi_even;
      nxt[p] = static_cast<std::int16_t>(lo_take_odd ? lo_odd : lo_even);
      nxt[32 + p] = static_cast<std::int16_t>(hi_take_odd ? hi_odd : hi_even);
      word |= (static_cast<std::uint64_t>(lo_take_odd) << p) |
              (static_cast<std::uint64_t>(hi_take_odd) << (32 + p));
    }
    decisions[t] = word;
    std::swap(cur, nxt);
    if ((t + 1) % kRenormInterval == 0) {
      const std::int16_t low = *std::min_element(cur, cur + 64);
      for (std::size_t s = 0; s < 64; ++s)
        cur[s] = static_cast<std::int16_t>(cur[s] - low);
    }
  }
  if (cur != metric) std::memcpy(metric, cur, 64 * sizeof(std::int16_t));
}

}  // namespace

namespace detail {

void acs_double_scalar(const double* confidence, std::size_t steps, double* metric,
                       double* scratch, std::uint64_t* decisions) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double* cur = metric;
  double* nxt = scratch;
  for (std::size_t t = 0; t < steps; ++t) {
    const double c0 = confidence[2 * t];
    const double c1 = confidence[2 * t + 1];
    const double a[2] = {std::abs(c0 - 0.0), std::abs(c0 - 1.0)};
    const double b[2] = {std::abs(c1 - 0.0), std::abs(c1 - 1.0)};
    std::uint64_t word = 0;
    for (std::size_t p = 0; p < 32; ++p) {
      const unsigned o0 = kPolarity0[p] != 0 ? 1u : 0u;
      const unsigned o1 = kPolarity1[p] != 0 ? 1u : 0u;
      const double m0 = cur[2 * p];
      const double m1 = cur[2 * p + 1];
      const double lo_even = (m0 + a[o0]) + b[o1];
      const double lo_odd = (m1 + a[1 - o0]) + b[1 - o1];
      const double hi_even = (m0 + a[1 - o0]) + b[1 - o1];
      const double hi_odd = (m1 + a[o0]) + b[o1];
      const double lo_e = lo_even < kInf ? lo_even : kInf;
      const double hi_e = hi_even < kInf ? hi_even : kInf;
      const bool lo_take_odd = lo_odd < lo_e;
      const bool hi_take_odd = hi_odd < hi_e;
      nxt[p] = lo_take_odd ? lo_odd : lo_e;
      nxt[32 + p] = hi_take_odd ? hi_odd : hi_e;
      word |= (static_cast<std::uint64_t>(lo_take_odd) << p) |
              (static_cast<std::uint64_t>(hi_take_odd) << (32 + p));
    }
    decisions[t] = word;
    std::swap(cur, nxt);
  }
  if (cur != metric) std::memcpy(metric, cur, 64 * sizeof(double));
}

}  // namespace detail

const ViterbiKernel& scalar_viterbi_kernel() {
  static constexpr ViterbiKernel k{"scalar", acs_scalar, detail::acs_double_scalar};
  return k;
}

}  // namespace geosphere::coding::simd
