// SSE2 tier of the Viterbi ACS kernels: the int16 op runs 8 butterflies per
// 128-bit register. SSE2 is part of the x86-64 baseline, so this TU needs no
// special compiler flags -- it is simply absent from non-x86 builds. The
// double op is the scalar function (see viterbi_kernel.h for why).
//
// All int16 arithmetic is exact (no saturation is ever reached -- see the
// overflow bound in viterbi_kernel.h), so the adds, the strict-< compare
// and the min produce bit-identical survivors and decision bits to the
// scalar reference. The even/odd metric deinterleave uses mask+pack and
// shift+pack; _mm_packs_epi32 saturation is inert because metrics stay in
// [0, 24448].
#include "coding/simd/viterbi_kernel.h"

#if defined(__SSE2__) || defined(_M_X64) || (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define GEOSPHERE_SSE2_VITERBI_ENABLED 1
#include <emmintrin.h>
#endif

#ifdef GEOSPHERE_SSE2_VITERBI_ENABLED
#include <algorithm>
#include <cstring>
#endif

namespace geosphere::coding::simd {
namespace detail {

#ifdef GEOSPHERE_SSE2_VITERBI_ENABLED

namespace {

void acs_sse2(const std::int16_t* quantized, std::size_t steps, std::int16_t* metric,
              std::int16_t* scratch, std::uint64_t* decisions) {
  const __m128i max_branch = _mm_set1_epi16(static_cast<short>(kMaxBranchCost));
  const __m128i zero = _mm_setzero_si128();
  const __m128i lo16 = _mm_set1_epi32(0x0000FFFF);

  std::int16_t* cur = metric;
  std::int16_t* nxt = scratch;
  for (std::size_t t = 0; t < steps; ++t) {
    const __m128i v0 = _mm_set1_epi16(quantized[2 * t]);
    const __m128i v1 = _mm_set1_epi16(quantized[2 * t + 1]);
    std::uint64_t word = 0;
    for (std::size_t p0 = 0; p0 < 32; p0 += 8) {
      // States 2*p0 .. 2*p0+15: deinterleave into even (m0) and odd (m1)
      // predecessor metrics for butterflies p0 .. p0+7.
      const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(cur + 2 * p0));
      const __m128i b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(cur + 2 * p0 + 8));
      const __m128i m0 =
          _mm_packs_epi32(_mm_and_si128(a, lo16), _mm_and_si128(b, lo16));
      const __m128i m1 = _mm_packs_epi32(_mm_srai_epi32(a, 16), _mm_srai_epi32(b, 16));

      const __m128i pol0 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kPolarity0.data() + p0));
      const __m128i pol1 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kPolarity1.data() + p0));
      const __m128i d0 = _mm_sub_epi16(v0, pol0);
      const __m128i d1 = _mm_sub_epi16(v1, pol1);
      const __m128i e = _mm_add_epi16(_mm_max_epi16(d0, _mm_sub_epi16(zero, d0)),
                                      _mm_max_epi16(d1, _mm_sub_epi16(zero, d1)));
      const __m128i f = _mm_sub_epi16(max_branch, e);

      const __m128i lo_even = _mm_add_epi16(m0, e);
      const __m128i lo_odd = _mm_add_epi16(m1, f);
      const __m128i hi_even = _mm_add_epi16(m0, f);
      const __m128i hi_odd = _mm_add_epi16(m1, e);
      // Strict < keeps the even predecessor on ties, exactly like the
      // scalar reference; min() agrees on the surviving value either way.
      const __m128i lo_mask = _mm_cmplt_epi16(lo_odd, lo_even);
      const __m128i hi_mask = _mm_cmplt_epi16(hi_odd, hi_even);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(nxt + p0),
                       _mm_min_epi16(lo_even, lo_odd));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(nxt + 32 + p0),
                       _mm_min_epi16(hi_even, hi_odd));

      const unsigned bits = static_cast<unsigned>(
          _mm_movemask_epi8(_mm_packs_epi16(lo_mask, hi_mask)));
      word |= (static_cast<std::uint64_t>(bits & 0xFFu) << p0) |
              (static_cast<std::uint64_t>(bits >> 8) << (32 + p0));
    }
    decisions[t] = word;
    std::swap(cur, nxt);
    if ((t + 1) % kRenormInterval == 0) {
      // Exact-minimum renormalization, identical integer math to scalar.
      const std::int16_t low = *std::min_element(cur, cur + 64);
      const __m128i low_v = _mm_set1_epi16(low);
      for (std::size_t s = 0; s < 64; s += 8) {
        const __m128i m = _mm_loadu_si128(reinterpret_cast<const __m128i*>(cur + s));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(cur + s), _mm_sub_epi16(m, low_v));
      }
    }
  }
  if (cur != metric) std::memcpy(metric, cur, 64 * sizeof(std::int16_t));
}

const ViterbiKernel kSse2{"sse2", acs_sse2, acs_double_scalar};

}  // namespace

const ViterbiKernel* sse2_viterbi_kernel_or_null() { return &kSse2; }

#else

const ViterbiKernel* sse2_viterbi_kernel_or_null() { return nullptr; }

#endif

}  // namespace detail
}  // namespace geosphere::coding::simd
