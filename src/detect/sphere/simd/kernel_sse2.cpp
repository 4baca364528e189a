// SSE2 kernel tier: two lanes per 128-bit register. SSE2 is part of the
// x86-64 baseline, so this TU needs no special compiler flags -- it is
// simply absent from non-x86 builds. Each op performs the exact per-element
// sequence documented in kernel.h (separate mulpd/addpd/subpd/divpd, never
// FMA), so results are bit-identical to the scalar reference; the odd-count
// tails run the same scalar formulas (this TU is compiled with
// -ffp-contract=off).
#include "detect/sphere/simd/kernel.h"

#if defined(__SSE2__) || defined(_M_X64) || (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define GEOSPHERE_SSE2_KERNEL_ENABLED 1
#include <emmintrin.h>
#endif

namespace geosphere::sphere::simd {
namespace detail {

#ifdef GEOSPHERE_SSE2_KERNEL_ENABLED

namespace {

void quotients_sse2(const double* num, const double* den, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    _mm_storeu_pd(out + i, _mm_div_pd(_mm_loadu_pd(num + i), _mm_loadu_pd(den + i)));
  for (; i < n; ++i) out[i] = num[i] / den[i];
}

void center_accum_sse2(double r_re, double r_im, const double* s_re, const double* s_im,
                       double* acc_re, double* acc_im, std::size_t n) {
  const __m128d rre = _mm_set1_pd(r_re);
  const __m128d rim = _mm_set1_pd(r_im);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d sre = _mm_loadu_pd(s_re + i);
    const __m128d sim = _mm_loadu_pd(s_im + i);
    const __m128d t_re = _mm_sub_pd(_mm_mul_pd(rre, sre), _mm_mul_pd(rim, sim));
    const __m128d t_im = _mm_add_pd(_mm_mul_pd(rre, sim), _mm_mul_pd(rim, sre));
    _mm_storeu_pd(acc_re + i, _mm_sub_pd(_mm_loadu_pd(acc_re + i), t_re));
    _mm_storeu_pd(acc_im + i, _mm_sub_pd(_mm_loadu_pd(acc_im + i), t_im));
  }
  for (; i < n; ++i) {
    const double t_re = r_re * s_re[i] - r_im * s_im[i];
    const double t_im = r_re * s_im[i] + r_im * s_re[i];
    acc_re[i] -= t_re;
    acc_im[i] -= t_im;
  }
}

void cmul_accum_sse2(double a_re, double a_im, const double* b, double* acc,
                     std::size_t n) {
  const __m128d are = _mm_set1_pd(a_re);
  const __m128d aim = _mm_set1_pd(a_im);
  // Flips the sign of the low (re) lane only: t_re's subtraction becomes
  // the exact IEEE-equivalent add of the negated product.
  const __m128d negre = _mm_set_pd(0.0, -0.0);
  for (std::size_t i = 0; i < n; ++i) {  // One [re, im] pair per register.
    const __m128d bv = _mm_loadu_pd(b + 2 * i);
    const __m128d bs = _mm_shuffle_pd(bv, bv, 0x1);  // [im, re]
    const __m128d t = _mm_add_pd(_mm_mul_pd(are, bv),
                                 _mm_xor_pd(_mm_mul_pd(aim, bs), negre));
    _mm_storeu_pd(acc + 2 * i, _mm_add_pd(_mm_loadu_pd(acc + 2 * i), t));
  }
}

}  // namespace

const Kernel* sse2_kernel_or_null() {
  static constexpr Kernel k{"sse2", 2, quotients_sse2, center_accum_sse2, cmul_accum_sse2};
  return &k;
}

#else  // !GEOSPHERE_SSE2_KERNEL_ENABLED

const Kernel* sse2_kernel_or_null() { return nullptr; }

#endif

}  // namespace detail
}  // namespace geosphere::sphere::simd
