// AVX2 kernel tier: four lanes per 256-bit register. This TU alone is
// compiled with -mavx2 (when the compiler supports it; see CMakeLists.txt,
// which also defines GEOSPHERE_HAVE_AVX2_KERNEL for it) -- the rest of the
// library stays at the portable baseline, and dispatch.cpp only hands out
// this kernel after a runtime cpuid check, so a portable binary never
// executes AVX2 instructions on a host without them.
//
// No FMA anywhere, even though AVX2 hosts have it: fused multiply-adds skip
// the intermediate rounding and would break bit-identity with the scalar
// reference. The sub-width tails run the same scalar formulas (this TU is
// compiled with -ffp-contract=off).
#include "detect/sphere/simd/kernel.h"

#if defined(GEOSPHERE_HAVE_AVX2_KERNEL) && defined(__AVX2__)
#define GEOSPHERE_AVX2_KERNEL_ENABLED 1
#include <immintrin.h>
#endif

namespace geosphere::sphere::simd {
namespace detail {

#ifdef GEOSPHERE_AVX2_KERNEL_ENABLED

namespace {

void quotients_avx2(const double* num, const double* den, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(out + i, _mm256_div_pd(_mm256_loadu_pd(num + i), _mm256_loadu_pd(den + i)));
  for (; i < n; ++i) out[i] = num[i] / den[i];
}

void center_accum_avx2(double r_re, double r_im, const double* s_re, const double* s_im,
                       double* acc_re, double* acc_im, std::size_t n) {
  const __m256d rre = _mm256_set1_pd(r_re);
  const __m256d rim = _mm256_set1_pd(r_im);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d sre = _mm256_loadu_pd(s_re + i);
    const __m256d sim = _mm256_loadu_pd(s_im + i);
    const __m256d t_re = _mm256_sub_pd(_mm256_mul_pd(rre, sre), _mm256_mul_pd(rim, sim));
    const __m256d t_im = _mm256_add_pd(_mm256_mul_pd(rre, sim), _mm256_mul_pd(rim, sre));
    _mm256_storeu_pd(acc_re + i, _mm256_sub_pd(_mm256_loadu_pd(acc_re + i), t_re));
    _mm256_storeu_pd(acc_im + i, _mm256_sub_pd(_mm256_loadu_pd(acc_im + i), t_im));
  }
  for (; i < n; ++i) {
    const double t_re = r_re * s_re[i] - r_im * s_im[i];
    const double t_im = r_re * s_im[i] + r_im * s_re[i];
    acc_re[i] -= t_re;
    acc_im[i] -= t_im;
  }
}

void cmul_accum_avx2(double a_re, double a_im, const double* b, double* acc,
                     std::size_t n) {
  const __m256d are = _mm256_set1_pd(a_re);
  const __m256d aim = _mm256_set1_pd(a_im);
  // Flips the sign of the re lanes only: t_re's subtraction becomes the
  // exact IEEE-equivalent add of the negated product.
  const __m256d negre = _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {  // Two [re, im] pairs per register.
    const __m256d bv = _mm256_loadu_pd(b + 2 * i);
    const __m256d bs = _mm256_permute_pd(bv, 0x5);  // [im, re | im, re]
    const __m256d t = _mm256_add_pd(_mm256_mul_pd(are, bv),
                                    _mm256_xor_pd(_mm256_mul_pd(aim, bs), negre));
    _mm256_storeu_pd(acc + 2 * i, _mm256_add_pd(_mm256_loadu_pd(acc + 2 * i), t));
  }
  for (; i < n; ++i) {
    const double t_re = a_re * b[2 * i] - a_im * b[2 * i + 1];
    const double t_im = a_re * b[2 * i + 1] + a_im * b[2 * i];
    acc[2 * i] += t_re;
    acc[2 * i + 1] += t_im;
  }
}

}  // namespace

const Kernel* avx2_kernel_or_null() {
  static constexpr Kernel k{"avx2", 4, quotients_avx2, center_accum_avx2, cmul_accum_avx2};
  return &k;
}

#else  // !GEOSPHERE_AVX2_KERNEL_ENABLED

const Kernel* avx2_kernel_or_null() { return nullptr; }

#endif

}  // namespace detail
}  // namespace geosphere::sphere::simd
