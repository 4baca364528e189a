// Portable scalar reference kernel: the bit-exactness anchor every SIMD
// tier is held to. Compiled with -ffp-contract=off (see CMakeLists.txt) so
// the documented one-rounding-per-op sequences survive host-tuned builds.
#include "detect/sphere/simd/kernel.h"

namespace geosphere::sphere::simd {

namespace {

void quotients_scalar(const double* num, const double* den, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = num[i] / den[i];
}

void center_accum_scalar(double r_re, double r_im, const double* s_re, const double* s_im,
                         double* acc_re, double* acc_im, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double t_re = r_re * s_re[i] - r_im * s_im[i];
    const double t_im = r_re * s_im[i] + r_im * s_re[i];
    acc_re[i] -= t_re;
    acc_im[i] -= t_im;
  }
}

void cmul_accum_scalar(double a_re, double a_im, const double* b, double* acc,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double t_re = a_re * b[2 * i] - a_im * b[2 * i + 1];
    const double t_im = a_re * b[2 * i + 1] + a_im * b[2 * i];
    acc[2 * i] += t_re;
    acc[2 * i + 1] += t_im;
  }
}

}  // namespace

const Kernel& scalar_kernel() {
  static constexpr Kernel k{"scalar", 1, quotients_scalar, center_accum_scalar,
                            cmul_accum_scalar};
  return k;
}

}  // namespace geosphere::sphere::simd
