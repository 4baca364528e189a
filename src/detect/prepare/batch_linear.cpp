// Packed Gram/Gauss-Jordan driver. The elimination is a lane-for-lane
// transcription of linalg/solve.cpp's gauss_jordan: the packed row ops
// (pivot-row scaling, eliminations) run through the active kernel tier, and
// the per-column scalar work -- magnitude scans (std::abs of a complex),
// pivot selection, row swaps, the complex reciprocal of the pivot -- stays
// per-lane std::complex code identical to the scalar reference. A lane
// whose best pivot falls to the tolerance is exactly a lane where the
// reference throws: it leaves active_, passes zero factors / a zero mask to
// every later op, and keeps its bits untouched from that point.
#include "detect/prepare/batch_linear.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <utility>

#include "common/types.h"
#include "detect/prepare/simd/dispatch.h"

namespace geosphere::prepare {

void BatchLinear::gauss_jordan_packed(std::size_t n, std::size_t bcols, std::size_t L) {
  const simd::Kernel& kernel = simd::active_kernel();
  tol_.resize(L);
  pr_.resize(L);
  pi_.resize(L);
  mask_.resize(L);
  gr_.resize(L);
  gi_.resize(L);

  for (std::size_t l = 0; l < L; ++l) {
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        scale = std::max(scale,
                         std::abs(cf64{a_re_[(i * n + j) * L + l], a_im_[(i * n + j) * L + l]}));
    tol_[l] = 1e-13 * std::max(scale, 1e-300);
  }

  for (std::size_t col = 0; col < n; ++col) {
    for (std::size_t l = 0; l < L; ++l) {
      mask_[l] = 0.0;
      if (!active_[l]) continue;
      // Partial pivot, exactly as the scalar loop: strict improvement only.
      std::size_t pivot = col;
      double best = std::abs(cf64{a_re_[(col * n + col) * L + l], a_im_[(col * n + col) * L + l]});
      for (std::size_t i = col + 1; i < n; ++i) {
        const double mag =
            std::abs(cf64{a_re_[(i * n + col) * L + l], a_im_[(i * n + col) * L + l]});
        if (mag > best) {
          best = mag;
          pivot = i;
        }
      }
      if (best <= tol_[l]) {  // The reference throws here: lane goes inert.
        active_[l] = 0;
        continue;
      }
      if (pivot != col) {
        for (std::size_t j = 0; j < n; ++j) {
          std::swap(a_re_[(col * n + j) * L + l], a_re_[(pivot * n + j) * L + l]);
          std::swap(a_im_[(col * n + j) * L + l], a_im_[(pivot * n + j) * L + l]);
        }
        for (std::size_t j = 0; j < bcols; ++j) {
          std::swap(b_re_[(col * bcols + j) * L + l], b_re_[(pivot * bcols + j) * L + l]);
          std::swap(b_im_[(col * bcols + j) * L + l], b_im_[(pivot * bcols + j) * L + l]);
        }
      }
      const cf64 inv_p =
          cf64{1.0, 0.0} / cf64{a_re_[(col * n + col) * L + l], a_im_[(col * n + col) * L + l]};
      pr_[l] = inv_p.real();
      pi_[l] = inv_p.imag();
      mask_[l] = 1.0;
    }
    kernel.phase_scale(pr_.data(), pi_.data(), mask_.data(), a_re_.data() + (col * n) * L,
                       a_im_.data() + (col * n) * L, n, 1, L);
    kernel.phase_scale(pr_.data(), pi_.data(), mask_.data(), b_re_.data() + (col * bcols) * L,
                       b_im_.data() + (col * bcols) * L, bcols, 1, L);
    for (std::size_t i = 0; i < n; ++i) {
      if (i == col) continue;
      for (std::size_t l = 0; l < L; ++l) {
        if (active_[l]) {
          gr_[l] = a_re_[(i * n + col) * L + l];
          gi_[l] = a_im_[(i * n + col) * L + l];
        } else {  // Zero factor: the op skips the lane, bits untouched.
          gr_[l] = 0.0;
          gi_[l] = 0.0;
        }
      }
      kernel.row_update(gr_.data(), gi_.data(), a_re_.data() + (col * n) * L,
                        a_im_.data() + (col * n) * L, a_re_.data() + (i * n) * L,
                        a_im_.data() + (i * n) * L, n, L);
      kernel.row_update(gr_.data(), gi_.data(), b_re_.data() + (col * bcols) * L,
                        b_im_.data() + (col * bcols) * L, b_re_.data() + (i * bcols) * L,
                        b_im_.data() + (i * bcols) * L, bcols, L);
    }
  }
}

void BatchLinear::gram_inverse(const linalg::CMatrix* hs, std::size_t count, bool add_noise,
                               double noise_var, std::vector<GramInvSlot>& out) {
  out.resize(count);
  if (count == 0) return;
  const std::size_t m = hs[0].rows();
  const std::size_t n = hs[0].cols();
  const simd::Kernel& kernel = simd::active_kernel();

  for (std::size_t base = 0; base < count; base += kernel.width) {
    const std::size_t L = std::min(kernel.width, count - base);
    h_re_.resize(m * n * L);
    h_im_.resize(m * n * L);
    ah_re_.resize(n * m * L);
    ah_im_.resize(n * m * L);
    a_re_.resize(n * n * L);
    a_im_.resize(n * n * L);
    b_re_.resize(n * n * L);
    b_im_.resize(n * n * L);
    active_.assign(L, 1);

    for (std::size_t l = 0; l < L; ++l) {
      const linalg::CMatrix& h = hs[base + l];
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
          const cf64 v = h(i, j);
          h_re_[(i * n + j) * L + l] = v.real();
          h_im_[(i * n + j) * L + l] = v.imag();
          ah_re_[(j * m + i) * L + l] = v.real();
          ah_im_[(j * m + i) * L + l] = -v.imag();  // conj: exact sign flip.
        }
    }

    kernel.matmul(ah_re_.data(), ah_im_.data(), h_re_.data(), h_im_.data(), a_re_.data(),
                  a_im_.data(), n, m, n, L);
    if (add_noise)  // gram(d, d) += noise_var: one real add, as in mmse.cpp.
      for (std::size_t d = 0; d < n; ++d)
        for (std::size_t l = 0; l < L; ++l) a_re_[(d * n + d) * L + l] += noise_var;

    for (std::size_t idx = 0; idx < n * n * L; ++idx) {
      b_re_[idx] = 0.0;
      b_im_[idx] = 0.0;
    }
    for (std::size_t d = 0; d < n; ++d)
      for (std::size_t l = 0; l < L; ++l) b_re_[(d * n + d) * L + l] = 1.0;

    gauss_jordan_packed(n, n, L);

    for (std::size_t l = 0; l < L; ++l) {
      GramInvSlot& slot = out[base + l];
      slot.singular = active_[l] == 0;
      slot.hh.assign_shape(n, m);
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = 0; i < m; ++i)
          slot.hh(j, i) = cf64{ah_re_[(j * m + i) * L + l], ah_im_[(j * m + i) * L + l]};
      slot.inv.assign_shape(n, n);
      if (!slot.singular)
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < n; ++j)
            slot.inv(i, j) = cf64{b_re_[(i * n + j) * L + l], b_im_[(i * n + j) * L + l]};
    }
  }
}

void BatchLinear::pseudo_inverse(const linalg::CMatrix* hs, std::size_t count,
                                 std::vector<linalg::CMatrix>& filters,
                                 std::vector<std::uint8_t>& singular) {
  filters.resize(count);
  singular.assign(count, 0);
  if (count == 0) return;
  const std::size_t m = hs[0].rows();
  const std::size_t n = hs[0].cols();
  const simd::Kernel& kernel = simd::active_kernel();

  for (std::size_t base = 0; base < count; base += kernel.width) {
    const std::size_t L = std::min(kernel.width, count - base);
    h_re_.resize(m * n * L);
    h_im_.resize(m * n * L);
    ah_re_.resize(n * m * L);
    ah_im_.resize(n * m * L);
    a_re_.resize(n * n * L);
    a_im_.resize(n * n * L);
    b_re_.resize(n * n * L);
    b_im_.resize(n * n * L);
    f_re_.resize(n * m * L);
    f_im_.resize(n * m * L);
    active_.assign(L, 1);

    for (std::size_t l = 0; l < L; ++l) {
      const linalg::CMatrix& h = hs[base + l];
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
          const cf64 v = h(i, j);
          h_re_[(i * n + j) * L + l] = v.real();
          h_im_[(i * n + j) * L + l] = v.imag();
          ah_re_[(j * m + i) * L + l] = v.real();
          ah_im_[(j * m + i) * L + l] = -v.imag();
        }
    }

    kernel.matmul(ah_re_.data(), ah_im_.data(), h_re_.data(), h_im_.data(), a_re_.data(),
                  a_im_.data(), n, m, n, L);
    for (std::size_t idx = 0; idx < n * n * L; ++idx) {
      b_re_[idx] = 0.0;
      b_im_[idx] = 0.0;
    }
    for (std::size_t d = 0; d < n; ++d)
      for (std::size_t l = 0; l < L; ++l) b_re_[(d * n + d) * L + l] = 1.0;

    gauss_jordan_packed(n, n, L);
    // filter = inverse(H^H H) * H^H, the exact multiply_into order of
    // pseudo_inverse's final product.
    kernel.matmul(b_re_.data(), b_im_.data(), ah_re_.data(), ah_im_.data(), f_re_.data(),
                  f_im_.data(), n, n, m, L);

    for (std::size_t l = 0; l < L; ++l) {
      singular[base + l] = active_[l] == 0 ? 1 : 0;
      linalg::CMatrix& filter = filters[base + l];
      filter.assign_shape(n, m);
      if (active_[l] != 0)
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < m; ++j)
            filter(i, j) = cf64{f_re_[(i * m + j) * L + l], f_im_[(i * m + j) * L + l]};
    }
  }
}

}  // namespace geosphere::prepare
