// Packed Householder QR driver. The algorithm is a lane-for-lane
// transcription of linalg/qr.cpp: the packed ops (reflector application,
// phase scaling) run through the active kernel tier, and everything that is
// once-per-column scalar work -- column norms, sqrt, the reflector pivot
// phase (std::abs of a complex, complex division), v0 and ||v||^2 updates,
// the diagonal normalization phases -- is computed per lane with the exact
// std::complex expressions of the scalar reference, so it is bit-identical
// across tiers by construction. Lanes whose reflector or diagonal is
// degenerate carry a zero mask through the ops and keep their original
// bits, matching the scalar early-outs (`v_norm_sq <= 0`, `mag <= 0`).
#include "detect/prepare/batch_qr.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/types.h"
#include "detect/prepare/simd/dispatch.h"

namespace geosphere::prepare {

void BatchQr::run(const linalg::CMatrix* hs, std::size_t count, std::vector<QrSlot>& out) {
  out.resize(count);
  if (count == 0) return;
  const std::size_t m = hs[0].rows();
  const std::size_t n = hs[0].cols();
  const simd::Kernel& kernel = simd::active_kernel();

  for (std::size_t base = 0; base < count; base += kernel.width) {
    const std::size_t L = std::min(kernel.width, count - base);

    work_re_.resize(m * n * L);
    work_im_.resize(m * n * L);
    q_re_.assign(m * n * L, 0.0);
    q_im_.assign(m * n * L, 0.0);
    vs_re_.resize(n * m * L);
    vs_im_.resize(n * m * L);
    vns_.assign(n * L, 0.0);
    norm_sq_.resize(L);
    mag_.resize(L);
    pr_r_.resize(L);
    pi_r_.resize(L);
    pr_q_.resize(L);
    pi_q_.resize(L);

    // Gather the chunk's matrices into column-major SoA lanes.
    for (std::size_t l = 0; l < L; ++l) {
      const linalg::CMatrix& h = hs[base + l];
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = 0; i < m; ++i) {
          const cf64 v = h(i, j);
          work_re_[(j * m + i) * L + l] = v.real();
          work_im_[(j * m + i) * L + l] = v.imag();
        }
    }

    // Factorization sweep: build reflector k from column k's subdiagonal,
    // then apply it to columns k..n-1 (qr.cpp's main loop).
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t len = m - k;
      for (std::size_t l = 0; l < L; ++l) norm_sq_[l] = 0.0;
      for (std::size_t t = 0; t < len; ++t)
        for (std::size_t l = 0; l < L; ++l) {
          const double vr = work_re_[(k * m + k + t) * L + l];
          const double vi = work_im_[(k * m + k + t) * L + l];
          vs_re_[(k * m + t) * L + l] = vr;
          vs_im_[(k * m + t) * L + l] = vi;
          norm_sq_[l] += std::norm(cf64{vr, vi});
        }
      for (std::size_t l = 0; l < L; ++l) {
        const double norm = std::sqrt(norm_sq_[l]);
        if (!(norm > 0.0)) continue;  // v_norm_sq stays 0: reflector skipped.
        const cf64 x0{vs_re_[(k * m) * L + l], vs_im_[(k * m) * L + l]};
        const double ax0 = std::abs(x0);
        const cf64 phase = (ax0 > 0.0) ? x0 / ax0 : cf64{1.0, 0.0};
        const cf64 alpha = -phase * norm;
        const cf64 v0 = x0 - alpha;
        vs_re_[(k * m) * L + l] = v0.real();
        vs_im_[(k * m) * L + l] = v0.imag();
        const double vns =
            norm_sq_[l] - 2.0 * (std::conj(alpha) * x0).real() + std::norm(alpha);
        if (vns > 1e-30) vns_[k * L + l] = vns;  // Else stays 0: skipped.
      }
      for (std::size_t j = k; j < n; ++j)
        kernel.reflector_apply(vs_re_.data() + (k * m) * L, vs_im_.data() + (k * m) * L,
                               vns_.data() + k * L, work_re_.data() + (j * m + k) * L,
                               work_im_.data() + (j * m + k) * L, len, L);
    }

    // Thin Q: reflectors applied to the identity in reverse order.
    for (std::size_t l = 0; l < L; ++l)
      for (std::size_t j = 0; j < n; ++j) q_re_[(j * m + j) * L + l] = 1.0;
    for (std::size_t k = n; k-- > 0;) {
      const std::size_t len = m - k;
      for (std::size_t j = 0; j < n; ++j)
        kernel.reflector_apply(vs_re_.data() + (k * m) * L, vs_im_.data() + (k * m) * L,
                               vns_.data() + k * L, q_re_.data() + (j * m + k) * L,
                               q_im_.data() + (j * m + k) * L, len, L);
    }

    // Diagonal normalization: R <- D^H R (row i, upper part), Q <- Q D
    // (column i), D = diag(phase of r_ii). Degenerate diagonals (mag <= 0)
    // are skipped per lane via the mask, as in the scalar loop.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t l = 0; l < L; ++l) {
        const cf64 rii{work_re_[(i * m + i) * L + l], work_im_[(i * m + i) * L + l]};
        const double mag = std::abs(rii);
        mag_[l] = mag;
        if (!(mag > 0.0)) continue;
        const cf64 phase = rii / mag;
        const cf64 cphase = std::conj(phase);
        pr_r_[l] = cphase.real();
        pi_r_[l] = cphase.imag();
        pr_q_[l] = phase.real();
        pi_q_[l] = phase.imag();
      }
      kernel.phase_scale(pr_r_.data(), pi_r_.data(), mag_.data(),
                         work_re_.data() + (i * m + i) * L, work_im_.data() + (i * m + i) * L,
                         n - i, m, L);
      kernel.phase_scale(pr_q_.data(), pi_q_.data(), mag_.data(),
                         q_re_.data() + (i * m) * L, q_im_.data() + (i * m) * L, m, 1, L);
    }

    // Scatter into the slots: Q^H by conjugate transposition (pure data
    // movement and exact sign flips), R's upper triangle, and the shared
    // rank test against the input's Frobenius norm. A norm that is not
    // finite fails the test outright: a NaN would pass every comparison
    // below and hand the searches a NaN tree.
    for (std::size_t l = 0; l < L; ++l) {
      QrSlot& slot = out[base + l];
      slot.qh.assign_shape(n, m);
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = 0; i < m; ++i)
          slot.qh(j, i) = cf64{q_re_[(j * m + i) * L + l], -q_im_[(j * m + i) * L + l]};
      slot.r.assign_shape(n, n);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i; j < n; ++j)
          slot.r(i, j) = cf64{work_re_[(j * m + i) * L + l], work_im_[(j * m + i) * L + l]};
      const double fro_sq = hs[base + l].frobenius_norm_sq();
      const double rank_tol = 1e-10 * std::sqrt(std::max(fro_sq, 1e-300));
      slot.rank_ok = std::isfinite(fro_sq);
      for (std::size_t i = 0; i < n && slot.rank_ok; ++i)
        if (slot.r(i, i).real() <= rank_tol) slot.rank_ok = false;
    }
  }
}

}  // namespace geosphere::prepare
