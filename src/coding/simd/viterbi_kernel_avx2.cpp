// AVX2 tier of the Viterbi ACS kernels. This TU alone is compiled with
// -mavx2 (when the compiler supports it; see CMakeLists.txt, which also
// defines GEOSPHERE_HAVE_AVX2_VITERBI for it and pins -ffp-contract=off);
// dispatch.cpp only hands the kernel out after a runtime cpuid check, so a
// portable binary never executes AVX2 instructions on a host without them.
//
// int16 op: 16 butterflies per 256-bit register, so one iteration covers
// half the trellis. _mm256_packs_* operate within 128-bit lanes, so the
// even/odd metric deinterleave is followed by a permute4x64 that restores
// natural butterfly order; the decision-mask pack skips the permute and
// instead places its four in-lane byte groups into the word individually.
// All arithmetic is exact int16 (see the overflow bound in
// viterbi_kernel.h): bit-identical to the scalar reference.
//
// double op: 4 butterflies per register, the scalar operation sequence lane
// for lane -- the same IEEE adds in the same order, the same strict-<
// compares and the same selects -- so it is bit-identical by construction.
#include "coding/simd/viterbi_kernel.h"

#if defined(GEOSPHERE_HAVE_AVX2_VITERBI) && defined(__AVX2__)
#define GEOSPHERE_AVX2_VITERBI_ENABLED 1
#include <immintrin.h>
#endif

#ifdef GEOSPHERE_AVX2_VITERBI_ENABLED
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#endif

namespace geosphere::coding::simd {
namespace detail {

#ifdef GEOSPHERE_AVX2_VITERBI_ENABLED

namespace {

void acs_avx2(const std::int16_t* quantized, std::size_t steps, std::int16_t* metric,
              std::int16_t* scratch, std::uint64_t* decisions) {
  const __m256i max_branch = _mm256_set1_epi16(static_cast<short>(kMaxBranchCost));
  const __m256i lo16 = _mm256_set1_epi32(0x0000FFFF);

  std::int16_t* cur = metric;
  std::int16_t* nxt = scratch;
  for (std::size_t t = 0; t < steps; ++t) {
    const __m256i v0 = _mm256_set1_epi16(quantized[2 * t]);
    const __m256i v1 = _mm256_set1_epi16(quantized[2 * t + 1]);
    std::uint64_t word = 0;
    for (std::size_t p0 = 0; p0 < 32; p0 += 16) {
      // States 2*p0 .. 2*p0+31 -> even/odd metrics of butterflies
      // p0 .. p0+15, permuted back to natural order after the in-lane pack.
      const __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur + 2 * p0));
      const __m256i b =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur + 2 * p0 + 16));
      const __m256i m0 = _mm256_permute4x64_epi64(
          _mm256_packs_epi32(_mm256_and_si256(a, lo16), _mm256_and_si256(b, lo16)),
          _MM_SHUFFLE(3, 1, 2, 0));
      const __m256i m1 = _mm256_permute4x64_epi64(
          _mm256_packs_epi32(_mm256_srai_epi32(a, 16), _mm256_srai_epi32(b, 16)),
          _MM_SHUFFLE(3, 1, 2, 0));

      const __m256i pol0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kPolarity0.data() + p0));
      const __m256i pol1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kPolarity1.data() + p0));
      const __m256i e = _mm256_add_epi16(_mm256_abs_epi16(_mm256_sub_epi16(v0, pol0)),
                                         _mm256_abs_epi16(_mm256_sub_epi16(v1, pol1)));
      const __m256i f = _mm256_sub_epi16(max_branch, e);

      const __m256i lo_even = _mm256_add_epi16(m0, e);
      const __m256i lo_odd = _mm256_add_epi16(m1, f);
      const __m256i hi_even = _mm256_add_epi16(m0, f);
      const __m256i hi_odd = _mm256_add_epi16(m1, e);
      // Strict < keeps the even predecessor on ties (scalar's tie rule).
      const __m256i lo_mask = _mm256_cmpgt_epi16(lo_even, lo_odd);
      const __m256i hi_mask = _mm256_cmpgt_epi16(hi_even, hi_odd);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(nxt + p0),
                          _mm256_min_epi16(lo_even, lo_odd));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(nxt + 32 + p0),
                          _mm256_min_epi16(hi_even, hi_odd));

      // packs_epi16 interleaves per lane: byte groups are [lo 0-7, hi 0-7 |
      // lo 8-15, hi 8-15] relative to p0. Place each group directly.
      const unsigned bits = static_cast<unsigned>(
          _mm256_movemask_epi8(_mm256_packs_epi16(lo_mask, hi_mask)));
      word |= (static_cast<std::uint64_t>(bits & 0xFFu) << p0) |
              (static_cast<std::uint64_t>((bits >> 8) & 0xFFu) << (32 + p0)) |
              (static_cast<std::uint64_t>((bits >> 16) & 0xFFu) << (p0 + 8)) |
              (static_cast<std::uint64_t>(bits >> 24) << (32 + p0 + 8));
    }
    decisions[t] = word;
    std::swap(cur, nxt);
    if ((t + 1) % kRenormInterval == 0) {
      // Exact-minimum renormalization, identical integer math to scalar.
      const std::int16_t low = *std::min_element(cur, cur + 64);
      const __m256i low_v = _mm256_set1_epi16(low);
      for (std::size_t s = 0; s < 64; s += 16) {
        const __m256i m = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur + s));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(cur + s),
                            _mm256_sub_epi16(m, low_v));
      }
    }
  }
  if (cur != metric) std::memcpy(metric, cur, 64 * sizeof(std::int16_t));
}

/// Blend masks of the butterfly polarities: all-ones in lane p where the
/// (s = 2p, u = 0) branch emits a coded 1.
struct PolarityMasks {
  std::int64_t o0[32];
  std::int64_t o1[32];
};

constexpr PolarityMasks make_polarity_masks() {
  PolarityMasks out{};
  for (std::size_t p = 0; p < 32; ++p) {
    out.o0[p] = kPolarity0[p] != 0 ? -1 : 0;
    out.o1[p] = kPolarity1[p] != 0 ? -1 : 0;
  }
  return out;
}

constexpr PolarityMasks kMasks = make_polarity_masks();

__m256d load_mask(const std::int64_t* mask) {
  return _mm256_castsi256_pd(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask)));
}

void acs_double_avx2(const double* confidence, std::size_t steps, double* metric,
                     double* scratch, std::uint64_t* decisions) {
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());

  double* cur = metric;
  double* nxt = scratch;
  for (std::size_t t = 0; t < steps; ++t) {
    const double c0 = confidence[2 * t];
    const double c1 = confidence[2 * t + 1];
    const __m256d a0 = _mm256_set1_pd(std::abs(c0 - 0.0));
    const __m256d a1 = _mm256_set1_pd(std::abs(c0 - 1.0));
    const __m256d b0 = _mm256_set1_pd(std::abs(c1 - 0.0));
    const __m256d b1 = _mm256_set1_pd(std::abs(c1 - 1.0));
    std::uint64_t word = 0;
    for (std::size_t p0 = 0; p0 < 32; p0 += 4) {
      // States 2*p0 .. 2*p0+7 -> even/odd metrics of butterflies
      // p0 .. p0+3: unpack pairs them up within 128-bit lanes, the permute
      // restores natural butterfly order.
      const __m256d x = _mm256_loadu_pd(cur + 2 * p0);
      const __m256d y = _mm256_loadu_pd(cur + 2 * p0 + 4);
      const __m256d m0 =
          _mm256_permute4x64_pd(_mm256_unpacklo_pd(x, y), _MM_SHUFFLE(3, 1, 2, 0));
      const __m256d m1 =
          _mm256_permute4x64_pd(_mm256_unpackhi_pd(x, y), _MM_SHUFFLE(3, 1, 2, 0));

      // a[o0] / a[1-o0] and b[o1] / b[1-o1] per butterfly.
      const __m256d pol0 = load_mask(kMasks.o0 + p0);
      const __m256d pol1 = load_mask(kMasks.o1 + p0);
      const __m256d a_same = _mm256_blendv_pd(a0, a1, pol0);
      const __m256d a_flip = _mm256_blendv_pd(a1, a0, pol0);
      const __m256d b_same = _mm256_blendv_pd(b0, b1, pol1);
      const __m256d b_flip = _mm256_blendv_pd(b1, b0, pol1);

      const __m256d lo_even = _mm256_add_pd(_mm256_add_pd(m0, a_same), b_same);
      const __m256d lo_odd = _mm256_add_pd(_mm256_add_pd(m1, a_flip), b_flip);
      const __m256d hi_even = _mm256_add_pd(_mm256_add_pd(m0, a_flip), b_flip);
      const __m256d hi_odd = _mm256_add_pd(_mm256_add_pd(m1, a_same), b_same);

      // e = (even < +inf) ? even : +inf, then take = odd < e (ordered,
      // so NaN never wins) and survivor = take ? odd : e.
      const __m256d lo_e =
          _mm256_blendv_pd(inf, lo_even, _mm256_cmp_pd(lo_even, inf, _CMP_LT_OQ));
      const __m256d hi_e =
          _mm256_blendv_pd(inf, hi_even, _mm256_cmp_pd(hi_even, inf, _CMP_LT_OQ));
      const __m256d lo_take = _mm256_cmp_pd(lo_odd, lo_e, _CMP_LT_OQ);
      const __m256d hi_take = _mm256_cmp_pd(hi_odd, hi_e, _CMP_LT_OQ);
      _mm256_storeu_pd(nxt + p0, _mm256_blendv_pd(lo_e, lo_odd, lo_take));
      _mm256_storeu_pd(nxt + 32 + p0, _mm256_blendv_pd(hi_e, hi_odd, hi_take));

      word |= (static_cast<std::uint64_t>(_mm256_movemask_pd(lo_take)) << p0) |
              (static_cast<std::uint64_t>(_mm256_movemask_pd(hi_take)) << (32 + p0));
    }
    decisions[t] = word;
    std::swap(cur, nxt);
  }
  if (cur != metric) std::memcpy(metric, cur, 64 * sizeof(double));
}

const ViterbiKernel kAvx2{"avx2", acs_avx2, acs_double_avx2};

}  // namespace

const ViterbiKernel* avx2_viterbi_kernel_or_null() { return &kAvx2; }

#else

const ViterbiKernel* avx2_viterbi_kernel_or_null() { return nullptr; }

#endif

}  // namespace detail
}  // namespace geosphere::coding::simd
