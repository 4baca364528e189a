// Add-compare-select kernels for the (133,171) rate-1/2 Viterbi decoders --
// the coding-layer sibling of the tree-search kernel table
// (src/detect/sphere/simd/kernel.h). The layer carries two ops over the same
// butterfly structure: `acs`, the int16 recursion of QuantizedViterbi, and
// `acs_double`, the double recursion of ViterbiDecoder.
//
// Butterfly structure. With the repo's trellis convention (window =
// (u<<6)|s, next = window>>1), next-state n = (u<<5)|p has exactly the
// predecessors s = 2p and s = 2p+1. Both generators contain the input bit
// (bit 6) and the dropped bit (bit 0), so flipping either flips both coded
// bits: the (s = 2p, u = 0) branch emits the polarity pair (o0, o1) of
// butterfly p (kPolarity0/1 below), the (2p+1, 0) and (2p, 1) branches emit
// its complement and the (2p+1, 1) branch emits (o0, o1) again. Each step is
// a flat SoA sweep over p = 0..31: even/odd metric deinterleave, branch
// costs by polarity, two add-compare-select lanes, survivors written
// contiguously to next[p] and next[32+p].
//
// Decision words (both ops): bit n of decisions[t] is the dropped bit of
// the surviving predecessor of state n at step t (1 = the odd predecessor
// won), so both decoders share one traceback (coding::viterbi_traceback).
//
// ---- acs: quantized int16 -------------------------------------------------
//
// Quantization scheme. A soft input is a per-coded-bit confidence that the
// bit is 1, in [0, 1], with 0.5 marking a depunctured erasure. Confidences
// quantize to v = clamp(round(c * 254), 0, 254), so 1.0 -> 254, 0.0 -> 0
// and an erasure lands exactly on 127 (the midpoint -- both polarities cost
// the same, keeping the erasure neutral like the double decoder's |0.5 - b|).
// The branch cost of emitting coded bit b against v is |v - 254*b|, i.e.
// the double decoder's |c - b| scaled by 254; one trellis step adds at most
// kMaxBranchCost = 508. The four branches of a butterfly share ONE cost
// e = |v0 - pol0[p]| + |v1 - pol1[p]| and its complement 508 - e:
//
//      target p    (u=0):  min(metric[2p] + e,        metric[2p+1] + 508-e)
//      target 32+p (u=1):  min(metric[2p] + 508-e,    metric[2p+1] + e)
//
// Ties keep the even predecessor.
//
// Overflow-free by construction. State 0 starts at 0 and every other state
// at kInitOffset = 8192 (a penalty standing in for the double decoder's
// +inf; any state reaches any other in 6 steps at <= 6*508 = 3048 < 8192,
// so a fake-start path can never beat a true path and the offset is exact
// -- see quantized_viterbi.cpp). Metrics renormalize by their exact
// horizontal minimum every kRenormInterval = 32 steps; the worst-case
// running metric is 8192 + 32*508 = 24448 < 32767, so plain wrapping int16
// adds never overflow and every tier's arithmetic is exact integer math --
// bit-identical across scalar/SSE2/AVX2 by construction, locked by
// tests/quantized_viterbi_test.cpp.
//
// ---- acs_double: IEEE-754 double ------------------------------------------
//
// The double decoder's recursion, specified as an exact operation sequence
// so that every tier produces the same bits as the ascending-state loop
// over a transition table that the repo's goldens were recorded with (kept
// as the reference in tests/quantized_viterbi_test.cpp). Per step t, with
// c0 = confidence[2t], c1 = confidence[2t+1]:
//
//      a_k = |c0 - k|,  b_k = |c1 - k|          for k in {0, 1}
//
// For butterfly p with o0 = (kPolarity0[p] != 0), o1 = (kPolarity1[p] != 0),
// the four candidate metrics are summed in the order (m + a) + b, never
// m + (a + b):
//
//      target p:    even = (m[2p] + a[o0])   + b[o1]
//                   odd  = (m[2p+1] + a[1-o0]) + b[1-o1]
//      target 32+p: even = (m[2p] + a[1-o0]) + b[1-o1]
//                   odd  = (m[2p+1] + a[o0])   + b[o1]
//
// and each target selects
//
//      e         = (even < +inf) ? even : +inf
//      take      = odd < e
//      survivor  = take ? odd : e,    decision bit n = take.
//
// This is the reference loop's strict-< update into a +inf-initialized
// slot, in ascending source-state order (the even predecessor first): a
// +inf source metric, a +inf cost or a NaN cost never wins a comparison, so
// NaN, +-inf and out-of-range confidences decode exactly as in the
// reference, and a tie keeps the even predecessor. Metrics stay in
// [0, +inf]. There is no renormalization: the reference has none, and
// subtracting a minimum would change the rounding of every later sum.
//
// Tiers: the scalar function is branch-free and defines the bits; AVX2 runs
// 4 butterflies per register (unpack + permute4x64 even/odd deinterleave,
// blend selects, movemask decision words). The SSE2 tier runs the scalar
// function. A bit-identical 2-lane SSE2 version measured 1.7-1.9x over
// scalar in a standalone micro-benchmark (4-core Xeon, gcc 12.2; AVX2 ran
// 2.3-4x there), but every benchmark workload runs the AVX2 tier, so no
// measurement would guard a third implementation. All three TUs are built
// with -ffp-contract=off (CMakeLists.txt), and
// tests/quantized_viterbi_test.cpp holds every tier to that reference loop
// byte for byte.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "coding/convolutional.h"

namespace geosphere::coding::simd {

/// Quantized confidence of a certain 1 (confidence 1.0).
inline constexpr int kQuantOne = 254;
/// Quantized erasure (confidence 0.5): the exact midpoint of [0, 254].
inline constexpr int kQuantErasure = 127;
/// Worst-case cost of one trellis step (both coded bits fully wrong).
inline constexpr int kMaxBranchCost = 2 * kQuantOne;
/// Initial metric of every state but 0 (the tail-terminated encoder start).
inline constexpr std::int16_t kInitOffset = 8192;
/// Steps between exact-minimum renormalizations (fixed schedule: part of
/// the cross-tier bit-identity contract).
inline constexpr std::size_t kRenormInterval = 32;

namespace detail {

constexpr std::array<std::int16_t, 32> make_polarity(unsigned generator) {
  std::array<std::int16_t, 32> out{};
  for (unsigned p = 0; p < 32; ++p) {
    unsigned x = (2u * p) & generator;  // The (s = 2p, u = 0) branch window.
    x ^= x >> 4;
    x ^= x >> 2;
    x ^= x >> 1;
    out[p] = (x & 1u) ? static_cast<std::int16_t>(kQuantOne) : std::int16_t{0};
  }
  return out;
}

}  // namespace detail

/// Per-butterfly branch polarities: the quantized coded pair the
/// (s = 2p, u = 0) branch emits (kQuantOne for a coded 1). The other three
/// branches of butterfly p follow by complement (see the header comment).
inline constexpr auto kPolarity0 = detail::make_polarity(ConvolutionalEncoder::kG0);
inline constexpr auto kPolarity1 = detail::make_polarity(ConvolutionalEncoder::kG1);

struct ViterbiKernel {
  /// Tier name: "scalar", "sse2" or "avx2" (the GEOSPHERE_KERNEL spellings).
  const char* name;

  /// The quantized int16 ACS recursion over `steps` trellis steps.
  ///   quantized   2*steps int16 confidences in [0, kQuantOne]
  ///   metric      64 int16 initial state metrics on entry (0 / kInitOffset
  ///               from the caller); the final metrics on exit
  ///   scratch     64 int16 workspace
  ///   decisions   one packed word per step
  void (*acs)(const std::int16_t* quantized, std::size_t steps, std::int16_t* metric,
              std::int16_t* scratch, std::uint64_t* decisions);

  /// The double ACS recursion over `steps` trellis steps (the exact
  /// operation sequence in the header comment).
  ///   confidence  2*steps doubles, any value (NaN and +-inf included)
  ///   metric      64 initial state metrics on entry (0 / +inf from the
  ///               caller); the final metrics on exit
  ///   scratch     64 doubles of workspace
  ///   decisions   one packed word per step
  void (*acs_double)(const double* confidence, std::size_t steps, double* metric,
                     double* scratch, std::uint64_t* decisions);
};

namespace detail {

/// The scalar tier's acs_double, which the SSE2 tier shares.
void acs_double_scalar(const double* confidence, std::size_t steps, double* metric,
                       double* scratch, std::uint64_t* decisions);

}  // namespace detail

}  // namespace geosphere::coding::simd
