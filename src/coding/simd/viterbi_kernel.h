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
// -- see "Exact on hard decisions" below). Metrics renormalize by their
// exact horizontal minimum every kRenormInterval = 32 steps; the worst-case
// running metric is 8192 + 32*508 = 24448 < 32767, so plain wrapping int16
// adds never overflow and every tier's arithmetic is exact integer math --
// bit-identical across scalar and AVX2 by construction, locked by
// tests/quantized_viterbi_test.cpp.
//
// Exact on hard decisions and erasures. On confidences in {0, 1/2, 1}
// (levels 0, 127, 254) this op decodes exactly the bits acs_double
// decodes, which is why every hard-decision frame decodes here
// (phy::FrameCodec::decode), whichever decoder FrameConfig::viterbi names:
//   * Exact inputs. quantize maps 0, 1/2 and 1 exactly to 0, 127 and 254.
//     On these values |c - (1-o)| = 1 - |c - o| holds exactly, so every
//     int16 branch cost (e or 508 - e) is exactly 254x the double cost.
//   * Same comparisons. Double metrics are sums of multiples of 1/2, far
//     below 2^53, so (m + a) + b is exact. The int16 metrics equal 254x
//     those, minus the common minimum that renormalization subtracts. Both
//     maps preserve every comparison, ties included, and both ops keep the
//     even predecessor on a tie (strict <).
//   * The start offset. Before step 6, a true path (one from state 0)
//     costs at most 6*508 = 3048 < 8192 = kInitOffset. From step 6 on, any
//     fake-start path into a state is strictly beaten by a true path that
//     reaches the fake path's step-6 state within 6 steps. So on every
//     state reachable from state 0, the int16 decision equals the double
//     decision. Traceback starts at state 0 and follows survivors with
//     finite double metrics, which are reachable states only, so the
//     decoded bits are identical. Decisions on unreachable states may
//     differ, and nothing reads them.
//   * No overflow. Levels stay in [0, 254], so the bound above holds
//     unchanged.
// The offset has slack: a fake path and the true path into the same state
// share their inputs, so their coded bits differ by the fake start state's
// zero-input response, at most 10 of the 12 bits of 6 steps (start state
// 51). Every offset above 10*254 = 2540 is therefore exact too.
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
// blend selects, movemask decision words), 2.3-4x over scalar in a
// standalone micro-benchmark (4-core Xeon, gcc 12.2). Both TUs are built
// with -ffp-contract=off (CMakeLists.txt), and
// tests/quantized_viterbi_test.cpp holds both tiers to that reference loop
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
  /// Tier name: "scalar" or "avx2" (the GEOSPHERE_KERNEL spellings).
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

}  // namespace geosphere::coding::simd
