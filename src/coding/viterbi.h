// Viterbi decoder for the (133,171) rate-1/2 convolutional code, with
// hard-decision and soft/erasure-aware inputs (the latter is what the
// depuncturer feeds).
//
// Two implementations share this header's traceback contract, and both run
// their add-compare-select through the runtime-dispatched kernel layer in
// coding/simd/viterbi_kernel.h:
//   * ViterbiDecoder -- the double-precision reference below, the layer's
//     `acs_double` op. Branch costs are |confidence - coded_bit| sums; exact,
//     allocation-free via ViterbiWorkspace, identical on every kernel tier
//     and still the arbiter for the repo's link-level goldens.
//   * QuantizedViterbi (quantized_viterbi.h) -- the int16 `acs` op, which
//     reuses viterbi_traceback() on the same packed decision words.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "coding/convolutional.h"

namespace geosphere::coding {

/// Reusable scratch for ViterbiDecoder: every buffer the decoder needs,
/// grown on first use and reused verbatim afterwards so steady-state
/// decodes perform no allocations. One workspace per thread; a workspace
/// may be shared across decoders and payload sizes.
struct ViterbiWorkspace {
  std::vector<double> metric;
  std::vector<double> next_metric;
  std::vector<double> confidence;       // hard-decision staging buffer
  std::vector<std::uint64_t> decisions;
  BitVector reversed;                   // traceback staging buffer
};

/// Walks the packed decision words back from the terminated state 0 and
/// appends the `steps - kTailBits` information bits in natural order to
/// `out` (which is cleared first). `reversed` is caller-provided scratch.
/// Bit `n` of decisions[t] is the dropped low bit (s & 1) of the winning
/// predecessor s of state n at step t -- the layout both the double and
/// the quantized ACS produce.
void viterbi_traceback(const std::uint64_t* decisions, std::size_t steps,
                       BitVector& reversed, BitVector& out);

class ViterbiDecoder {
 public:
  /// Hard-decision decode of `coded` (2*(k+6) bits from a tail-terminated
  /// encoder); returns the k information bits.
  BitVector decode(const BitVector& coded) const;

  /// Soft-input decode. Each entry is the confidence that the coded bit is
  /// 1, in [0, 1]; 0.5 marks an erasure (punctured position). Length must
  /// be even.
  BitVector decode_soft(const std::vector<double>& confidence) const;

  /// Allocation-free variants: identical results, all scratch lives in the
  /// workspace and `out` is reused. The vector-returning overloads above
  /// wrap these with a call-local workspace (one-offs and tests; hot paths
  /// keep a workspace warm across calls).
  void decode(const BitVector& coded, ViterbiWorkspace& ws, BitVector& out) const;
  void decode_soft(const double* confidence, std::size_t size, ViterbiWorkspace& ws,
                   BitVector& out) const;
};

}  // namespace geosphere::coding
