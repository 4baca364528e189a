// Quantized soft-decision Viterbi decoder: the SIMD hot path behind the
// coded pipeline. Confidences in [0, 1] are quantized once to int16 levels
// (0.5 erasures land exactly on the midpoint 127), then a runtime-dispatched
// add-compare-select kernel (scalar or AVX2, bit-identical -- see
// coding/simd/viterbi_kernel.h) sweeps the 64-state trellis, and the packed
// decision words feed the same traceback as the double-precision
// ViterbiDecoder.
//
// Relationship to ViterbiDecoder: identical API shape, identical decision
// and traceback layout. On confidences in {0, 1/2, 1} -- hard decisions and
// erasures -- the decoded bits are exactly the double decoder's (the
// argument is in viterbi_kernel.h), so every hard-decision frame decodes
// through decode_levels() whichever decoder FrameConfig::viterbi names. On
// other soft inputs the surviving path is the double decoder's up to the
// +-1/2-LSB rounding of each branch cost. The double decoder remains the
// soft reference and the default; kQuantized selects this decoder for
// soft frames.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "coding/simd/viterbi_kernel.h"
#include "coding/viterbi.h"

namespace geosphere::coding {

/// Reusable scratch for QuantizedViterbi: quantized symbols, the two
/// 64-entry metric banks the kernel ping-pongs between, packed decision
/// words and the traceback staging buffer. Grown on first use, then
/// allocation-free. One per thread.
struct QuantizedViterbiWorkspace {
  std::vector<std::int16_t> quantized;
  std::array<std::int16_t, ConvolutionalEncoder::kStates> metric;
  std::array<std::int16_t, ConvolutionalEncoder::kStates> scratch;
  std::vector<std::uint64_t> decisions;
  BitVector reversed;
};

class QuantizedViterbi {
 public:
  /// Quantization of one confidence value: clamp(round(c * 254), 0, 254),
  /// halves rounding away from zero. 0.5 maps to the exact midpoint 127,
  /// keeping erasures neutral. NaN maps to 0; +inf and every c * 254 >= 254
  /// map to 254.
  static std::int16_t quantize(double confidence);

  /// Soft-input decode, same contract as ViterbiDecoder::decode_soft:
  /// per-bit confidence of being 1 in [0, 1], 0.5 = erasure, even length,
  /// tail-terminated. quantize() into ws.quantized, then decode_levels().
  /// Allocation-free given a warm workspace.
  void decode_soft(const double* confidence, std::size_t size,
                   QuantizedViterbiWorkspace& ws, BitVector& out) const;

  /// Decode of already quantized levels in [0, simd::kQuantOne] (0 = a
  /// certain 0, kQuantOne = a certain 1, kQuantErasure = an erasure): the
  /// entry hard decisions take, with no quantize pass. Allocation-free
  /// given a warm workspace.
  void decode_levels(const std::int16_t* levels, std::size_t size,
                     QuantizedViterbiWorkspace& ws, BitVector& out) const;

  /// Convenience wrapper over a call-local workspace (tests, one-offs).
  BitVector decode_soft(const std::vector<double>& confidence) const;
};

}  // namespace geosphere::coding
