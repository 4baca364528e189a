// Puncturing of the rate-1/2 mother code to 2/3 and 3/4 (the 802.11a
// patterns). Depuncturing reinserts erasures (confidence 0.5, or the
// quantized level simd::kQuantErasure) for the soft-input Viterbi decoders.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace geosphere::coding {

enum class CodeRate { kHalf, kTwoThirds, kThreeQuarters };

/// Numeric value of the rate (information bits per coded bit).
double code_rate_value(CodeRate r);

/// Human-readable "1/2" style label.
const char* code_rate_label(CodeRate r);

class Puncturer {
 public:
  explicit Puncturer(CodeRate rate);

  /// Removes the punctured positions from a rate-1/2 coded stream.
  BitVector puncture(const BitVector& coded) const;

  /// Number of bits puncture() produces for `coded_bits` mother-code bits.
  std::size_t punctured_length(std::size_t coded_bits) const;

  /// Re-inserts erasures: output confidences of length `coded_bits`
  /// (the mother-code length), 0.5 at punctured positions.
  std::vector<double> depuncture(const std::vector<double>& received,
                                 std::size_t coded_bits) const;

  /// Allocation-free variant for the hot decode path: `out` is resized to
  /// `coded_bits` (reusing capacity) and filled.
  void depuncture(const std::vector<double>& received, std::size_t coded_bits,
                  std::vector<double>& out) const;

  /// The same for quantized levels (coding/quantized_viterbi.h): erasures
  /// are simd::kQuantErasure, the level of confidence 0.5.
  void depuncture(const std::vector<std::int16_t>& received, std::size_t coded_bits,
                  std::vector<std::int16_t>& out) const;

  CodeRate rate() const { return rate_; }
  /// The pattern over the mother-code stream, repeating: 1 = transmit.
  const std::vector<std::uint8_t>& pattern() const { return pattern_; }

 private:
  template <class T>
  void depuncture_into(const std::vector<T>& received, std::size_t coded_bits, T erasure,
                       std::vector<T>& out) const;

  CodeRate rate_;
  std::vector<std::uint8_t> pattern_;  ///< 1 = transmit, 0 = puncture.
};

}  // namespace geosphere::coding
