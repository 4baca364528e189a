// Rate-1/2, constraint-length-7 convolutional encoder with the industry
// generators (133, 171) octal -- the code used by 802.11a/g/n and by the
// paper's WARPLab implementation ("1/2-rate convolutional coding (similar
// to recent 802.11 standards)", Section 4).
#pragma once

#include <bit>

#include "common/types.h"

namespace geosphere::coding {

class ConvolutionalEncoder {
 public:
  static constexpr int kConstraintLength = 7;
  static constexpr unsigned kG0 = 0b1011011;  ///< 133 octal.
  static constexpr unsigned kG1 = 0b1111001;  ///< 171 octal.
  static constexpr int kStates = 64;
  static constexpr int kTailBits = kConstraintLength - 1;

  /// One encoder step: shifts `input_bit` (0 or 1) into `state`, whose bits
  /// 5..0 hold x[n-1]..x[n-6] (0 at the start of a frame), and returns the
  /// coded pair, A in bit 1 and B in bit 0.
  static unsigned step(unsigned& state, unsigned input_bit) {
    const unsigned window = (input_bit << 6) | state;  // Bit 6 = x[n].
    state = window >> 1;
    // Each parity on its own: gcc then computes it from the parity flag,
    // with no popcount instruction or library call on baseline x86-64.
    const unsigned a = std::popcount(window & kG0) & 1u;
    const unsigned b = std::popcount(window & kG1) & 1u;
    return a << 1 | b;
  }

  /// Encodes `info` followed by 6 zero tail bits (trellis termination).
  /// Output length = 2 * (info.size() + 6).
  BitVector encode(const BitVector& info) const;

  /// Coded length produced for `info_bits` information bits.
  static std::size_t coded_length(std::size_t info_bits) {
    return 2 * (info_bits + kTailBits);
  }
};

}  // namespace geosphere::coding
