#include "coding/convolutional.h"

namespace geosphere::coding {

BitVector ConvolutionalEncoder::encode(const BitVector& info) const {
  BitVector out;
  out.reserve(coded_length(info.size()));
  unsigned state = 0;
  const auto push = [&](unsigned input_bit) {
    const unsigned pair = step(state, input_bit);
    out.push_back(static_cast<std::uint8_t>(pair >> 1));
    out.push_back(static_cast<std::uint8_t>(pair & 1u));
  };
  for (const auto b : info) push(b & 1u);
  for (int t = 0; t < kTailBits; ++t) push(0);
  return out;
}

}  // namespace geosphere::coding
