#include "coding/quantized_viterbi.h"

#include <stdexcept>

#include "coding/simd/dispatch.h"

namespace geosphere::coding {

std::int16_t QuantizedViterbi::quantize(double confidence) {
  constexpr double kOne = simd::kQuantOne;
  // Clamp first, so NaN (which fails every compare) lands on 0 and +inf on
  // kOne; the int conversion below then only sees [0, 254]. Rounding is
  // half away from zero: truncate, then add 1 when the exact fraction
  // x - t is at least 1/2 (x + 0.5 would round 0.49999999999999994 up).
  double x = confidence * kOne;
  x = x > 0.0 ? x : 0.0;
  x = x < kOne ? x : kOne;
  const int t = static_cast<int>(x);
  return static_cast<std::int16_t>(t + (x - t >= 0.5 ? 1 : 0));
}

void QuantizedViterbi::decode_soft(const double* confidence, std::size_t size,
                                   QuantizedViterbiWorkspace& ws, BitVector& out) const {
  ws.quantized.resize(size);
  for (std::size_t i = 0; i < size; ++i) ws.quantized[i] = quantize(confidence[i]);
  decode_levels(ws.quantized.data(), size, ws, out);
}

void QuantizedViterbi::decode_levels(const std::int16_t* levels, std::size_t size,
                                     QuantizedViterbiWorkspace& ws, BitVector& out) const {
  if (size % 2 != 0)
    throw std::invalid_argument("QuantizedViterbi: coded length must be even");
  const std::size_t steps = size / 2;
  if (steps < static_cast<std::size_t>(ConvolutionalEncoder::kTailBits))
    throw std::invalid_argument("QuantizedViterbi: input shorter than the tail");

  // State 0 starts at 0, the rest at the "almost infinity" offset; the
  // bound in viterbi_kernel.h shows this reproduces the double decoder's
  // hard kInf start exactly.
  ws.metric.fill(simd::kInitOffset);
  ws.metric[0] = 0;
  ws.decisions.resize(steps);

  simd::active_viterbi_kernel().acs(levels, steps, ws.metric.data(), ws.scratch.data(),
                                    ws.decisions.data());

  viterbi_traceback(ws.decisions.data(), steps, ws.reversed, out);
}

BitVector QuantizedViterbi::decode_soft(const std::vector<double>& confidence) const {
  QuantizedViterbiWorkspace ws;
  BitVector out;
  decode_soft(confidence.data(), confidence.size(), ws, out);
  return out;
}

}  // namespace geosphere::coding
