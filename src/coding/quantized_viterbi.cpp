#include "coding/quantized_viterbi.h"

#include <cmath>
#include <stdexcept>

#include "coding/simd/dispatch.h"

namespace geosphere::coding {

std::int16_t QuantizedViterbi::quantize(double confidence) {
  const long v = std::lround(confidence * static_cast<double>(simd::kQuantOne));
  if (v < 0) return 0;
  if (v > simd::kQuantOne) return simd::kQuantOne;
  return static_cast<std::int16_t>(v);
}

void QuantizedViterbi::decode_soft(const double* confidence, std::size_t size,
                                   QuantizedViterbiWorkspace& ws, BitVector& out) const {
  if (size % 2 != 0)
    throw std::invalid_argument("QuantizedViterbi: coded length must be even");
  const std::size_t steps = size / 2;
  if (steps < static_cast<std::size_t>(ConvolutionalEncoder::kTailBits))
    throw std::invalid_argument("QuantizedViterbi: input shorter than the tail");

  ws.quantized.resize(size);
  for (std::size_t i = 0; i < size; ++i) ws.quantized[i] = quantize(confidence[i]);

  // State 0 starts at 0, the rest at the "almost infinity" offset; the
  // bound in viterbi_kernel.h shows this reproduces the double decoder's
  // hard kInf start exactly.
  ws.metric.fill(simd::kInitOffset);
  ws.metric[0] = 0;
  ws.decisions.resize(steps);

  simd::active_viterbi_kernel().acs(ws.quantized.data(), steps, ws.metric.data(),
                                    ws.scratch.data(), ws.decisions.data());

  viterbi_traceback(ws.decisions.data(), steps, ws.reversed, out);
}

BitVector QuantizedViterbi::decode_soft(const std::vector<double>& confidence) const {
  QuantizedViterbiWorkspace ws;
  BitVector out;
  decode_soft(confidence.data(), confidence.size(), ws, out);
  return out;
}

}  // namespace geosphere::coding
