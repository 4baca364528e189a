#include "coding/viterbi.h"

#include <limits>
#include <stdexcept>

#include "coding/simd/dispatch.h"

namespace geosphere::coding {

void viterbi_traceback(const std::uint64_t* decisions, std::size_t steps,
                       BitVector& reversed, BitVector& out) {
  // Tail-terminated: the encoder ends in state 0.
  int state = 0;
  reversed.clear();
  reversed.reserve(steps);
  for (std::size_t t = steps; t-- > 0;) {
    const std::uint64_t dropped = (decisions[t] >> state) & 1u;
    // next = ((u << 6) | prev) >> 1  =>  prev = ((next << 1) | dropped) & 63,
    // and the input bit u is the MSB of (next << 1 | dropped).
    const unsigned widened =
        (static_cast<unsigned>(state) << 1) | static_cast<unsigned>(dropped);
    const unsigned input = (widened >> 6) & 1u;
    reversed.push_back(static_cast<std::uint8_t>(input));
    state = static_cast<int>(widened & 0x3Fu);
  }

  // Drop the 6 tail bits, reverse into natural order.
  out.clear();
  out.reserve(steps - static_cast<std::size_t>(ConvolutionalEncoder::kTailBits));
  for (std::size_t i = steps; i-- > static_cast<std::size_t>(ConvolutionalEncoder::kTailBits);)
    out.push_back(reversed[i]);
}

BitVector ViterbiDecoder::decode(const BitVector& coded) const {
  ViterbiWorkspace ws;
  BitVector out;
  decode(coded, ws, out);
  return out;
}

BitVector ViterbiDecoder::decode_soft(const std::vector<double>& confidence) const {
  ViterbiWorkspace ws;
  BitVector out;
  decode_soft(confidence.data(), confidence.size(), ws, out);
  return out;
}

void ViterbiDecoder::decode(const BitVector& coded, ViterbiWorkspace& ws,
                            BitVector& out) const {
  ws.confidence.resize(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i)
    ws.confidence[i] = coded[i] ? 1.0 : 0.0;
  decode_soft(ws.confidence.data(), ws.confidence.size(), ws, out);
}

void ViterbiDecoder::decode_soft(const double* confidence, std::size_t size,
                                 ViterbiWorkspace& ws, BitVector& out) const {
  if (size % 2 != 0)
    throw std::invalid_argument("ViterbiDecoder: coded length must be even");
  const std::size_t steps = size / 2;
  if (steps < static_cast<std::size_t>(ConvolutionalEncoder::kTailBits))
    throw std::invalid_argument("ViterbiDecoder: input shorter than the tail");

  constexpr auto kStates = static_cast<std::size_t>(ConvolutionalEncoder::kStates);
  ws.metric.assign(kStates, std::numeric_limits<double>::infinity());
  ws.metric[0] = 0.0;  // Encoder starts in the all-zeros state.
  ws.next_metric.resize(kStates);
  ws.decisions.resize(steps);

  simd::active_viterbi_kernel().acs_double(confidence, steps, ws.metric.data(),
                                           ws.next_metric.data(), ws.decisions.data());

  viterbi_traceback(ws.decisions.data(), steps, ws.reversed, out);
}

}  // namespace geosphere::coding
