#include "coding/viterbi.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace geosphere::coding {

namespace {

unsigned parity(unsigned x) {
  x ^= x >> 4;
  x ^= x >> 2;
  x ^= x >> 1;
  return x & 1u;
}

}  // namespace

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

ViterbiDecoder::ViterbiDecoder() {
  transitions_.resize(ConvolutionalEncoder::kStates);
  for (int s = 0; s < ConvolutionalEncoder::kStates; ++s) {
    for (unsigned u = 0; u < 2; ++u) {
      const unsigned window = (u << 6) | static_cast<unsigned>(s);
      transitions_[static_cast<std::size_t>(s)][u] = {
          static_cast<int>((window >> 1) & 0x3Fu),
          static_cast<std::uint8_t>(parity(window & ConvolutionalEncoder::kG0)),
          static_cast<std::uint8_t>(parity(window & ConvolutionalEncoder::kG1))};
    }
  }
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

  constexpr int kStates = ConvolutionalEncoder::kStates;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  ws.metric.assign(static_cast<std::size_t>(kStates), kInf);
  ws.next_metric.resize(static_cast<std::size_t>(kStates));
  ws.metric[0] = 0.0;  // Encoder starts in the all-zeros state.

  // One decision bit per state per step, packed into a 64-bit word.
  ws.decisions.resize(steps);

  for (std::size_t t = 0; t < steps; ++t) {
    // Branch cost of emitting coded bit b against the received confidence:
    // |confidence - b|, so an erasure (0.5) is neutral.
    const double c0 = confidence[2 * t];
    const double c1 = confidence[2 * t + 1];
    std::fill(ws.next_metric.begin(), ws.next_metric.end(), kInf);
    std::uint64_t decision_word = 0;

    for (int s = 0; s < kStates; ++s) {
      const double m = ws.metric[static_cast<std::size_t>(s)];
      if (m == kInf) continue;
      for (unsigned u = 0; u < 2; ++u) {
        const Transition& tr = transitions_[static_cast<std::size_t>(s)][u];
        const double cost = m + std::abs(c0 - static_cast<double>(tr.out0)) +
                            std::abs(c1 - static_cast<double>(tr.out1));
        const auto ns = static_cast<std::size_t>(tr.next_state);
        if (cost < ws.next_metric[ns]) {
          ws.next_metric[ns] = cost;
          // Record the *source state's* low bit choice: the predecessor of
          // next_state is recoverable as (next_state<<1 | prev_low) & 63
          // plus the input; we store the input bit and reconstruct the
          // predecessor from it (next = (u<<6|s)>>1 => s = (next<<1 | s&1)).
          // Storing the dropped bit (s & 1) is enough to walk back.
          const std::uint64_t dropped = static_cast<std::uint64_t>(s) & 1u;
          decision_word = (decision_word & ~(std::uint64_t{1} << ns)) | (dropped << ns);
        }
      }
    }
    ws.decisions[t] = decision_word;
    ws.metric.swap(ws.next_metric);
  }

  viterbi_traceback(ws.decisions.data(), steps, ws.reversed, out);
}

}  // namespace geosphere::coding
