#include "phy/frame.h"

#include <cstdint>
#include <stdexcept>

namespace geosphere::phy {

FrameCodec::FrameCodec(const FrameConfig& config)
    : config_(config),
      constellation_(&Constellation::qam(config.qam_order)),
      puncturer_(config.code_rate),
      interleaver_(config.data_subcarriers * Constellation::qam(config.qam_order).bits_per_symbol(),
                   Constellation::qam(config.qam_order).bits_per_symbol()) {}

std::size_t FrameCodec::stream_bits() const {
  if (!config_.coded) return config_.payload_bits();
  return puncturer_.punctured_length(
      coding::ConvolutionalEncoder::coded_length(config_.payload_bits()));
}

std::size_t FrameCodec::ofdm_symbols_per_frame() const {
  const std::size_t per_symbol = config_.coded_bits_per_ofdm_symbol(*constellation_);
  return (stream_bits() + per_symbol - 1) / per_symbol;
}

EncodedFrame FrameCodec::encode(const BitVector& payload) const {
  if (payload.size() != config_.payload_bits())
    throw std::invalid_argument("FrameCodec::encode: payload size mismatch");

  const BitVector scrambled = scrambler_.apply(payload);
  BitVector stream =
      config_.coded ? puncturer_.puncture(encoder_.encode(scrambled)) : scrambled;

  EncodedFrame frame;
  frame.payload = payload;
  frame.punctured_bits = stream.size();

  const std::size_t per_symbol = config_.coded_bits_per_ofdm_symbol(*constellation_);
  frame.ofdm_symbols = (stream.size() + per_symbol - 1) / per_symbol;
  stream.resize(frame.ofdm_symbols * per_symbol, 0);  // Zero pad bits.

  const unsigned q = constellation_->bits_per_symbol();
  frame.symbol_indices.reserve(frame.ofdm_symbols * config_.data_subcarriers);
  for (std::size_t sym = 0; sym < frame.ofdm_symbols; ++sym) {
    const BitVector block(stream.begin() + static_cast<std::ptrdiff_t>(sym * per_symbol),
                          stream.begin() + static_cast<std::ptrdiff_t>((sym + 1) * per_symbol));
    const BitVector interleaved = interleaver_.interleave(block);
    for (std::size_t sc = 0; sc < config_.data_subcarriers; ++sc)
      frame.symbol_indices.push_back(
          constellation_->index_from_bits(&interleaved[sc * q]));
  }
  return frame;
}

void FrameCodec::finish_decode(CodecWorkspace& ws, BitVector& out) const {
  if (!config_.coded) {
    // Uncoded: hard threshold the confidences, descramble, done. (Erasures
    // at exactly 0.5 fall to 0 -- arbitrary but deterministic.)
    ws.decoded.resize(ws.stream.size());
    for (std::size_t i = 0; i < ws.stream.size(); ++i)
      ws.decoded[i] = ws.stream[i] > 0.5 ? 1u : 0u;
    scrambler_.apply_in_place(ws.decoded);
    out = ws.decoded;
    return;
  }

  const std::size_t coded_bits =
      coding::ConvolutionalEncoder::coded_length(config_.payload_bits());
  puncturer_.depuncture(ws.stream, coded_bits, ws.depunctured);
  if (config_.viterbi == ViterbiImpl::kQuantized) {
    quantized_viterbi_.decode_soft(ws.depunctured.data(), ws.depunctured.size(),
                                   ws.quantized, ws.decoded);
  } else {
    viterbi_.decode_soft(ws.depunctured.data(), ws.depunctured.size(), ws.viterbi,
                         ws.decoded);
  }
  scrambler_.apply_in_place(ws.decoded);
  out = ws.decoded;
}

BitVector FrameCodec::decode(const std::vector<unsigned>& symbol_indices,
                             std::size_t ofdm_symbols) const {
  CodecWorkspace ws;
  BitVector out;
  decode(symbol_indices, ofdm_symbols, ws, out);
  return out;
}

BitVector FrameCodec::decode_soft(const std::vector<double>& bit_confidences,
                                  std::size_t ofdm_symbols) const {
  CodecWorkspace ws;
  BitVector out;
  decode_soft(bit_confidences, ofdm_symbols, ws, out);
  return out;
}

void FrameCodec::decode(const std::vector<unsigned>& symbol_indices,
                        std::size_t ofdm_symbols, CodecWorkspace& ws,
                        BitVector& out) const {
  const std::size_t per_symbol = config_.coded_bits_per_ofdm_symbol(*constellation_);
  if (symbol_indices.size() != ofdm_symbols * config_.data_subcarriers)
    throw std::invalid_argument("FrameCodec::decode: symbol count mismatch");

  const unsigned q = constellation_->bits_per_symbol();
  // Hard decisions become 0/1 confidences so the coded back half can share
  // the soft path (the reference decoder treats them identically).
  ws.stream.resize(ofdm_symbols * per_symbol);
  ws.block.resize(per_symbol);
  std::uint8_t bits[8] = {};  // Q <= 8: 256-QAM is the largest supported order.
  for (std::size_t sym = 0; sym < ofdm_symbols; ++sym) {
    for (std::size_t sc = 0; sc < config_.data_subcarriers; ++sc) {
      constellation_->bits_from_index(symbol_indices[sym * config_.data_subcarriers + sc],
                                      bits);
      for (unsigned b = 0; b < q; ++b) ws.block[sc * q + b] = bits[b] ? 1.0 : 0.0;
    }
    interleaver_.deinterleave_soft(ws.block.data(), ws.stream.data() + sym * per_symbol);
  }

  ws.stream.resize(stream_bits());  // Drop the padding region.
  finish_decode(ws, out);
}

void FrameCodec::decode_soft(const std::vector<double>& bit_confidences,
                             std::size_t ofdm_symbols, CodecWorkspace& ws,
                             BitVector& out) const {
  const std::size_t per_symbol = config_.coded_bits_per_ofdm_symbol(*constellation_);
  if (bit_confidences.size() != ofdm_symbols * per_symbol)
    throw std::invalid_argument("FrameCodec::decode_soft: confidence count mismatch");

  ws.stream.resize(ofdm_symbols * per_symbol);
  for (std::size_t sym = 0; sym < ofdm_symbols; ++sym)
    interleaver_.deinterleave_soft(bit_confidences.data() + sym * per_symbol,
                                   ws.stream.data() + sym * per_symbol);

  ws.stream.resize(stream_bits());  // Drop the padding region.
  finish_decode(ws, out);
}

}  // namespace geosphere::phy
