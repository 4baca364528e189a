#include "phy/frame.h"

#include <cstdint>
#include <stdexcept>

#include "coding/convolutional.h"
#include "coding/scrambler.h"

namespace geosphere::phy {

namespace {

/// Descrambles decoded payload bits with the scrambler sequence: the same
/// XOR encode applies (see the argument above it). Every decode path
/// returns payload_bits() bits, the sequence's length.
void descramble(const BitVector& sequence, BitVector& bits) {
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] ^= sequence[i];
}

}  // namespace

FrameCodec::FrameCodec(const FrameConfig& config)
    : config_(config),
      constellation_(&Constellation::qam(config.qam_order)),
      puncturer_(config.code_rate),
      interleaver_(config.data_subcarriers * Constellation::qam(config.qam_order).bits_per_symbol(),
                   Constellation::qam(config.qam_order).bits_per_symbol()) {
  scramble_.assign(config_.payload_bits(), 0);
  coding::Scrambler().apply_in_place(scramble_);  // Scrambled zeros: the sequence itself.

  const unsigned q = constellation_->bits_per_symbol();  // <= 8: 256-QAM is the largest.
  const std::vector<std::size_t>& forward = interleaver_.forward();
  bit_target_.resize(forward.size());
  for (std::size_t k = 0; k < forward.size(); ++k)
    bit_target_[k] = static_cast<std::uint32_t>((forward[k] / q) << 3 | (q - 1 - forward[k] % q));

  index_of_word_.resize(std::size_t{1} << q);
  std::uint8_t bits[8] = {};
  for (unsigned word = 0; word < index_of_word_.size(); ++word) {
    for (unsigned b = 0; b < q; ++b) bits[b] = static_cast<std::uint8_t>((word >> (q - 1 - b)) & 1u);
    index_of_word_[word] = constellation_->index_from_bits(bits);
  }
}

std::size_t FrameCodec::stream_bits() const {
  if (!config_.coded) return config_.payload_bits();
  return puncturer_.punctured_length(coded_bits());
}

std::size_t FrameCodec::coded_bits() const {
  return coding::ConvolutionalEncoder::coded_length(config_.payload_bits());
}

std::size_t FrameCodec::ofdm_symbols_per_frame() const {
  const std::size_t per_symbol = config_.coded_bits_per_ofdm_symbol(*constellation_);
  return (stream_bits() + per_symbol - 1) / per_symbol;
}

// Why the one pass equals the stage-by-stage chain (Scrambler::apply,
// ConvolutionalEncoder::encode, Puncturer::puncture, zero pad,
// BlockInterleaver::interleave per OFDM symbol, index_from_bits):
//  * Scrambling XORs payload bit i with bit i of a sequence that depends
//    only on the seed, so scramble_[i] (the scrambler applied to zeros)
//    gives the same bits.
//  * ConvolutionalEncoder::step is the encoder's own shift register, so
//    each scrambled bit, then each of the 6 zero tail bits, yields the same
//    (A, B) pair.
//  * The puncturer walks its pattern over A0 B0 A1 B1 ... from position 0
//    and keeps the bits where it reads 1; the pass walks the same pattern
//    over the same stream, so the kept bits come out in the same order.
//  * Kept bit p of the stream is bit k = p mod ncbps of OFDM symbol
//    p / ncbps. The interleaver moves it to forward()[k] = sc * Q + b of
//    that symbol's block, and index_from_bits reads subcarrier sc's bits
//    b = 0..Q-1 MSB-first; the pass ORs it into bit Q-1-b of word sc.
//    Each (sc, b) receives exactly one bit, since forward() is a bijection.
//  * Padding bits are zero in the chain, so leaving them unset in the
//    zeroed words is the same, and index_of_word_ is index_from_bits of
//    each word's bits.
void FrameCodec::encode(EncodedFrame& frame) const {
  const BitVector& payload = frame.payload;
  if (payload.size() != config_.payload_bits())
    throw std::invalid_argument("FrameCodec::encode: payload size mismatch");

  const std::size_t nsc = config_.data_subcarriers;
  const std::size_t per_symbol = bit_target_.size();
  frame.punctured_bits = stream_bits();
  frame.ofdm_symbols = ofdm_symbols_per_frame();
  frame.symbol_indices.assign(frame.ofdm_symbols * nsc, 0u);

  unsigned* block = frame.symbol_indices.data();  // This OFDM symbol's words.
  std::size_t k = 0;                              // Bit position in the block.
  const auto emit = [&](unsigned bit) {
    const std::uint32_t target = bit_target_[k];
    block[target >> 3] |= bit << (target & 7u);
    if (++k == per_symbol) {
      k = 0;
      block += nsc;
    }
  };

  if (!config_.coded) {
    for (std::size_t i = 0; i < payload.size(); ++i) emit((payload[i] ^ scramble_[i]) & 1u);
  } else {
    using coding::ConvolutionalEncoder;
    const std::vector<std::uint8_t>& pattern = puncturer_.pattern();
    std::size_t p = 0;  // Position in the puncture pattern, wrapping.
    unsigned state = 0;
    const auto keep = [&](unsigned bit) {
      if (pattern[p]) emit(bit);
      if (++p == pattern.size()) p = 0;
    };
    const auto push = [&](unsigned input_bit) {
      const unsigned pair = ConvolutionalEncoder::step(state, input_bit);
      keep(pair >> 1);
      keep(pair & 1u);
    };
    for (std::size_t i = 0; i < payload.size(); ++i) push((payload[i] ^ scramble_[i]) & 1u);
    for (int t = 0; t < ConvolutionalEncoder::kTailBits; ++t) push(0);
  }

  for (unsigned& word : frame.symbol_indices) word = index_of_word_[word];
}

EncodedFrame FrameCodec::encode(const BitVector& payload) const {
  EncodedFrame frame;
  frame.payload = payload;
  encode(frame);
  return frame;
}

void FrameCodec::finish_decode(CodecWorkspace& ws, BitVector& out) const {
  if (!config_.coded) {
    // Uncoded: hard threshold the confidences, descramble, done. (Erasures
    // at exactly 0.5 fall to 0 -- arbitrary but deterministic.)
    out.resize(ws.stream.size());
    for (std::size_t i = 0; i < ws.stream.size(); ++i) out[i] = ws.stream[i] > 0.5 ? 1u : 0u;
  } else {
    puncturer_.depuncture(ws.stream, coded_bits(), ws.depunctured);
    if (config_.viterbi == ViterbiImpl::kQuantized) {
      quantized_viterbi_.decode_soft(ws.depunctured.data(), ws.depunctured.size(),
                                     ws.quantized, out);
    } else {
      viterbi_.decode_soft(ws.depunctured.data(), ws.depunctured.size(), ws.viterbi, out);
    }
  }
  descramble(scramble_, out);
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

  // Each detected bit lands at its deinterleaved position as a quantized
  // level, 0 or kQuantOne. On these levels and the depuncturer's erasures
  // the int16 decoder returns exactly the double decoder's bits
  // (coding/simd/viterbi_kernel.h), so hard frames skip both the double
  // trellis and the quantize pass, whatever config_.viterbi says.
  const unsigned q = constellation_->bits_per_symbol();
  const std::vector<std::size_t>& inverse = interleaver_.inverse();
  ws.levels.resize(ofdm_symbols * per_symbol);
  std::uint8_t bits[8] = {};  // Q <= 8: 256-QAM is the largest supported order.
  for (std::size_t sym = 0; sym < ofdm_symbols; ++sym) {
    std::int16_t* block = ws.levels.data() + sym * per_symbol;
    for (std::size_t sc = 0; sc < config_.data_subcarriers; ++sc) {
      constellation_->bits_from_index(symbol_indices[sym * config_.data_subcarriers + sc],
                                      bits);
      for (unsigned b = 0; b < q; ++b)
        block[inverse[sc * q + b]] = static_cast<std::int16_t>(bits[b] * coding::simd::kQuantOne);
    }
  }
  ws.levels.resize(stream_bits());  // Drop the padding region.

  if (!config_.coded) {
    out.resize(ws.levels.size());
    for (std::size_t i = 0; i < ws.levels.size(); ++i) out[i] = ws.levels[i] != 0 ? 1u : 0u;
  } else {
    puncturer_.depuncture(ws.levels, coded_bits(), ws.depunctured_levels);
    quantized_viterbi_.decode_levels(ws.depunctured_levels.data(),
                                     ws.depunctured_levels.size(), ws.quantized, out);
  }
  descramble(scramble_, out);
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
