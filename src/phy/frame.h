// Per-client PHY framing: the full 802.11-style transmit chain
//   payload bits -> scramble -> convolutional encode -> puncture ->
//   pad to OFDM symbols -> per-symbol interleave -> QAM map
// and its inverse. In the uplink multi-user system every client runs an
// independent chain (one spatial stream each); the AP detects jointly and
// decodes each client separately.
//
// The chain is configurable along two axes the sweep layer exposes:
//   * code: rate 1/2, 2/3 or 3/4 (punctured), or "none" -- an uncoded mode
//     that keeps the scrambler and interleaver but skips the encoder,
//     puncturer and Viterbi entirely (a raw-BER baseline).
//   * viterbi: the double-precision decoder (default, the arbiter for the
//     repo's goldens) or the quantized int16 decoder
//     (coding/quantized_viterbi.h) the batched coded pipeline uses. Both
//     run their add-compare-select through the coding/simd kernel layer.
#pragma once

#include <cstddef>
#include <vector>

#include "coding/convolutional.h"
#include "coding/interleaver.h"
#include "coding/puncture.h"
#include "coding/quantized_viterbi.h"
#include "coding/scrambler.h"
#include "coding/spec.h"
#include "coding/viterbi.h"
#include "common/types.h"
#include "constellation/constellation.h"

namespace geosphere::phy {

/// Which Viterbi implementation the receive chain runs. Both decode the
/// same trellis with the same tie rule on the coding/simd kernel tiers:
/// kDouble (the `acs_double` op) gives the same bits on every tier;
/// kQuantized (the int16 `acs` op) trades <= 1/2-LSB branch-cost rounding
/// for int16 lanes (16 butterflies per AVX2 register against 4).
enum class ViterbiImpl { kDouble, kQuantized };

struct FrameConfig {
  unsigned qam_order = 16;
  /// false = uncoded ("code:none"): no encoder/puncturer/Viterbi,
  /// code_rate is ignored and the effective rate is 1.
  bool coded = true;
  coding::CodeRate code_rate = coding::CodeRate::kHalf;
  ViterbiImpl viterbi = ViterbiImpl::kDouble;
  std::size_t payload_bytes = 1000;
  std::size_t data_subcarriers = 48;

  std::size_t payload_bits() const { return payload_bytes * 8; }
  /// Coded bits per OFDM symbol for this modulation.
  std::size_t coded_bits_per_ofdm_symbol(const Constellation& c) const {
    return data_subcarriers * c.bits_per_symbol();
  }
  /// Effective information bits per transmitted coded bit (1 when uncoded).
  double code_rate_value() const {
    return coded ? coding::code_rate_value(code_rate) : 1.0;
  }
  /// Applies a parsed code spec to the (coded, code_rate) pair.
  void set_code(const coding::CodeSpec& code) {
    coded = code.coded();
    if (coded) code_rate = code.rate();
  }
};

/// One client's encoded frame: the symbol grid it transmits.
struct EncodedFrame {
  BitVector payload;                     ///< The information bits.
  std::vector<unsigned> symbol_indices;  ///< ofdm_symbols * data_subcarriers entries,
                                         ///< subcarrier-major within each OFDM symbol.
  std::size_t ofdm_symbols = 0;
  std::size_t punctured_bits = 0;  ///< Valid coded bits before padding.

  unsigned symbol_at(std::size_t ofdm_symbol, std::size_t subcarrier,
                     std::size_t data_subcarriers) const {
    return symbol_indices[ofdm_symbol * data_subcarriers + subcarrier];
  }
};

/// Reusable receive-chain scratch: the deinterleaved confidence stream, the
/// depuncture buffer and the decoder workspaces. Grown on first use, then
/// steady-state decodes of same-shape frames allocate nothing, hard or
/// soft, on either Viterbi implementation. One per thread; shareable across
/// codecs.
struct CodecWorkspace {
  std::vector<double> stream;
  std::vector<double> depunctured;
  std::vector<double> block;  ///< One OFDM symbol of hard bits as 0.0/1.0.
  BitVector decoded;
  coding::ViterbiWorkspace viterbi;
  coding::QuantizedViterbiWorkspace quantized;
};

/// Runs one client's transmit chain over `payload` (frame-level scrambler
/// seeded per frame by the caller for reproducibility).
class FrameCodec {
 public:
  explicit FrameCodec(const FrameConfig& config);

  EncodedFrame encode(const BitVector& payload) const;

  /// Hard-decision receive chain: detected symbol indices -> payload bits.
  BitVector decode(const std::vector<unsigned>& symbol_indices,
                   std::size_t ofdm_symbols) const;

  /// Soft-decision receive chain: per-coded-bit confidences (probability
  /// that the bit is 1, in transmitted/interleaved order, Q consecutive
  /// values per subcarrier) -> payload bits via the soft Viterbi decoder.
  BitVector decode_soft(const std::vector<double>& bit_confidences,
                        std::size_t ofdm_symbols) const;

  /// Allocation-free variants (the hot path for the coded pipeline): all
  /// scratch lives in `ws`, the payload bits land in `out`. Identical
  /// results to the vector-returning overloads, which wrap these with a
  /// call-local workspace.
  void decode(const std::vector<unsigned>& symbol_indices, std::size_t ofdm_symbols,
              CodecWorkspace& ws, BitVector& out) const;
  void decode_soft(const std::vector<double>& bit_confidences, std::size_t ofdm_symbols,
                   CodecWorkspace& ws, BitVector& out) const;

  const FrameConfig& config() const { return config_; }
  const Constellation& constellation() const { return *constellation_; }

  /// OFDM symbols needed to carry the configured payload.
  std::size_t ofdm_symbols_per_frame() const;

 private:
  /// Transmitted (post-puncturing) bits per frame, before padding.
  std::size_t stream_bits() const;
  /// Shared back half: ws.stream holds the stream_bits() kept confidences;
  /// decodes + descrambles into `out`.
  void finish_decode(CodecWorkspace& ws, BitVector& out) const;

  FrameConfig config_;
  const Constellation* constellation_;
  coding::ConvolutionalEncoder encoder_;
  coding::ViterbiDecoder viterbi_;
  coding::QuantizedViterbi quantized_viterbi_;
  coding::Puncturer puncturer_;
  coding::Scrambler scrambler_;
  coding::BlockInterleaver interleaver_;
};

}  // namespace geosphere::phy
