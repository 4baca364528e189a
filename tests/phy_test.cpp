#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "coding/convolutional.h"
#include "coding/interleaver.h"
#include "coding/puncture.h"
#include "coding/scrambler.h"
#include "coding/viterbi.h"
#include "channel/frequency_selective.h"
#include "channel/noise.h"
#include "channel/rayleigh.h"
#include "common/rng.h"
#include "detect/spec.h"
#include "link/coded_pipeline.h"
#include "link/frame_receiver.h"
#include "phy/fft.h"
#include "phy/frame.h"
#include "phy/ofdm.h"

// Every global operator new in this binary is counted, so a test can assert
// that a stretch of code allocates nothing. The replacements stay out of
// line: inlined, GCC pairs their malloc/free with the new/delete
// expressions around them and reports a mismatch.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace geosphere::phy {
namespace {

// ---- FFT --------------------------------------------------------------------

CVector naive_dft(const CVector& x) {
  const std::size_t n = x.size();
  CVector out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cf64 acc{};
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * kPi * static_cast<double>(k * t) / static_cast<double>(n);
      acc += x[t] * cf64{std::cos(angle), std::sin(angle)};
    }
    out[k] = acc;
  }
  return out;
}

class FftProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftProperty, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  Rng rng(n);
  CVector x(n);
  for (auto& v : x) v = rng.cgaussian();
  const CVector ref = naive_dft(x);
  const CVector got = fft_copy(x);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_LT(std::abs(got[i] - ref[i]), 1e-9 * static_cast<double>(n));
}

TEST_P(FftProperty, InverseRoundTrip) {
  const std::size_t n = GetParam();
  Rng rng(n + 100);
  CVector x(n);
  for (auto& v : x) v = rng.cgaussian();
  const CVector back = ifft_copy(fft_copy(x));
  for (std::size_t i = 0; i < n; ++i) EXPECT_LT(std::abs(back[i] - x[i]), 1e-10);
}

TEST_P(FftProperty, Parseval) {
  const std::size_t n = GetParam();
  Rng rng(n + 200);
  CVector x(n);
  for (auto& v : x) v = rng.cgaussian();
  const CVector freq = fft_copy(x);
  double time_energy = 0.0;
  double freq_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : freq) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-7 * time_energy * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftProperty, ::testing::Values(1u, 2u, 8u, 64u, 256u));

TEST(Fft, RejectsNonPowerOfTwo) {
  CVector x(48);
  EXPECT_THROW(fft(x), std::invalid_argument);
}

// ---- OFDM --------------------------------------------------------------------

TEST(Ofdm, Ieee80211aLayout) {
  const auto p = OfdmParams::ieee80211a();
  EXPECT_EQ(p.num_data_subcarriers(), 48u);
  EXPECT_EQ(p.pilot_bins.size(), 4u);
  EXPECT_EQ(p.samples_per_symbol(), 80u);
  EXPECT_NEAR(p.symbol_duration_s(), 4e-6, 1e-12);
  // DC bin unused.
  for (const auto bin : p.data_bins) EXPECT_NE(bin, 0u);
}

TEST(Ofdm, ModulateDemodulateRoundTrip) {
  OfdmModem modem;
  Rng rng(1);
  CVector data(48);
  for (auto& v : data) v = rng.cgaussian();
  const CVector samples = modem.modulate(data);
  EXPECT_EQ(samples.size(), 80u);
  const CVector back = modem.demodulate(samples);
  for (std::size_t i = 0; i < 48; ++i) EXPECT_LT(std::abs(back[i] - data[i]), 1e-10);
}

TEST(Ofdm, CyclicPrefixIsTailCopy) {
  OfdmModem modem;
  Rng rng(2);
  CVector data(48);
  for (auto& v : data) v = rng.cgaussian();
  const CVector samples = modem.modulate(data);
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_EQ(samples[i], samples[64 + i]);  // CP = last 16 of the body.
}

TEST(Ofdm, CyclicPrefixAbsorbsMultipath) {
  // A two-tap channel within the CP: per-subcarrier equalization recovers
  // the data exactly -- the property that justifies per-subcarrier MIMO
  // detection in the link simulator.
  OfdmModem modem;
  Rng rng(3);
  CVector data(48);
  for (auto& v : data) v = rng.cgaussian();

  // Two OFDM symbols back-to-back so the echo of symbol 1 lands in symbol
  // 2's prefix region.
  const CVector s1 = modem.modulate(data);
  const CVector s2 = modem.modulate(data);
  CVector stream;
  stream.insert(stream.end(), s1.begin(), s1.end());
  stream.insert(stream.end(), s2.begin(), s2.end());

  const cf64 tap0{0.8, 0.1};
  const cf64 tap1{-0.3, 0.4};
  const std::size_t delay = 5;
  CVector received(stream.size(), cf64{});
  for (std::size_t i = 0; i < stream.size(); ++i) {
    received[i] += tap0 * stream[i];
    if (i >= delay) received[i] += tap1 * stream[i - delay];
  }

  // Demodulate the second symbol and equalize per subcarrier with the
  // channel's known frequency response.
  const CVector rx(received.begin() + 80, received.begin() + 160);
  const CVector demod = modem.demodulate(rx);
  const auto& p = modem.params();
  for (std::size_t i = 0; i < 48; ++i) {
    const double angle = -2.0 * kPi * static_cast<double>(p.data_bins[i] * delay) / 64.0;
    const cf64 hf = tap0 + tap1 * cf64{std::cos(angle), std::sin(angle)};
    EXPECT_LT(std::abs(demod[i] / hf - data[i]), 1e-9);
  }
}

TEST(Ofdm, RejectsWrongSizes) {
  OfdmModem modem;
  EXPECT_THROW(modem.modulate(CVector(47)), std::invalid_argument);
  EXPECT_THROW(modem.demodulate(CVector(79)), std::invalid_argument);
}

// ---- Frame codec ---------------------------------------------------------------

class FrameRoundTrip : public ::testing::TestWithParam<std::tuple<unsigned, coding::CodeRate>> {
};

TEST_P(FrameRoundTrip, CleanChannelRecoversPayload) {
  const auto [qam, rate] = GetParam();
  FrameConfig cfg;
  cfg.qam_order = qam;
  cfg.code_rate = rate;
  cfg.payload_bytes = 300;
  FrameCodec codec(cfg);
  Rng rng(qam);
  const BitVector payload = rng.bits(cfg.payload_bits());
  const EncodedFrame frame = codec.encode(payload);

  EXPECT_EQ(frame.ofdm_symbols, codec.ofdm_symbols_per_frame());
  EXPECT_EQ(frame.symbol_indices.size(), frame.ofdm_symbols * cfg.data_subcarriers);

  const BitVector decoded = codec.decode(frame.symbol_indices, frame.ofdm_symbols);
  EXPECT_EQ(decoded, payload);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FrameRoundTrip,
    ::testing::Combine(::testing::Values(4u, 16u, 64u, 256u),
                       ::testing::Values(coding::CodeRate::kHalf,
                                         coding::CodeRate::kTwoThirds,
                                         coding::CodeRate::kThreeQuarters)));

TEST(FrameCodec, CorrectsSymbolErrors) {
  FrameConfig cfg;
  cfg.qam_order = 16;
  cfg.payload_bytes = 200;
  FrameCodec codec(cfg);
  Rng rng(5);
  const BitVector payload = rng.bits(cfg.payload_bits());
  EncodedFrame frame = codec.encode(payload);

  // Corrupt a few well-separated symbols: the interleaved convolutional
  // code must absorb them.
  for (std::size_t i = 0; i < frame.symbol_indices.size(); i += 300)
    frame.symbol_indices[i] ^= 1u;
  EXPECT_EQ(codec.decode(frame.symbol_indices, frame.ofdm_symbols), payload);
}

TEST(FrameCodec, SymbolCountScalesWithModulation) {
  FrameConfig cfg4;
  cfg4.qam_order = 4;
  cfg4.payload_bytes = 300;
  FrameConfig cfg64 = cfg4;
  cfg64.qam_order = 64;
  EXPECT_GT(FrameCodec(cfg4).ofdm_symbols_per_frame(),
            2 * FrameCodec(cfg64).ofdm_symbols_per_frame());
}

TEST(FrameCodec, HigherRatePuncturingShortensFrames) {
  FrameConfig half;
  half.qam_order = 16;
  half.payload_bytes = 400;
  FrameConfig three_quarters = half;
  three_quarters.code_rate = coding::CodeRate::kThreeQuarters;
  EXPECT_GT(FrameCodec(half).ofdm_symbols_per_frame(),
            FrameCodec(three_quarters).ofdm_symbols_per_frame());
}

/// The transmit chain stage by stage: scramble, encode, puncture, zero pad,
/// interleave each OFDM symbol's block, map each subcarrier's Q bits.
EncodedFrame reference_encode(const FrameConfig& cfg, const BitVector& payload) {
  const Constellation& constellation = Constellation::qam(cfg.qam_order);
  const BitVector scrambled = coding::Scrambler().apply(payload);
  BitVector stream =
      cfg.coded ? coding::Puncturer(cfg.code_rate)
                      .puncture(coding::ConvolutionalEncoder().encode(scrambled))
                : scrambled;
  EncodedFrame frame;
  frame.payload = payload;
  frame.punctured_bits = stream.size();
  const std::size_t per_symbol = cfg.coded_bits_per_ofdm_symbol(constellation);
  frame.ofdm_symbols = (stream.size() + per_symbol - 1) / per_symbol;
  stream.resize(frame.ofdm_symbols * per_symbol, 0);
  const unsigned q = constellation.bits_per_symbol();
  const coding::BlockInterleaver interleaver(per_symbol, q);
  for (std::size_t sym = 0; sym < frame.ofdm_symbols; ++sym) {
    const BitVector block(stream.begin() + static_cast<std::ptrdiff_t>(sym * per_symbol),
                          stream.begin() + static_cast<std::ptrdiff_t>((sym + 1) * per_symbol));
    const BitVector interleaved = interleaver.interleave(block);
    for (std::size_t sc = 0; sc < cfg.data_subcarriers; ++sc)
      frame.symbol_indices.push_back(constellation.index_from_bits(&interleaved[sc * q]));
  }
  return frame;
}

TEST(FrameCodec, EncodeMatchesReferenceChain) {
  // The one-pass encoder against the stage-by-stage chain, through the
  // returning wrapper and through one EncodedFrame reused across every
  // shape. Uncoded 144 B fills its last OFDM symbol exactly at every QAM.
  const std::size_t payload_bytes[] = {1, 2, 3, 13, 100, 500, 1500, 144};
  EncodedFrame reused;
  std::size_t exact_fills = 0;
  for (const unsigned qam : {4u, 16u, 64u, 256u}) {
    for (const char* code : {"1/2", "2/3", "3/4", "none"}) {
      for (const std::size_t bytes : payload_bytes) {
        FrameConfig cfg;
        cfg.qam_order = qam;
        cfg.payload_bytes = bytes;
        cfg.set_code(coding::CodeSpec::parse(code));
        const FrameCodec codec(cfg);
        for (std::uint64_t trial = 0; trial < 3; ++trial) {
          SCOPED_TRACE(std::to_string(qam) + "-QAM, code " + code + ", " +
                       std::to_string(bytes) + " B, trial " + std::to_string(trial));
          Rng rng(Rng::derive_seed(qam, bytes, trial));
          const BitVector payload = rng.bits(cfg.payload_bits());
          const EncodedFrame want = reference_encode(cfg, payload);
          const EncodedFrame got = codec.encode(payload);
          reused.payload = payload;
          codec.encode(reused);
          for (const EncodedFrame* frame : {&got, static_cast<const EncodedFrame*>(&reused)}) {
            EXPECT_EQ(frame->payload, want.payload);
            EXPECT_EQ(frame->ofdm_symbols, want.ofdm_symbols);
            EXPECT_EQ(frame->punctured_bits, want.punctured_bits);
            ASSERT_EQ(frame->symbol_indices, want.symbol_indices);
          }
          if (want.punctured_bits ==
              want.ofdm_symbols * cfg.coded_bits_per_ofdm_symbol(codec.constellation()))
            ++exact_fills;
        }
      }
    }
  }
  EXPECT_GE(exact_fills, 4u * 3u);  // At least uncoded 144 B at every QAM.
}

TEST(FrameCodec, WarmDecodesAllocateNothing) {
  // CodecWorkspace's promise: once a workspace has decoded one frame of a
  // shape, the next hard or soft decode of that shape allocates nothing, on
  // both Viterbi implementations and at every code rate.
  const coding::CodeRate rates[] = {coding::CodeRate::kHalf, coding::CodeRate::kTwoThirds,
                                    coding::CodeRate::kThreeQuarters};
  for (const ViterbiImpl impl : {ViterbiImpl::kDouble, ViterbiImpl::kQuantized}) {
    for (std::size_t code = 0; code < 4; ++code) {
      FrameConfig cfg;
      cfg.qam_order = 64;
      cfg.payload_bytes = 500;
      cfg.viterbi = impl;
      cfg.coded = code < 3;
      if (cfg.coded) cfg.code_rate = rates[code];
      const FrameCodec codec(cfg);
      Rng rng(40 + code);
      const BitVector payload = rng.bits(cfg.payload_bits());
      const EncodedFrame frame = codec.encode(payload);

      // Clean soft input: each symbol's bits as 0/1 confidences, in
      // transmitted order.
      const unsigned q = codec.constellation().bits_per_symbol();
      std::vector<double> confidences(frame.symbol_indices.size() * q);
      BitVector bits(q);
      for (std::size_t i = 0; i < frame.symbol_indices.size(); ++i) {
        codec.constellation().bits_from_index(frame.symbol_indices[i], bits.data());
        for (unsigned b = 0; b < q; ++b) confidences[i * q + b] = bits[b] ? 1.0 : 0.0;
      }

      CodecWorkspace ws;
      BitVector out;
      codec.decode(frame.symbol_indices, frame.ofdm_symbols, ws, out);
      codec.decode_soft(confidences, frame.ofdm_symbols, ws, out);

      const std::string label =
          std::string(impl == ViterbiImpl::kDouble ? "double " : "quantized ") +
          (cfg.coded ? coding::code_rate_label(cfg.code_rate) : "none");
      std::size_t before = g_allocations.load();
      codec.decode(frame.symbol_indices, frame.ofdm_symbols, ws, out);
      EXPECT_EQ(g_allocations.load() - before, 0u) << "hard decode, " << label;
      EXPECT_EQ(out, payload) << label;

      before = g_allocations.load();
      codec.decode_soft(confidences, frame.ofdm_symbols, ws, out);
      EXPECT_EQ(g_allocations.load() - before, 0u) << "soft decode, " << label;
      EXPECT_EQ(out, payload) << label;
    }
  }
}

/// The hard receive chain on the double decoder, rebuilt from the coding
/// layer without FrameCodec's decode code: 0/1 doubles, deinterleave_soft,
/// depuncture (0.5 erasures), ViterbiDecoder::decode_soft, descramble.
BitVector reference_hard_decode(const FrameConfig& cfg, const std::vector<unsigned>& symbols,
                                std::size_t ofdm_symbols) {
  const Constellation& c = Constellation::qam(cfg.qam_order);
  const unsigned q = c.bits_per_symbol();
  const std::size_t per_symbol = cfg.coded_bits_per_ofdm_symbol(c);
  const coding::BlockInterleaver interleaver(per_symbol, q);
  std::vector<double> stream;
  std::vector<double> block(per_symbol);
  BitVector bits(q);
  for (std::size_t sym = 0; sym < ofdm_symbols; ++sym) {
    for (std::size_t sc = 0; sc < cfg.data_subcarriers; ++sc) {
      c.bits_from_index(symbols[sym * cfg.data_subcarriers + sc], bits.data());
      for (unsigned b = 0; b < q; ++b) block[sc * q + b] = bits[b] ? 1.0 : 0.0;
    }
    const std::vector<double> deinterleaved = interleaver.deinterleave_soft(block);
    stream.insert(stream.end(), deinterleaved.begin(), deinterleaved.end());
  }

  BitVector decoded;
  if (!cfg.coded) {
    stream.resize(cfg.payload_bits());
    for (const double v : stream) decoded.push_back(v > 0.5 ? 1u : 0u);
  } else {
    const coding::Puncturer punct(cfg.code_rate);
    const std::size_t coded_bits = coding::ConvolutionalEncoder::coded_length(cfg.payload_bits());
    stream.resize(punct.punctured_length(coded_bits));
    decoded = coding::ViterbiDecoder().decode_soft(punct.depuncture(stream, coded_bits));
  }
  return coding::Scrambler().apply(decoded);
}

TEST(FrameCodec, HardDecodeMatchesDoubleReference) {
  // Hard frames decode on the int16 kernel whatever FrameConfig::viterbi
  // says. Bit for bit, that must be the double decoder's answer on 0/1
  // confidences with 0.5 erasures (the argument is in
  // coding/simd/viterbi_kernel.h), at every QAM, code and error rate.
  const coding::CodeRate rates[] = {coding::CodeRate::kHalf, coding::CodeRate::kTwoThirds,
                                    coding::CodeRate::kThreeQuarters};
  Rng rng(2014);
  for (const unsigned qam : {4u, 16u, 64u, 256u}) {
    for (std::size_t code = 0; code < 4; ++code) {
      FrameConfig cfg;
      cfg.qam_order = qam;
      cfg.payload_bytes = 120;
      cfg.coded = code < 3;
      if (cfg.coded) cfg.code_rate = rates[code];
      FrameConfig quantized_cfg = cfg;
      quantized_cfg.viterbi = ViterbiImpl::kQuantized;
      const FrameCodec codec(cfg);
      const FrameCodec quantized_codec(quantized_cfg);
      CodecWorkspace ws;
      BitVector out;
      for (const double symbol_error_rate : {0.0, 0.02, 0.1, 0.4}) {
        for (int frame_index = 0; frame_index < 3; ++frame_index) {
          const EncodedFrame frame = codec.encode(rng.bits(cfg.payload_bits()));
          std::vector<unsigned> detected = frame.symbol_indices;
          for (auto& index : detected) {
            if (rng.uniform() >= symbol_error_rate) continue;
            const auto shift = static_cast<unsigned>(rng.uniform_int(static_cast<int>(qam) - 1));
            index = (index + 1 + shift) % qam;  // Any other symbol.
          }

          const std::string label =
              "QAM " + std::to_string(qam) + ", code " +
              (cfg.coded ? coding::code_rate_label(cfg.code_rate) : "none") +
              ", symbol errors " + std::to_string(symbol_error_rate) + ", frame " +
              std::to_string(frame_index);
          const BitVector want = reference_hard_decode(cfg, detected, frame.ofdm_symbols);
          ASSERT_EQ(want.size(), cfg.payload_bits()) << label;
          if (symbol_error_rate == 0.0) {
            ASSERT_EQ(want, frame.payload) << label;
          }
          codec.decode(detected, frame.ofdm_symbols, ws, out);
          ASSERT_EQ(out, want) << "double setting, " << label;
          quantized_codec.decode(detected, frame.ofdm_symbols, ws, out);
          ASSERT_EQ(out, want) << "quantized setting, " << label;
        }
      }
    }
  }
}

TEST(FrameCodec, RejectsBadInputs) {
  FrameConfig cfg;
  FrameCodec codec(cfg);
  EXPECT_THROW(codec.encode(BitVector(7)), std::invalid_argument);
  EXPECT_THROW(codec.decode(std::vector<unsigned>(5), 1), std::invalid_argument);
}

// ---- Coded pipeline -----------------------------------------------------------

TEST(CodedPipeline, WarmFrameDecodesAllocateNothing) {
  // coded_pipeline.h's promise: after the first frame of a shape the whole
  // receive chain -- demap, deinterleave, depuncture, Viterbi and the CRC
  // verdict -- allocates nothing, hard or soft, on both Viterbi settings and
  // at every code.
  const coding::CodeRate rates[] = {coding::CodeRate::kHalf, coding::CodeRate::kTwoThirds,
                                    coding::CodeRate::kThreeQuarters};
  constexpr std::size_t kStreams = 4;
  for (const ViterbiImpl impl : {ViterbiImpl::kDouble, ViterbiImpl::kQuantized}) {
    for (std::size_t code = 0; code < 4; ++code) {
      FrameConfig cfg;
      cfg.qam_order = 64;
      cfg.payload_bytes = 100;
      cfg.viterbi = impl;
      cfg.coded = code < 3;
      if (cfg.coded) cfg.code_rate = rates[code];
      const FrameCodec codec(cfg);
      Rng rng(70 + code);

      // Per stream: the encoded frame, its symbols with one error, and the
      // same symbols' bits as 0/1 confidences in transmitted order.
      const unsigned q = codec.constellation().bits_per_symbol();
      std::vector<EncodedFrame> tx;
      std::vector<std::vector<unsigned>> rx;
      std::vector<std::vector<double>> rx_conf;
      BitVector bits(q);
      for (std::size_t k = 0; k < kStreams; ++k) {
        tx.push_back(codec.encode(rng.bits(cfg.payload_bits())));
        rx.push_back(tx.back().symbol_indices);
        rx.back()[k * 7] ^= 1u;
        std::vector<double> conf(rx.back().size() * q);
        for (std::size_t i = 0; i < rx.back().size(); ++i) {
          codec.constellation().bits_from_index(rx.back()[i], bits.data());
          for (unsigned b = 0; b < q; ++b) conf[i * q + b] = bits[b] ? 1.0 : 0.0;
        }
        rx_conf.push_back(std::move(conf));
      }

      link::CodedPipeline pipeline;
      std::vector<link::StreamDecodeResult> results;
      const std::size_t syms = codec.ofdm_symbols_per_frame();
      pipeline.decode_frame_hard(codec, rx, syms, tx, results);
      pipeline.decode_frame_soft(codec, rx_conf, syms, tx, results);

      const std::string label =
          std::string(impl == ViterbiImpl::kDouble ? "double " : "quantized ") +
          (cfg.coded ? coding::code_rate_label(cfg.code_rate) : "none");
      std::size_t before = g_allocations.load();
      pipeline.decode_frame_hard(codec, rx, syms, tx, results);
      EXPECT_EQ(g_allocations.load() - before, 0u) << "hard frame, " << label;
      ASSERT_EQ(results.size(), kStreams);

      before = g_allocations.load();
      pipeline.decode_frame_soft(codec, rx_conf, syms, tx, results);
      EXPECT_EQ(g_allocations.load() - before, 0u) << "soft frame, " << label;
      ASSERT_EQ(results.size(), kStreams);
    }
  }
}

// ---- Transmit half -------------------------------------------------------------

TEST(LinkDraw, WarmDrawStreamsAllocatesNothing) {
  // draw_streams' promise: drawn again into a frame of the same shape, the
  // payloads, symbols and noise reuse the frame's storage -- and come out
  // exactly as drawn into a fresh frame. One frame goes through every shape.
  struct Shape {
    unsigned qam;
    const char* code;
    std::size_t payload_bytes;
    std::size_t streams;
    double n0;
  };
  const Shape shapes[] = {{64, "1/2", 500, 4, 0.01},
                          {16, "3/4", 100, 2, 0.2},
                          {4, "none", 60, 3, 0.5},
                          {256, "2/3", 1500, 4, 0.0}};
  link::DrawnFrame frame;
  for (const Shape& s : shapes) {
    FrameConfig cfg;
    cfg.qam_order = s.qam;
    cfg.payload_bytes = s.payload_bytes;
    cfg.set_code(coding::CodeSpec::parse(s.code));
    const FrameCodec codec(cfg);
    const std::string label = std::to_string(s.qam) + "-QAM " + s.code;
    Rng link_rng(s.qam);
    frame.link = channel::RayleighChannel(4, s.streams).draw_link(link_rng, cfg.data_subcarriers);
    frame.n0 = s.n0;

    Rng warm_up(1);
    link::draw_streams(codec, warm_up, frame);
    Rng rng(2);
    const std::size_t before = g_allocations.load();
    link::draw_streams(codec, rng, frame);
    EXPECT_EQ(g_allocations.load() - before, 0u) << label;

    link::DrawnFrame fresh;
    fresh.link = frame.link;
    fresh.n0 = frame.n0;
    Rng fresh_rng(2);
    link::draw_streams(codec, fresh_rng, fresh);
    ASSERT_EQ(frame.tx.size(), s.streams) << label;
    for (std::size_t k = 0; k < s.streams; ++k) {
      EXPECT_EQ(frame.tx[k].payload, fresh.tx[k].payload) << label;
      EXPECT_EQ(frame.tx[k].symbol_indices, fresh.tx[k].symbol_indices) << label;
      EXPECT_EQ(frame.tx[k].ofdm_symbols, fresh.tx[k].ofdm_symbols) << label;
      EXPECT_EQ(frame.tx[k].punctured_bits, fresh.tx[k].punctured_bits) << label;
    }
    ASSERT_EQ(frame.noise.size(), fresh.noise.size()) << label;
    EXPECT_EQ(frame.noise.size(), s.n0 > 0.0 ? codec.ofdm_symbols_per_frame() * 48 * 4 : 0u);
    if (!frame.noise.empty()) {
      EXPECT_EQ(std::memcmp(frame.noise.data(), fresh.noise.data(),
                            frame.noise.size() * sizeof(cf64)),
                0)
          << label;
    }
  }
}

TEST(LinkDraw, WarmFreqSelectiveFrameAllocatesNothing) {
  // A served frame of the serve-short cells, end to end: the link drawn
  // into the frame, draw_streams, then the receiver's detection and
  // decoding. From the second frame on, every buffer is warm.
  struct Cell {
    const char* detector;
    unsigned qam;
    double snr_db;
  };
  const Cell cells[] = {{"mmse-sic", 16, 18.0}, {"zf", 64, 26.0}};
  const channel::FrequencySelectiveChannel chan(4, 4, 8);
  for (const Cell& cell : cells) {
    FrameConfig cfg;
    cfg.qam_order = cell.qam;
    cfg.payload_bytes = 100;
    const FrameCodec codec(cfg);
    const auto det = DetectorSpec::parse(cell.detector).create(Constellation::qam(cell.qam));
    link::DrawnFrame frame;
    link::FrameReceiver receiver;
    DetectionStats stats;
    for (std::uint64_t f = 0; f < 3; ++f) {
      Rng rng(Rng::derive_seed(1, f));
      const std::size_t before = g_allocations.load();
      chan.draw_link_into(rng, cfg.data_subcarriers, frame.link);
      frame.n0 = channel::noise_variance_for_snr_db(cell.snr_db);
      link::draw_streams(codec, rng, frame);
      receiver.receive(*det, DecisionMode::kHard, codec, frame, stats);
      const std::size_t allocs = g_allocations.load() - before;
      if (f > 0) {
        EXPECT_EQ(allocs, 0u) << cell.detector << ", frame " << f + 1;
      }
    }
  }
}

}  // namespace
}  // namespace geosphere::phy
