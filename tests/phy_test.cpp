#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>

#include "common/rng.h"
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

TEST(FrameCodec, RejectsBadInputs) {
  FrameConfig cfg;
  FrameCodec codec(cfg);
  EXPECT_THROW(codec.encode(BitVector(7)), std::invalid_argument);
  EXPECT_THROW(codec.decode(std::vector<unsigned>(5), 1), std::invalid_argument);
}

}  // namespace
}  // namespace geosphere::phy
