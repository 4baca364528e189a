// Tests for the quantized batched Viterbi hot path: cross-tier bit
// exactness (scalar / SSE2 / AVX2), agreement with the double-precision
// reference decoder, punctured round trips, termination and erasure edge
// cases, and the allocation-free workspace API.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "coding/convolutional.h"
#include "coding/puncture.h"
#include "coding/quantized_viterbi.h"
#include "coding/simd/dispatch.h"
#include "coding/viterbi.h"
#include "common/rng.h"

namespace geosphere::coding {
namespace {

/// Restores default kernel selection even if a test fails mid-override.
struct KernelOverrideGuard {
  ~KernelOverrideGuard() { simd::set_viterbi_kernel_override(nullptr); }
};

std::vector<double> noisy_confidence(const BitVector& coded, double noise_sigma,
                                     Rng& rng) {
  std::vector<double> conf(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    const double clean = coded[i] ? 1.0 : 0.0;
    const double v = clean + noise_sigma * rng.gaussian();
    conf[i] = std::min(1.0, std::max(0.0, v));
  }
  return conf;
}

std::size_t bit_errors(const BitVector& a, const BitVector& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) n += (a[i] != b[i]) ? 1u : 0u;
  return n;
}

TEST(QuantizedViterbiKernel, SupportedTiersAreBitIdentical) {
  // The heart of the SIMD contract: every supported tier produces the SAME
  // decoded bits on the same (noisy, erasure-laden) inputs. The comparison
  // is on decoded outputs across hundreds of frames -- a single differing
  // ACS decision anywhere would surface as a differing bit.
  KernelOverrideGuard guard;
  ConvolutionalEncoder enc;
  QuantizedViterbi dec;
  Rng rng(1234);

  const auto supported = simd::supported_viterbi_kernels();
  ASSERT_FALSE(supported.empty());

  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t info_bits = 40 + static_cast<std::size_t>(rng.uniform_int(200));
    const BitVector info = rng.bits(info_bits);
    auto conf = noisy_confidence(enc.encode(info), 0.45, rng);
    // Sprinkle erasures like the depuncturer would.
    for (std::size_t i = 0; i < conf.size(); i += 7) conf[i] = 0.5;

    simd::set_viterbi_kernel_override("scalar");
    const BitVector reference = dec.decode_soft(conf);
    for (const auto* kernel : supported) {
      simd::set_viterbi_kernel_override(kernel->name);
      EXPECT_EQ(dec.decode_soft(conf), reference)
          << "tier " << kernel->name << " diverged from scalar on trial " << trial;
    }
  }
}

TEST(QuantizedViterbi, CleanChannelMatchesDoubleExactly) {
  // Noise-free and erasure-free inputs quantize exactly (0 -> 0, 1 -> 254),
  // so the quantized decoder must reproduce the reference decoder verbatim.
  ConvolutionalEncoder enc;
  ViterbiDecoder ref;
  QuantizedViterbi quant;
  Rng rng(77);
  for (const std::size_t n : {1u, 2u, 7u, 48u, 100u, 1000u}) {
    const BitVector info = rng.bits(n);
    const BitVector coded = enc.encode(info);
    std::vector<double> conf(coded.size());
    for (std::size_t i = 0; i < coded.size(); ++i) conf[i] = coded[i] ? 1.0 : 0.0;
    EXPECT_EQ(quant.decode_soft(conf), info) << "n=" << n;
    EXPECT_EQ(quant.decode_soft(conf), ref.decode_soft(conf)) << "n=" << n;
  }
}

TEST(QuantizedViterbi, NoisyBerTracksDoubleDecoder) {
  // At 8-bit resolution the quantized decoder's coded BER may differ from
  // the double reference only marginally. Bound the absolute difference at
  // a noise level that actually produces errors. The committed
  // BENCH_coded_throughput.json tracks the same bound per SNR.
  ConvolutionalEncoder enc;
  ViterbiDecoder ref;
  QuantizedViterbi quant;
  Rng rng(555);

  std::size_t total_bits = 0, ref_errs = 0, quant_errs = 0, disagreements = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const BitVector info = rng.bits(300);
    const auto conf = noisy_confidence(enc.encode(info), 0.55, rng);
    const BitVector ref_out = ref.decode_soft(conf);
    const BitVector quant_out = quant.decode_soft(conf);
    total_bits += info.size();
    ref_errs += bit_errors(ref_out, info);
    quant_errs += bit_errors(quant_out, info);
    disagreements += bit_errors(ref_out, quant_out);
  }
  const double ref_ber = static_cast<double>(ref_errs) / static_cast<double>(total_bits);
  const double quant_ber =
      static_cast<double>(quant_errs) / static_cast<double>(total_bits);
  ASSERT_GT(ref_errs, 0u) << "noise level too low to exercise the comparison";
  // Documented bound: |BER_quant - BER_ref| <= 0.002 absolute.
  EXPECT_NEAR(quant_ber, ref_ber, 2e-3);
  // And the decoders agree bit-for-bit on the overwhelming majority of bits.
  EXPECT_LT(static_cast<double>(disagreements) / static_cast<double>(total_bits), 5e-3);
}

class QuantizedPunctureRoundTrip : public ::testing::TestWithParam<CodeRate> {};

TEST_P(QuantizedPunctureRoundTrip, CleanDecodeThroughPuncturing) {
  // Full pipeline shape: encode -> puncture -> (hard decisions) ->
  // depuncture (erasures at 0.5) -> quantized decode. Erasures quantize to
  // the exact midpoint 127, so a clean channel round-trips at 2/3 and 3/4.
  const CodeRate rate = GetParam();
  ConvolutionalEncoder enc;
  QuantizedViterbi dec;
  Puncturer punct(rate);
  Rng rng(6);
  const BitVector info = rng.bits(300);
  const BitVector coded = enc.encode(info);
  const BitVector sent = punct.puncture(coded);

  std::vector<double> conf(sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) conf[i] = sent[i] ? 1.0 : 0.0;
  EXPECT_EQ(dec.decode_soft(punct.depuncture(conf, coded.size())), info);
}

INSTANTIATE_TEST_SUITE_P(Rates, QuantizedPunctureRoundTrip,
                         ::testing::Values(CodeRate::kHalf, CodeRate::kTwoThirds,
                                           CodeRate::kThreeQuarters));

TEST(QuantizedViterbi, TailOnlyInputDecodesToEmpty) {
  // The shortest legal input is the bare 6-bit tail (k = 0 information
  // bits): 12 coded bits, all zero.
  QuantizedViterbi dec;
  const std::vector<double> conf(12, 0.0);
  EXPECT_TRUE(dec.decode_soft(conf).empty());
}

TEST(QuantizedViterbi, RejectsOddAndTooShortInputs) {
  QuantizedViterbi dec;
  EXPECT_THROW(dec.decode_soft(std::vector<double>(33, 0.0)), std::invalid_argument);
  EXPECT_THROW(dec.decode_soft(std::vector<double>(4, 0.0)), std::invalid_argument);
}

TEST(QuantizedViterbi, AllErasuresReturnRightLengthAcrossTiers) {
  // A fully erased frame carries no information; the decoder must still
  // terminate, return k bits, and every tier must return the SAME bits
  // (ties resolved by the shared even-predecessor rule).
  KernelOverrideGuard guard;
  QuantizedViterbi dec;
  const std::vector<double> conf(2 * (100 + 6), 0.5);

  simd::set_viterbi_kernel_override("scalar");
  const BitVector reference = dec.decode_soft(conf);
  EXPECT_EQ(reference.size(), 100u);
  for (const auto* kernel : simd::supported_viterbi_kernels()) {
    simd::set_viterbi_kernel_override(kernel->name);
    EXPECT_EQ(dec.decode_soft(conf), reference) << "tier " << kernel->name;
  }
}

TEST(QuantizedViterbi, LongFrameExercisesRenormalization) {
  // kRenormInterval = 32 steps: a 4000-bit payload crosses ~125 renorm
  // boundaries. Clean decode proves metrics never saturate or wrap.
  ConvolutionalEncoder enc;
  QuantizedViterbi dec;
  Rng rng(99);
  const BitVector info = rng.bits(4000);
  const BitVector coded = enc.encode(info);
  std::vector<double> conf(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) conf[i] = coded[i] ? 1.0 : 0.0;
  EXPECT_EQ(dec.decode_soft(conf), info);
}

TEST(QuantizedViterbi, WorkspaceApiMatchesConvenienceApi) {
  ConvolutionalEncoder enc;
  QuantizedViterbi dec;
  QuantizedViterbiWorkspace ws;
  Rng rng(321);
  BitVector out;
  for (int trial = 0; trial < 10; ++trial) {
    const BitVector info = rng.bits(64 + static_cast<std::size_t>(trial) * 37);
    const auto conf = noisy_confidence(enc.encode(info), 0.3, rng);
    dec.decode_soft(conf.data(), conf.size(), ws, out);
    EXPECT_EQ(out, dec.decode_soft(conf)) << "trial " << trial;
  }
}

TEST(ViterbiWorkspace, ReferenceDecoderWorkspaceApiMatchesLegacyApi) {
  // Satellite check for the allocation fix: the workspace-taking overloads
  // of the double decoder are the implementation; the legacy
  // vector-returning API wraps them and must agree on hard and soft inputs.
  ConvolutionalEncoder enc;
  ViterbiDecoder dec;
  ViterbiWorkspace ws;
  Rng rng(246);
  BitVector out;
  for (int trial = 0; trial < 10; ++trial) {
    const BitVector info = rng.bits(50 + static_cast<std::size_t>(trial) * 23);
    const BitVector coded = enc.encode(info);

    dec.decode(coded, ws, out);
    EXPECT_EQ(out, dec.decode(coded));
    EXPECT_EQ(out, info);

    const auto conf = noisy_confidence(coded, 0.35, rng);
    dec.decode_soft(conf.data(), conf.size(), ws, out);
    EXPECT_EQ(out, dec.decode_soft(conf)) << "trial " << trial;
  }
}

TEST(QuantizedViterbi, QuantizeLevels) {
  EXPECT_EQ(QuantizedViterbi::quantize(0.0), 0);
  EXPECT_EQ(QuantizedViterbi::quantize(1.0), simd::kQuantOne);
  EXPECT_EQ(QuantizedViterbi::quantize(0.5), simd::kQuantErasure);
  // Out-of-range inputs clamp instead of wrapping.
  EXPECT_EQ(QuantizedViterbi::quantize(-3.0), 0);
  EXPECT_EQ(QuantizedViterbi::quantize(7.0), simd::kQuantOne);
}

}  // namespace
}  // namespace geosphere::coding
