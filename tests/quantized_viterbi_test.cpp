// Tests for the Viterbi kernel layer and the quantized batched Viterbi hot
// path: cross-tier bit exactness of both ACS ops (scalar / AVX2), the
// double op against the decoder loop it replaced, agreement of the quantized
// decoder with the double-precision reference decoder (bit for bit on hard
// decisions and erasures), punctured round trips, termination and erasure
// edge cases, the quantizer's rounding and clamp, and the allocation-free
// workspace API.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
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

// ---- Double ACS op vs the decoder loop it replaced ---------------------------

/// ViterbiDecoder::decode_soft's ACS before it became the kernel layer's
/// acs_double op, kept verbatim as the reference: an ascending-state
/// strict-< update of +inf-initialized slots over a transition table,
/// skipping +inf source metrics.
struct ReferenceAcs {
  std::vector<std::uint64_t> decisions;
  std::array<double, ConvolutionalEncoder::kStates> metric;
};

unsigned parity(unsigned x) {
  x ^= x >> 4;
  x ^= x >> 2;
  x ^= x >> 1;
  return x & 1u;
}

ReferenceAcs reference_acs(const std::vector<double>& confidence) {
  struct Transition {
    int next_state;
    std::uint8_t out0;
    std::uint8_t out1;
  };
  constexpr int kStates = ConvolutionalEncoder::kStates;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::array<Transition, 2>> transitions(kStates);
  for (int s = 0; s < kStates; ++s) {
    for (unsigned u = 0; u < 2; ++u) {
      const unsigned window = (u << 6) | static_cast<unsigned>(s);
      transitions[static_cast<std::size_t>(s)][u] = {
          static_cast<int>((window >> 1) & 0x3Fu),
          static_cast<std::uint8_t>(parity(window & ConvolutionalEncoder::kG0)),
          static_cast<std::uint8_t>(parity(window & ConvolutionalEncoder::kG1))};
    }
  }

  const std::size_t steps = confidence.size() / 2;
  std::vector<double> metric(static_cast<std::size_t>(kStates), kInf);
  std::vector<double> next_metric(static_cast<std::size_t>(kStates));
  metric[0] = 0.0;
  ReferenceAcs ref;
  ref.decisions.resize(steps);

  for (std::size_t t = 0; t < steps; ++t) {
    const double c0 = confidence[2 * t];
    const double c1 = confidence[2 * t + 1];
    std::fill(next_metric.begin(), next_metric.end(), kInf);
    std::uint64_t decision_word = 0;

    for (int s = 0; s < kStates; ++s) {
      const double m = metric[static_cast<std::size_t>(s)];
      if (m == kInf) continue;
      for (unsigned u = 0; u < 2; ++u) {
        const Transition& tr = transitions[static_cast<std::size_t>(s)][u];
        const double cost = m + std::abs(c0 - static_cast<double>(tr.out0)) +
                            std::abs(c1 - static_cast<double>(tr.out1));
        const auto ns = static_cast<std::size_t>(tr.next_state);
        if (cost < next_metric[ns]) {
          next_metric[ns] = cost;
          const std::uint64_t dropped = static_cast<std::uint64_t>(s) & 1u;
          decision_word = (decision_word & ~(std::uint64_t{1} << ns)) | (dropped << ns);
        }
      }
    }
    ref.decisions[t] = decision_word;
    metric.swap(next_metric);
  }
  std::copy(metric.begin(), metric.end(), ref.metric.begin());
  return ref;
}

/// Confidence streams of `steps` trellis steps that stress every branch of
/// the reference's update rule.
std::vector<std::vector<double>> double_acs_inputs(std::size_t steps, Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  ConvolutionalEncoder enc;
  const BitVector coded =
      enc.encode(rng.bits(steps - static_cast<std::size_t>(ConvolutionalEncoder::kTailBits)));
  const std::size_t n = coded.size();
  std::vector<std::vector<double>> inputs;

  // Hard 0/1 with flipped bits: integer metrics, so ties occur at every step.
  std::vector<double> hard(n);
  for (std::size_t i = 0; i < n; ++i)
    hard[i] = ((coded[i] != 0) != (rng.uniform() < 0.1)) ? 1.0 : 0.0;
  inputs.push_back(hard);

  // Depuncturer-style erasures, and a frame of nothing but erasures.
  std::vector<double> erased = hard;
  for (std::size_t i = 0; i < n; i += 3) erased[i] = 0.5;
  inputs.push_back(erased);
  inputs.emplace_back(n, 0.5);

  // Continuous confidences: every sum rounds.
  const auto continuous = noisy_confidence(coded, 0.4, rng);
  inputs.push_back(continuous);

  // Out-of-range confidences.
  std::vector<double> out_of_range = continuous;
  for (std::size_t i = 0; i < n; i += 5) out_of_range[i] = (i % 2 == 0) ? -3.0 : 2.5;
  inputs.push_back(out_of_range);

  // NaN, +inf and -inf: each costs every branch of its step NaN or +inf, so
  // no candidate wins and every later metric is +inf. One of each, placed in
  // the second half so a live trellis precedes it, then all three sprinkled.
  const double specials[] = {kNaN, kInf, -kInf};
  for (const double special : specials) {
    std::vector<double> one = continuous;
    one[n / 2 + static_cast<std::size_t>(rng.uniform_int(static_cast<int>(n - n / 2)))] =
        special;
    inputs.push_back(one);
  }
  std::vector<double> sprinkled = continuous;
  for (std::size_t i = 0; i < n; ++i)
    if (rng.uniform() < 0.02) sprinkled[i] = specials[rng.uniform_int(3)];
  inputs.push_back(sprinkled);
  return inputs;
}

TEST(ViterbiKernel, DoubleAcsMatchesReferenceLoopOnEveryTier) {
  // The double decoder's bits are the golden arbiter, so every tier of the
  // acs_double op must reproduce the loop it replaced byte for byte: the
  // decision words, the final metrics (memcmp, so +inf and rounding count)
  // and the decoded bits.
  KernelOverrideGuard guard;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const ViterbiDecoder dec;
  Rng rng(2024);

  for (const std::size_t steps : {6u, 7u, 64u, 1003u}) {
    const auto inputs = double_acs_inputs(steps, rng);
    for (std::size_t kind = 0; kind < inputs.size(); ++kind) {
      const std::vector<double>& conf = inputs[kind];
      const ReferenceAcs ref = reference_acs(conf);
      BitVector reversed, ref_bits;
      viterbi_traceback(ref.decisions.data(), steps, reversed, ref_bits);

      for (const auto* kernel : simd::supported_viterbi_kernels()) {
        SCOPED_TRACE(std::string("tier ") + kernel->name + ", steps " +
                     std::to_string(steps) + ", input kind " + std::to_string(kind));
        std::array<double, ConvolutionalEncoder::kStates> metric;
        std::array<double, ConvolutionalEncoder::kStates> scratch;
        metric.fill(kInf);
        metric[0] = 0.0;
        std::vector<std::uint64_t> decisions(steps);
        kernel->acs_double(conf.data(), steps, metric.data(), scratch.data(),
                           decisions.data());
        EXPECT_EQ(std::memcmp(decisions.data(), ref.decisions.data(),
                              steps * sizeof(std::uint64_t)),
                  0);
        EXPECT_EQ(std::memcmp(metric.data(), ref.metric.data(), sizeof(metric)), 0);

        simd::set_viterbi_kernel_override(kernel->name);
        EXPECT_EQ(dec.decode_soft(conf), ref_bits);
      }
      simd::set_viterbi_kernel_override(nullptr);
    }
  }
}

// ---- Quantized decoder -------------------------------------------------------

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

/// Coded bits of a tail-terminated path that starts in encoder state
/// `start`. For start != 0 the tail-terminated encoder cannot produce the
/// stream: only a path from a fake start state explains it, which presses
/// on the quantized decoder's start offset.
BitVector encode_from(unsigned start, const BitVector& info) {
  BitVector out;
  unsigned state = start;
  const auto push = [&](unsigned u) {
    const unsigned window = (u << 6) | state;
    out.push_back(static_cast<std::uint8_t>(parity(window & ConvolutionalEncoder::kG0)));
    out.push_back(static_cast<std::uint8_t>(parity(window & ConvolutionalEncoder::kG1)));
    state = (window >> 1) & 0x3Fu;
  };
  for (const auto b : info) push(b & 1u);
  for (int t = 0; t < ConvolutionalEncoder::kTailBits; ++t) push(0);
  return out;
}

TEST(QuantizedViterbi, HardAndErasureInputsMatchDoubleDecoder) {
  // The exactness argument in viterbi_kernel.h, checked: on hard decisions
  // (levels 0 / kQuantOne) and the depuncturer's erasures (kQuantErasure),
  // decode_levels returns the bits the double decoder returns on the same
  // stream as 0 / 1/2 / 1 confidences. Every hard-decision frame decodes
  // through it. Streams: codewords with 0-50% flipped bits, constant and
  // alternating streams, and codewords from every nonzero start state;
  // rate 1/2 and the 2/3 and 3/4 erasure patterns; 6 (tail only) to 4006
  // steps; every supported tier.
  KernelOverrideGuard guard;
  const ConvolutionalEncoder enc;
  const ViterbiDecoder reference;
  const QuantizedViterbi quantized;
  QuantizedViterbiWorkspace ws;
  Rng rng(2718);
  BitVector got;

  for (const std::size_t steps : {6u, 7u, 31u, 32u, 33u, 64u, 65u, 4006u}) {
    const std::size_t info_bits = steps - ConvolutionalEncoder::kTailBits;
    const std::size_t n = 2 * steps;
    std::vector<std::pair<std::string, BitVector>> streams;
    for (const double flip : {0.0, 0.01, 0.05, 0.1, 0.3, 0.5}) {
      for (int trial = 0; trial < 4; ++trial) {
        BitVector coded = enc.encode(rng.bits(info_bits));
        for (auto& b : coded) b = static_cast<std::uint8_t>(b ^ (rng.uniform() < flip ? 1u : 0u));
        streams.emplace_back("flip rate " + std::to_string(flip), coded);
      }
    }
    streams.emplace_back("all-zero", BitVector(n, 0));
    streams.emplace_back("all-one", BitVector(n, 1));
    BitVector alternating(n);
    for (std::size_t i = 0; i < n; ++i) alternating[i] = static_cast<std::uint8_t>(i % 2);
    streams.emplace_back("alternating", alternating);
    // Codewords from nonzero start states, clean and noisy: only a
    // fake-start path explains them, so they catch a start offset too small
    // to be exact (any offset below 2540; see viterbi_kernel.h). The start
    // acts on the first steps only, so the long frame skips them.
    for (unsigned start = 1; start < 64 && steps <= 100; ++start) {
      streams.emplace_back("start state " + std::to_string(start),
                           encode_from(start, rng.bits(info_bits)));
      for (const double flip : {0.05, 0.1, 0.2}) {
        BitVector coded = encode_from(start, rng.bits(info_bits));
        for (auto& b : coded) b = static_cast<std::uint8_t>(b ^ (rng.uniform() < flip ? 1u : 0u));
        streams.emplace_back("start state " + std::to_string(start) + ", flip rate " +
                                 std::to_string(flip),
                             coded);
      }
    }

    for (const CodeRate rate :
         {CodeRate::kHalf, CodeRate::kTwoThirds, CodeRate::kThreeQuarters}) {
      const Puncturer punct(rate);
      for (const auto& [label, coded] : streams) {
        const BitVector sent = punct.puncture(coded);
        std::vector<double> conf(sent.size());
        std::vector<std::int16_t> levels(sent.size());
        for (std::size_t i = 0; i < sent.size(); ++i) {
          conf[i] = sent[i] ? 1.0 : 0.0;
          levels[i] = static_cast<std::int16_t>(sent[i] ? simd::kQuantOne : 0);
        }
        const std::vector<double> conf_full = punct.depuncture(conf, n);
        std::vector<std::int16_t> levels_full;
        punct.depuncture(levels, n, levels_full);

        for (const auto* kernel : simd::supported_viterbi_kernels()) {
          simd::set_viterbi_kernel_override(kernel->name);
          quantized.decode_levels(levels_full.data(), levels_full.size(), ws, got);
          ASSERT_EQ(got, reference.decode_soft(conf_full))
              << "tier " << kernel->name << ", " << steps << " steps, rate "
              << code_rate_label(rate) << ", " << label;
        }
      }
    }
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

/// clamp(lround(c * 254), 0, 254), the quantizer's contract as lround
/// computes it, where lround has a defined result. NaN and c * 254 <= -2^63
/// give 0, as they did through glibc's LONG_MIN. +inf and c * 254 >= 2^63
/// give 254: the clamp the contract states, where the lround quantizer
/// returned 0.
int lround_clamp_level(double c) {
  const double x = c * static_cast<double>(simd::kQuantOne);
  if (x >= 0x1p63) return simd::kQuantOne;
  if (!(x > -0x1p63)) return 0;
  return static_cast<int>(std::clamp<long>(std::lround(x), 0, simd::kQuantOne));
}

TEST(QuantizedViterbi, QuantizeLevels) {
  EXPECT_EQ(QuantizedViterbi::quantize(0.0), 0);
  EXPECT_EQ(QuantizedViterbi::quantize(1.0), simd::kQuantOne);
  EXPECT_EQ(QuantizedViterbi::quantize(0.5), simd::kQuantErasure);
  // Out-of-range inputs clamp instead of wrapping.
  EXPECT_EQ(QuantizedViterbi::quantize(-3.0), 0);
  EXPECT_EQ(QuantizedViterbi::quantize(7.0), simd::kQuantOne);
  // Beyond long's range the clamp still holds (lround overflowed to 0 here).
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(QuantizedViterbi::quantize(inf), simd::kQuantOne);
  EXPECT_EQ(QuantizedViterbi::quantize(1e300), simd::kQuantOne);
  EXPECT_EQ(QuantizedViterbi::quantize(0x1p63 / 254.0), simd::kQuantOne);
  EXPECT_EQ(QuantizedViterbi::quantize(-inf), 0);
  EXPECT_EQ(QuantizedViterbi::quantize(std::numeric_limits<double>::quiet_NaN()), 0);

  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                0.5,
                                inf,
                                -inf,
                                std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::max(),
                                -std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                1e300,
                                -1e300,
                                0x1p63 / 254.0,
                                std::nextafter(0x1p63 / 254.0, 0.0),
                                -0x1p63 / 254.0};
  // The rounding edges of every half-level k + 1/2 (k = -1 .. 254), in the
  // space the quantizer rounds in: c = (k + 1/2) / 254 and its neighbours,
  // the largest c with c * 254 below the half-level, and the smallest two
  // that reach it. (Truncating x + 0.5 misrounds x = 0.49999999999999994
  // alone, and no double c has c * 254 equal to it.)
  for (int k = -1; k <= simd::kQuantOne; ++k) {
    const double half = k + 0.5;
    const double c = half / 254.0;
    values.insert(values.end(), {c, std::nextafter(c, -inf), std::nextafter(c, inf)});
    double below = c, above = c;
    while (below * 254.0 >= half) below = std::nextafter(below, -inf);
    while (above * 254.0 < half) above = std::nextafter(above, inf);
    values.insert(values.end(), {below, above, std::nextafter(above, inf)});
  }
  Rng rng(254);
  for (int i = 0; i < 1000000; ++i) {
    // Half around [0, 1], half arbitrary bit patterns (every magnitude,
    // both zeros, subnormals, infinities and NaNs).
    if (i % 2 == 0) {
      values.push_back(rng.uniform(-0.1, 1.1));
    } else {
      const std::uint64_t bits = rng.engine()();
      double x = 0.0;
      std::memcpy(&x, &bits, sizeof x);
      values.push_back(x);
    }
  }
  for (const double c : values)
    ASSERT_EQ(QuantizedViterbi::quantize(c), lround_clamp_level(c)) << "c = " << c;
}

}  // namespace
}  // namespace geosphere::coding
