#include "reference/soft_output.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "channel/rayleigh.h"
#include "coding/convolutional.h"
#include "detect/ml_exhaustive.h"
#include "detect/soft_sts.h"
#include "coding/viterbi.h"
#include "common/db.h"
#include "common/rng.h"
#include "common/stats.h"
#include "detect/sphere/sphere_decoder.h"
#include "link/link_simulator.h"
#include "test_util.h"

namespace geosphere {
namespace {

using geosphere::testing::random_channel;
using geosphere::testing::random_indices;
using geosphere::testing::transmit;

/// Brute-force max-log LLRs for small problems: the ground truth.
std::vector<double> exhaustive_llrs(const CVector& y, const linalg::CMatrix& h,
                                    const Constellation& c, double n0, double clamp) {
  const std::size_t nc = h.cols();
  const unsigned bits = c.bits_per_symbol();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> min0(nc * bits, kInf);
  std::vector<double> min1(nc * bits, kInf);

  std::vector<unsigned> idx(nc, 0);
  std::vector<std::uint8_t> sym_bits(bits);
  for (;;) {
    const double d = geosphere::testing::hypothesis_distance_sq(y, h, c, idx);
    for (std::size_t k = 0; k < nc; ++k) {
      c.bits_from_index(idx[k], sym_bits.data());
      for (unsigned b = 0; b < bits; ++b) {
        auto& slot = sym_bits[b] ? min1[k * bits + b] : min0[k * bits + b];
        slot = std::min(slot, d);
      }
    }
    std::size_t pos = 0;
    while (pos < nc && ++idx[pos] == c.order()) {
      idx[pos] = 0;
      ++pos;
    }
    if (pos == nc) break;
  }

  std::vector<double> llrs(nc * bits);
  for (std::size_t i = 0; i < llrs.size(); ++i) {
    const double raw = (min1[i] - min0[i]) / n0;
    llrs[i] = std::clamp(raw, -clamp, clamp);
  }
  return llrs;
}

TEST(SoftOutput, MatchesExhaustiveMaxLog) {
  for (const unsigned order : {4u, 16u}) {
    const Constellation& c = Constellation::qam(order);
    SoftGeosphereDetector soft(c, 30.0);
    Rng rng(order);
    const double n0 = db_to_lin(-12.0);
    for (int trial = 0; trial < 25; ++trial) {
      const auto h = random_channel(rng, 3, 2);
      const auto sent = random_indices(rng, c, 2);
      const auto y = transmit(rng, h, c, sent, n0);

      const auto result = soft.detect_soft(y, h, n0);
      const auto expected = exhaustive_llrs(y, h, c, n0, 30.0);
      ASSERT_EQ(result.llrs.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_NEAR(result.llrs[i], expected[i], 1e-6 + 1e-6 * std::abs(expected[i]))
            << "order=" << order << " trial=" << trial << " bit=" << i;
    }
  }
}

TEST(SoftOutput, HardDecisionsAreMl) {
  const Constellation& c = Constellation::qam(16);
  SoftGeosphereDetector soft(c);
  MlExhaustiveDetector ml(c);
  Rng rng(3);
  const double n0 = db_to_lin(-10.0);
  for (int trial = 0; trial < 20; ++trial) {
    const auto h = random_channel(rng, 4, 3);
    const auto sent = random_indices(rng, c, 3);
    const auto y = transmit(rng, h, c, sent, n0);
    const auto result = soft.detect_soft(y, h, n0);
    const auto truth = ml.detect(y, h, n0);
    EXPECT_EQ(result.indices, truth.indices);
    // detect() (the Detector interface, unconstrained search only) must
    // yield the same ML decisions without the counter-hypothesis cost.
    const auto hard = soft.detect(y, h, n0);
    EXPECT_EQ(hard.indices, truth.indices);
    EXPECT_LT(hard.stats.ped_computations, result.stats.ped_computations);
  }
}

TEST(SoftOutput, LlrSignsAgreeWithHardBits) {
  // Positive LLR = bit 0: the sign must always match the ML decision.
  const Constellation& c = Constellation::qam(64);
  SoftGeosphereDetector soft(c);
  Rng rng(4);
  const double n0 = db_to_lin(-18.0);
  std::vector<std::uint8_t> bits(c.bits_per_symbol());
  for (int trial = 0; trial < 20; ++trial) {
    const auto h = random_channel(rng, 4, 2);
    const auto sent = random_indices(rng, c, 2);
    const auto y = transmit(rng, h, c, sent, n0);
    const auto result = soft.detect_soft(y, h, n0);
    for (std::size_t k = 0; k < 2; ++k) {
      c.bits_from_index(result.indices[k], bits.data());
      for (unsigned b = 0; b < c.bits_per_symbol(); ++b) {
        const double llr = result.llrs[k * c.bits_per_symbol() + b];
        if (bits[b] == 0)
          EXPECT_GE(llr, 0.0);
        else
          EXPECT_LE(llr, 0.0);
      }
    }
  }
}

TEST(SoftOutput, ConfidenceGrowsWithSnr) {
  const Constellation& c = Constellation::qam(16);
  SoftGeosphereDetector soft(c, 100.0);
  double prev_mean = 0.0;
  for (const double snr : {5.0, 15.0, 25.0}) {
    Rng rng(7);  // Same channels at every SNR.
    const double n0 = db_to_lin(-snr);
    RunningStats mag;
    for (int trial = 0; trial < 30; ++trial) {
      const auto h = random_channel(rng, 4, 2);
      const auto sent = random_indices(rng, c, 2);
      const auto y = transmit(rng, h, c, sent, n0);
      for (const double llr : soft.detect_soft(y, h, n0).llrs) mag.add(std::abs(llr));
    }
    EXPECT_GT(mag.mean(), prev_mean);
    prev_mean = mag.mean();
  }
}

TEST(SoftOutput, ClampBoundsLlrs) {
  const Constellation& c = Constellation::qam(4);
  SoftGeosphereDetector soft(c, 5.0);
  Rng rng(8);
  const auto h = random_channel(rng, 2, 2);
  const auto sent = random_indices(rng, c, 2);
  const auto y = transmit(rng, h, c, sent, 1e-6);  // Virtually noiseless.
  const auto result = soft.detect_soft(y, h, 1e-6);
  for (const double llr : result.llrs) {
    EXPECT_LE(std::abs(llr), 5.0 + 1e-12);
    EXPECT_GT(std::abs(llr), 4.99);  // Noiseless: every bit saturates.
  }
}

TEST(SoftOutput, RejectsBadInputs) {
  const Constellation& c = Constellation::qam(4);
  EXPECT_THROW(SoftGeosphereDetector(c, 0.0), std::invalid_argument);
  SoftGeosphereDetector soft(c);
  Rng rng(9);
  const auto h = random_channel(rng, 2, 2);
  EXPECT_THROW(soft.detect(CVector(2), h, 0.0), std::invalid_argument);
  EXPECT_THROW(soft.detect(CVector(3), h, 0.1), std::invalid_argument);
  EXPECT_THROW(soft.detect_soft(CVector(2), h, 0.0), std::invalid_argument);
  EXPECT_THROW(soft.detect_soft(CVector(3), h, 0.1), std::invalid_argument);
}

// Both soft detectors divide their LLRs by the noise variance, so each
// rejects one that is not positive -- NaN included, which `<= 0` let
// through (soft-geosphere then returned all-NaN LLRs) -- with
// std::invalid_argument at select, batched or one-shot.
TEST(SoftOutput, NonPositiveOrNanNoiseVarianceThrowsAtSelect) {
  const Constellation& c = Constellation::qam(16);
  Rng rng(24);
  std::vector<linalg::CMatrix> hs;
  for (int s = 0; s < 3; ++s) hs.push_back(random_channel(rng, 4, 4));
  std::vector<std::unique_ptr<Detector>> detectors;
  detectors.push_back(std::make_unique<SoftGeosphereDetector>(c));
  detectors.push_back(std::make_unique<SoftGeosphereStsDetector>(c));
  for (const auto& det : detectors)
    for (double n0 : {std::numeric_limits<double>::quiet_NaN(), 0.0, -0.0, -1.0}) {
      const std::string where = det->name() + ", noise_var " + std::to_string(n0);
      det->prepare_batch(hs, n0);
      for (std::size_t s = 0; s < hs.size(); ++s)
        EXPECT_THROW(det->select_prepared(s), std::invalid_argument) << where;
      EXPECT_THROW(det->prepare(hs[0], n0), std::invalid_argument) << where;
      EXPECT_FALSE(det->prepared()) << where;
      // A valid variance still prepares afterwards.
      det->prepare(hs[0], 0.1);
      EXPECT_TRUE(det->prepared()) << where;
    }
}

TEST(SoftOutput, LlrToConfidenceMapping) {
  const auto conf = llrs_to_confidence({0.0, 50.0, -50.0, 1.0});
  EXPECT_NEAR(conf[0], 0.5, 1e-12);   // Undecided.
  EXPECT_NEAR(conf[1], 0.0, 1e-12);   // Strongly bit 0.
  EXPECT_NEAR(conf[2], 1.0, 1e-12);   // Strongly bit 1.
  EXPECT_NEAR(conf[3], 1.0 / (1.0 + std::exp(1.0)), 1e-12);
}

TEST(SoftOutput, SoftDecodingBeatsHardAtLowSnr) {
  // End-to-end value of the LLRs: feed them to the soft Viterbi and count
  // information-bit errors vs hard-decision decoding over the same
  // receptions. (Single-stream narrowband link keeps the test fast.)
  const Constellation& c = Constellation::qam(16);
  SoftGeosphereDetector soft(c, 30.0);
  coding::ConvolutionalEncoder enc;
  coding::ViterbiDecoder dec;
  Rng rng(10);
  const double n0 = db_to_lin(-7.0);

  std::size_t hard_errors = 0;
  std::size_t soft_errors = 0;
  const std::size_t kInfoBits = 120;
  std::vector<std::uint8_t> sym_bits(c.bits_per_symbol());

  for (int frame = 0; frame < 60; ++frame) {
    const BitVector info = rng.bits(kInfoBits);
    const BitVector coded = enc.encode(info);
    // Map to 16-QAM symbols on a 1x2 SIMO link (2 rx antennas).
    const std::size_t nsym = coded.size() / c.bits_per_symbol();
    std::vector<double> soft_conf(coded.size());
    BitVector hard_bits(coded.size());
    for (std::size_t s = 0; s < nsym; ++s) {
      const unsigned idx = c.index_from_bits(&coded[s * c.bits_per_symbol()]);
      const auto h = random_channel(rng, 2, 1);
      const auto y = transmit(rng, h, c, {idx}, n0);
      const auto r = soft.detect_soft(y, h, n0);
      c.bits_from_index(r.indices[0], sym_bits.data());
      const auto conf = llrs_to_confidence(r.llrs);
      for (unsigned b = 0; b < c.bits_per_symbol(); ++b) {
        hard_bits[s * c.bits_per_symbol() + b] = sym_bits[b];
        soft_conf[s * c.bits_per_symbol() + b] = conf[b];
      }
    }
    const BitVector hard_out = dec.decode(hard_bits);
    const BitVector soft_out = dec.decode_soft(soft_conf);
    for (std::size_t i = 0; i < kInfoBits; ++i) {
      hard_errors += hard_out[i] != info[i];
      soft_errors += soft_out[i] != info[i];
    }
  }
  EXPECT_LT(soft_errors, hard_errors);
  EXPECT_GT(hard_errors, 0u);  // The operating point is genuinely noisy.
}


TEST(SoftLink, SoftSystemBeatsHardSystemAtLowSnr) {
  // Full-system comparison: identical channels/payloads/noise, hard
  // Geosphere + hard Viterbi vs soft Geosphere + soft Viterbi.
  channel::RayleighChannel ch(4, 2);
  link::LinkScenario scenario;
  scenario.frame.qam_order = 16;
  scenario.frame.payload_bytes = 60;
  scenario.snr_db = 9.0;
  link::LinkSimulator sim(ch, scenario);

  const Constellation& c = Constellation::qam(16);
  const auto hard = sphere::make_geosphere(c);
  SoftGeosphereDetector soft(c, 30.0);

  // Identical channels/payloads/noise: same seed, per-frame seeding.
  const auto hard_stats = sim.run(*hard, DecisionMode::kHard, 25, /*seed=*/21);
  const auto soft_stats = sim.run(soft, DecisionMode::kSoft, 25, /*seed=*/21);
  EXPECT_LE(soft_stats.fer(), hard_stats.fer());
  EXPECT_LT(soft_stats.ber(), hard_stats.ber() + 1e-9);
  EXPECT_GT(hard_stats.ber(), 0.0);  // Genuinely noisy operating point.
}

TEST(SoftLink, CleanChannelRoundTrip) {
  channel::RayleighChannel ch(4, 2);
  link::LinkScenario scenario;
  scenario.frame.qam_order = 16;
  scenario.frame.payload_bytes = 60;
  scenario.snr_db = 40.0;
  link::LinkSimulator sim(ch, scenario);
  SoftGeosphereDetector soft(Constellation::qam(16));
  const auto stats = sim.run(soft, DecisionMode::kSoft, 5, /*seed=*/22);
  EXPECT_DOUBLE_EQ(stats.fer(), 0.0);
  EXPECT_EQ(stats.bit_errors, 0u);
}

TEST(SoftLink, FrameCodecSoftDecodeMatchesHardOnCertainInputs) {
  // With confidences pinned at 0/1 the soft path must equal the hard path.
  phy::FrameConfig cfg;
  cfg.qam_order = 16;
  cfg.payload_bytes = 80;
  phy::FrameCodec codec(cfg);
  Rng rng(23);
  const BitVector payload = rng.bits(cfg.payload_bits());
  const phy::EncodedFrame frame = codec.encode(payload);

  const unsigned q = codec.constellation().bits_per_symbol();
  std::vector<double> conf(frame.symbol_indices.size() * q);
  std::vector<std::uint8_t> bits(q);
  for (std::size_t s = 0; s < frame.symbol_indices.size(); ++s) {
    codec.constellation().bits_from_index(frame.symbol_indices[s], bits.data());
    for (unsigned b = 0; b < q; ++b) conf[s * q + b] = bits[b];
  }
  EXPECT_EQ(codec.decode_soft(conf, frame.ofdm_symbols), payload);
  EXPECT_THROW(codec.decode_soft(std::vector<double>(3), 1), std::invalid_argument);
}

}  // namespace
}  // namespace geosphere
