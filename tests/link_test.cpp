#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "channel/noise.h"
#include "channel/rayleigh.h"
#include "channel/testbed_ensemble.h"
#include "coding/spec.h"
#include "detect/spec.h"
#include "link/frame_receiver.h"
#include "link/link_simulator.h"
#include "link/rate_adapt.h"
#include "link/snr_search.h"
#include "link/throughput.h"
#include "link/user_selection.h"

namespace geosphere::link {
namespace {

LinkScenario small_scenario(unsigned qam, double snr_db) {
  LinkScenario s;
  s.frame.qam_order = qam;
  s.frame.payload_bytes = 100;  // Keep the tests fast.
  s.snr_db = snr_db;
  return s;
}

TEST(Throughput, PhyRateMatches80211Numbers) {
  // Single stream, 64-QAM rate 3/4 = the classic 54 Mbps 802.11a rate.
  EXPECT_NEAR(phy_rate_mbps(1, 64, coding::CodeRate::kThreeQuarters), 54.0, 1e-9);
  // 16-QAM rate 1/2 = 24 Mbps; scales linearly in streams.
  EXPECT_NEAR(phy_rate_mbps(4, 16, coding::CodeRate::kHalf), 4 * 24.0, 1e-9);
}

TEST(Throughput, NetThroughputScalesWithFer) {
  const std::vector<double> fer{0.5, 0.0};
  const double got = net_throughput_mbps(2, 4, coding::CodeRate::kHalf, fer);
  const double per_client = phy_rate_mbps(1, 4, coding::CodeRate::kHalf);
  EXPECT_NEAR(got, per_client * 1.5, 1e-9);
  EXPECT_THROW(net_throughput_mbps(3, 4, coding::CodeRate::kHalf, fer),
               std::invalid_argument);
}

TEST(LinkSimulator, HighSnrIsErrorFree) {
  channel::RayleighChannel ch(4, 2);
  LinkSimulator sim(ch, small_scenario(16, 45.0));
  const Constellation& c = Constellation::qam(16);
  const auto det = DetectorSpec::parse("geosphere").create(c);
  const LinkStats stats = sim.run(*det, DecisionMode::kHard, 10, /*seed=*/1);
  EXPECT_EQ(stats.frames, 10u);
  EXPECT_DOUBLE_EQ(stats.fer(), 0.0);
  EXPECT_EQ(stats.bit_errors, 0u);
  EXPECT_GT(stats.detection_calls, 0u);
}

TEST(LinkSimulator, FerMonotoneInSnr) {
  channel::RayleighChannel ch(4, 4);
  const Constellation& c = Constellation::qam(16);
  const auto det = DetectorSpec::parse("geosphere").create(c);

  double prev_fer = 1.1;
  for (const double snr : {6.0, 14.0, 30.0}) {
    LinkSimulator sim(ch, small_scenario(16, snr));
    const double fer = sim.run(*det, DecisionMode::kHard, 40, /*seed=*/2).fer();
    EXPECT_LE(fer, prev_fer + 0.1) << "FER not (statistically) decreasing at " << snr;
    prev_fer = fer;
  }
  EXPECT_LT(prev_fer, 0.2);
}

TEST(LinkSimulator, GeosphereBeatsZfOnIllConditionedEnsemble) {
  // The paper's headline effect, end to end through coding and OFDM.
  channel::TestbedConfig tc;
  tc.ap_antennas = 4;
  tc.clients = 4;
  channel::TestbedEnsemble ch(tc);
  const Constellation& c = Constellation::qam(16);
  const auto geo = DetectorSpec::parse("geosphere").create(c);
  const auto zf = DetectorSpec::parse("zf").create(c);

  LinkSimulator sim(ch, small_scenario(16, 20.0));
  // Identical draws for the two detectors: same seed, per-frame seeding.
  const double fer_geo = sim.run(*geo, DecisionMode::kHard, 60, /*seed=*/3).fer();
  const double fer_zf = sim.run(*zf, DecisionMode::kHard, 60, /*seed=*/3).fer();
  EXPECT_LT(fer_geo, fer_zf);
}

TEST(LinkSimulator, ComplexityMetricsPopulated) {
  channel::RayleighChannel ch(4, 2);
  const Constellation& c = Constellation::qam(16);
  const auto geo = DetectorSpec::parse("geosphere").create(c);
  LinkSimulator sim(ch, small_scenario(16, 20.0));
  const LinkStats stats = sim.run(*geo, DecisionMode::kHard, 5, /*seed=*/4);
  EXPECT_GT(stats.avg_ped_per_subcarrier(), 0.0);
  EXPECT_GT(stats.avg_visited_nodes_per_subcarrier(), 0.0);
  // Lower bound: at least one slice per level per call.
  EXPECT_GE(stats.avg_ped_per_subcarrier(), 2.0);
}

TEST(LinkSimulator, DetectorConstellationMismatchThrows) {
  channel::RayleighChannel ch(2, 2);
  const auto det = DetectorSpec::parse("zf").create(Constellation::qam(64));
  LinkSimulator sim(ch, small_scenario(16, 20.0));
  EXPECT_THROW(sim.run(*det, DecisionMode::kHard, 1, /*seed=*/5), std::invalid_argument);
}

TEST(LinkSimulator, SoftModeNeedsSoftCapableDetector) {
  // The unified mode-dispatched path must reject DecisionMode::kSoft for a
  // detector with no soft() interface, loudly and before any simulation.
  channel::RayleighChannel ch(2, 2);
  const auto hard = DetectorSpec::parse("zf").create(Constellation::qam(16));
  LinkSimulator sim(ch, small_scenario(16, 20.0));
  EXPECT_THROW(sim.run(*hard, DecisionMode::kSoft, 1, /*seed=*/5), std::invalid_argument);

  const auto soft = DetectorSpec::parse("soft-geosphere").create(Constellation::qam(16));
  EXPECT_NE(soft->soft(), nullptr);
  const LinkStats stats = sim.run(*soft, DecisionMode::kSoft, 2, /*seed=*/5);
  EXPECT_EQ(stats.frames, 2u);
}

TEST(FrameReceiver, WarmReceiverMatchesFreshReceiverAcrossFrameShapes) {
  // One receiver reused the way a serve worker reuses it, with a cached
  // detector per shape: every frame changes QAM, stream count, code and
  // decision mode, and must come out exactly as through a fresh receiver
  // and a fresh detector.
  struct Shape {
    unsigned qam;
    std::size_t streams;
    const char* code;
    const char* detector;
    double snr_db;
  };
  const std::vector<Shape> shapes = {{16, 4, "1/2", "geosphere", 8.0},
                                     {64, 2, "3/4", "soft-geosphere-sts", 12.0},
                                     {4, 3, "none", "geosphere", 4.0}};
  std::vector<std::unique_ptr<Detector>> cached;
  for (const Shape& s : shapes)
    cached.push_back(DetectorSpec::parse(s.detector).create(Constellation::qam(s.qam)));

  FrameReceiver warm;
  std::size_t crc_ok = 0;
  std::size_t crc_failed = 0;
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const Shape& s = shapes[i];
      phy::FrameConfig cfg;
      cfg.qam_order = s.qam;
      cfg.payload_bytes = 60;
      cfg.set_code(coding::CodeSpec::parse(s.code));
      const phy::FrameCodec codec(cfg);
      const DetectorSpec spec = DetectorSpec::parse(s.detector);

      Rng rng(Rng::derive_seed(9, round, i));
      DrawnFrame frame;
      frame.link = channel::RayleighChannel(4, s.streams).draw_link(rng, cfg.data_subcarriers);
      frame.n0 = channel::noise_variance_for_snr_db(s.snr_db);
      draw_streams(codec, rng, frame);

      DetectionStats warm_stats;
      const std::size_t warm_vectors =
          warm.receive(*cached[i], spec.decision(), codec, frame, warm_stats);
      const auto fresh_detector = spec.create(Constellation::qam(s.qam));
      FrameReceiver fresh;
      DetectionStats fresh_stats;
      const std::size_t fresh_vectors =
          fresh.receive(*fresh_detector, spec.decision(), codec, frame, fresh_stats);

      EXPECT_EQ(warm_vectors, fresh_vectors) << "round " << round << " frame " << i;
      EXPECT_EQ(warm_vectors, codec.ofdm_symbols_per_frame() * cfg.data_subcarriers);
      EXPECT_EQ(warm_stats, fresh_stats) << "round " << round << " frame " << i;
      ASSERT_EQ(warm.results().size(), s.streams);
      EXPECT_EQ(warm.results(), fresh.results()) << "round " << round << " frame " << i;
      for (const StreamDecodeResult& r : warm.results()) ++(r.crc_ok ? crc_ok : crc_failed);
    }
  }
  // Both verdicts occur, so the comparison covers clean and failed decodes.
  EXPECT_GT(crc_ok, 0u);
  EXPECT_GT(crc_failed, 0u);
}

TEST(FrameReceiver, RejectsAFrameDrawnForAnotherCodec) {
  phy::FrameConfig cfg;
  cfg.qam_order = 16;
  cfg.payload_bytes = 60;
  const phy::FrameCodec codec(cfg);
  cfg.payload_bytes = 100;  // More OFDM symbols per frame.
  const phy::FrameCodec longer(cfg);
  const auto det = DetectorSpec::parse("zf").create(Constellation::qam(16));
  const channel::RayleighChannel ch(2, 2);

  Rng rng(21);
  DrawnFrame frame;
  frame.link = ch.draw_link(rng, cfg.data_subcarriers - 1);
  frame.n0 = 0.1;
  EXPECT_THROW(draw_streams(codec, rng, frame), std::invalid_argument);

  frame.link = ch.draw_link(rng, cfg.data_subcarriers);
  draw_streams(longer, rng, frame);
  FrameReceiver receiver;
  DetectionStats stats;
  EXPECT_THROW(receiver.receive(*det, DecisionMode::kHard, codec, frame, stats),
               std::invalid_argument);
  EXPECT_EQ(stats, DetectionStats{});
  EXPECT_EQ(receiver.receive(*det, DecisionMode::kHard, longer, frame, stats),
            longer.ofdm_symbols_per_frame() * cfg.data_subcarriers);

  // Noiseless: the streams' symbol counts alone give the codec away.
  frame.n0 = 0.0;
  draw_streams(longer, rng, frame);
  DetectionStats untouched;
  EXPECT_THROW(receiver.receive(*det, DecisionMode::kHard, codec, frame, untouched),
               std::invalid_argument);
  EXPECT_EQ(untouched, DetectionStats{});
}

TEST(RateAdapt, PicksLowOrderAtLowSnrHighOrderAtHighSnr) {
  channel::RayleighChannel ch(4, 2);
  LinkScenario base = small_scenario(16, 0.0);

  base.snr_db = 2.0;
  const DetectorSpec geo = DetectorSpec::parse("geosphere");
  const RateChoice low = best_rate(ch, base, geo, 25, 7, {4, 16, 64});
  base.snr_db = 38.0;
  const RateChoice high = best_rate(ch, base, geo, 25, 7, {4, 16, 64});
  EXPECT_LT(low.qam_order, high.qam_order);
  EXPECT_EQ(high.qam_order, 64u);
  EXPECT_GT(high.throughput_mbps, low.throughput_mbps);
}

TEST(SnrSearch, FindsTargetFerOperatingPoint) {
  channel::RayleighChannel ch(4, 2);
  LinkScenario base = small_scenario(16, 0.0);
  SnrSearchConfig cfg;
  cfg.probe_frames = 30;
  cfg.iterations = 7;
  const double snr = find_snr_for_fer(ch, base, DetectorSpec::parse("geosphere"), cfg, 11);
  EXPECT_GT(snr, 2.0);
  EXPECT_LT(snr, 40.0);

  // Verify the FER at the found point is in a sane band around the target.
  base.snr_db = snr;
  LinkSimulator sim(ch, base);
  const auto det = DetectorSpec::parse("geosphere").create(Constellation::qam(16));
  const double fer = sim.run(*det, DecisionMode::kHard, 120, /*seed=*/12).fer();
  EXPECT_GT(fer, 0.01);
  EXPECT_LT(fer, 0.45);
}

TEST(UserSelection, SnrRange) {
  const std::vector<double> snrs{12.0, 18.0, 21.0, 25.0, 31.0};
  const auto sel = select_in_snr_range(snrs, 20.0, 5.0);
  EXPECT_EQ(sel, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_TRUE(select_in_snr_range(snrs, 50.0, 2.0).empty());
}

TEST(UserSelection, RandomSubsetProperties) {
  Rng rng(13);
  for (int t = 0; t < 50; ++t) {
    const auto sel = select_random(10, 4, rng);
    EXPECT_EQ(sel.size(), 4u);
    for (std::size_t i = 1; i < sel.size(); ++i) EXPECT_LT(sel[i - 1], sel[i]);
    for (const auto v : sel) EXPECT_LT(v, 10u);
  }
  EXPECT_THROW(select_random(3, 4, rng), std::invalid_argument);
}

}  // namespace
}  // namespace geosphere::link
