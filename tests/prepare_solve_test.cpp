// Tests for the two-phase prepare/solve detection contract:
//  * prepare(h, n0) once + solve(y) repeatedly is bit-exactly equivalent
//    to the one-shot detect(y, h, n0) for EVERY registry detector and the
//    soft reference (hard and soft), so the link layer's per-subcarrier
//    amortization can never change results,
//  * re-preparing the same instance with a different channel (including a
//    different stream count) leaks no state between channels,
//  * two live instances of one spec, prepared with different channels and
//    solved in interleaved order, answer exactly as fresh instances do (no
//    state is shared between instances),
//  * solving before preparing fails loudly, and
//  * the link layer amortizes: preprocess_calls == frames * nsc while
//    detection_calls == frames * nsc * ofdm_symbols.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "channel/rayleigh.h"
#include "common/db.h"
#include "common/rng.h"
#include "detect/spec.h"
#include "link/link_simulator.h"
#include "phy/frame.h"
#include "reference/soft_output.h"
#include "reference/test_detector_spec.h"
#include "test_util.h"

namespace geosphere {
namespace {

using geosphere::testing::random_channel;
using geosphere::testing::random_indices;
using geosphere::testing::test_detector_names;
using geosphere::testing::TestDetectorSpec;
using geosphere::testing::transmit;

void expect_same_stats_modulo_preprocess(const DetectionStats& a, const DetectionStats& b,
                                         const std::string& who) {
  EXPECT_EQ(a.ped_computations, b.ped_computations) << who;
  EXPECT_EQ(a.visited_nodes, b.visited_nodes) << who;
  EXPECT_EQ(a.lb_lookups, b.lb_lookups) << who;
  EXPECT_EQ(a.lb_prunes, b.lb_prunes) << who;
  EXPECT_EQ(a.slicer_ops, b.slicer_ops) << who;
  EXPECT_EQ(a.queue_ops, b.queue_ops) << who;
}

class PrepareSolveRegistry : public ::testing::TestWithParam<std::string> {};

TEST_P(PrepareSolveRegistry, PreparedSolvesMatchOneShotBitExactly) {
  const TestDetectorSpec spec = TestDetectorSpec::parse(GetParam());
  const Constellation& c = Constellation::qam(16);
  const auto one_shot = spec.create(c);
  const auto split = spec.create(c);
  const double n0 = db_to_lin(-14.0);

  Rng rng(101);
  for (int trial = 0; trial < 5; ++trial) {
    const auto h = random_channel(rng, 4, 3);
    split->prepare(h, n0);
    // Several received vectors against ONE preparation -- exactly the
    // link layer's per-subcarrier reuse pattern.
    for (int v = 0; v < 3; ++v) {
      const auto sent = random_indices(rng, c, 3);
      const auto y = transmit(rng, h, c, sent, n0);

      const DetectionResult split_result = split->solve(y);
      const DetectionResult once = one_shot->detect(y, h, n0);

      EXPECT_EQ(split_result.indices, once.indices) << spec.text();
      EXPECT_EQ(split_result.symbols, once.symbols) << spec.text();
      expect_same_stats_modulo_preprocess(split_result.stats, once.stats, spec.text());
      // The preparation is accounted exactly once, by whoever performed it.
      EXPECT_EQ(split_result.stats.preprocess_calls, 0u) << spec.text();
      EXPECT_EQ(once.stats.preprocess_calls, 1u) << spec.text();
    }
  }
}

TEST_P(PrepareSolveRegistry, RepreparingReusesTheInstanceSafely) {
  // Same instance, alternating channels with different stream counts: the
  // workspace must be fully overwritten by each prepare (stale-state
  // guard), so results equal those of a fresh instance.
  const TestDetectorSpec spec = TestDetectorSpec::parse(GetParam());
  const Constellation& c = Constellation::qam(16);
  const auto reused = spec.create(c);
  const double n0 = db_to_lin(-14.0);

  Rng rng(202);
  const auto h2 = random_channel(rng, 4, 2);
  const auto h3 = random_channel(rng, 4, 3);
  const auto s2 = random_indices(rng, c, 2);
  const auto s3 = random_indices(rng, c, 3);
  const auto y2 = transmit(rng, h2, c, s2, n0);
  const auto y3 = transmit(rng, h3, c, s3, n0);

  const DetectionResult fresh2 = spec.create(c)->detect(y2, h2, n0);
  const DetectionResult fresh3 = spec.create(c)->detect(y3, h3, n0);

  // 2 streams -> 3 streams -> back to 2, on one instance.
  reused->prepare(h2, n0);
  EXPECT_EQ(reused->solve(y2).indices, fresh2.indices) << spec.text();
  reused->prepare(h3, n0);
  const DetectionResult r3 = reused->solve(y3);
  EXPECT_EQ(r3.indices, fresh3.indices) << spec.text();
  expect_same_stats_modulo_preprocess(r3.stats, fresh3.stats, spec.text());
  reused->prepare(h2, n0);
  const DetectionResult r2 = reused->solve(y2);
  EXPECT_EQ(r2.indices, fresh2.indices) << spec.text();
  expect_same_stats_modulo_preprocess(r2.stats, fresh2.stats, spec.text());
}

TEST_P(PrepareSolveRegistry, InstancesOfOneSpecShareNoState) {
  // The engine runs one instance per thread, so no workspace, table or
  // cache may be shared between instances: two live instances prepared
  // with different channels (and stream counts) and solved in interleaved
  // order must each answer exactly as a fresh instance does.
  const TestDetectorSpec spec = TestDetectorSpec::parse(GetParam());
  const Constellation& c = Constellation::qam(16);
  const double n0 = db_to_lin(-14.0);

  Rng rng(707);
  const auto ha = random_channel(rng, 4, 3);
  const auto hb = random_channel(rng, 4, 2);
  std::vector<CVector> ya, yb;
  for (int v = 0; v < 3; ++v) {
    ya.push_back(transmit(rng, ha, c, random_indices(rng, c, 3), n0));
    yb.push_back(transmit(rng, hb, c, random_indices(rng, c, 2), n0));
  }
  // References first, each from its own fresh instance.
  std::vector<DetectionResult> want_a, want_b;
  for (int v = 0; v < 3; ++v) {
    want_a.push_back(spec.create(c)->detect(ya[v], ha, n0));
    want_b.push_back(spec.create(c)->detect(yb[v], hb, n0));
  }

  const auto a = spec.create(c);
  const auto b = spec.create(c);
  a->prepare(ha, n0);
  b->prepare(hb, n0);
  for (int v = 0; v < 3; ++v) {
    const DetectionResult ra = a->solve(ya[v]);
    const DetectionResult rb = b->solve(yb[v]);
    EXPECT_EQ(ra.indices, want_a[v].indices) << spec.text();
    EXPECT_EQ(rb.indices, want_b[v].indices) << spec.text();
    expect_same_stats_modulo_preprocess(ra.stats, want_a[v].stats, spec.text());
    expect_same_stats_modulo_preprocess(rb.stats, want_b[v].stats, spec.text());
  }
  if (a->soft() != nullptr) {
    for (int v = 0; v < 3; ++v) {
      const SoftDetectionResult ra = a->soft()->solve_soft(ya[v]);
      const SoftDetectionResult rb = b->soft()->solve_soft(yb[v]);
      EXPECT_EQ(ra.llrs, spec.create(c)->soft()->detect_soft(ya[v], ha, n0).llrs)
          << spec.text();
      EXPECT_EQ(rb.llrs, spec.create(c)->soft()->detect_soft(yb[v], hb, n0).llrs)
          << spec.text();
    }
  }
}

TEST_P(PrepareSolveRegistry, SolveBeforePrepareThrows) {
  const TestDetectorSpec spec = TestDetectorSpec::parse(GetParam());
  const auto det = spec.create(Constellation::qam(16));
  EXPECT_FALSE(det->prepared());
  EXPECT_THROW(det->solve(CVector(4)), std::logic_error) << spec.text();
  if (SoftDetector* soft = det->soft()) {
    SoftDetectionResult out;
    EXPECT_THROW(soft->solve_soft(CVector(4), out), std::logic_error) << spec.text();
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegistryDetectors, PrepareSolveRegistry,
                         ::testing::ValuesIn(test_detector_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name)
                             if (ch == '-') ch = '_';
                           return name;
                         });

TEST(PrepareSolve, PreparedSoftSolvesMatchOneShotBitExactly) {
  const Constellation& c = Constellation::qam(16);
  SoftGeosphereDetector one_shot(c);
  SoftGeosphereDetector split(c);
  const double n0 = db_to_lin(-12.0);

  Rng rng(303);
  for (int trial = 0; trial < 5; ++trial) {
    const auto h = random_channel(rng, 4, 2);
    split.prepare(h, n0);
    for (int v = 0; v < 3; ++v) {
      const auto sent = random_indices(rng, c, 2);
      const auto y = transmit(rng, h, c, sent, n0);

      const SoftDetectionResult sp = split.soft()->solve_soft(y);
      const SoftDetectionResult once = one_shot.detect_soft(y, h, n0);

      EXPECT_EQ(sp.indices, once.indices);
      EXPECT_EQ(sp.llrs, once.llrs);  // Bit-exact LLRs, not just close.
      expect_same_stats_modulo_preprocess(sp.stats, once.stats, "soft-geosphere");
      EXPECT_EQ(sp.stats.preprocess_calls, 0u);
      EXPECT_EQ(once.stats.preprocess_calls, 1u);
    }
  }
}

TEST(PrepareSolve, HardAndSoftSolvesShareOnePreparation) {
  // One prepare serves both interfaces of a soft-capable detector.
  const Constellation& c = Constellation::qam(4);
  SoftGeosphereDetector det(c);
  const double n0 = db_to_lin(-10.0);
  Rng rng(404);
  const auto h = random_channel(rng, 3, 2);
  const auto y = transmit(rng, h, c, random_indices(rng, c, 2), n0);

  det.prepare(h, n0);
  const DetectionResult hard = det.solve(y);
  const SoftDetectionResult soft = det.soft()->solve_soft(y);
  EXPECT_EQ(hard.indices, soft.indices);  // Same ML solution.
}

TEST(PrepareSolve, LinkAmortizesPreparationsPerSubcarrier) {
  // The tentpole's observable: each of the nsc per-subcarrier matrices is
  // prepared exactly once per frame while every (symbol, subcarrier) use
  // is solved -- detection_calls / preprocess_calls == ofdm symbols.
  channel::RayleighChannel ch(4, 2);
  link::LinkScenario scenario;
  scenario.frame.qam_order = 16;
  scenario.frame.payload_bytes = 100;
  scenario.snr_db = 18.0;
  const phy::FrameCodec codec(scenario.frame);
  const std::size_t nsc = scenario.frame.data_subcarriers;
  const std::size_t syms = codec.ofdm_symbols_per_frame();
  ASSERT_GE(syms, 2u);  // The scenario must actually amortize.

  link::LinkSimulator sim(ch, scenario);
  const std::size_t frames = 3;

  for (const char* name : {"geosphere", "soft-geosphere"}) {
    const TestDetectorSpec spec = TestDetectorSpec::parse(name);
    const auto det = spec.create(Constellation::qam(16));
    const link::LinkStats stats = sim.run(*det, spec.decision(), frames, /*seed=*/7);
    EXPECT_EQ(stats.detection.preprocess_calls, frames * nsc) << name;
    EXPECT_EQ(stats.detection_calls, frames * nsc * syms) << name;
  }
}

TEST(PrepareSolve, MlIsARegistryDetectorAndMatchesGeosphere) {
  const DetectorSpec spec = DetectorSpec::parse("ml");
  const Constellation& c = Constellation::qam(16);
  const auto ml = spec.create(c);
  ASSERT_NE(ml, nullptr);
  const auto geo = DetectorSpec::parse("geosphere").create(c);
  EXPECT_THROW(DetectorSpec::parse("ml:4"), std::invalid_argument);

  Rng rng(505);
  const double n0 = db_to_lin(-16.0);
  for (int trial = 0; trial < 5; ++trial) {
    const auto h = random_channel(rng, 3, 2);
    const auto y = transmit(rng, h, c, random_indices(rng, c, 2), n0);
    EXPECT_EQ(ml->detect(y, h, n0).indices, geo->detect(y, h, n0).indices);
  }
}

TEST(PrepareSolve, FailedPrepareInvalidatesTheInstance) {
  // A throwing prepare must not leave the detector "prepared" with a
  // half-written workspace.
  const auto geo = DetectorSpec::parse("geosphere").create(Constellation::qam(4));
  Rng rng(606);
  const auto good = random_channel(rng, 2, 2);
  geo->prepare(good, 0.1);
  EXPECT_TRUE(geo->prepared());

  const auto wide = random_channel(rng, 2, 3);  // nc > na: invalid.
  EXPECT_THROW(geo->prepare(wide, 0.1), std::invalid_argument);
  EXPECT_FALSE(geo->prepared());
  EXPECT_THROW(geo->solve(CVector(2)), std::logic_error);
}

}  // namespace
}  // namespace geosphere
