// Single-tree-search soft output (SoftGeosphereStsDetector):
//  * LLRs match the brute-force max-log ground truth, and are bit-identical
//    to the repeated-tree-search reference detector -- including under
//    clamp saturation -- for every registry QAM.
//  * Hard decisions are bit-identical to the hard Geosphere ML detector.
//  * DetectionStats counters prove the collapse: ONE enumeration pass per
//    vector (tree_searches == 1) vs 1 + streams*Q for the reference.
//  * Batched solves are bit-identical to the per-vector loop, including
//    the new counters.
#include "detect/soft_sts.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "common/db.h"
#include "common/rng.h"
#include "detect/sphere/sphere_decoder.h"
#include "reference/soft_output.h"
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

/// One y_batch whose columns are independent transmissions through `h`.
linalg::CMatrix make_batch(Rng& rng, const linalg::CMatrix& h, const Constellation& c,
                           std::size_t count, double n0) {
  linalg::CMatrix y_batch(h.rows(), count);
  for (std::size_t v = 0; v < count; ++v) {
    const auto sent = random_indices(rng, c, h.cols());
    y_batch.set_col(v, transmit(rng, h, c, sent, n0));
  }
  return y_batch;
}

void expect_same_stats(const DetectionStats& a, const DetectionStats& b,
                       const std::string& who) {
  EXPECT_EQ(a.ped_computations, b.ped_computations) << who;
  EXPECT_EQ(a.visited_nodes, b.visited_nodes) << who;
  EXPECT_EQ(a.lb_lookups, b.lb_lookups) << who;
  EXPECT_EQ(a.lb_prunes, b.lb_prunes) << who;
  EXPECT_EQ(a.slicer_ops, b.slicer_ops) << who;
  EXPECT_EQ(a.queue_ops, b.queue_ops) << who;
  EXPECT_EQ(a.tree_searches, b.tree_searches) << who;
  EXPECT_EQ(a.counter_updates, b.counter_updates) << who;
}

TEST(SoftSts, MatchesExhaustiveMaxLog) {
  for (const unsigned order : {4u, 16u}) {
    const Constellation& c = Constellation::qam(order);
    SoftGeosphereStsDetector sts(c, 30.0);
    Rng rng(order);
    const double n0 = db_to_lin(-12.0);
    for (int trial = 0; trial < 20; ++trial) {
      const auto h = random_channel(rng, 4, 3);
      const auto sent = random_indices(rng, c, 3);
      const CVector y = transmit(rng, h, c, sent, n0);
      const auto result = sts.soft()->detect_soft(y, h, n0);
      const auto expected = exhaustive_llrs(y, h, c, n0, 30.0);
      ASSERT_EQ(result.llrs.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_NEAR(result.llrs[i], expected[i], 1e-6 + 1e-6 * std::abs(expected[i]))
            << "order=" << order << " trial=" << trial << " bit=" << i;
    }
  }
}

// The tentpole parity claim: one enumeration pass loses NOTHING relative
// to the 1 + streams*Q repeated searches -- every LLR is bit-identical,
// whether or not the counter-hypothesis saturates at the clamp.
TEST(SoftSts, LlrsBitIdenticalToRepeatedTreeSearch) {
  for (const unsigned order : {4u, 16u, 64u, 256u}) {
    const Constellation& c = Constellation::qam(order);
    // A tight clamp at high SNR forces saturation on many bits; the loose
    // clamp exercises the exact-delta path. Both must agree bit-for-bit.
    for (const double clamp : {30.0, 4.0}) {
      SoftGeosphereStsDetector sts(c, clamp);
      SoftGeosphereDetector repeated(c, clamp);
      Rng rng(order + static_cast<unsigned>(clamp));
      const double n0 = db_to_lin(order >= 64 ? -22.0 : -14.0);
      const int trials = order == 256 ? 6 : 12;
      for (int trial = 0; trial < trials; ++trial) {
        const auto h = random_channel(rng, 4, 4);
        const auto sent = random_indices(rng, c, 4);
        const CVector y = transmit(rng, h, c, sent, n0);
        const auto a = sts.soft()->detect_soft(y, h, n0);
        const auto b = repeated.soft()->detect_soft(y, h, n0);
        ASSERT_EQ(a.indices, b.indices) << "order=" << order << " trial=" << trial;
        ASSERT_EQ(a.llrs.size(), b.llrs.size());
        for (std::size_t i = 0; i < a.llrs.size(); ++i)
          EXPECT_EQ(a.llrs[i], b.llrs[i])
              << "order=" << order << " clamp=" << clamp << " trial=" << trial
              << " bit=" << i;
      }
    }
  }
}

// Acceptance: sts hard decisions bit-identical to geosphere's ML decisions
// for every registry QAM (solve and solve_soft agree with each other too).
TEST(SoftSts, HardDecisionsMatchGeosphereMl) {
  for (const unsigned order : {4u, 16u, 64u, 256u}) {
    const Constellation& c = Constellation::qam(order);
    SoftGeosphereStsDetector sts(c);
    const auto geo = sphere::make_geosphere(c);
    Rng rng(order + 7);
    const double n0 = db_to_lin(order >= 64 ? -20.0 : -12.0);
    const int trials = order == 256 ? 6 : 12;
    for (int trial = 0; trial < trials; ++trial) {
      const auto h = random_channel(rng, 4, 4);
      const auto sent = random_indices(rng, c, 4);
      const CVector y = transmit(rng, h, c, sent, n0);
      const auto hard = sts.detect(y, h, n0);
      const auto ml = geo->detect(y, h, n0);
      EXPECT_EQ(hard.indices, ml.indices) << "order=" << order << " trial=" << trial;
      const auto soft = sts.soft()->detect_soft(y, h, n0);
      EXPECT_EQ(soft.indices, ml.indices) << "order=" << order << " trial=" << trial;
    }
  }
}

// The whole point of the detector, measured: one enumeration pass per
// vector, vs 1 + streams*Q for the repeated-tree-search reference.
TEST(SoftSts, OneTreeSearchPerVector) {
  const Constellation& c = Constellation::qam(64);
  SoftGeosphereStsDetector sts(c);
  SoftGeosphereDetector repeated(c);
  Rng rng(99);
  const double n0 = db_to_lin(-20.0);
  const auto h = random_channel(rng, 4, 4);
  const auto sent = random_indices(rng, c, 4);
  const CVector y = transmit(rng, h, c, sent, n0);

  const auto a = sts.soft()->detect_soft(y, h, n0);
  EXPECT_EQ(a.stats.tree_searches, 1u);
  EXPECT_GT(a.stats.counter_updates, 0u);

  const auto b = repeated.soft()->detect_soft(y, h, n0);
  EXPECT_EQ(b.stats.tree_searches, 1u + 4u * 6u);
  EXPECT_EQ(b.stats.counter_updates, 0u);

  // Hard solves are one plain search each, for both detectors.
  EXPECT_EQ(sts.detect(y, h, n0).stats.tree_searches, 1u);
  EXPECT_EQ(repeated.detect(y, h, n0).stats.tree_searches, 1u);
}

// Clamp saturation must be exact (+/- llr_clamp, not merely near it) and
// byte-identical across the per-vector and batched paths -- for BOTH soft
// detectors.
TEST(SoftSts, ClampSaturationIdenticalAcrossPaths) {
  const Constellation& c = Constellation::qam(16);
  const double clamp = 3.0;  // Tight: at 20 dB almost every bit saturates.
  const double n0 = db_to_lin(-20.0);
  const std::size_t count = 9;

  Rng rng(4242);
  const auto h = random_channel(rng, 4, 4);
  const linalg::CMatrix y_batch = make_batch(rng, h, c, count, n0);

  for (const char* which : {"soft-geosphere", "soft-geosphere-sts"}) {
    const bool is_sts = std::string(which) == "soft-geosphere-sts";
    const auto make = [&]() -> std::unique_ptr<Detector> {
      if (is_sts) return std::make_unique<SoftGeosphereStsDetector>(c, clamp);
      return std::make_unique<SoftGeosphereDetector>(c, clamp);
    };

    // Reference: per-vector solve_soft on each column.
    const auto ref_det = make();
    ref_det->prepare(h, n0);
    std::vector<double> ref_llrs;
    std::size_t saturated = 0;
    CVector y;
    SoftDetectionResult per;
    for (std::size_t v = 0; v < count; ++v) {
      y_batch.col_into(v, y);
      ref_det->soft()->solve_soft(y, per);
      for (const double l : per.llrs) {
        ref_llrs.push_back(l);
        if (l == clamp || l == -clamp) ++saturated;
      }
    }
    // The tight clamp must actually bite, and saturation must be EXACT.
    EXPECT_GT(saturated, ref_llrs.size() / 2) << which;
    for (const double l : ref_llrs) EXPECT_LE(std::abs(l), clamp) << which;

    // Batched path.
    const auto batch_det = make();
    batch_det->prepare(h, n0);
    SoftBatchResult batch;
    batch_det->soft()->solve_soft_batch(y_batch, batch);
    ASSERT_EQ(batch.llrs.size(), ref_llrs.size()) << which;
    for (std::size_t i = 0; i < ref_llrs.size(); ++i)
      EXPECT_EQ(batch.llrs[i], ref_llrs[i]) << which << " bit=" << i;
  }
}

// Batch-vs-loop parity including the NEW stats counters (the registry-wide
// batch_solve_test covers decisions; this pins tree_searches and
// counter_updates, which only the soft paths exercise).
TEST(SoftSts, SoftBatchMatchesLoopIncludingNewCounters) {
  const Constellation& c = Constellation::qam(16);
  SoftGeosphereStsDetector sts(c);
  Rng rng(808);
  const double n0 = db_to_lin(-14.0);
  const auto h = random_channel(rng, 4, 4);
  const std::size_t count = 7;
  const linalg::CMatrix y_batch = make_batch(rng, h, c, count, n0);

  sts.prepare(h, n0);
  SoftBatchResult batch;
  sts.soft()->solve_soft_batch(y_batch, batch);

  DetectionStats loop_stats;
  CVector y;
  SoftDetectionResult per;
  for (std::size_t v = 0; v < count; ++v) {
    y_batch.col_into(v, y);
    sts.soft()->solve_soft(y, per);
    loop_stats += per.stats;
    for (std::size_t k = 0; k < batch.streams; ++k)
      EXPECT_EQ(batch.indices[v * batch.streams + k], per.indices[k]) << "v=" << v;
    const unsigned bits = c.bits_per_symbol();
    for (std::size_t i = 0; i < batch.streams * bits; ++i)
      EXPECT_EQ(batch.llrs[v * batch.streams * bits + i], per.llrs[i]) << "v=" << v;
  }
  expect_same_stats(batch.stats, loop_stats, "sts batch-vs-loop");
  EXPECT_EQ(batch.stats.tree_searches, count);  // ONE search per vector.
  EXPECT_EQ(batch.stats.batch_calls, 1u);
}

// Re-preparing with different shapes must fully reshape the STS tables.
TEST(SoftSts, ReprepareAcrossShapesIsSafe) {
  const Constellation& c = Constellation::qam(16);
  SoftGeosphereStsDetector reused(c);
  SoftGeosphereDetector reference(c);
  Rng rng(515);
  const double n0 = db_to_lin(-12.0);
  for (const std::size_t nc : {3u, 2u, 4u, 3u}) {
    const auto h = random_channel(rng, 4, nc);
    const auto sent = random_indices(rng, c, nc);
    const CVector y = transmit(rng, h, c, sent, n0);
    const auto a = reused.soft()->detect_soft(y, h, n0);
    const auto b = reference.soft()->detect_soft(y, h, n0);
    EXPECT_EQ(a.indices, b.indices) << "nc=" << nc;
    for (std::size_t i = 0; i < a.llrs.size(); ++i)
      EXPECT_EQ(a.llrs[i], b.llrs[i]) << "nc=" << nc << " bit=" << i;
  }
}

}  // namespace
}  // namespace geosphere
