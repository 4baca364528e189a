// The decisive correctness properties of the sphere decoders:
//  * every variant returns the exact maximum-likelihood solution,
//  * all Schnorr-Euchner variants traverse identical node sequences
//    (paper Section 5.3),
//  * geometric pruning changes the work done, never the answer, and
//  * the plain search they share (sphere::DepthFirstSearch), run directly,
//    ends on the ML leaf with every enumerator and gives the same answer
//    and counters from a workspace reused across level counts.
#include "detect/sphere/sphere_decoder.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/db.h"
#include "common/rng.h"
#include "common/stats.h"
#include "detect/ml_exhaustive.h"
#include "test_util.h"

namespace geosphere {
namespace {

using geosphere::testing::hypothesis_distance_sq;
using geosphere::testing::random_channel;
using geosphere::testing::random_indices;
using geosphere::testing::transmit;

struct MlCase {
  unsigned order;
  std::size_t na;
  std::size_t nc;
  double snr_db;
};

// gtest prints a parameter without a PrintTo as its raw bytes, padding
// included, and CTest's test names carry that print.
void PrintTo(const MlCase& p, std::ostream* os) {
  *os << "QAM" << p.order << " " << p.na << "x" << p.nc << " " << p.snr_db << " dB";
}

class SphereMlEquivalence : public ::testing::TestWithParam<MlCase> {};

TEST_P(SphereMlEquivalence, AllVariantsMatchExhaustiveMl) {
  const auto [order, na, nc, snr_db] = GetParam();
  const Constellation& c = Constellation::qam(order);
  const double n0 = db_to_lin(-snr_db);

  MlExhaustiveDetector ml(c);
  const auto geo = sphere::make_geosphere(c);
  const auto geo_zz = sphere::make_geosphere_zigzag_only(c);
  const auto eth = sphere::make_eth_sd(c);
  const auto shabany = sphere::make_shabany_sd(c);

  Rng rng(order * 1000 + na * 100 + nc * 10 + static_cast<unsigned>(snr_db));
  for (int trial = 0; trial < 30; ++trial) {
    const auto h = random_channel(rng, na, nc);
    const auto sent = random_indices(rng, c, nc);
    const auto y = transmit(rng, h, c, sent, n0);

    const auto ml_result = ml.detect(y, h, n0);
    const double ml_dist = ml.last_distance_sq();

    for (Detector* d : {geo.get(), geo_zz.get(), eth.get(), shabany.get()}) {
      const auto result = d->detect(y, h, n0);
      const double dist = hypothesis_distance_sq(y, h, c, result.indices);
      EXPECT_NEAR(dist, ml_dist, 1e-9 * (1.0 + ml_dist))
          << d->name() << " missed the ML solution (trial " << trial << ")";
    }
    // In the overwhelmingly common (tie-free) case the indices agree too.
    const auto geo_result = geo->detect(y, h, n0);
    EXPECT_EQ(geo_result.indices, ml_result.indices);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSnrs, SphereMlEquivalence,
    ::testing::Values(MlCase{4, 1, 1, 10.0}, MlCase{4, 2, 2, 5.0}, MlCase{4, 2, 2, 15.0},
                      MlCase{4, 4, 4, 10.0}, MlCase{4, 4, 3, 0.0}, MlCase{16, 2, 2, 10.0},
                      MlCase{16, 4, 2, 18.0}, MlCase{16, 4, 3, 14.0}, MlCase{16, 3, 3, 5.0},
                      MlCase{64, 2, 2, 20.0}, MlCase{64, 4, 2, 12.0}, MlCase{64, 2, 2, 2.0},
                      MlCase{256, 2, 2, 25.0}, MlCase{256, 4, 2, 15.0}),
    // Named by value, like the print above.
    [](const ::testing::TestParamInfo<MlCase>& info) {
      const MlCase& p = info.param;
      return "qam" + std::to_string(p.order) + "_" + std::to_string(p.na) + "x" +
             std::to_string(p.nc) + "_snr" + std::to_string(static_cast<int>(p.snr_db));
    });

class SphereInvariants : public ::testing::TestWithParam<unsigned> {};

TEST_P(SphereInvariants, IdenticalTraversalAcrossEnumerators) {
  // Same SE order => same visited nodes for ETH-SD, Shabany and both
  // Geosphere variants (the paper's Section 5.3 claim), and geometric
  // pruning must not change the result, only reduce PED computations.
  const unsigned order = GetParam();
  const Constellation& c = Constellation::qam(order);
  const auto geo = sphere::make_geosphere(c);
  const auto geo_zz = sphere::make_geosphere_zigzag_only(c);
  const auto eth = sphere::make_eth_sd(c);
  const auto shabany = sphere::make_shabany_sd(c);

  Rng rng(order);
  const std::size_t nc = 2 + order % 3;  // 2..4 streams.
  const std::size_t na = nc + 1;
  for (double snr_db : {5.0, 15.0, 25.0}) {
    const double n0 = db_to_lin(-snr_db);
    for (int trial = 0; trial < 20; ++trial) {
      const auto h = random_channel(rng, na, nc);
      const auto sent = random_indices(rng, c, nc);
      const auto y = transmit(rng, h, c, sent, n0);

      const auto r_geo = geo->detect(y, h, n0);
      const auto r_zz = geo_zz->detect(y, h, n0);
      const auto r_eth = eth->detect(y, h, n0);
      const auto r_sha = shabany->detect(y, h, n0);

      EXPECT_EQ(r_geo.indices, r_zz.indices);
      EXPECT_EQ(r_geo.stats.visited_nodes, r_zz.stats.visited_nodes);
      EXPECT_EQ(r_geo.stats.visited_nodes, r_eth.stats.visited_nodes);
      EXPECT_EQ(r_geo.stats.visited_nodes, r_sha.stats.visited_nodes);
      EXPECT_LE(r_geo.stats.ped_computations, r_zz.stats.ped_computations);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, SphereInvariants, ::testing::Values(4u, 16u, 64u, 256u));

TEST(SphereDecoder, NoiselessRecoversExactSymbols) {
  const Constellation& c = Constellation::qam(64);
  const auto geo = sphere::make_geosphere(c);
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const auto h = random_channel(rng, 4, 4);
    const auto sent = random_indices(rng, c, 4);
    const auto y = transmit(rng, h, c, sent, 0.0);
    EXPECT_EQ(geo->detect(y, h, 0.0).indices, sent);
  }
}

TEST(SphereDecoder, NoiselessHighSnrComplexityNearZf) {
  // Paper footnote 5 / Section 5.3.1: at high SNR Geosphere's complexity
  // approaches linear detection; with a tiny radius after the first leaf,
  // geometric pruning kills the rest of the tree without extra PEDs.
  const Constellation& c = Constellation::qam(256);
  const auto geo = sphere::make_geosphere(c);
  Rng rng(7);
  RunningStats peds;
  for (int trial = 0; trial < 100; ++trial) {
    const auto h = random_channel(rng, 4, 4);
    const auto sent = random_indices(rng, c, 4);
    const auto y = transmit(rng, h, c, sent, 1e-8);
    peds.add(static_cast<double>(geo->detect(y, h, 1e-8).stats.ped_computations));
  }
  // Section 5.3 discussion: the first leaf costs nc PED calculations and
  // geometric pruning then closes the whole tree without any more -- so
  // the mean should sit at ~nc = 4 here, comparable to linear detection.
  EXPECT_LT(peds.mean(), 6.0);
}

TEST(SphereDecoder, SingleStreamMatchesSlicing) {
  const Constellation& c = Constellation::qam(16);
  const auto geo = sphere::make_geosphere(c);
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const auto h = random_channel(rng, 2, 1);
    const auto sent = random_indices(rng, c, 1);
    const auto y = transmit(rng, h, c, sent, 0.05);
    const auto result = geo->detect(y, h, 0.05);
    // For nc=1 the ML solution is matched-filter slicing.
    const cf64 mf = linalg::dot(h.col(0), y) / linalg::norm_sq(h.col(0));
    EXPECT_EQ(result.indices[0], c.slice(mf));
  }
}

TEST(SphereDecoder, RankDeficientChannelThrows) {
  const Constellation& c = Constellation::qam(4);
  const auto geo = sphere::make_geosphere(c);
  linalg::CMatrix h(2, 2);
  h(0, 0) = cf64{1, 0};
  h(0, 1) = cf64{1, 0};
  h(1, 0) = cf64{1, 0};
  h(1, 1) = cf64{1, 0};
  EXPECT_THROW(geo->detect(CVector(2), h, 0.1), std::domain_error);
}

TEST(SphereDecoder, ShapeMismatchThrows) {
  const Constellation& c = Constellation::qam(4);
  const auto geo = sphere::make_geosphere(c);
  Rng rng(1);
  const auto h = random_channel(rng, 2, 3);  // Wide: nc > na.
  EXPECT_THROW(geo->detect(CVector(2), h, 0.1), std::invalid_argument);
  const auto h2 = random_channel(rng, 3, 2);
  EXPECT_THROW(geo->detect(CVector(2), h2, 0.1), std::invalid_argument);  // |y| != na.
}

TEST(SphereDecoder, SortedQrPreprocessingPreservesMl) {
  const Constellation& c = Constellation::qam(16);
  sphere::SphereConfig cfg;
  cfg.sorted_qr = true;
  const auto sorted_geo = sphere::make_geosphere(c, cfg);
  MlExhaustiveDetector ml(c);
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const auto h = random_channel(rng, 4, 3);
    const auto sent = random_indices(rng, c, 3);
    const auto y = transmit(rng, h, c, sent, db_to_lin(-12.0));
    const auto r = sorted_geo->detect(y, h, 0.06);
    ml.detect(y, h, 0.06);
    EXPECT_NEAR(hypothesis_distance_sq(y, h, c, r.indices), ml.last_distance_sq(), 1e-9);
  }
}

// ---- The shared plain search ---------------------------------------------------

/// Runs `search` once on `y` over `h`, through the prepared channel the hard
/// tree detectors build with sorted QR off: QR, rotation, root center.
template <class Enumerator>
bool depth_first_once(sphere::DepthFirstSearch<Enumerator>& search,
                      const Enumerator& prototype, const linalg::CMatrix& h,
                      const CVector& y, const Constellation& c, DetectionStats& stats) {
  sphere::TreeProblem problem("depth-first test", c.scale());
  problem.prepare_batch(&h, 1);
  problem.select(0);
  linalg::CMatrix y_batch(y.size(), 1);
  y_batch.set_col(0, y);
  problem.rotate(y_batch);
  search.resize(problem.nc, prototype);
  return search.run(problem, problem.yhat_t.row_data(0), problem.root_centers[0], c, stats);
}

/// The counters a plain search writes.
std::vector<std::uint64_t> search_counters(const DetectionStats& s) {
  return {s.ped_computations, s.visited_nodes, s.lb_lookups, s.lb_prunes,
          s.slicer_ops,       s.queue_ops,     s.tree_searches};
}

TEST(DepthFirstSearch, ReachesTheExhaustiveMlLeafWithEveryEnumerator) {
  // The one plain search of the hard tree detectors and of
  // soft-geosphere-sts's hard decisions, driven directly: whatever the
  // enumerator, it ends on the ML leaf, and each run adds exactly one tree
  // search to the caller's counters.
  const Constellation& c = Constellation::qam(16);
  const double n0 = db_to_lin(-8.0);
  MlExhaustiveDetector ml(c);
  const auto check = [&](auto prototype, const char* label) {
    prototype.attach(c);
    sphere::DepthFirstSearch<decltype(prototype)> search;
    DetectionStats stats;
    Rng rng(31);
    constexpr std::uint64_t kTrials = 25;
    for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
      const auto h = random_channel(rng, 4, 3);
      const auto y = transmit(rng, h, c, random_indices(rng, c, 3), n0);
      ASSERT_TRUE(depth_first_once(search, prototype, h, y, c, stats))
          << label << " trial " << trial;
      ASSERT_EQ(search.best.size(), 3u) << label;
      const auto ml_result = ml.detect(y, h, n0);
      const double ml_dist = ml.last_distance_sq();
      EXPECT_NEAR(hypothesis_distance_sq(y, h, c, search.best), ml_dist, 1e-9 * (1.0 + ml_dist))
          << label << " trial " << trial;
      EXPECT_EQ(search.best, ml_result.indices) << label << " trial " << trial;
      EXPECT_EQ(stats.tree_searches, trial + 1) << label;
    }
    // At 8 dB the searches backtrack: one greedy descent per vector would
    // visit exactly 3 nodes.
    EXPECT_GT(stats.visited_nodes, 3 * kTrials) << label;
  };
  check(sphere::GeoEnumerator({.geometric_pruning = true}), "geo");
  check(sphere::GeoEnumerator({.geometric_pruning = false}), "geo-2dzz");
  check(sphere::HessEnumerator{}, "hess");
  check(sphere::ShabanyEnumerator{}, "shabany");
}

TEST(DepthFirstSearch, ReusedWorkspaceMatchesFreshSearchesAcrossLevelCounts) {
  // A detector keeps one search workspace across channels of different
  // stream counts. resize() fits it to each channel's level count, so
  // `best` holds exactly that many decisions (soft-geosphere-sts copies
  // all of it), and the reused workspace finds what a fresh one finds, at
  // the same cost.
  const Constellation& c = Constellation::qam(64);
  sphere::GeoEnumerator prototype({.geometric_pruning = true});
  prototype.attach(c);
  sphere::DepthFirstSearch<sphere::GeoEnumerator> reused;
  DetectionStats reused_stats;
  Rng rng(12);
  for (const std::size_t nc : {4u, 2u, 2u, 4u, 1u, 3u, 4u}) {
    const auto h = random_channel(rng, 4, nc);
    const auto y = transmit(rng, h, c, random_indices(rng, c, nc), db_to_lin(-15.0));
    const std::vector<std::uint64_t> before = search_counters(reused_stats);
    ASSERT_TRUE(depth_first_once(reused, prototype, h, y, c, reused_stats)) << nc;
    sphere::DepthFirstSearch<sphere::GeoEnumerator> fresh;
    DetectionStats fresh_stats;
    ASSERT_TRUE(depth_first_once(fresh, prototype, h, y, c, fresh_stats)) << nc;

    EXPECT_EQ(reused.level_enum.size(), nc);
    EXPECT_EQ(reused.partial.size(), nc + 1);
    EXPECT_EQ(reused.current.size(), nc);
    EXPECT_EQ(reused.best.size(), nc);
    EXPECT_EQ(reused.best, fresh.best) << nc << " streams";
    std::vector<std::uint64_t> delta = search_counters(reused_stats);
    for (std::size_t k = 0; k < delta.size(); ++k) delta[k] -= before[k];
    EXPECT_EQ(delta, search_counters(fresh_stats)) << nc << " streams";
  }
  EXPECT_EQ(reused_stats.tree_searches, 7u);
}

}  // namespace
}  // namespace geosphere
