// Stress and adversarial-input sweeps: poorly conditioned channels,
// degenerate enumeration geometries, overflowing tree searches, non-finite
// channels, and cross-constellation consistency.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "channel/kronecker.h"
#include "channel/rayleigh.h"
#include "common/db.h"
#include "common/rng.h"
#include "detect/ml_exhaustive.h"
#include "detect/prepare/simd/dispatch.h"
#include "detect/spec.h"
#include "detect/sphere/enumerators.h"
#include "detect/sphere/simd/dispatch.h"
#include "detect/sphere/sphere_decoder.h"
#include "link/link_simulator.h"
#include "reference/test_detector_spec.h"
#include "test_util.h"

namespace geosphere {
namespace {

using geosphere::testing::hypothesis_distance_sq;
using geosphere::testing::random_channel;
using geosphere::testing::random_indices;
using geosphere::testing::test_detector_names;
using geosphere::testing::TestDetectorSpec;
using geosphere::testing::transmit;

// ---- ML equivalence under severe conditioning -------------------------------

TEST(Stress, MlEquivalenceOnNearSingularChannels) {
  // rho = 0.95 Kronecker correlation: kappa^2 routinely above 30 dB --
  // exactly the regime where zero-forcing collapses and the search tree
  // gets deep. The sphere decoders must still return exact ML.
  const Constellation& c = Constellation::qam(16);
  channel::KroneckerChannel model(4, 3, 0.95, 0.95);
  MlExhaustiveDetector ml(c);
  const auto geo = sphere::make_geosphere(c);
  const auto eth = sphere::make_eth_sd(c);

  Rng rng(1);
  const double n0 = db_to_lin(-8.0);  // Low SNR: wide searches.
  for (int trial = 0; trial < 25; ++trial) {
    const auto h = model.draw_flat(rng);
    const auto sent = random_indices(rng, c, 3);
    const auto y = transmit(rng, h, c, sent, n0);
    ml.detect(y, h, n0);
    for (Detector* d : {geo.get(), eth.get()}) {
      const auto r = d->detect(y, h, n0);
      EXPECT_NEAR(hypothesis_distance_sq(y, h, c, r.indices), ml.last_distance_sq(),
                  1e-9 * (1.0 + ml.last_distance_sq()))
          << d->name() << " trial " << trial;
    }
  }
}

TEST(Stress, MlEquivalenceWithExtremePowerImbalance) {
  // One stream 30 dB weaker than the other: column-norm imbalance stresses
  // both the QR and the budget arithmetic.
  const Constellation& c = Constellation::qam(16);
  MlExhaustiveDetector ml(c);
  const auto geo = sphere::make_geosphere(c);
  Rng rng(2);
  const double n0 = db_to_lin(-15.0);
  for (int trial = 0; trial < 25; ++trial) {
    auto h = random_channel(rng, 4, 2);
    for (std::size_t i = 0; i < 4; ++i) h(i, 1) *= 0.0316;  // -30 dB.
    const auto sent = random_indices(rng, c, 2);
    const auto y = transmit(rng, h, c, sent, n0);
    ml.detect(y, h, n0);
    const auto r = geo->detect(y, h, n0);
    EXPECT_NEAR(hypothesis_distance_sq(y, h, c, r.indices), ml.last_distance_sq(),
                1e-9 * (1.0 + ml.last_distance_sq()));
  }
}

// ---- Adversarial enumeration geometries --------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

void expect_full_sorted_drain(sphere::GeoEnumerator& e, const Constellation& c,
                              cf64 center) {
  DetectionStats stats;
  e.reset(center, stats);
  std::set<std::pair<int, int>> seen;
  double prev = -1.0;
  while (const auto child = e.next(kInf, stats)) {
    EXPECT_TRUE(seen.emplace(child->li, child->lq).second);
    EXPECT_GE(child->cost_grid, prev - 1e-9);
    prev = child->cost_grid;
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(c.order())) << "center=" << center;
}

TEST(Stress, EnumerationAtDegenerateCenters) {
  for (const unsigned order : {4u, 16u, 64u, 256u}) {
    const Constellation& c = Constellation::qam(order);
    sphere::GeoEnumerator e({.geometric_pruning = true});
    e.attach(c);
    const double edge = static_cast<double>(c.pam_levels() - 1);

    // Exactly on a constellation point, on decision boundaries (ties), at
    // corners, and absurdly far outside.
    for (const cf64 center :
         {cf64{1.0, 1.0}, cf64{0.0, 0.0}, cf64{2.0, 0.0}, cf64{edge, edge},
          cf64{-edge - 40.0, edge + 40.0}, cf64{1e6, -1e6}, cf64{0.0, -2.0}}) {
      expect_full_sorted_drain(e, c, center);
    }
  }
}

TEST(Stress, SphereDecoderWithReceivedVectorFarOutside) {
  // y scaled far beyond any lattice point: slicing clamps everywhere but
  // the decoder must still return the (unique) nearest corner.
  const Constellation& c = Constellation::qam(16);
  const auto geo = sphere::make_geosphere(c);
  MlExhaustiveDetector ml(c);
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const auto h = random_channel(rng, 3, 2);
    CVector y(3);
    for (auto& v : y) v = 50.0 * rng.cgaussian();
    const auto r = geo->detect(y, h, 1.0);
    ml.detect(y, h, 1.0);
    EXPECT_NEAR(hypothesis_distance_sq(y, h, c, r.indices), ml.last_distance_sq(),
                1e-7 * (1.0 + ml.last_distance_sq()));
  }
}

TEST(Stress, ZeroReceivedVector) {
  const Constellation& c = Constellation::qam(64);
  const auto geo = sphere::make_geosphere(c);
  Rng rng(4);
  const auto h = random_channel(rng, 4, 4);
  const auto r = geo->detect(CVector(4, cf64{}), h, 0.1);
  EXPECT_EQ(r.indices.size(), 4u);  // Valid decision, no crash.
}

// ---- Overflowing tree searches -------------------------------------------------

/// RAII override of the tree-search and prepare kernel tiers.
struct TierGuard {
  explicit TierGuard(const char* name) {
    sphere::simd::set_kernel_override(name);
    prepare::simd::set_kernel_override(name);
  }
  ~TierGuard() {
    sphere::simd::set_kernel_override(nullptr);
    prepare::simd::set_kernel_override(nullptr);
  }
};

/// The five SphereDecoder forms. Every error they throw names the
/// instance, so their five names must differ.
const std::set<std::string> kSphereDecoders = {"geosphere", "geosphere-2dzz",
                                               "geosphere-sqrd", "eth-sd", "shabany"};

void expect_distinct_sphere_decoder_names(const Constellation& c) {
  std::set<std::string> names;
  for (const std::string& text : kSphereDecoders)
    names.insert(DetectorSpec::parse(text).create(c)->name());
  EXPECT_EQ(names.size(), kSphereDecoders.size());
}

/// Runs `run` and returns the what() of the E it throws; records a failure
/// (and returns "") when it throws nothing or something else.
template <class E, class F>
std::string thrown_message(F&& run, const std::string& who) {
  try {
    run();
  } catch (const E& e) {
    return e.what();
  } catch (...) {
  }
  ADD_FAILURE() << who << ": did not throw the expected exception type";
  return "";
}

TEST(Stress, UnboundedSearchWithoutALeafThrows) {
  // A finite received vector far outside the constellation: its tree
  // centers exceed ~1e154 grid units, so every branch cost overflows to
  // +inf and even an unbounded search admits no child. Each tree search
  // must throw runtime_error rather than return a decision it never
  // reached (or read past its candidate lists). The slicing and exhaustive
  // detectors still return a defined decision.
  const Constellation& c = Constellation::qam(16);
  Rng rng(8);
  const auto h = random_channel(rng, 4, 4);
  const double n0 = db_to_lin(-20.0);
  const CVector healthy = transmit(rng, h, c, random_indices(rng, c, 4), n0);
  CVector hostile = healthy;
  hostile[0] = cf64{1e300, 0.0};
  linalg::CMatrix y_batch(4, 2);
  y_batch.set_col(0, healthy);
  y_batch.set_col(1, hostile);

  const std::set<std::string> no_tree = {"zf", "mmse", "mmse-sic", "ml"};
  expect_distinct_sphere_decoder_names(c);

  for (const sphere::simd::Kernel* kernel : sphere::simd::supported_kernels()) {
    const TierGuard tier(kernel->name);
    for (const std::string& text : test_detector_names()) {
      for (const bool warm : {false, true}) {
        const auto det = TestDetectorSpec::parse(text).create(c);
        det->prepare(h, n0);
        SoftDetector* soft = det->soft();
        if (warm) {
          det->solve(healthy);
          if (soft != nullptr) soft->solve_soft(healthy);
        }
        const bool tree = no_tree.count(text) == 0;
        const std::string who =
            text + " tier=" + kernel->name + (warm ? " warm " : " fresh ");
        const auto expect = [&](const char* entry,
                                const std::function<std::vector<unsigned>()>& run) {
          if (tree) {
            const std::string what = thrown_message<std::runtime_error>(run, who + entry);
            if (kSphereDecoders.count(text) != 0) {
              EXPECT_NE(what.find(det->name() + ": "), std::string::npos)
                  << who << entry << ": " << what;
            }
            return;
          }
          for (const unsigned idx : run()) EXPECT_LT(idx, c.order()) << who << entry;
        };
        expect("solve", [&] { return det->solve(hostile).indices; });
        expect("solve_batch", [&] { return det->solve_batch(y_batch).indices; });
        if (soft == nullptr) continue;
        expect("solve_soft", [&] { return soft->solve_soft(hostile).indices; });
        expect("solve_soft_batch", [&] {
          SoftBatchResult out;
          soft->solve_soft_batch(y_batch, out);
          return out.indices;
        });
      }
    }
  }
}

// ---- Non-finite channels ------------------------------------------------------

TEST(Stress, NonFiniteChannelThrowsAtSelect) {
  // One NaN entry, then one +inf entry, in a 4x4 channel. Unchecked, a NaN
  // poisons R and every partial distance, so a depth-first search can no
  // longer prune and visits the whole tree. The packed QR's rank test
  // fails a channel whose ||H||_F^2 is not finite, so every QR tree
  // detector throws its domain_error when that channel is selected: as
  // slot 1 of a batch, whose healthy neighbours stay selectable, and from
  // a one-shot prepare(). The SphereDecoder forms name themselves in it.
  const Constellation& c = Constellation::qam(16);
  Rng rng(9);
  const double n0 = db_to_lin(-20.0);
  const std::set<std::string> no_tree = {"zf", "mmse", "mmse-sic", "ml"};
  std::vector<std::string> specs;
  for (const std::string& name : test_detector_names())
    if (no_tree.count(name) == 0) specs.push_back(name);
  expect_distinct_sphere_decoder_names(c);

  for (const sphere::simd::Kernel* kernel : sphere::simd::supported_kernels()) {
    const TierGuard tier(kernel->name);
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      std::vector<linalg::CMatrix> hs;
      for (int s = 0; s < 3; ++s) hs.push_back(random_channel(rng, 4, 4));
      hs[1](2, 1) = cf64{bad, 0.0};
      for (const std::string& text : specs) {
        const std::string who = text + " tier=" + kernel->name + " entry=" + std::to_string(bad);
        const auto det = TestDetectorSpec::parse(text).create(c);
        det->prepare_batch(hs, n0);
        const std::string batched = thrown_message<std::domain_error>(
            [&] { det->select_prepared(1); }, who + " batched");
        EXPECT_FALSE(det->prepared()) << who;
        EXPECT_NO_THROW(det->select_prepared(0)) << who;
        EXPECT_NO_THROW(det->select_prepared(2)) << who;
        const std::string one_shot = thrown_message<std::domain_error>(
            [&] { det->prepare(hs[1], n0); }, who + " one-shot");
        EXPECT_FALSE(det->prepared()) << who;
        if (kSphereDecoders.count(text) != 0) {
          for (const std::string& what : {batched, one_shot})
            EXPECT_NE(what.find(det->name() + ": "), std::string::npos) << who << ": " << what;
        }
      }
    }
  }
}

// ---- Non-finite received vectors ----------------------------------------------

TEST(Stress, NonFiniteReceivedVectorThrowsAtSolve) {
  // One NaN, +inf or -inf entry, real or imaginary, in column 1 of a 4x4
  // 16-QAM batch of three. Unchecked, a NaN let every tree search visit the
  // whole tree and return a decision that depended on its enumerator, an
  // infinity tripped the tree searches' no-leaf rule, and the linear and
  // exhaustive detectors returned level 0. Every solve entry point, hard
  // and soft, one-shot and batched, throws domain_error naming the detector
  // instead, and leaves it prepared: a clean batch still solves.
  const Constellation& c = Constellation::qam(16);
  Rng rng(10);
  const double n0 = db_to_lin(-20.0);
  const auto h = random_channel(rng, 4, 4);
  linalg::CMatrix clean(4, 3);
  for (std::size_t v = 0; v < 3; ++v)
    clean.set_col(v, transmit(rng, h, c, random_indices(rng, c, 4), n0));

  for (const sphere::simd::Kernel* kernel : sphere::simd::supported_kernels()) {
    const TierGuard tier(kernel->name);
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      for (const bool imag : {false, true}) {
        linalg::CMatrix y_batch = clean;
        y_batch(2, 1) = imag ? cf64{y_batch(2, 1).real(), bad} : cf64{bad, y_batch(2, 1).imag()};
        CVector y;
        y_batch.col_into(1, y);
        for (const std::string& text : test_detector_names()) {
          const auto det = TestDetectorSpec::parse(text).create(c);
          det->prepare(h, n0);
          const std::string who = text + " tier=" + kernel->name + " entry=" +
                                  std::to_string(bad) + (imag ? "i" : "") + " ";
          const auto expect_throws = [&](const char* entry, const std::function<void()>& run) {
            const std::string what = thrown_message<std::domain_error>(run, who + entry);
            EXPECT_NE(what.find(det->name() + ": "), std::string::npos)
                << who << entry << ": " << what;
          };
          expect_throws("solve", [&] { det->solve(y); });
          expect_throws("solve_batch", [&] { det->solve_batch(y_batch); });
          if (SoftDetector* soft = det->soft()) {
            expect_throws("solve_soft", [&] { soft->solve_soft(y); });
            expect_throws("solve_soft_batch", [&] {
              SoftBatchResult out;
              soft->solve_soft_batch(y_batch, out);
            });
          }
          EXPECT_TRUE(det->prepared()) << who;
          EXPECT_NO_THROW(det->solve_batch(clean)) << who;
        }
      }
    }
  }
}

// ---- Cross-constellation link consistency -------------------------------------

TEST(Stress, FerOrderedByConstellationDensity) {
  // At a fixed SNR, denser constellations must not have lower FER.
  channel::RayleighChannel ch(4, 2);
  double prev_fer = -1.0;
  for (const unsigned qam : {4u, 16u, 64u}) {
    link::LinkScenario scenario;
    scenario.frame.qam_order = qam;
    scenario.frame.payload_bytes = 100;
    scenario.snr_db = 12.0;
    link::LinkSimulator sim(ch, scenario);
    const auto det = DetectorSpec::parse("geosphere").create(Constellation::qam(qam));
    const double fer = sim.run(*det, DecisionMode::kHard, 40, /*seed=*/5).fer();
    EXPECT_GE(fer, prev_fer - 0.05) << "QAM" << qam;
    prev_fer = fer;
  }
  EXPECT_GT(prev_fer, 0.1);  // 64-QAM at 12 dB on 2x4 genuinely struggles.
}

TEST(Stress, DetectionStatsAccumulate) {
  DetectionStats a;
  a.ped_computations = 5;
  a.visited_nodes = 2;
  a.lb_lookups = 7;
  DetectionStats b;
  b.ped_computations = 3;
  b.lb_prunes = 4;
  b.queue_ops = 9;
  a += b;
  EXPECT_EQ(a.ped_computations, 8u);
  EXPECT_EQ(a.visited_nodes, 2u);
  EXPECT_EQ(a.lb_lookups, 7u);
  EXPECT_EQ(a.lb_prunes, 4u);
  EXPECT_EQ(a.queue_ops, 9u);
}

TEST(Stress, RepeatedDetectCallsAreIndependent) {
  // Workspace reuse across calls (including changing nc) must not leak
  // state between detections.
  const Constellation& c = Constellation::qam(16);
  const auto geo = sphere::make_geosphere(c);
  Rng rng(6);
  const double n0 = db_to_lin(-20.0);

  const auto h2 = random_channel(rng, 4, 2);
  const auto s2 = random_indices(rng, c, 2);
  const auto y2 = transmit(rng, h2, c, s2, n0);
  const auto first = geo->detect(y2, h2, n0);

  // Different size in between.
  const auto h4 = random_channel(rng, 4, 4);
  const auto s4 = random_indices(rng, c, 4);
  const auto y4 = transmit(rng, h4, c, s4, n0);
  (void)geo->detect(y4, h4, n0);

  const auto again = geo->detect(y2, h2, n0);
  EXPECT_EQ(again.indices, first.indices);
  EXPECT_EQ(again.stats.ped_computations, first.stats.ped_computations);
  EXPECT_EQ(again.stats.visited_nodes, first.stats.visited_nodes);
}

TEST(Stress, AllDetectorsHandleSingleAntennaSingleStream) {
  const Constellation& c = Constellation::qam(16);
  Rng rng(7);
  const auto h = random_channel(rng, 1, 1);
  const auto sent = random_indices(rng, c, 1);
  const auto y = transmit(rng, h, c, sent, 0.0);

  for (const char* name :
       {"zf", "mmse", "mmse-sic", "geosphere", "geosphere-2dzz", "geosphere-sqrd",
        "eth-sd", "shabany", "soft-geosphere"}) {
    const auto det = TestDetectorSpec::parse(name).create(c);
    EXPECT_EQ(det->detect(y, h, 1e-12).indices, sent) << det->name();
  }
}

}  // namespace
}  // namespace geosphere
