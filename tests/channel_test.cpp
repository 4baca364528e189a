#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "channel/frequency_selective.h"
#include "channel/geometric.h"
#include "channel/kronecker.h"
#include "channel/metrics.h"
#include "channel/noise.h"
#include "channel/rayleigh.h"
#include "channel/testbed_ensemble.h"
#include "channel/trace.h"
#include "common/stats.h"

namespace geosphere::channel {
namespace {

double mean_entry_power(const ChannelModel& model, Rng& rng, int links) {
  RunningStats power;
  for (int l = 0; l < links; ++l) {
    const auto h = model.draw_flat(rng);
    for (std::size_t i = 0; i < h.rows(); ++i)
      for (std::size_t j = 0; j < h.cols(); ++j) power.add(std::norm(h(i, j)));
  }
  return power.mean();
}

double mean_kappa_sq_db(const ChannelModel& model, Rng& rng, int links) {
  RunningStats k;
  for (int l = 0; l < links; ++l) k.add(kappa_sq_db(model.draw_flat(rng)));
  return k.mean();
}

/// Same shape and the same bits in every entry (memcmp: -0.0 and NaN
/// payloads count).
bool same_bits(const linalg::CMatrix& a, const linalg::CMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(cf64)) == 0;
}

/// Expects two generators to stand at the same position: the same next
/// engine word and the same next normal (which reads a pending saved one).
void expect_same_position(Rng& a, Rng& b, const std::string& where) {
  EXPECT_EQ(a.gaussian(), b.gaussian()) << where;
  EXPECT_EQ(a.engine()(), b.engine()()) << where;
}

TEST(Rayleigh, UnitEntryPowerAndShape) {
  RayleighChannel model(4, 2);
  Rng rng(1);
  EXPECT_EQ(model.num_rx(), 4u);
  EXPECT_EQ(model.num_tx(), 2u);
  EXPECT_NEAR(mean_entry_power(model, rng, 2000), 1.0, 0.05);
}

TEST(Rayleigh, FlatAcrossSubcarriers) {
  RayleighChannel model(2, 2);
  Rng rng(2);
  const Link link = model.draw_link(rng, 48);
  ASSERT_EQ(link.num_subcarriers(), 48u);
  for (std::size_t f = 1; f < 48; ++f)
    for (std::size_t i = 0; i < 2; ++i)
      for (std::size_t j = 0; j < 2; ++j)
        EXPECT_EQ(link.subcarriers[f](i, j), link.subcarriers[0](i, j));
}

TEST(Geometric, UnitAverageEntryPower) {
  GeometricConfig cfg;
  cfg.ap_antennas = 4;
  cfg.clients = 2;
  cfg.paths_per_client = 4;
  cfg.angular_spread_deg = 30.0;
  GeometricChannel model(cfg);
  Rng rng(3);
  EXPECT_NEAR(mean_entry_power(model, rng, 3000), 1.0, 0.07);
}

TEST(Geometric, UnitPowerWithRiceanComponent) {
  GeometricConfig cfg;
  cfg.ricean_k = 4.0;
  cfg.paths_per_client = 4;
  GeometricChannel model(cfg);
  Rng rng(4);
  EXPECT_NEAR(mean_entry_power(model, rng, 3000), 1.0, 0.07);
}

TEST(Geometric, SmallAngularSpreadWorsensConditioning) {
  // The physics of paper Fig. 2: tight clustering of departure/arrival
  // angles makes H poorly conditioned.
  GeometricConfig narrow;
  narrow.ap_antennas = 4;
  narrow.clients = 4;
  narrow.paths_per_client = 3;
  narrow.angular_spread_deg = 3.0;
  GeometricConfig wide = narrow;
  wide.angular_spread_deg = 60.0;
  wide.paths_per_client = 8;

  Rng rng1(5);
  Rng rng2(5);
  const double kappa_narrow = mean_kappa_sq_db(GeometricChannel(narrow), rng1, 300);
  const double kappa_wide = mean_kappa_sq_db(GeometricChannel(wide), rng2, 300);
  EXPECT_GT(kappa_narrow, kappa_wide + 5.0);
}

TEST(Geometric, DelaySpreadCreatesFrequencySelectivity) {
  GeometricConfig cfg;
  cfg.delay_spread = 6.0;
  cfg.paths_per_client = 6;
  GeometricChannel model(cfg);
  Rng rng(6);
  const Link link = model.draw_link(rng, 48);
  // First and last data subcarrier must differ substantially.
  double diff = 0.0;
  for (std::size_t i = 0; i < 4; ++i)
    diff += std::abs(link.subcarriers[0](i, 0) - link.subcarriers[40](i, 0));
  EXPECT_GT(diff, 1e-3);
}

TEST(Geometric, RejectsBadConfig) {
  GeometricConfig cfg;
  cfg.paths_per_client = 0;
  EXPECT_THROW(GeometricChannel{cfg}, std::invalid_argument);
  GeometricConfig cfg2;
  cfg2.ricean_k = -1.0;
  EXPECT_THROW(GeometricChannel{cfg2}, std::invalid_argument);
}

TEST(Kronecker, CorrelationWorsensConditioning) {
  Rng rng1(7);
  Rng rng2(7);
  const double k_uncorr = mean_kappa_sq_db(KroneckerChannel(4, 4, 0.0, 0.0), rng1, 400);
  const double k_corr = mean_kappa_sq_db(KroneckerChannel(4, 4, 0.9, 0.9), rng2, 400);
  EXPECT_GT(k_corr, k_uncorr + 5.0);
}

TEST(Kronecker, ZeroRhoMatchesRayleighStatistics) {
  KroneckerChannel model(3, 3, 0.0, 0.0);
  Rng rng(8);
  EXPECT_NEAR(mean_entry_power(model, rng, 2000), 1.0, 0.05);
}

TEST(Kronecker, RejectsInvalidRho) {
  EXPECT_THROW(KroneckerChannel(2, 2, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(KroneckerChannel(2, 2, 0.0, -0.1), std::invalid_argument);
}

TEST(FrequencySelective, UnitTotalPowerAndSelectivity) {
  FrequencySelectiveChannel model(2, 2, 6, 0.5);
  Rng rng(9);
  EXPECT_NEAR(mean_entry_power(model, rng, 3000), 1.0, 0.05);

  const Link link = model.draw_link(rng, 64);
  double diff = 0.0;
  for (std::size_t f = 1; f < 64; ++f)
    diff += std::abs(link.subcarriers[f](0, 0) - link.subcarriers[0](0, 0));
  EXPECT_GT(diff, 1.0);
}

TEST(FrequencySelective, SingleTapIsFlat) {
  FrequencySelectiveChannel model(2, 2, 1);
  Rng rng(10);
  const Link link = model.draw_link(rng, 16);
  for (std::size_t f = 1; f < 16; ++f)
    EXPECT_LT(std::abs(link.subcarriers[f](1, 1) - link.subcarriers[0](1, 1)), 1e-12);
}

TEST(FrequencySelective, RejectsBadParams) {
  EXPECT_THROW(FrequencySelectiveChannel(2, 2, 0), std::invalid_argument);
  EXPECT_THROW(FrequencySelectiveChannel(2, 2, 4, 1.5), std::invalid_argument);
  EXPECT_THROW(FrequencySelectiveChannel(2, 2, 100, 0.5, 64), std::invalid_argument);
}

// The header's DFT equivalence: a link draw is, bit for bit, the DFT of the
// taps drawn from the same generator state, and both draws consume the
// same words. A subcarrier index of fft_size or more names no FFT bin.
TEST(FrequencySelective, DrawLinkIsTheDftOfDrawTaps) {
  for (std::size_t taps : {1u, 4u, 8u})
    for (std::size_t nsc : {1u, 48u, 64u}) {
      const FrequencySelectiveChannel model(4, 3, taps);
      const std::string where = std::to_string(taps) + " taps, " + std::to_string(nsc) + " sc";
      Rng a(100 + taps * nsc);
      Rng b(100 + taps * nsc);
      const Link link = model.draw_link(a, nsc);
      const TapSet set = model.draw_taps(b);
      ASSERT_EQ(link.num_subcarriers(), nsc) << where;
      for (std::size_t f = 0; f < nsc; ++f)
        EXPECT_TRUE(same_bits(link.subcarriers[f], set.response(f, 64)))
            << where << ", subcarrier " << f;
      expect_same_position(a, b, where);
    }
  const FrequencySelectiveChannel model(2, 2, 4, 0.5, 16);
  Rng rng(1);
  EXPECT_EQ(model.draw_link(rng, 16).num_subcarriers(), 16u);
  EXPECT_THROW(model.draw_link(rng, 17), std::invalid_argument);
  EXPECT_THROW(FrequencySelectiveChannel(2, 2, 4).draw_link(rng, 65), std::invalid_argument);
}

/// FNV-1a over the memcpy'd bytes of every entry of every subcarrier.
std::uint64_t link_bits_hash(const Link& link) {
  std::uint64_t h = 14695981039346656037ull;
  for (const linalg::CMatrix& m : link.subcarriers)
    for (const cf64& x : m.data()) {
      unsigned char bytes[sizeof(cf64)];
      std::memcpy(bytes, &x, sizeof bytes);
      for (const unsigned char byte : bytes) {
        h ^= byte;
        h *= 1099511628211ull;
      }
    }
  return h;
}

// Pins freq-selective:8 draws across commits (the sweep and serve goldens
// run other channels): 48 subcarriers of 4x4 and 4x2 (antennas x clients)
// links at three seeds, and the generator's next word afterwards. Recorded
// before the draw moved onto the precomputed twiddle table, when each draw
// built its TapSet and called TapSet::response per subcarrier.
TEST(FrequencySelective, DrawLinkMatchesRecordedBits) {
  struct Row {
    std::size_t na, nc;
    std::uint64_t seed, hash, next_word;
  };
  const Row golden[] = {
      {4, 4, 1, 0x6a0c6e0c6a543a2full, 0xab3c7491546a9c90ull},
      {4, 4, 7, 0x48d36a0be630a277ull, 0x3708dd664701dc2aull},
      {4, 4, 2024, 0x1fd5780741eede69ull, 0x201f66a9871205adull},
      {4, 2, 1, 0x17f7a6e356cc8ba0ull, 0x06005d3fdeab0ceeull},
      {4, 2, 7, 0x5208756c33fe2010ull, 0xddec1646877fff9bull},
      {4, 2, 2024, 0x96b2907f516df0b6ull, 0x0050c28eed4c0d40ull}};
  for (const Row& row : golden) {
    const FrequencySelectiveChannel model(row.na, row.nc, 8);
    Rng rng(row.seed);
    const Link link = model.draw_link(rng, 48);
    const std::string where = std::to_string(row.na) + "x" + std::to_string(row.nc) +
                              ", seed " + std::to_string(row.seed);
    EXPECT_EQ(link_bits_hash(link), row.hash) << where;
    EXPECT_EQ(rng.engine()(), row.next_word) << where;
  }
}

// draw_link_into overwrites whatever the link held: drawn into a link of
// another shape whose entries are NaN, every model gives the bits and the
// generator position of a fresh draw_link -- at no subcarriers too.
TEST(ChannelModels, DrawIntoReusedLinkMatchesFreshDraw) {
  GeometricConfig geo;
  geo.ap_antennas = 4;
  geo.clients = 3;
  TestbedConfig bed;
  bed.ap_antennas = 4;
  bed.clients = 3;
  Rng trace_rng(5);
  std::vector<std::unique_ptr<ChannelModel>> models;
  models.push_back(std::make_unique<RayleighChannel>(4, 3));
  models.push_back(std::make_unique<KroneckerChannel>(4, 3, 0.6, 0.3));
  models.push_back(std::make_unique<GeometricChannel>(geo));
  models.push_back(std::make_unique<TestbedEnsemble>(bed));
  models.push_back(std::make_unique<FrequencySelectiveChannel>(4, 3, 8));
  models.push_back(std::make_unique<TraceChannelModel>(
      record_trace(RayleighChannel(4, 3), 5, 64, trace_rng)));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t m = 0; m < models.size(); ++m)
    for (std::size_t nsc : {48u, 1u, 0u, 64u}) {
      const std::string where = "model " + std::to_string(m) + ", " + std::to_string(nsc) + " sc";
      Link reused;
      reused.subcarriers.assign(50, linalg::CMatrix(2, 5, cf64{nan, nan}));
      Rng a(m * 100 + nsc);
      Rng b(m * 100 + nsc);
      models[m]->draw_link_into(a, nsc, reused);
      const Link fresh = models[m]->draw_link(b, nsc);
      ASSERT_EQ(reused.num_subcarriers(), nsc) << where;
      ASSERT_EQ(fresh.num_subcarriers(), nsc) << where;
      for (std::size_t f = 0; f < nsc; ++f) {
        EXPECT_EQ(reused.subcarriers[f].rows(), 4u) << where;
        EXPECT_EQ(reused.subcarriers[f].cols(), 3u) << where;
        EXPECT_TRUE(same_bits(reused.subcarriers[f], fresh.subcarriers[f]))
            << where << ", subcarrier " << f;
      }
      expect_same_position(a, b, where);
    }
}

TEST(TestbedEnsemble, MixtureProducesBothKinds) {
  TestbedConfig cfg;
  cfg.ap_antennas = 4;
  cfg.clients = 2;
  TestbedEnsemble ensemble(cfg);
  Rng rng(11);
  EmpiricalCdf kappa;
  for (int l = 0; l < 400; ++l) kappa.add(kappa_sq_db(ensemble.draw_flat(rng)));
  // Both well- and poorly-conditioned links must appear.
  EXPECT_GT(kappa.fraction_above(15.0), 0.1);
  EXPECT_GT(1.0 - kappa.fraction_above(15.0), 0.1);
}

TEST(TestbedEnsemble, ApproximatelyUnitEntryPower) {
  TestbedConfig cfg;
  TestbedEnsemble ensemble(cfg);
  Rng rng(12);
  EXPECT_NEAR(mean_entry_power(ensemble, rng, 3000), 1.0, 0.1);
}

// ---- Metrics ----------------------------------------------------------------

TEST(Metrics, OrthogonalChannelHasNoDegradation) {
  // Orthogonal columns: ZF amplifies nothing, lambda = 1 (0 dB).
  linalg::CMatrix h(2, 2);
  h(0, 0) = cf64{1, 0};
  h(1, 1) = cf64{1, 0};
  const auto amp = zf_noise_amplification(h);
  EXPECT_NEAR(amp[0], 1.0, 1e-12);
  EXPECT_NEAR(amp[1], 1.0, 1e-12);
  EXPECT_NEAR(lambda_max_db(h), 0.0, 1e-9);
}

TEST(Metrics, CorrelatedColumnsDegrade) {
  linalg::CMatrix h(2, 2);
  h(0, 0) = cf64{1, 0};
  h(0, 1) = cf64{0.9, 0};
  h(1, 0) = cf64{0, 0};
  h(1, 1) = cf64{std::sqrt(1 - 0.81), 0};  // Unit-norm columns, cos angle 0.9.
  // lambda_k = 1 / (1 - 0.9^2) for both streams => ~7.2 dB.
  EXPECT_NEAR(lambda_max_db(h), 10.0 * std::log10(1.0 / 0.19), 1e-6);
  EXPECT_GT(kappa_sq_db(h), 10.0);
}

TEST(Metrics, LambdaAtLeastZeroDb) {
  Rng rng(13);
  RayleighChannel model(4, 4);
  for (int l = 0; l < 100; ++l) {
    const auto h = model.draw_flat(rng);
    EXPECT_GE(lambda_max_db(h), -1e-9);
    // kappa^2 upper-bounds the worst-stream degradation.
    EXPECT_GE(kappa_sq_db(h), lambda_max_db(h) - 1e-6);
  }
}

TEST(Noise, VarianceMatchesSnr) {
  EXPECT_NEAR(noise_variance_for_snr_db(0.0), 1.0, 1e-12);
  EXPECT_NEAR(noise_variance_for_snr_db(20.0), 0.01, 1e-12);
  Rng rng(14);
  CVector y(10000, cf64{});
  add_awgn(y, 0.25, rng);
  RunningStats p;
  for (const auto& v : y) p.add(std::norm(v));
  EXPECT_NEAR(p.mean(), 0.25, 0.02);
}

TEST(Noise, ZeroVarianceIsNoOp) {
  Rng rng(15);
  CVector y(4, cf64{1.0, -1.0});
  add_awgn(y, 0.0, rng);
  for (const auto& v : y) EXPECT_EQ(v, (cf64{1.0, -1.0}));
}

}  // namespace
}  // namespace geosphere::channel
