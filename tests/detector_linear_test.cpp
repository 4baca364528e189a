#include <gtest/gtest.h>

#include <cmath>

#include "common/db.h"
#include "common/rng.h"
#include "common/stats.h"
#include "detect/mmse.h"
#include "detect/mmse_sic.h"
#include "detect/zero_forcing.h"
#include "test_util.h"

namespace geosphere {
namespace {

using geosphere::testing::random_channel;
using geosphere::testing::random_indices;
using geosphere::testing::transmit;

class LinearNoiseless : public ::testing::TestWithParam<unsigned> {};

TEST_P(LinearNoiseless, AllLinearDetectorsRecoverExactly) {
  const Constellation& c = Constellation::qam(GetParam());
  ZeroForcingDetector zf(c);
  MmseDetector mmse(c);
  MmseSicDetector sic(c);
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    const auto h = random_channel(rng, 4, 3);
    const auto sent = random_indices(rng, c, 3);
    const auto y = transmit(rng, h, c, sent, 0.0);
    EXPECT_EQ(zf.detect(y, h, 0.0).indices, sent);
    EXPECT_EQ(mmse.detect(y, h, 1e-12).indices, sent);
    EXPECT_EQ(sic.detect(y, h, 1e-12).indices, sent);
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, LinearNoiseless, ::testing::Values(4u, 16u, 64u, 256u));

TEST(ZeroForcing, EqualizedOutputIsInterferenceFree) {
  // ZF by construction removes inter-stream interference completely:
  // without noise the equalized output equals the sent symbols exactly.
  const Constellation& c = Constellation::qam(64);
  ZeroForcingDetector zf(c);
  Rng rng(2);
  const auto h = random_channel(rng, 4, 4);
  const auto sent = random_indices(rng, c, 4);
  const auto y = transmit(rng, h, c, sent, 0.0);
  zf.detect(y, h, 0.0);
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_LT(std::abs(zf.last_equalized()(k, 0) - c.point(sent[k])), 1e-9);
}

TEST(Mmse, ConvergesToZfAtHighSnr) {
  const Constellation& c = Constellation::qam(16);
  ZeroForcingDetector zf(c);
  MmseDetector mmse(c);
  Rng rng(3);
  const auto h = random_channel(rng, 4, 3);
  const auto sent = random_indices(rng, c, 3);
  const auto y = transmit(rng, h, c, sent, 1e-10);
  zf.detect(y, h, 1e-10);
  mmse.detect(y, h, 1e-10);
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_LT(std::abs(zf.last_equalized()(k, 0) - mmse.last_equalized()(k, 0)), 1e-6);
}

TEST(Mmse, BeatsZfAtLowSnrOnIllConditionedChannel) {
  // A nearly-singular channel: ZF noise amplification explodes, MMSE
  // regularizes. Count symbol errors over many noise draws.
  const Constellation& c = Constellation::qam(4);
  ZeroForcingDetector zf(c);
  MmseDetector mmse(c);
  Rng rng(4);

  linalg::CMatrix h(2, 2);
  h(0, 0) = cf64{1.0, 0.0};
  h(0, 1) = cf64{0.95, 0.0};
  h(1, 0) = cf64{0.95, 0.0};
  h(1, 1) = cf64{1.0, 0.0};

  const double n0 = db_to_lin(-10.0);
  int zf_errors = 0;
  int mmse_errors = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto sent = random_indices(rng, c, 2);
    const auto y = transmit(rng, h, c, sent, n0);
    const auto rz = zf.detect(y, h, n0);
    const auto rm = mmse.detect(y, h, n0);
    for (std::size_t k = 0; k < 2; ++k) {
      zf_errors += rz.indices[k] != sent[k];
      mmse_errors += rm.indices[k] != sent[k];
    }
  }
  EXPECT_LT(mmse_errors, zf_errors);
  EXPECT_GT(zf_errors, 0);
}

TEST(MmseSic, BeatsPlainMmseOnAverage) {
  // Interference cancellation should reduce symbol errors in a loaded
  // system at moderate SNR.
  const Constellation& c = Constellation::qam(16);
  MmseDetector mmse(c);
  MmseSicDetector sic(c);
  Rng rng(5);
  const double n0 = db_to_lin(-14.0);
  int mmse_errors = 0;
  int sic_errors = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const auto h = random_channel(rng, 4, 4);
    const auto sent = random_indices(rng, c, 4);
    const auto y = transmit(rng, h, c, sent, n0);
    const auto rm = mmse.detect(y, h, n0);
    const auto rs = sic.detect(y, h, n0);
    for (std::size_t k = 0; k < 4; ++k) {
      mmse_errors += rm.indices[k] != sent[k];
      sic_errors += rs.indices[k] != sent[k];
    }
  }
  EXPECT_LT(sic_errors, mmse_errors);
}

TEST(LinearDetectors, SingleStream) {
  const Constellation& c = Constellation::qam(16);
  ZeroForcingDetector zf(c);
  MmseSicDetector sic(c);
  Rng rng(6);
  const auto h = random_channel(rng, 3, 1);
  const auto sent = random_indices(rng, c, 1);
  const auto y = transmit(rng, h, c, sent, 0.0);
  EXPECT_EQ(zf.detect(y, h, 0.0).indices, sent);
  EXPECT_EQ(sic.detect(y, h, 1e-12).indices, sent);
}

}  // namespace
}  // namespace geosphere
