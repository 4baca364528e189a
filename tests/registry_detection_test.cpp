// Detection properties every registry detector, and the soft reference,
// keeps at every registry QAM order (4, 16, 64, 256), one test per
// (detector, order) so that a failure names both:
//  * a noiseless reception is recovered exactly -- the decisions and the
//    symbols they name -- through square and tall channels, and
//  * a receiver gain that is a power of two changes no bit: scaling y and
//    H by 2^k and the noise variance by 4^k scales every intermediate
//    exactly, so the decisions, every complexity counter and (for the soft
//    detectors) every LLR stay the same. A detector that compared a
//    gain-dependent quantity against an absolute constant would fail here.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "detect/spec.h"
#include "reference/test_detector_spec.h"
#include "test_util.h"

namespace geosphere {
namespace {

using geosphere::testing::random_channel;
using geosphere::testing::random_indices;
using geosphere::testing::test_detector_names;
using geosphere::testing::TestDetectorSpec;
using geosphere::testing::transmit;

/// Registry QAM orders.
constexpr unsigned kOrders[] = {4u, 16u, 64u, 256u};

/// Bitwise equality for doubles: "same bits", so +0.0 and -0.0 differ.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

linalg::CMatrix scaled(linalg::CMatrix h, double gain) {
  for (std::size_t i = 0; i < h.rows(); ++i)
    for (std::size_t j = 0; j < h.cols(); ++j) h(i, j) *= gain;
  return h;
}

CVector scaled(CVector y, double gain) {
  for (cf64& v : y) v *= gain;
  return y;
}

using Param = std::tuple<std::string, unsigned>;

class RegistryOrders : public ::testing::TestWithParam<Param> {};

TEST_P(RegistryOrders, NoiselessReceptionIsRecovered) {
  const auto& [name, order] = GetParam();
  const TestDetectorSpec spec = TestDetectorSpec::parse(name);
  const Constellation& c = Constellation::qam(order);
  const auto det = spec.create(c);

  // Two streams at most keep ml's exhaustive search small at 256-QAM. The
  // noise variance handed to the detectors is tiny but positive: the soft
  // detectors divide by it.
  const double n0 = 1e-9;
  Rng rng(700 + order);
  for (const auto& [na, nc] : {std::pair{1u, 1u}, {2u, 2u}, {4u, 2u}}) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto h = random_channel(rng, na, nc);
      det->prepare(h, n0);
      for (int v = 0; v < 3; ++v) {
        const auto sent = random_indices(rng, c, nc);
        const DetectionResult r = det->solve(transmit(rng, h, c, sent, 0.0));
        const std::string who = spec.text() + " " + std::to_string(na) + "x" +
                                std::to_string(nc) + " trial " + std::to_string(trial);
        EXPECT_EQ(r.indices, sent) << who;
        ASSERT_EQ(r.symbols.size(), nc) << who;
        for (std::size_t k = 0; k < nc; ++k) EXPECT_EQ(r.symbols[k], c.point(sent[k])) << who;
      }
    }
  }
}

TEST_P(RegistryOrders, PowerOfTwoReceiverGainChangesNoBit) {
  const auto& [name, order] = GetParam();
  const TestDetectorSpec spec = TestDetectorSpec::parse(name);
  const Constellation& c = Constellation::qam(order);
  const auto reference = spec.create(c);
  const auto gained = spec.create(c);

  // Noise strong enough that the searches branch and some decisions err.
  const double n0 = 0.05;
  Rng rng(800 + order);
  for (int trial = 0; trial < 4; ++trial) {
    const auto h = random_channel(rng, 4, 2);
    reference->prepare(h, n0);
    for (const double gain : {4.0, 0.25}) {
      gained->prepare(scaled(h, gain), n0 * gain * gain);
      Rng vrng(900 + trial);
      for (int v = 0; v < 3; ++v) {
        const auto y = transmit(vrng, h, c, random_indices(vrng, c, 2), n0);
        const std::string who = spec.text() + " gain " + std::to_string(gain) + " trial " +
                                std::to_string(trial) + " vector " + std::to_string(v);
        const DetectionResult want = reference->solve(y);
        const DetectionResult got = gained->solve(scaled(y, gain));
        EXPECT_EQ(got.indices, want.indices) << who;
        EXPECT_EQ(got.stats, want.stats) << who;
        if (SoftDetector* soft = reference->soft()) {
          const SoftDetectionResult want_soft = soft->solve_soft(y);
          const SoftDetectionResult got_soft = gained->soft()->solve_soft(scaled(y, gain));
          EXPECT_EQ(got_soft.indices, want_soft.indices) << who;
          EXPECT_TRUE(same_bits(got_soft.llrs, want_soft.llrs)) << who;
          EXPECT_EQ(got_soft.stats, want_soft.stats) << who;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegistryDetectorsAndOrders, RegistryOrders,
                         ::testing::Combine(::testing::ValuesIn(test_detector_names()),
                                            ::testing::ValuesIn(kOrders)),
                         [](const ::testing::TestParamInfo<Param>& info) {
                           std::string name = std::get<0>(info.param);
                           for (char& ch : name)
                             if (ch == '-') ch = '_';
                           return name + "_qam" + std::to_string(std::get<1>(info.param));
                         });

}  // namespace
}  // namespace geosphere
