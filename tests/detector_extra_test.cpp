// Properties beyond the core suites: sorted-QR ordering preprocessing and
// the AWGN theory references.
#include <gtest/gtest.h>

#include <cmath>

#include "common/db.h"
#include "common/rng.h"
#include "detect/sphere/sphere_decoder.h"
#include "link/theory.h"
#include "test_util.h"

namespace geosphere {
namespace {

using geosphere::testing::random_channel;
using geosphere::testing::random_indices;
using geosphere::testing::transmit;

// ---- Ordering preprocessing ---------------------------------------------------

TEST(SortedQr, ShrinksTreeOnAverage) {
  const Constellation& c = Constellation::qam(16);
  const auto plain = sphere::make_geosphere(c);
  sphere::SphereConfig cfg;
  cfg.sorted_qr = true;
  const auto sorted = sphere::make_geosphere(c, cfg);
  Rng rng(18);
  const double n0 = db_to_lin(-12.0);
  std::uint64_t plain_nodes = 0;
  std::uint64_t sorted_nodes = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto h = random_channel(rng, 4, 4);
    const auto sent = random_indices(rng, c, 4);
    const auto y = transmit(rng, h, c, sent, n0);
    plain_nodes += plain->detect(y, h, n0).stats.visited_nodes;
    sorted_nodes += sorted->detect(y, h, n0).stats.visited_nodes;
  }
  EXPECT_LT(sorted_nodes, plain_nodes);
}

// ---- AWGN theory references ----------------------------------------------------

TEST(Theory, QFunctionBasics) {
  EXPECT_NEAR(link::theory::q_function(0.0), 0.5, 1e-12);
  EXPECT_NEAR(link::theory::q_function(1.0), 0.1586552539, 1e-9);
  EXPECT_LT(link::theory::q_function(5.0), 3e-7);
}

TEST(Theory, SimulatedUncodedBerMatchesClosedForm) {
  // Single-stream AWGN (H = 1): Monte-Carlo BER vs the Gray-mapping formula.
  for (const unsigned order : {4u, 16u, 64u}) {
    const Constellation& c = Constellation::qam(order);
    const double snr_db = order == 4 ? 7.0 : (order == 16 ? 13.0 : 19.0);
    const double snr = db_to_lin(snr_db);
    const double n0 = 1.0 / snr;

    Rng rng(order);
    linalg::CMatrix h(1, 1);
    h(0, 0) = cf64{1.0, 0.0};
    std::size_t bit_errors = 0;
    const int symbols = 60000;
    for (int t = 0; t < symbols; ++t) {
      const auto sent = random_indices(rng, c, 1);
      const auto y = transmit(rng, h, c, sent, n0);
      bit_errors += c.bit_difference(c.slice(y[0]), sent[0]);
    }
    const double measured =
        static_cast<double>(bit_errors) / (static_cast<double>(symbols) * c.bits_per_symbol());
    const double predicted = link::theory::qam_bit_error_rate(order, snr);
    EXPECT_NEAR(measured, predicted, 0.25 * predicted + 2e-4)
        << "order=" << order << " snr=" << snr_db;
  }
}

TEST(Theory, SerAboveBerAndMonotoneInSnr) {
  for (const unsigned order : {4u, 16u, 64u, 256u}) {
    double prev_ser = 1.0;
    for (double snr_db = 5.0; snr_db <= 30.0; snr_db += 5.0) {
      const double snr = db_to_lin(snr_db);
      const double ser = link::theory::qam_symbol_error_rate(order, snr);
      const double ber = link::theory::qam_bit_error_rate(order, snr);
      EXPECT_GE(ser, ber);
      EXPECT_LT(ser, prev_ser);
      prev_ser = ser;
    }
  }
  EXPECT_THROW(link::theory::qam_bit_error_rate(8, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace geosphere
