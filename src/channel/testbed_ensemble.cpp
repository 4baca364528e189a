#include "channel/testbed_ensemble.h"

#include <cmath>

namespace geosphere::channel {

namespace {

GeometricConfig scenario(const TestbedConfig& c, int paths, double spread_deg,
                         double ricean_k) {
  GeometricConfig g;
  g.ap_antennas = c.ap_antennas;
  g.clients = c.clients;
  g.paths_per_client = paths;
  g.angular_spread_deg = spread_deg;
  g.ricean_k = ricean_k;
  return g;
}

}  // namespace

namespace {

GeometricConfig poor_scenario(const TestbedConfig& c) {
  GeometricConfig g = scenario(c, c.poor_paths, c.poor_angular_spread_deg, 0.0);
  g.mean_aoa_range_deg = c.poor_mean_aoa_range_deg;
  return g;
}

}  // namespace

TestbedEnsemble::TestbedEnsemble(TestbedConfig config)
    : config_(config),
      poor_(std::make_unique<GeometricChannel>(poor_scenario(config))),
      rich_nlos_(std::make_unique<GeometricChannel>(
          scenario(config, config.rich_paths, config.rich_angular_spread_deg, 0.0))),
      rich_los_(std::make_unique<GeometricChannel>(scenario(
          config, config.rich_paths, config.rich_angular_spread_deg, config.rich_ricean_k))) {}

void TestbedEnsemble::draw_link_into(Rng& rng, std::size_t nsc, Link& link) const {
  const double u = rng.uniform();
  if (u < config_.poor_scenario_fraction)
    poor_->draw_link_into(rng, nsc, link);
  else if (rng.uniform() < config_.rich_los_fraction)
    rich_los_->draw_link_into(rng, nsc, link);
  else
    rich_nlos_->draw_link_into(rng, nsc, link);

  if (config_.shadowing_std_db > 0.0) {
    // Per-client log-normal gain with unit mean power: for X ~ N(-m, s^2)
    // in dB, E[10^(X/10)] = 1 requires m = s^2 ln(10) / 20.
    const double s = config_.shadowing_std_db;
    const double mean_offset_db = s * s * std::log(10.0) / 20.0;
    for (std::size_t k = 0; k < config_.clients; ++k) {
      const double gain_db = rng.gaussian(-mean_offset_db, s);
      const double amp = std::pow(10.0, gain_db / 20.0);
      for (auto& h : link.subcarriers)
        for (std::size_t i = 0; i < h.rows(); ++i) h(i, k) *= amp;
    }
  }
}

}  // namespace geosphere::channel
