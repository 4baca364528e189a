// Synthetic indoor testbed ensemble: the documented substitute for the
// paper's WARP v3 measured channel traces (see DESIGN.md, "Substitutions").
//
// Links are drawn from a mixture of geometric ray/cluster scenarios that
// reflect the paper's office environment (Fig. 8): a fraction of links see
// reflectors concentrated near one endpoint (small angular spread -> the
// poorly conditioned case of Fig. 2b), the rest see rich scattering and
// possibly a LOS component (Fig. 2a). The mixture weights and spreads are
// calibrated so that the resulting kappa^2 and Lambda CDFs reproduce the
// qualitative claims of paper Figs. 9-10 (e.g. ~60% of 2x2 links with
// kappa^2 > 10 dB; 4x4 links almost always poorly conditioned).
#pragma once

#include <memory>

#include "channel/channel_model.h"
#include "channel/geometric.h"

namespace geosphere::channel {

struct TestbedConfig {
  std::size_t ap_antennas = 4;
  std::size_t clients = 4;
  /// Probability that a link is of the "reflectors near one endpoint"
  /// (poorly conditioned) kind.
  double poor_scenario_fraction = 0.60;
  /// Angular spread for the two scenario kinds (degrees).
  double poor_angular_spread_deg = 5.0;
  double rich_angular_spread_deg = 45.0;
  /// In the poor scenario the clients' mean angles also cluster into a
  /// narrow sector (the Fig. 2b geometry: all energy leaves one region),
  /// which is what correlates different clients' columns.
  double poor_mean_aoa_range_deg = 30.0;
  /// Paths per client in the two kinds.
  int poor_paths = 2;
  int rich_paths = 8;
  /// Ricean K (linear) for rich links with a line-of-sight component.
  double rich_ricean_k = 2.0;
  double rich_los_fraction = 0.4;  ///< Fraction of rich links that have LOS.
  /// Log-normal per-client power variation (dB std): the testbed's near-far
  /// effect. Mean power is renormalized to 1. Raises kappa^2 (column-norm
  /// imbalance) but leaves Lambda untouched -- Lambda is invariant to
  /// per-column scaling.
  double shadowing_std_db = 5.0;
};

class TestbedEnsemble final : public ChannelModel {
 public:
  explicit TestbedEnsemble(TestbedConfig config);

  std::size_t num_rx() const override { return config_.ap_antennas; }
  std::size_t num_tx() const override { return config_.clients; }

  void draw_link_into(Rng& rng, std::size_t nsc, Link& link) const override;

  const TestbedConfig& config() const { return config_; }

 private:
  TestbedConfig config_;
  std::unique_ptr<GeometricChannel> poor_;
  std::unique_ptr<GeometricChannel> rich_nlos_;
  std::unique_ptr<GeometricChannel> rich_los_;
};

}  // namespace geosphere::channel
