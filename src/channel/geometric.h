// Geometric ray/cluster channel model: the physics behind the paper's
// Fig. 2. Each single-antenna client reaches the AP's uniform linear array
// through a small number of paths clustered around a mean angle of
// arrival. Small angular spread (reflectors near one endpoint only) makes
// the steering vectors of different paths -- and hence the channel columns
// -- nearly parallel: a poorly conditioned H. Per-path delays give the
// frequency selectivity observed across OFDM subcarriers.
#pragma once

#include "channel/channel_model.h"

namespace geosphere::channel {

struct GeometricConfig {
  std::size_t ap_antennas = 4;
  std::size_t clients = 4;
  double antenna_spacing_wavelengths = 3.33;  ///< Paper testbed: 20 cm at 5 GHz.
  int paths_per_client = 3;                   ///< Number of propagation paths.
  double angular_spread_deg = 10.0;           ///< Cluster width around the mean AoA.
  double mean_aoa_range_deg = 70.0;           ///< Mean AoA drawn from +/- this range.
  double ricean_k = 0.0;        ///< LOS-to-NLOS power ratio (linear); 0 = pure NLOS.
  double delay_spread = 4.0;    ///< Max path delay, in OFDM sample periods.
  std::size_t fft_size = 64;    ///< For converting delays to subcarrier phase.
};

class GeometricChannel final : public ChannelModel {
 public:
  explicit GeometricChannel(GeometricConfig config);

  std::size_t num_rx() const override { return config_.ap_antennas; }
  std::size_t num_tx() const override { return config_.clients; }

  void draw_link_into(Rng& rng, std::size_t nsc, Link& link) const override;

  const GeometricConfig& config() const { return config_; }

 private:
  GeometricConfig config_;
};

}  // namespace geosphere::channel
