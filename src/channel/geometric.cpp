#include "channel/geometric.h"

#include <cmath>
#include <stdexcept>

#include "common/types.h"

namespace geosphere::channel {

GeometricChannel::GeometricChannel(GeometricConfig config) : config_(config) {
  if (config_.paths_per_client < 1)
    throw std::invalid_argument("GeometricChannel: needs at least one path");
  if (config_.ap_antennas == 0 || config_.clients == 0)
    throw std::invalid_argument("GeometricChannel: antennas/clients must be positive");
  if (config_.ricean_k < 0.0)
    throw std::invalid_argument("GeometricChannel: Ricean K must be non-negative");
}

void GeometricChannel::draw_link_into(Rng& rng, std::size_t nsc, Link& link) const {
  const std::size_t na = config_.ap_antennas;
  const std::size_t nc = config_.clients;
  const int paths = config_.paths_per_client;
  const double deg2rad = kPi / 180.0;

  // Every entry is written below.
  link.subcarriers.resize(nsc);
  for (linalg::CMatrix& h : link.subcarriers) h.resize_shape(na, nc);

  // Power split between the LOS ray (at the cluster mean, zero delay) and
  // the diffuse rays; total per-entry average power stays 1.
  const double k = config_.ricean_k;
  const double los_amp = std::sqrt(k / (k + 1.0));
  const double nlos_power = 1.0 / (k + 1.0);

  for (std::size_t client = 0; client < nc; ++client) {
    const double mean_aoa =
        rng.uniform(-config_.mean_aoa_range_deg, config_.mean_aoa_range_deg) * deg2rad;

    struct Ray {
      cf64 gain;
      double sin_aoa;
      double delay;
    };
    std::vector<Ray> rays;
    rays.reserve(static_cast<std::size_t>(paths) + 1);

    if (k > 0.0) {
      // Deterministic LOS ray with a random carrier phase.
      const double phase = rng.uniform(0.0, 2.0 * kPi);
      rays.push_back({los_amp * cf64{std::cos(phase), std::sin(phase)},
                      std::sin(mean_aoa), 0.0});
    }
    for (int p = 0; p < paths; ++p) {
      const double aoa =
          mean_aoa +
          rng.uniform(-config_.angular_spread_deg, config_.angular_spread_deg) * deg2rad;
      rays.push_back({rng.cgaussian(nlos_power / paths), std::sin(aoa),
                      rng.uniform(0.0, config_.delay_spread)});
    }

    // h_client[f] = sum_rays gain * exp(-j 2 pi f_idx delay / N) * a(theta),
    // with ULA steering a_i(theta) = exp(j 2 pi (d/lambda) i sin(theta)).
    for (std::size_t f = 0; f < nsc; ++f) {
      const double subcarrier_phase_step =
          -2.0 * kPi * static_cast<double>(f) / static_cast<double>(config_.fft_size);
      for (std::size_t ant = 0; ant < na; ++ant) {
        cf64 acc{};
        for (const Ray& ray : rays) {
          const double steer = 2.0 * kPi * config_.antenna_spacing_wavelengths *
                               static_cast<double>(ant) * ray.sin_aoa;
          const double total = steer + subcarrier_phase_step * ray.delay;
          acc += ray.gain * cf64{std::cos(total), std::sin(total)};
        }
        link.subcarriers[f](ant, client) = acc;
      }
    }
  }
}

}  // namespace geosphere::channel
