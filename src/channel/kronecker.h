// Kronecker-correlated Rayleigh channel: H = R_rx^{1/2} H_w R_tx^{1/2}
// with exponential correlation profiles. A standard analytic model for
// studying conditioning as a function of antenna correlation.
#pragma once

#include "channel/channel_model.h"

namespace geosphere::channel {

class KroneckerChannel final : public ChannelModel {
 public:
  /// rho in [0, 1): correlation between adjacent antennas;
  /// R(i,j) = rho^{|i-j|} at each end of the link.
  KroneckerChannel(std::size_t na, std::size_t nc, double rho_rx, double rho_tx);

  std::size_t num_rx() const override { return na_; }
  std::size_t num_tx() const override { return nc_; }

  void draw_link_into(Rng& rng, std::size_t nsc, Link& link) const override;

 private:
  std::size_t na_;
  std::size_t nc_;
  linalg::CMatrix sqrt_rx_;
  linalg::CMatrix sqrt_tx_;
};

}  // namespace geosphere::channel
