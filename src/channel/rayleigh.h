// i.i.d. Rayleigh flat-fading channel: CN(0,1) entries, constant across
// subcarriers within a link, independent across links -- the paper's
// simulation channel ("independent, identically-distributed channel
// realizations sampled on a per-frame basis", Section 5.3.2).
#pragma once

#include "channel/channel_model.h"

namespace geosphere::channel {

class RayleighChannel final : public ChannelModel {
 public:
  RayleighChannel(std::size_t na, std::size_t nc) : na_(na), nc_(nc) {}

  std::size_t num_rx() const override { return na_; }
  std::size_t num_tx() const override { return nc_; }

  void draw_link_into(Rng& rng, std::size_t nsc, Link& link) const override;

 private:
  std::size_t na_;
  std::size_t nc_;
};

}  // namespace geosphere::channel
