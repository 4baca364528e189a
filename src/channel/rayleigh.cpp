#include "channel/rayleigh.h"

#include <algorithm>

namespace geosphere::channel {

void RayleighChannel::draw_link_into(Rng& rng, std::size_t nsc, Link& link) const {
  // Flat in frequency: subcarrier 0 is drawn, the others copy it. A link of
  // no subcarriers still consumes the draw.
  link.subcarriers.resize(std::max<std::size_t>(nsc, 1));
  linalg::CMatrix& h = link.subcarriers.front();
  h.resize_shape(na_, nc_);
  for (std::size_t i = 0; i < na_; ++i)
    for (std::size_t j = 0; j < nc_; ++j) h(i, j) = rng.cgaussian(1.0);
  for (std::size_t f = 1; f < nsc; ++f) link.subcarriers[f] = h;
  link.subcarriers.resize(nsc);
}

}  // namespace geosphere::channel
