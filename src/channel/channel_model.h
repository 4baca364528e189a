// Channel-model interface. A "link" is one placement of clients and AP:
// a set of per-OFDM-subcarrier channel matrices drawn jointly (the paper's
// trace-driven evaluation replays exactly such per-subcarrier matrices).
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"

namespace geosphere::channel {

/// Per-subcarrier channel matrices (n_a x n_c each) for one link draw.
struct Link {
  std::vector<linalg::CMatrix> subcarriers;

  std::size_t num_subcarriers() const { return subcarriers.size(); }
};

class ChannelModel {
 public:
  virtual ~ChannelModel() = default;

  virtual std::size_t num_rx() const = 0;  ///< AP antennas n_a.
  virtual std::size_t num_tx() const = 0;  ///< Client antennas n_c.

  /// Draw an independent link realization across `nsc` subcarriers into
  /// `link`: afterwards it holds exactly nsc matrices of num_rx() x
  /// num_tx(), whatever it held before, written into its existing storage
  /// (drawn into a warm link of the same shape, the rayleigh,
  /// freq-selective and trace models allocate nothing). Entries are
  /// normalized so that the ensemble-average per-entry power is 1 (the
  /// SNR convention of DESIGN.md relies on this). The one draw every model
  /// implements.
  virtual void draw_link_into(Rng& rng, std::size_t nsc, Link& link) const = 0;

  /// Allocating form of draw_link_into(): the same draws into a new link.
  Link draw_link(Rng& rng, std::size_t nsc) const {
    Link link;
    draw_link_into(rng, nsc, link);
    return link;
  }

  /// Convenience: a single flat-fading matrix.
  linalg::CMatrix draw_flat(Rng& rng) const {
    return draw_link(rng, 1).subcarriers.front();
  }
};

}  // namespace geosphere::channel
