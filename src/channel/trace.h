// Channel traces: save link ensembles to disk and replay them -- the
// paper's trace-driven simulation methodology ("driven by empirical MIMO
// channel measurements collected from our WARP testbed", Section 5.3.2).
// A trace pins the exact set of channel matrices, so different detectors
// and parameter sweeps see identical channels run-to-run and tool-to-tool.
#pragma once

#include <string>
#include <vector>

#include "channel/channel_model.h"

namespace geosphere::channel {

/// Binary trace file (magic "GEOTRACE", version 1, little-endian doubles).
/// All links must share dimensions and subcarrier count.
void save_trace(const std::string& path, const std::vector<Link>& links);

/// Loads a trace; throws std::runtime_error on malformed input: a header
/// whose dimensions overflow or do not match the payload size, a truncated
/// or over-long file, or a non-finite channel entry.
std::vector<Link> load_trace(const std::string& path);

/// Replays a fixed set of links as a ChannelModel: draw_link() picks one
/// uniformly (seeded by the caller's Rng, so experiments stay reproducible).
class TraceChannelModel final : public ChannelModel {
 public:
  explicit TraceChannelModel(std::vector<Link> links);

  std::size_t num_rx() const override { return na_; }
  std::size_t num_tx() const override { return nc_; }
  std::size_t num_links() const { return links_.size(); }

  /// Requires nsc <= the trace's stored subcarrier count.
  Link draw_link(Rng& rng, std::size_t nsc) const override;

 private:
  std::vector<Link> links_;
  std::size_t na_ = 0;
  std::size_t nc_ = 0;
};

/// Record `count` links from any model into a trace (the "measurement
/// campaign" step).
std::vector<Link> record_trace(const ChannelModel& model, std::size_t count,
                               std::size_t nsc, Rng& rng);

}  // namespace geosphere::channel
