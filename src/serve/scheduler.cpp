#include "serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "coding/spec.h"
#include "common/rng.h"
#include "link/rate_adapt.h"

namespace geosphere::serve {

namespace {

/// Probe frames for the per-TTI rate choice are short: the probe emulates
/// ideal rate adaptation (link::best_rate over the candidate list on a
/// fresh deterministic channel draw, one frame per candidate that can
/// still win), and a full-length payload would make the scheduler as
/// expensive as the detection pipeline it feeds.
constexpr std::size_t kProbePayloadBytes = 100;

}  // namespace

phy::FrameConfig cell_frame_config(const CellSpec& cell, unsigned qam) {
  phy::FrameConfig cfg;
  cfg.qam_order = qam;
  cfg.payload_bytes = cell.payload_bytes;
  cfg.set_code(coding::CodeSpec::parse(cell.code));
  cfg.viterbi = phy::ViterbiImpl::kQuantized;  // The int16 kernels; bit-identical across tiers.
  return cfg;
}

CellScheduler::CellScheduler(const CellSpec& spec, std::uint64_t master_seed,
                             std::size_t cell_index)
    : spec_(spec),
      det_spec_(DetectorSpec::parse(spec.detector)),
      chan_spec_(channel::ChannelSpec::parse(spec.channel)),
      master_seed_(master_seed),
      cell_(cell_index),
      queue_(spec.users, 0),
      last_served_plus1_(spec.users, 0) {
  // Static per-user mean SNRs: one derived stream per (seed, cell), drawn
  // in user order -- identical for any TTI count or thread layout.
  Rng rng(Rng::derive_seed(master_seed_, cell_));
  snr_db_.reserve(spec_.users);
  for (std::size_t u = 0; u < spec_.users; ++u)
    snr_db_.push_back(spec_.snr_db +
                      (spec_.snr_spread_db > 0.0
                           ? rng.uniform(-spec_.snr_spread_db, spec_.snr_spread_db)
                           : 0.0));
}

const channel::ChannelModel& CellScheduler::channel(std::size_t streams) {
  auto& slot = channels_[streams];
  if (!slot) slot = chan_spec_.create(streams, spec_.antennas);
  return *slot;
}

std::uint64_t CellScheduler::backlog() const {
  std::uint64_t total = 0;
  for (const std::uint64_t q : queue_) total += q;
  return total;
}

void CellScheduler::complete(std::size_t user, bool delivered) {
  if (user >= queue_.size())
    throw std::invalid_argument("CellScheduler::complete: unknown user");
  if (delivered && queue_[user] > 0) --queue_[user];
}

CellSchedule CellScheduler::schedule_tti(std::uint64_t tti) {
  // All of this TTI's scheduling randomness (arrivals, the rate probe's
  // seed) comes from one (seed, cell, tti)-derived stream.
  Rng rng(Rng::derive_seed(master_seed_, cell_, tti));
  for (std::size_t u = 0; u < spec_.users; ++u) {
    if (rng.uniform() < spec_.load) {
      ++queue_[u];
      ++arrivals_;
    }
  }

  CellSchedule out;
  out.tti = tti;

  // Backlogged users only: zero-demand users are never scheduled. Those
  // inside the closed SNR window around the cell's SNR are ranked (keeps
  // the group's condition number small, the paper's Section 5.2 method).
  // An empty window must not starve the cell: fall back to every
  // backlogged user.
  candidates_.clear();
  ranked_.clear();
  for (std::size_t u = 0; u < spec_.users; ++u) {
    if (queue_[u] == 0) continue;
    candidates_.push_back(u);
    if (std::abs(snr_db_[u] - spec_.snr_db) <= spec_.window_db) ranked_.push_back(u);
  }
  if (candidates_.empty()) return out;
  if (ranked_.empty()) ranked_ = candidates_;

  // Longest-unserved-first round robin, user index as the deterministic
  // tie-break; stable ordering for any candidate arrangement.
  std::sort(ranked_.begin(), ranked_.end(), [&](std::size_t a, std::size_t b) {
    if (last_served_plus1_[a] != last_served_plus1_[b])
      return last_served_plus1_[a] < last_served_plus1_[b];
    return a < b;
  });
  ranked_.resize(std::min(ranked_.size(), spec_.antennas));

  out.users = ranked_;
  std::sort(out.users.begin(), out.users.end());
  double snr_sum = 0.0;
  for (const std::size_t u : out.users) {
    snr_sum += snr_db_[u];
    last_served_plus1_[u] = tti + 1;
  }
  out.snr_db = snr_sum / static_cast<double>(out.users.size());

  // Rate choice over the candidate QAM list. A single-candidate list needs
  // no probe; otherwise short probe frames on a fresh (seed, cell,
  // tti)-derived channel draw emulate ideal rate adaptation (highest net
  // throughput wins, a tie goes to the first-listed QAM). link::best_rate
  // probes the highest-rate candidates first and skips any whose
  // error-free throughput cannot beat the best probed so far, so on a
  // clean channel one probe frame settles the choice.
  if (spec_.qams.size() == 1) {
    out.qam = spec_.qams.front();
  } else {
    link::LinkScenario probe;
    // best_rate sets each candidate's QAM.
    probe.frame = cell_frame_config(spec_, spec_.qams.front());
    probe.frame.payload_bytes = std::min(spec_.payload_bytes, kProbePayloadBytes);
    probe.snr_db = out.snr_db;
    const std::uint64_t probe_seed = rng.engine()();
    const link::RateChoice choice =
        link::best_rate(channel(out.users.size()), probe, det_spec_, 1, probe_seed,
                        spec_.qams);
    out.qam = choice.qam_order;
    out.probe_frames = choice.simulated_frames;
  }
  return out;
}

}  // namespace geosphere::serve
