// Per-TTI, per-cell scheduling for the streaming serving layer: traffic
// arrivals feed per-user frame queues, the scheduler picks which
// backlogged users transmit (SNR-windowed, longest-unserved-first round
// robin, index tie-break -- fully deterministic), and link::best_rate
// picks the group's QAM order from the cell's candidate list by probing
// with one short frame per candidate that can still win (ideal rate
// adaptation, emulated cheaply: a candidate whose error-free throughput
// cannot beat the best probed so far is never simulated). A probe frame is
// the cell's own frame (cell_frame_config), cut to a short payload.
//
// Every random decision derives from (master seed, cell index, TTI) alone
// -- never from thread count or execution order -- so two schedulers with
// the same spec and seed produce identical schedule logs on any host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "channel/channel_model.h"
#include "channel/spec.h"
#include "detect/spec.h"
#include "phy/frame.h"
#include "serve/spec.h"

namespace geosphere::serve {

/// The frame a cell transmits at `qam`: the cell's payload and code, soft
/// frames decoded on the int16 kernel. Server::run encodes and decodes
/// every frame with it, and the rate probe simulates it with a shorter
/// payload, so a cell's QAM is chosen by the decoder its frames run.
phy::FrameConfig cell_frame_config(const CellSpec& cell, unsigned qam);

/// One TTI's decision for one cell: which users transmit (one spatial
/// stream each, jointly detected as one MU-MIMO frame) at which QAM.
struct CellSchedule {
  std::uint64_t tti = 0;
  std::vector<std::size_t> users;  ///< Scheduled user ids, ascending. Empty: idle TTI.
  unsigned qam = 0;                ///< 0 on an idle TTI.
  double snr_db = 0.0;  ///< Group SNR (mean of the scheduled users' mean SNRs).
  /// Probe frames simulated for the rate choice: 0 on an idle TTI or with
  /// a single-QAM candidate list, at most the list's length otherwise.
  std::uint64_t probe_frames = 0;
};

/// The scheduler and queue state of one cell. Not thread-safe; the server
/// drives each cell's scheduler from one logical stream (TTIs in order).
class CellScheduler {
 public:
  /// User mean SNRs are drawn once at construction, uniform in
  /// spec.snr_db +/- spec.snr_spread_db, from Rng::derive_seed(master_seed,
  /// cell_index) -- static per (seed, cell), independent of TTI count.
  CellScheduler(const CellSpec& spec, std::uint64_t master_seed, std::size_t cell_index);

  /// Advances one TTI: Bernoulli(load) arrivals per user, then selection
  /// and rate choice over the backlogged users. TTIs must be fed in
  /// ascending order. Selection: users whose mean SNR lies within the
  /// spec's window of snr_db, boundary included (paper Section 5.2's
  /// user-selection method; falls back to all backlogged users when the
  /// window is empty), ranked longest-unserved first with user-index
  /// tie-break, truncated to the antenna count. Once warm, a TTI without a
  /// rate probe allocates only the returned user list.
  CellSchedule schedule_tti(std::uint64_t tti);

  /// Decode-outcome feedback: a delivered frame leaves its user's queue, a
  /// failed one stays queued for retransmission.
  void complete(std::size_t user, bool delivered);

  /// The cell's channel for a `streams`-user group (created lazily per
  /// distinct stream count, cached for the scheduler's lifetime). Models
  /// are immutable, so the reference is safely shared across workers.
  const channel::ChannelModel& channel(std::size_t streams);

  const CellSpec& spec() const { return spec_; }
  const DetectorSpec& detector() const { return det_spec_; }
  const std::vector<double>& user_snrs_db() const { return snr_db_; }

  /// Total frames currently queued across users.
  std::uint64_t backlog() const;
  /// Frames that have entered the queues so far.
  std::uint64_t arrivals() const { return arrivals_; }

 private:
  CellSpec spec_;
  DetectorSpec det_spec_;
  channel::ChannelSpec chan_spec_;
  std::uint64_t master_seed_;
  std::size_t cell_;

  std::vector<double> snr_db_;                  ///< Per-user static mean SNR.
  std::vector<std::uint64_t> queue_;            ///< Per-user backlog (frames).
  /// 0 = never served, else last served TTI + 1: the round-robin rank key.
  std::vector<std::uint64_t> last_served_plus1_;
  std::uint64_t arrivals_ = 0;

  /// Channels per stream count (the per-TTI group size varies).
  std::map<std::size_t, std::unique_ptr<const channel::ChannelModel>> channels_;

  // Per-TTI scratch, reused.
  std::vector<std::size_t> candidates_;  ///< Backlogged users.
  std::vector<std::size_t> ranked_;      ///< Backlogged users in the SNR window.
};

}  // namespace geosphere::serve
