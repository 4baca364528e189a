// Frame-level Monte-Carlo simulation of the uplink multi-user MIMO system:
// per-client coding chains, joint detection, per-client decoding -- the
// engine behind every throughput and complexity experiment. Each frame is
// drawn here (link, SNR jitter, then link::draw_streams) and received by
// a link::FrameReceiver (link/frame_receiver.h), which documents the
// detection loop, its accounting and its bit-identity to the historical
// per-vector loop. Hard and soft decisions share that one path:
// DecisionMode picks symbol indices for the hard Viterbi or max-log LLRs
// for the soft Viterbi.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "channel/channel_model.h"
#include "channel/spec.h"
#include "common/rng.h"
#include "detect/detector.h"
#include "detect/spec.h"
#include "phy/frame.h"

namespace geosphere::link {

struct LinkScenario {
  phy::FrameConfig frame;
  double snr_db = 20.0;
  /// Per-frame SNR drawn uniformly from snr_db +/- jitter (the paper's
  /// "SNR range" methodology, Section 5.2).
  double snr_jitter_db = 0.0;
};

struct LinkStats {
  std::size_t frames = 0;
  std::size_t clients = 0;
  std::vector<std::size_t> client_frame_errors;
  std::size_t bit_errors = 0;
  std::size_t payload_bits = 0;
  /// CRC32-checked delivery accounting (the coded pipeline scores every
  /// (client, frame) against an emulated in-band FCS): counts of clean and
  /// failed deliveries, the payload bits of the clean ones, and the total
  /// airtime in OFDM symbol slots (all clients transmit concurrently, so
  /// one frame adds its symbol count once, not per client).
  std::size_t crc_frames_ok = 0;
  std::size_t crc_frames_error = 0;
  std::size_t delivered_payload_bits = 0;
  std::size_t ofdm_symbol_slots = 0;
  /// Aggregated detector counters. detection.preprocess_calls counts one
  /// per (frame, subcarrier) channel preparation; detection_calls counts
  /// per-received-vector solves -- their ratio is the per-frame
  /// amortization factor (= OFDM symbols per frame). A batched solve of N
  /// vectors counts as N detections (and one detection.batch_calls), so
  /// batched and per-vector runs report identical detection_calls and
  /// per-vector counters.
  DetectionStats detection;
  std::size_t detection_calls = 0;

  /// Associative, commutative merge of independently accumulated partials
  /// (all fields are integer counters), so a parallel run merged in any
  /// order is bit-identical to the sequential accumulation.
  LinkStats& operator+=(const LinkStats& o);

  double fer() const;                        ///< Mean FER across clients.
  std::vector<double> per_client_fer() const;
  double ber() const;
  /// FER by the CRC delivery criterion (counts CRC-colliding error
  /// patterns as delivered, like a real FCS would).
  double crc_fer() const;
  /// Measured goodput: CRC-clean payload bits over the simulated airtime.
  double goodput_mbps(double symbol_duration_s = 4e-6) const;
  /// The paper's complexity metric: average exact partial-Euclidean-
  /// distance computations per subcarrier use (Section 5.3).
  double avg_ped_per_subcarrier() const;
  double avg_visited_nodes_per_subcarrier() const;
};

class LinkSimulator {
 public:
  /// `channel.num_tx()` defines the number of single-antenna clients; the
  /// detector passed to run() must be configured for the same QAM order as
  /// `scenario.frame`. The caller keeps `channel` alive for the
  /// simulator's lifetime (e.g. sim::Engine's channel cache does).
  LinkSimulator(const channel::ChannelModel& channel, LinkScenario scenario);

  /// Creates and owns the channel described by `spec` (ChannelSpec
  /// registry form) for `clients` single-antenna clients and `antennas`
  /// AP antennas -- the declarative route: a scenario is fully described
  /// by strings and numbers, no hand-constructed model needed.
  LinkSimulator(const channel::ChannelSpec& spec, std::size_t clients,
                std::size_t antennas, LinkScenario scenario);

  /// Simulates ONE independent frame (fresh channel, payloads and noise,
  /// all drawn from `rng`) and accumulates into `stats`. This is the unit
  /// of parallelism: feed it Rng::for_frame(seed, frame_index) and the
  /// frame's result depends only on (seed, frame_index, mode).
  ///
  /// The frame goes through a call-local FrameReceiver, which throws
  /// std::invalid_argument when the detector does not match the frame's
  /// QAM order or, in DecisionMode::kSoft, has no soft() interface. Soft
  /// decisions are the full-system version of the paper's Section 7
  /// extension.
  void simulate_frame(Detector& detector, DecisionMode mode, Rng& rng,
                      LinkStats& stats) const;

  /// Simulates `frames` independent frames with counter-based per-frame
  /// seeding (frame f uses Rng::for_frame(seed, f)) and accumulates link
  /// statistics. sim::Engine::run_link with the same seed and mode is
  /// bit-identical to this for any thread count.
  LinkStats run(Detector& detector, DecisionMode mode, std::size_t frames,
                std::uint64_t seed) const;

  const LinkScenario& scenario() const { return scenario_; }
  const channel::ChannelModel& channel() const { return *channel_; }

  /// Prepares an empty accumulator for this link (sets clients and the
  /// per-client error counters) or validates one that is already in use.
  void init_stats(LinkStats& stats) const;

 private:
  /// Set only by the spec constructor; shared (not unique) so simulators
  /// stay copyable -- the engine keeps them in plain vectors.
  std::shared_ptr<const channel::ChannelModel> owned_;
  const channel::ChannelModel* channel_;
  LinkScenario scenario_;
  phy::FrameCodec codec_;
};

/// Strategy for running a batch of frames through a detector described by
/// `spec` (created for the scenario's constellation, run in the spec's
/// decision mode). The link-layer helpers (best_rate, find_snr_for_fer)
/// take one of these so sim::Engine can inject a thread-pooled runner
/// without the link layer knowing about threads; the default runs
/// sequentially via LinkSimulator::run.
using FrameBatchRunner = std::function<LinkStats(
    const LinkSimulator&, const DetectorSpec&, std::size_t frames, std::uint64_t seed)>;

/// The default single-threaded FrameBatchRunner.
FrameBatchRunner sequential_runner();

}  // namespace geosphere::link
