// The parallel deterministic Monte-Carlo experiment engine. Every
// throughput / complexity / conditioning experiment in the repo runs
// through this: frames are distributed over a fixed thread pool, each
// frame's randomness is derived from (master seed, frame index) alone
// (Rng::for_frame), and partial statistics merge associatively -- so
// results are bit-identical for any thread count, including a direct
// sequential LinkSimulator::run with the same seed. Hard and soft
// decision detection share the same path: the DetectorSpec carries the
// decision mode and the engine dispatches through it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "channel/channel_model.h"
#include "channel/spec.h"
#include "coding/convolutional.h"
#include "detect/spec.h"
#include "link/link_simulator.h"
#include "link/rate_adapt.h"
#include "link/snr_search.h"
#include "sim/thread_pool.h"

namespace geosphere::sim {

/// A declarative Monte-Carlo sweep: detectors (registry names, see
/// DetectorSpec::parse) x code rates x SNR grid, with ideal rate
/// adaptation over `candidate_qams` at each point. One master seed covers
/// the whole sweep; each SNR point gets a derived seed, shared by every
/// detector AND every code at that point so comparisons are paired on
/// identical channel/noise draws (the paper's methodology, Section 5.2).
/// The per-point seeds depend only on (seed, SNR index) -- never on the
/// channel -- so sweeps that differ only in `channel` are paired too.
struct SweepSpec {
  std::vector<std::string> detectors;
  /// Code-rate axis (CodeSpec::parse forms: "none", "1/2", "2/3", "3/4").
  /// Every (detector, code) pair becomes a sweep cell at every SNR point.
  std::vector<std::string> codes = {"1/2"};
  /// Which Viterbi implementation the coded cells decode with (the double
  /// reference by default; kQuantized routes through the SIMD kernels).
  phy::ViterbiImpl viterbi = phy::ViterbiImpl::kDouble;
  /// The channel the whole sweep runs over (ChannelSpec::parse form, e.g.
  /// "indoor" or "kronecker:0.7") and its dimensions. With these a
  /// SweepSpec is a complete, serializable scenario description; the
  /// run_sweep(model, spec) overload ignores them.
  std::string channel = "rayleigh";
  std::size_t clients = 4;
  std::size_t antennas = 4;
  std::vector<double> snr_grid_db;
  std::vector<unsigned> candidate_qams = {4, 16, 64};
  std::size_t frames = 120;
  std::size_t payload_bytes = 500;
  double snr_jitter_db = 5.0;  ///< The paper's +/-5 dB SNR selection window.
  std::uint64_t seed = 1;
  /// Decision mode override for every detector in the sweep. Unset: each
  /// detector runs in its native mode ("soft-geosphere-sts" runs soft,
  /// everything else hard). Setting kSoft requires every detector to be
  /// soft-capable; kHard forces hard decisions everywhere.
  std::optional<DecisionMode> decision;
};

/// One (detector, code, SNR point) cell of a sweep.
struct SweepCell {
  std::string detector;
  /// Canonical ChannelSpec text of the sweep's channel; "custom" when the
  /// sweep ran over a caller-constructed model.
  std::string channel;
  DecisionMode decision = DecisionMode::kHard;
  double snr_db = 0.0;
  unsigned best_qam = 0;
  /// Canonical CodeSpec text of the cell's code rate.
  std::string code = "1/2";
  /// Numeric rate (information bits per coded bit; 1.0 for "none").
  double code_rate = 0.5;
  double throughput_mbps = 0.0;
  /// stats carries the coded counters too: stats.ber() is the coded BER,
  /// stats.crc_fer() the CRC-checked FER, stats.goodput_mbps() the
  /// measured goodput of the winning QAM.
  link::LinkStats stats;
};

class Engine {
 public:
  /// `threads` == 0 selects the hardware concurrency.
  explicit Engine(std::size_t threads = 0)
      : pool_(threads), detector_cache_(pool_.size()) {}

  std::size_t threads() const { return pool_.size(); }

  /// Parallel equivalent of `sim.run(*spec.create(c), spec.decision(),
  /// frames, seed)`: bit-identical to it for any thread count. Detector
  /// instances are per-worker (they are not thread-safe) and cached on
  /// (spec, constellation) across calls, so short batches skip setup.
  link::LinkStats run_link(const link::LinkSimulator& sim, const DetectorSpec& spec,
                           std::size_t frames, std::uint64_t seed);

  /// A FrameBatchRunner that dispatches onto this engine, for the
  /// link-layer helpers (best_rate, find_snr_for_fer).
  link::FrameBatchRunner runner();

  /// link::best_rate on this engine's runner(): the same branch-and-bound
  /// choice, bit for bit, with each simulated candidate's frames spread
  /// over the pool.
  link::RateChoice best_rate(const channel::ChannelModel& channel,
                             link::LinkScenario base, const DetectorSpec& spec,
                             std::size_t frames, std::uint64_t seed,
                             const std::vector<unsigned>& candidate_qams = {4, 16, 64});

  /// Thread-pooled SNR calibration (link::find_snr_for_fer semantics).
  double find_snr_for_fer(const channel::ChannelModel& channel, link::LinkScenario base,
                          const DetectorSpec& spec,
                          const link::SnrSearchConfig& config, std::uint64_t seed);

  /// Executes a declarative sweep. Cells are ordered SNR-major, then
  /// detector, then code (the spec's orders), `snr_grid_db.size() *
  /// detectors.size() * codes.size()` in total. The whole grid -- every
  /// (detector, code, SNR) cell, every rate-adaptation candidate, every
  /// frame -- is one flat work pool, so large sweeps use all cores even
  /// when a single cell would not; results remain bit-identical for any
  /// thread count. Every candidate is simulated (no pruning), and each
  /// cell's choice follows link::RateSelector's rule. A candidate QAM
  /// listed twice throws std::invalid_argument, like an empty code axis.
  std::vector<SweepCell> run_sweep(const channel::ChannelModel& channel,
                                   const SweepSpec& spec);

  /// Fully declarative sweep: the channel is resolved from spec.channel /
  /// spec.clients / spec.antennas through the engine's channel cache.
  /// Per-SNR-point seeds depend only on (spec.seed, SNR index), so sweeps
  /// differing only in channel stay paired point-for-point.
  std::vector<SweepCell> run_sweep(const SweepSpec& spec);

  /// The channel resolved from `spec` for the given dimensions, created
  /// on first use and cached across calls -- so spec-based runs skip
  /// repeated construction (notably trace file loads). Channel models are
  /// immutable and draw_link() is const, so one cached instance is safely
  /// shared by every worker; only detectors need per-worker instances.
  const channel::ChannelModel& channel(const channel::ChannelSpec& spec,
                                       std::size_t clients, std::size_t antennas);

  /// Runs body(i) for i in [0, n) across the pool; iterations must be
  /// independent. For experiment loops that are not frame batches (e.g.
  /// the conditioning experiment's link draws).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
    pool_.parallel_for(n, body);
  }

 private:
  /// The per-worker detector cache, keyed on (spec text, QAM order). Each
  /// worker only ever touches its own map, so no locking is needed; the
  /// cache persists across engine calls (Engine methods are not
  /// reentrant, like the pool they run on). Cached instances keep their
  /// workspaces -- including the prepared-channel state of the two-phase
  /// detect contract -- across frames and cells; that is safe because
  /// Detector::prepare() fully overwrites the stored channel, so reuse
  /// stays transparent.
  Detector& worker_detector(std::size_t worker, const DetectorSpec& spec,
                            unsigned qam_order);

  std::vector<SweepCell> run_sweep_impl(const channel::ChannelModel& channel,
                                        const SweepSpec& spec,
                                        const std::string& channel_label);

  ThreadPool pool_;
  std::vector<std::unordered_map<std::string, std::unique_ptr<Detector>>> detector_cache_;
  /// Spec-resolved channels, keyed on (canonical spec text, dimensions).
  /// Shared across workers (channels are immutable); populated only from
  /// the calling thread, so no locking -- like the pool, Engine methods
  /// are not reentrant.
  std::unordered_map<std::string, std::unique_ptr<const channel::ChannelModel>>
      channel_cache_;
};

}  // namespace geosphere::sim
