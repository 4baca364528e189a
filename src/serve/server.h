// The streaming serving engine: a long-lived multi-cell pipeline on top of
// the batched detection hot path.
//
// Each TTI runs three phases over the cells of a ServeSpec:
//
//   schedule  -- per cell: traffic arrivals, user selection and rate
//                choice (serve::CellScheduler), then frame assembly (link
//                draw, then link::draw_streams: per-user encoding and
//                pre-drawn noise), parallelized across cells.
//   receive   -- each scheduled frame is one work item, fed through one
//                sim::ThreadPool dispatch: the worker's link::FrameReceiver
//                detects the frame and decodes every stream (one
//                prepare_batch, one batched solve per subcarrier, then
//                Viterbi and CRC), using per-worker cached detectors and
//                receivers.
//   deliver   -- cells in order on the calling thread: goodput/error
//                accounting and queue feedback. Delivery is the CRC
//                verdict: a stream whose CRC checks leaves the queue, a
//                failed one stays for retransmission.
//
// Determinism: every counter a serve run reports (goodput, errors, the
// scheduled-user log) is bit-identical for any thread count, because all
// randomness derives from Rng::derive_seed(seed, cell, tti, frame) and
// counter merges are associative integer sums. The per-frame LATENCY
// distribution (time from a TTI's receive dispatch to the frame being
// decoded) is the one host-dependent output and is reported separately
// through serve::LatencyRecorder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "detect/detector.h"
#include "link/frame_receiver.h"
#include "serve/latency.h"
#include "serve/scheduler.h"
#include "serve/spec.h"
#include "sim/thread_pool.h"

namespace geosphere::serve {

/// TTI duration used for goodput accounting (LTE-like 1 ms subframe):
/// goodput_mbps = delivered payload bits / (TTIs * this).
constexpr double kTtiDurationUs = 1000.0;

/// Deterministic per-cell counters: bit-identical for any thread count.
struct CellCounters {
  std::uint64_t ttis = 0;
  std::uint64_t arrivals = 0;          ///< Frames that entered the queues.
  std::uint64_t scheduled_frames = 0;  ///< MU-MIMO frames transmitted (TTIs with users).
  std::uint64_t scheduled_users = 0;   ///< Sum of per-TTI stream counts.
  std::uint64_t user_frames_ok = 0;    ///< Per-user frames decoded CRC-clean.
  std::uint64_t user_frames_error = 0;
  std::uint64_t bit_errors = 0;
  std::uint64_t payload_bits = 0;     ///< Attempted payload bits (ok + errored).
  std::uint64_t delivered_bits = 0;   ///< Payload bits of CRC-clean frames.
  std::uint64_t backlog_end = 0;      ///< Frames still queued after the last TTI.
  /// FNV-1a over the full schedule log (tti, stream count, user ids, QAM):
  /// one value that pins the entire scheduling trajectory.
  std::uint64_t schedule_hash = 14695981039346656037ull;
  DetectionStats detection;          ///< Summed detector counters.
  std::uint64_t detection_calls = 0; ///< Per-received-vector solves.

  /// Frame error rate over per-user frames (0 when nothing transmitted).
  double fer() const;
  /// Delivered payload bits per unit time, in Mbps.
  double goodput_mbps() const;

  /// Folds `value` into schedule_hash (FNV-1a, 64-bit).
  void hash_mix(std::uint64_t value);
};

/// One cell's full report: the spec it ran, its deterministic counters,
/// its (host-dependent) latency distribution and the scheduled-user log.
struct CellReport {
  CellSpec spec;
  CellCounters counters;
  LatencyRecorder latency;
  std::vector<CellSchedule> schedule_log;  ///< One entry per non-idle TTI.
};

struct ServeResult {
  std::vector<CellReport> cells;
  LatencyRecorder latency;  ///< All cells merged.
  std::size_t threads = 0;
  std::uint64_t ttis = 0;
  std::uint64_t seed = 0;
};

class Server {
 public:
  /// `threads` == 0 selects the hardware concurrency.
  explicit Server(ServeSpec spec, std::size_t threads = 0);

  /// Serves `ttis` TTIs from a fresh scheduler/queue state. Deterministic
  /// counters depend on (spec, ttis, seed) only.
  ServeResult run(std::uint64_t ttis, std::uint64_t seed);

  std::size_t threads() const { return pool_.size(); }
  const ServeSpec& spec() const { return spec_; }

 private:
  Detector& worker_detector(std::size_t worker, const DetectorSpec& spec,
                            unsigned qam_order);

  ServeSpec spec_;
  sim::ThreadPool pool_;
  /// Per-worker detector cache keyed on (spec text, QAM) -- same design as
  /// sim::Engine's: instances are stateful and per-thread, cached across
  /// TTIs and runs so the steady-state pipeline allocates nothing per TTI.
  std::vector<std::unordered_map<std::string, std::unique_ptr<Detector>>> detector_cache_;
  /// Per-worker receive workspaces, warm across TTIs and runs.
  std::vector<link::FrameReceiver> receivers_;
};

}  // namespace geosphere::serve
