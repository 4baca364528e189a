#include "serve/server.h"

#include <atomic>
#include <chrono>
#include <map>
#include <stdexcept>
#include <utility>

#include "channel/noise.h"
#include "common/rng.h"

namespace geosphere::serve {

double CellCounters::fer() const {
  const std::uint64_t total = user_frames_ok + user_frames_error;
  return total == 0 ? 0.0
                    : static_cast<double>(user_frames_error) / static_cast<double>(total);
}

double CellCounters::goodput_mbps() const {
  // Payload bits per microsecond == Mbps.
  return ttis == 0 ? 0.0
                   : static_cast<double>(delivered_bits) /
                         (static_cast<double>(ttis) * kTtiDurationUs);
}

void CellCounters::hash_mix(std::uint64_t value) {
  // FNV-1a over the value's eight little-endian bytes.
  for (int b = 0; b < 8; ++b) {
    schedule_hash ^= (value >> (8 * b)) & 0xffull;
    schedule_hash *= 1099511628211ull;
  }
}

namespace {

/// One cell's frame in flight through a TTI: built by the schedule phase,
/// received (detected and decoded) by one worker, folded into the cell's
/// counters by the calling thread.
struct FrameJob {
  const phy::FrameCodec* codec = nullptr;  ///< nullptr: the cell is idle this TTI.
  link::DrawnFrame frame;
  std::vector<link::StreamDecodeResult> results;
  DetectionStats detection;
  std::uint64_t vectors = 0;
  std::uint64_t latency_ns = 0;
};

}  // namespace

Server::Server(ServeSpec spec, std::size_t threads)
    : spec_(std::move(spec)),
      pool_(threads),
      detector_cache_(pool_.size()),
      receivers_(pool_.size()) {
  if (spec_.cells.empty())
    throw std::invalid_argument("serve::Server: spec has no cells");
}

Detector& Server::worker_detector(std::size_t worker, const DetectorSpec& spec,
                                  unsigned qam_order) {
  auto& cache = detector_cache_[worker];
  const std::string key = spec.text() + "@" + std::to_string(qam_order);
  auto it = cache.find(key);
  if (it == cache.end())
    it = cache.emplace(key, spec.create(Constellation::qam(qam_order))).first;
  return *it->second;
}

ServeResult Server::run(std::uint64_t ttis, std::uint64_t seed) {
  const std::size_t ncells = spec_.cells.size();

  ServeResult result;
  result.threads = pool_.size();
  result.ttis = ttis;
  result.seed = seed;
  result.cells.resize(ncells);

  // Fresh queue/scheduler state per run: the deterministic outputs depend
  // on (spec, ttis, seed) only, never on what ran before.
  std::vector<CellScheduler> schedulers;
  schedulers.reserve(ncells);
  for (std::size_t c = 0; c < ncells; ++c) {
    result.cells[c].spec = spec_.cells[c];
    schedulers.emplace_back(spec_.cells[c], seed, c);
  }

  // Per-cell frame codecs, one per QAM order the rate adapter picks.
  std::vector<std::map<unsigned, phy::FrameCodec>> codecs(ncells);
  std::vector<FrameJob> jobs(ncells);
  std::vector<CellSchedule> scheds(ncells);

  for (std::uint64_t tti = 0; tti < ttis; ++tti) {
    // --- Phase 1 (schedule): arrivals, user selection, rate choice and
    // frame assembly, one cell per pool iteration. All randomness comes
    // from (seed, cell, tti)-derived streams, so the parallel order is
    // irrelevant to the result.
    pool_.parallel_for(ncells, [&](std::size_t c) {
      FrameJob& job = jobs[c];
      job.codec = nullptr;
      CellScheduler& sch = schedulers[c];
      const CellSpec& cs = sch.spec();
      scheds[c] = sch.schedule_tti(tti);
      const CellSchedule& sched = scheds[c];
      if (sched.users.empty()) return;  // Idle TTI: nothing queued.

      auto codec_it = codecs[c].find(sched.qam);
      if (codec_it == codecs[c].end()) {
        phy::FrameConfig cfg;
        cfg.qam_order = sched.qam;
        cfg.payload_bytes = cs.payload_bytes;
        cfg.set_code(coding::CodeSpec::parse(cs.code));
        cfg.viterbi = phy::ViterbiImpl::kQuantized;  // The batched int16 kernels;
                                                     // bit-identical across tiers.
        codec_it = codecs[c].emplace(sched.qam, phy::FrameCodec(cfg)).first;
      }
      job.codec = &codec_it->second;

      // The frame's channel, payloads and noise all come from one
      // (seed, cell, tti, frame)-derived stream -- frame 0, since each
      // cell-TTI transmits one jointly detected MU-MIMO frame. Draw order
      // matches LinkSimulator::simulate_frame without its SNR jitter: the
      // link, then draw_streams' payloads and symbol-major noise.
      Rng rng(Rng::derive_seed(seed, c, tti, 0));
      job.frame.link = sch.channel(sched.users.size())
                           .draw_link(rng, job.codec->config().data_subcarriers);
      job.frame.n0 = channel::noise_variance_for_snr_db(sched.snr_db);
      link::draw_streams(*job.codec, rng, job.frame);
    });

    // --- Phase 2 (receive): each scheduled frame is one work item, pulled
    // from a shared counter by every worker. The worker's FrameReceiver
    // detects the frame (one prepare_batch, one batched solve per
    // subcarrier) and decodes every stream. Frame latency runs from the
    // TTI's dispatch to the frame being decoded. Workers write only their
    // own jobs; the counters are integer sums folded below in cell order,
    // so they stay byte-identical across thread counts and kernel tiers.
    const auto t_start = std::chrono::steady_clock::now();
    std::atomic<std::size_t> next{0};
    pool_.run_on_workers([&](std::size_t w) {
      for (;;) {
        const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
        if (c >= ncells) break;
        FrameJob& job = jobs[c];
        if (job.codec == nullptr) continue;
        const DetectorSpec& spec = schedulers[c].detector();
        job.detection = DetectionStats{};
        job.vectors = receivers_[w].receive(
            worker_detector(w, spec, job.codec->config().qam_order), spec.decision(),
            *job.codec, job.frame, job.detection);
        job.results = receivers_[w].results();
        job.latency_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t_start)
                .count());
      }
    });

    // --- Phase 3 (deliver): deterministic bookkeeping, cells in order on
    // the calling thread. The schedule hash covers every TTI (idle ones
    // included) so it pins the full scheduling trajectory. A stream is
    // delivered when its CRC checks; a failed one stays queued for
    // retransmission.
    for (std::size_t c = 0; c < ncells; ++c) {
      CellReport& rep = result.cells[c];
      CellCounters& cc = rep.counters;
      const CellSchedule& sched = scheds[c];
      ++cc.ttis;
      cc.hash_mix(sched.tti);
      cc.hash_mix(sched.users.size());
      for (const std::size_t u : sched.users) cc.hash_mix(u);
      cc.hash_mix(sched.qam);
      const FrameJob& job = jobs[c];
      if (job.codec == nullptr) continue;
      ++cc.scheduled_frames;
      cc.scheduled_users += sched.users.size();
      rep.schedule_log.push_back(sched);
      cc.detection += job.detection;
      cc.detection_calls += job.vectors;
      rep.latency.record(job.latency_ns);
      for (std::size_t k = 0; k < job.results.size(); ++k) {
        const link::StreamDecodeResult& r = job.results[k];
        cc.bit_errors += r.bit_errors;
        cc.payload_bits += r.payload_bits;
        if (r.crc_ok) {
          ++cc.user_frames_ok;
          cc.delivered_bits += r.payload_bits;
        } else {
          ++cc.user_frames_error;
        }
        schedulers[c].complete(sched.users[k], r.crc_ok);
      }
    }
  }

  for (std::size_t c = 0; c < ncells; ++c) {
    CellReport& rep = result.cells[c];
    rep.counters.arrivals = schedulers[c].arrivals();
    rep.counters.backlog_end = schedulers[c].backlog();
    result.latency.merge(rep.latency);
  }
  return result;
}

}  // namespace geosphere::serve
