// Serve workloads: Server::run with one worker over a fixed, seed-derived
// list of calls (call i serves `ttis` TTIs with seed derive_seed(seed, i)),
// repeated pass after pass for the run's duration.
//
// Untraced passes call Server::run and read the clock once per call. The
// traced replay serves the same calls through the public call of each layer
// -- CellScheduler, ChannelModel, Rng, FrameCodec, Detector -- in the
// order Server::run takes them at one worker, with one span per call, and
// must rebuild every CellCounters field (schedule_hash included) exactly.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "channel/noise.h"
#include "common/rng.h"
#include "detect/spec.h"
#include "phy/frame.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/spec.h"
#include "replay.h"

namespace perfbench {

namespace {

using namespace geosphere;

struct ServeWorkload {
  const char* name;
  const char* spec;
  std::uint64_t ttis;   ///< TTIs per Server::run call.
  std::size_t calls;    ///< Calls per pass (the fixed input set).
};

const ServeWorkload kServeWorkloads[] = {
    // The two-cell spec committed in BENCH_serving_latency.json: rate
    // adaptation (probe frames) on both cells, tree search and linear.
    {"serve-adaptive",
     "users=24,antennas=4,load=0.7,detector=geosphere,snr=22,qams=4|16|64;"
     "users=12,antennas=4,load=0.4,detector=mmse,snr=18,qams=4|16",
     8, 32},
    // Short frames at one QAM per cell: no probe, per-frame costs dominate.
    {"serve-short",
     "users=16,antennas=4,load=0.5,channel=freq-selective:8,detector=mmse-sic,snr=18,"
     "qams=16,payload=100;"
     "users=16,antennas=4,load=0.5,channel=freq-selective:8,detector=zf,snr=26,"
     "qams=64,payload=100",
     30, 40},
};

const ServeWorkload* find(const std::string& name) {
  for (const ServeWorkload& w : kServeWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::uint64_t call_seed(std::uint64_t seed, std::size_t call) {
  return Rng::derive_seed(seed, call);
}

using Counters = std::vector<serve::CellCounters>;

Counters counters_of(const serve::ServeResult& r) {
  Counters out;
  for (const serve::CellReport& c : r.cells) out.push_back(c.counters);
  return out;
}

/// First differing CellCounters field ("cell N: field"), or "" when equal.
std::string diff(const Counters& a, const Counters& b) {
  if (a.size() != b.size()) return "cell count";
  for (std::size_t c = 0; c < a.size(); ++c) {
    const serve::CellCounters& x = a[c];
    const serve::CellCounters& y = b[c];
    const std::string at = "cell " + std::to_string(c) + ": ";
#define PERFBENCH_CMP(field) \
  if (x.field != y.field) return at + #field;
    PERFBENCH_CMP(ttis)
    PERFBENCH_CMP(arrivals)
    PERFBENCH_CMP(scheduled_frames)
    PERFBENCH_CMP(scheduled_users)
    PERFBENCH_CMP(user_frames_ok)
    PERFBENCH_CMP(user_frames_error)
    PERFBENCH_CMP(bit_errors)
    PERFBENCH_CMP(payload_bits)
    PERFBENCH_CMP(delivered_bits)
    PERFBENCH_CMP(backlog_end)
    PERFBENCH_CMP(schedule_hash)
    PERFBENCH_CMP(detection_calls)
#undef PERFBENCH_CMP
    if (const std::string d = diff_detection(x.detection, y.detection); !d.empty()) return at + d;
  }
  return "";
}

/// Invariants any correct serve run satisfies.
void check_sane(const serve::ServeSpec& spec, std::uint64_t ttis, const Counters& cs,
                Result& r) {
  for (std::size_t c = 0; c < cs.size(); ++c) {
    const serve::CellCounters& x = cs[c];
    if (x.ttis != ttis) r.fail("cell " + std::to_string(c) + " served the wrong TTI count");
    if (x.user_frames_ok + x.user_frames_error != x.scheduled_users)
      r.fail("cell " + std::to_string(c) + ": decode verdicts do not cover every user frame");
    if (x.payload_bits != x.scheduled_users * spec.cells[c].payload_bytes * 8)
      r.fail("cell " + std::to_string(c) + ": payload bits do not match the frames decoded");
    if (x.scheduled_users > x.scheduled_frames * spec.cells[c].antennas)
      r.fail("cell " + std::to_string(c) + ": more streams than antennas");
  }
}

/// Server::run at one worker, rebuilt from the layers' public calls.
class ServeReplay {
 public:
  explicit ServeReplay(serve::ServeSpec spec) : spec_(std::move(spec)) {}

  /// Replays run(ttis, seed); TTI span ids start at `id_base`. Returns the
  /// per-cell counters; adds the rate-probe frames run to `probe_frames`.
  Counters run(std::uint64_t ttis, std::uint64_t seed, Tracer& tr, std::uint32_t id_base,
               std::uint64_t& probe_frames) {
    const std::size_t ncells = spec_.cells.size();
    Counters out(ncells);
    std::vector<serve::CellScheduler> schedulers;
    schedulers.reserve(ncells);
    for (std::size_t c = 0; c < ncells; ++c) schedulers.emplace_back(spec_.cells[c], seed, c);
    std::vector<std::map<unsigned, phy::FrameCodec>> codecs(ncells);
    jobs_.resize(ncells);

    for (std::uint64_t tti = 0; tti < ttis; ++tti) {
      const auto id = static_cast<std::uint32_t>(id_base + tti);
      const Scope root(tr, Stage::kTti, id);

      // Schedule + frame assembly, cells in order.
      for (std::size_t c = 0; c < ncells; ++c) {
        serve::CellScheduler& sch = schedulers[c];
        const serve::CellSpec& cs = sch.spec();
        Job& job = jobs_[c];
        {
          const Scope s(tr, Stage::kSchedule, id);
          job.sched = sch.schedule_tti(tti);
        }
        job.codec = nullptr;
        if (job.sched.users.empty()) continue;
        if (cs.qams.size() > 1) probe_frames += cs.qams.size();

        auto it = codecs[c].find(job.sched.qam);
        if (it == codecs[c].end()) {
          phy::FrameConfig cfg;
          cfg.qam_order = job.sched.qam;
          cfg.payload_bytes = cs.payload_bytes;
          cfg.set_code(coding::CodeSpec::parse(cs.code));
          cfg.viterbi = phy::ViterbiImpl::kQuantized;
          it = codecs[c].emplace(job.sched.qam, phy::FrameCodec(cfg)).first;
        }
        job.codec = &it->second;
        job.soft = sch.detector().decision() == DecisionMode::kSoft;
        job.frame.n0 = channel::noise_variance_for_snr_db(job.sched.snr_db);

        // Frame 0 of the (seed, cell, tti) stream: link, payloads, noise.
        Rng rng(Rng::derive_seed(seed, c, tti, 0));
        const std::size_t streams = job.sched.users.size();
        {
          const Scope s(tr, Stage::kDraw, id);
          job.frame.link =
              sch.channel(streams).draw_link(rng, job.codec->config().data_subcarriers);
        }
        draw_tx(*job.codec, rng, streams, cs.antennas, job.soft, job.frame, tr, id);
      }

      // Deterministic bookkeeping, as Server::run does it.
      for (std::size_t c = 0; c < ncells; ++c) {
        serve::CellCounters& cc = out[c];
        const serve::CellSchedule& sched = jobs_[c].sched;
        ++cc.ttis;
        cc.hash_mix(sched.tti);
        cc.hash_mix(sched.users.size());
        for (const std::size_t u : sched.users) cc.hash_mix(u);
        cc.hash_mix(sched.qam);
        if (jobs_[c].codec != nullptr) {
          ++cc.scheduled_frames;
          cc.scheduled_users += sched.users.size();
        }
      }

      for (std::size_t c = 0; c < ncells; ++c) {
        Job& job = jobs_[c];
        if (job.codec == nullptr) continue;
        Detector& det = detector(schedulers[c].detector(), job.sched.qam);
        out[c].detection_calls +=
            detector_.detect(det, job.soft, spec_.cells[c].antennas,
                             job.codec->ofdm_symbols_per_frame(), job.frame,
                             out[c].detection, tr, id);
      }

      // Deliver: decode each stream, count errors, feed the queues back.
      for (std::size_t c = 0; c < ncells; ++c) {
        const Job& job = jobs_[c];
        if (job.codec == nullptr) continue;
        serve::CellCounters& cc = out[c];
        const std::size_t syms = job.codec->ofdm_symbols_per_frame();
        for (std::size_t k = 0; k < job.frame.tx.size(); ++k) {
          {
            const Scope s(tr, Stage::kDecode, id);
            decoded_ = job.soft ? job.codec->decode_soft(job.frame.rx_conf[k], syms)
                                : job.codec->decode(job.frame.rx[k], syms);
          }
          std::uint64_t errors = 0;
          for (std::size_t b = 0; b < decoded_.size(); ++b)
            if (decoded_[b] != job.frame.tx[k].payload[b]) ++errors;
          cc.bit_errors += errors;
          cc.payload_bits += decoded_.size();
          if (errors == 0) {
            ++cc.user_frames_ok;
            cc.delivered_bits += decoded_.size();
          } else {
            ++cc.user_frames_error;
          }
          schedulers[c].complete(job.sched.users[k], errors == 0);
        }
      }
    }

    for (std::size_t c = 0; c < ncells; ++c) {
      out[c].arrivals = schedulers[c].arrivals();
      out[c].backlog_end = schedulers[c].backlog();
    }
    return out;
  }

 private:
  /// One cell's TTI: its schedule and, when users were scheduled, the codec
  /// of the chosen QAM (nullptr on an idle TTI) and the frame in flight.
  struct Job {
    serve::CellSchedule sched;
    const phy::FrameCodec* codec = nullptr;
    bool soft = false;
    ReplayFrame frame;
  };

  /// The one-worker detector cache, keyed like Server's (spec text @ QAM).
  Detector& detector(const DetectorSpec& spec, unsigned qam) {
    const std::string key = spec.text() + "@" + std::to_string(qam);
    auto it = cache_.find(key);
    if (it == cache_.end()) it = cache_.emplace(key, spec.create(Constellation::qam(qam))).first;
    return *it->second;
  }

  serve::ServeSpec spec_;
  std::unordered_map<std::string, std::unique_ptr<Detector>> cache_;
  std::vector<Job> jobs_;
  FrameDetector detector_;
  BitVector decoded_;
};

std::uint64_t frames_of(const Counters& cs) {
  std::uint64_t n = 0;
  for (const serve::CellCounters& c : cs) n += c.scheduled_frames;
  return n;
}

}  // namespace

bool is_serve_workload(const std::string& name) { return find(name) != nullptr; }

Result run_serve(const Options& opt) {
  const ServeWorkload& w = *find(opt.workload);
  const serve::ServeSpec spec = serve::ServeSpec::parse(w.spec);
  Result r;

  // Set-up: build the server and serve one warm-up call, several times.
  std::unique_ptr<serve::Server> server;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    server = std::make_unique<serve::Server>(spec, 1);
    server->run(w.ttis, kWarmupSeed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const double budget_ns = (opt.trace ? 0.5 : 1.0) * opt.seconds * 1e9;
  std::vector<Counters> first;  // Per call, from the first pass.
  std::vector<std::vector<double>> per_pass_ns;
  std::vector<double> pass_ns;
  serve::LatencyRecorder recorded;
  while (another_pass(pass_ns, budget_ns)) {
    std::vector<double> ns;
    const std::int64_t t_first = now_ns();
    std::int64_t t_prev = t_first;
    for (std::size_t i = 0; i < w.calls; ++i) {
      const serve::ServeResult res = server->run(w.ttis, call_seed(opt.seed, i));
      const std::int64_t t = now_ns();
      const Counters cs = counters_of(res);
      ns.push_back(static_cast<double>(t - t_prev));
      t_prev = t;
      recorded.merge(res.latency);
      if (pass_ns.empty()) {
        first.push_back(cs);
      } else if (const std::string d = diff(first[i], cs); !d.empty()) {
        r.fail("untraced passes disagree on CellCounters, " + d);
      }
    }
    pass_ns.push_back(static_cast<double>(t_prev - t_first));
    per_pass_ns.push_back(std::move(ns));
  }

  std::uint64_t pass_frames = 0;
  std::uint64_t delivered = 0;
  for (const Counters& cs : first) {
    check_sane(spec, w.ttis, cs, r);
    pass_frames += frames_of(cs);
    for (const serve::CellCounters& c : cs) delivered += c.delivered_bits;
  }
  r.attempted = pass_frames * pass_ns.size();
  char line[200];
  std::snprintf(line, sizeof line,
                "recorder (informational, bucketed): p50 %.1f us, p99 %.1f us, max %.1f us, "
                "%llu frames",
                recorded.percentile_ns(0.5) / 1e3, recorded.percentile_ns(0.99) / 1e3,
                static_cast<double>(recorded.max_ns()) / 1e3,
                static_cast<unsigned long long>(recorded.count()));
  r.info.push_back(line);

  ServeReplay replay(spec);
  Tracer tr;
  std::uint64_t probe_frames = 0;
  if (!opt.trace) {
    const Counters replayed = replay.run(w.ttis, call_seed(opt.seed, 0), tr, 0, probe_frames);
    if (const std::string d = diff(first[0], replayed); !d.empty())
      r.fail("traced replay diverged from Server::run, " + d);

    // Every call's best time over the passes: throughput from their sum,
    // per-frame latency from each call's time over the frames it served.
    const std::vector<double> best = best_unit_ns(per_pass_ns);
    double pass_s = 0.0;
    std::vector<double> frame_ms;
    for (std::size_t i = 0; i < w.calls; ++i) {
      pass_s += best[i] / 1e9;
      frame_ms.push_back(best[i] / 1e6 /
                         static_cast<double>(std::max<std::uint64_t>(frames_of(first[i]), 1)));
    }
    r.add("frames_per_s", static_cast<double>(pass_frames) / pass_s, "1/s");
    r.add("ttis_per_s", static_cast<double>(w.ttis * w.calls) / pass_s, "1/s");
    r.add("frame_latency_p50_ms", percentile(frame_ms, 0.5), "ms");
    r.add("frame_latency_p90_ms", percentile(frame_ms, 0.9), "ms");
    r.add("goodput_mbps",
          static_cast<double>(delivered) /
              (static_cast<double>(w.ttis * w.calls) * serve::kTtiDurationUs),
          "Mbit/s");
    r.add("setup_s", median(setup_s), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return r;
  }

  TracedRun traced;
  LayerTotals& t = traced.totals;
  while (another_pass(traced.pass_ns, budget_ns)) {
    tr.clear();
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < w.calls; ++i) {
      const auto id_base = static_cast<std::uint32_t>(i * w.ttis);
      const Counters replayed =
          replay.run(w.ttis, call_seed(opt.seed, i), tr, id_base, t.probe_frames);
      if (const std::string d = diff(first[i], replayed); !d.empty())
        r.fail("traced replay diverged from Server::run (call " + std::to_string(i) + "), " + d);
      t.frames += frames_of(replayed);
      for (const serve::CellCounters& c : replayed) {
        t.detection += c.detection;
        t.detection_calls += c.detection_calls;
        t.user_frames += c.user_frames_ok + c.user_frames_error;
        t.user_frame_errors += c.user_frames_error;
      }
    }
    const std::int64_t wall = now_ns() - t0;
    t.ttis += w.ttis * w.calls;
    traced.add_pass(tr.spans(), wall);
  }
  traced.finish(r, pass_ns, opt);
  return r;
}

}  // namespace perfbench
