// Link workloads: LinkSimulator::simulate_frame over a fixed, seed-derived
// frame set (frame f draws from Rng::for_frame(seed, f)), repeated pass
// after pass for the run's duration.
//
// Untraced passes call simulate_frame and read the clock once per frame.
// The traced replay performs the same frame through the public call of each
// layer -- the steps simulate_frame takes, in its RNG draw order -- with one
// span per call, and must reproduce the untraced LinkStats exactly.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "channel/noise.h"
#include "channel/spec.h"
#include "detect/spec.h"
#include "link/coded_pipeline.h"
#include "link/link_simulator.h"
#include "replay.h"

namespace perfbench {

namespace {

using namespace geosphere;

struct LinkWorkload {
  const char* name;
  const char* detector;
  unsigned qam;
  phy::ViterbiImpl viterbi;
  double snr_db;
  double jitter_db;
  std::size_t payload_bytes;
  std::size_t frames;  ///< Frames per pass (the fixed input set).
};

constexpr std::size_t kClients = 4;
constexpr std::size_t kAntennas = 4;
constexpr std::size_t kWarmupFrames = 8;
/// Frames replayed through the traced path in an untraced run, as its
/// correctness check.
constexpr std::size_t kCheckFrames = 16;

const LinkWorkload kLinkWorkloads[] = {
    {"link-hard", "geosphere", 64, phy::ViterbiImpl::kDouble, 22.0, 5.0, 500, 600},
    {"link-soft", "soft-geosphere-sts", 16, phy::ViterbiImpl::kQuantized, 16.0, 5.0, 100, 900},
};

const LinkWorkload* find(const std::string& name) {
  for (const LinkWorkload& w : kLinkWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

link::LinkScenario scenario_of(const LinkWorkload& w) {
  link::LinkScenario s;
  s.frame.qam_order = w.qam;
  s.frame.payload_bytes = w.payload_bytes;
  s.frame.set_code(coding::CodeSpec::parse("1/2"));
  s.frame.viterbi = w.viterbi;
  s.snr_db = w.snr_db;
  s.snr_jitter_db = w.jitter_db;
  return s;
}

/// The system under test, as a user of the library builds it.
struct LinkSystem {
  link::LinkSimulator sim;
  std::unique_ptr<Detector> detector;
  DecisionMode mode;

  explicit LinkSystem(const LinkWorkload& w)
      : sim(channel::ChannelSpec::parse("rayleigh"), kClients, kAntennas, scenario_of(w)) {
    const DetectorSpec spec = DetectorSpec::parse(w.detector);
    detector = spec.create(Constellation::qam(w.qam));
    mode = spec.decision();
  }
};

/// One untraced pass: frames [0, count) through simulate_frame, one clock
/// read per frame. Returns the pass wall time; per-frame times go to
/// `frame_ns`, and the stats after kCheckFrames frames to `prefix`.
std::int64_t untraced_pass(LinkSystem& sys, std::uint64_t seed, std::size_t count,
                           link::LinkStats& stats, link::LinkStats* prefix,
                           std::vector<double>& frame_ns) {
  stats = link::LinkStats{};
  sys.sim.init_stats(stats);
  const std::int64_t t_first = now_ns();
  std::int64_t t_prev = t_first;
  for (std::size_t f = 0; f < count; ++f) {
    Rng rng = Rng::for_frame(seed, f);
    sys.sim.simulate_frame(*sys.detector, sys.mode, rng, stats);
    const std::int64_t t = now_ns();
    frame_ns.push_back(static_cast<double>(t - t_prev));
    t_prev = t;
    if (prefix != nullptr && f + 1 == kCheckFrames) *prefix = stats;
  }
  return t_prev - t_first;
}

/// Replays frames [0, count) through each layer's public API, recording
/// spans into `tr`. Mirrors simulate_frame's RNG draw order exactly.
class LinkReplay {
 public:
  LinkReplay(const LinkWorkload& w, LinkSystem& sys)
      : sys_(sys), codec_(scenario_of(w).frame), scenario_(scenario_of(w)) {}

  void pass(std::uint64_t seed, std::size_t count, Tracer& tr, link::LinkStats& stats) {
    stats = link::LinkStats{};
    sys_.sim.init_stats(stats);
    for (std::size_t f = 0; f < count; ++f) frame(seed, f, tr, stats);
  }

 private:
  void frame(std::uint64_t seed, std::size_t f, Tracer& tr, link::LinkStats& stats) {
    const auto id = static_cast<std::uint32_t>(f);
    const channel::ChannelModel& chan = sys_.sim.channel();
    const std::size_t syms = codec_.ofdm_symbols_per_frame();
    const bool soft = sys_.mode == DecisionMode::kSoft;
    const Scope root(tr, Stage::kFrame, id);

    tr.begin(Stage::kSchedule, id);
    Rng rng = Rng::for_frame(seed, f);
    tr.end();
    tr.begin(Stage::kDraw, id);
    frame_.link = chan.draw_link(rng, scenario_.frame.data_subcarriers);
    tr.end();
    const double jitter = scenario_.snr_jitter_db;
    const double snr_db = scenario_.snr_db + (jitter > 0.0 ? rng.uniform(-jitter, jitter) : 0.0);
    frame_.n0 = channel::noise_variance_for_snr_db(snr_db);
    draw_tx(codec_, rng, chan.num_tx(), chan.num_rx(), soft, frame_, tr, id);

    stats.detection_calls += detector_.detect(*sys_.detector, soft, chan.num_rx(), syms, frame_,
                                              stats.detection, tr, id);
    {
      const Scope s(tr, Stage::kDecode, id);
      if (soft)
        pipeline_.decode_frame_soft(codec_, frame_.rx_conf, syms, frame_.tx, results_);
      else
        pipeline_.decode_frame_hard(codec_, frame_.rx, syms, frame_.tx, results_);
    }
    for (std::size_t k = 0; k < results_.size(); ++k) {
      const link::StreamDecodeResult& r = results_[k];
      stats.bit_errors += r.bit_errors;
      stats.payload_bits += r.payload_bits;
      stats.client_frame_errors[k] += r.bit_errors != 0 ? 1 : 0;
      if (r.crc_ok) {
        ++stats.crc_frames_ok;
        stats.delivered_payload_bits += r.payload_bits;
      } else {
        ++stats.crc_frames_error;
      }
    }
    stats.ofdm_symbol_slots += syms;
    ++stats.frames;
  }

  LinkSystem& sys_;
  phy::FrameCodec codec_;
  link::LinkScenario scenario_;
  ReplayFrame frame_;
  FrameDetector detector_;
  link::CodedPipeline pipeline_;
  std::vector<link::StreamDecodeResult> results_;
};

/// First differing LinkStats field, or "" when identical.
std::string diff(const link::LinkStats& a, const link::LinkStats& b) {
#define PERFBENCH_CMP(field) \
  if (a.field != b.field) return #field;
  PERFBENCH_CMP(frames)
  PERFBENCH_CMP(clients)
  PERFBENCH_CMP(client_frame_errors)
  PERFBENCH_CMP(bit_errors)
  PERFBENCH_CMP(payload_bits)
  PERFBENCH_CMP(crc_frames_ok)
  PERFBENCH_CMP(crc_frames_error)
  PERFBENCH_CMP(delivered_payload_bits)
  PERFBENCH_CMP(ofdm_symbol_slots)
  PERFBENCH_CMP(detection_calls)
#undef PERFBENCH_CMP
  return diff_detection(a.detection, b.detection);
}

/// Invariants any correct link run satisfies, whatever the channel did.
void check_sane(const LinkWorkload& w, const link::LinkStats& s, Result& r) {
  const std::size_t streams = s.frames * s.clients;
  std::size_t frame_errors = 0;
  for (const std::size_t e : s.client_frame_errors) frame_errors += e;
  if (s.crc_frames_ok + s.crc_frames_error != streams)
    r.fail("CRC verdicts do not cover every stream");
  if (s.payload_bits != streams * w.payload_bytes * 8)
    r.fail("payload bit count does not match the frames decoded");
  // A stream with bit errors must fail its CRC (a 2^-32 collision aside),
  // and a clean one must pass it.
  if (frame_errors != s.crc_frames_error)
    r.fail("CRC verdicts disagree with the exact bit-error count");
}

}  // namespace

bool is_link_workload(const std::string& name) { return find(name) != nullptr; }

Result run_link(const Options& opt) {
  const LinkWorkload& w = *find(opt.workload);
  Result r;

  // Set-up: build the system and run the warm-up frames, several times.
  std::unique_ptr<LinkSystem> sys;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    sys = std::make_unique<LinkSystem>(w);
    link::LinkStats warm;
    std::vector<double> ignored;
    untraced_pass(*sys, kWarmupSeed, kWarmupFrames, warm, nullptr, ignored);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Untraced passes; a traced run spends half its time on each side.
  const double budget_ns = (opt.trace ? 0.5 : 1.0) * opt.seconds * 1e9;
  std::vector<std::vector<double>> per_pass_ns;
  std::vector<double> pass_ns;
  link::LinkStats first;
  link::LinkStats prefix;
  while (another_pass(pass_ns, budget_ns)) {
    link::LinkStats stats;
    std::vector<double> ns;
    ns.reserve(w.frames);
    const std::int64_t wall = untraced_pass(*sys, opt.seed, w.frames, stats,
                                            pass_ns.empty() ? &prefix : nullptr, ns);
    pass_ns.push_back(static_cast<double>(wall));
    per_pass_ns.push_back(std::move(ns));
    if (pass_ns.size() == 1) {
      first = stats;
    } else if (const std::string d = diff(first, stats); !d.empty()) {
      r.fail("untraced passes disagree on LinkStats." + d);
    }
  }
  r.attempted = w.frames * pass_ns.size();
  check_sane(w, first, r);

  // Replay fidelity gate: the traced replay must reproduce LinkStats bit
  // for bit -- over every frame in a traced run, over a prefix otherwise.
  LinkReplay replay(w, *sys);
  Tracer tr;
  if (!opt.trace) {
    link::LinkStats replayed;
    replay.pass(opt.seed, kCheckFrames, tr, replayed);
    if (const std::string d = diff(prefix, replayed); !d.empty())
      r.fail("traced replay diverged from simulate_frame on LinkStats." + d);

    // Every frame's best time over the passes: throughput from their sum,
    // latency percentiles from the samples themselves.
    const std::vector<double> best = best_unit_ns(per_pass_ns);
    double best_pass_ns = 0.0;
    for (const double ns : best) best_pass_ns += ns;
    const double fps = static_cast<double>(w.frames) / (best_pass_ns / 1e9);
    r.add("frames_per_s", fps, "1/s");
    r.add("ttis_per_s", fps, "1/s");  // A link cell sends one frame per TTI.
    r.add("frame_latency_p50_ms", percentile(best, 0.5) / 1e6, "ms");
    r.add("frame_latency_p90_ms", percentile(best, 0.9) / 1e6, "ms");
    r.add("goodput_mbps", first.goodput_mbps(), "Mbit/s");
    r.add("setup_s", median(setup_s), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return r;
  }

  TracedRun traced;
  while (another_pass(traced.pass_ns, budget_ns)) {
    tr.clear();
    link::LinkStats replayed;
    const std::int64_t t0 = now_ns();
    replay.pass(opt.seed, w.frames, tr, replayed);
    const std::int64_t wall = now_ns() - t0;
    if (const std::string d = diff(first, replayed); !d.empty())
      r.fail("traced replay diverged from simulate_frame on LinkStats." + d);
    traced.add_pass(tr.spans(), wall);
    LayerTotals& t = traced.totals;
    t.frames += replayed.frames;
    t.ttis += replayed.frames;
    t.detection += replayed.detection;
    t.detection_calls += replayed.detection_calls;
    t.user_frames += replayed.crc_frames_ok + replayed.crc_frames_error;
    t.user_frame_errors += replayed.crc_frames_error;
  }
  traced.finish(r, pass_ns, opt);
  return r;
}

}  // namespace perfbench
