#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "coding/simd/dispatch.h"
#include "detect/prepare/simd/dispatch.h"
#include "detect/sphere/simd/dispatch.h"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(std::max<std::size_t>(rank, 1), v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool another_pass(const std::vector<double>& pass_ns, double budget_ns) {
  if (pass_ns.empty()) return true;
  double spent = 0.0;
  for (const double ns : pass_ns) spent += ns;
  return spent + median(pass_ns) <= budget_ns;
}

std::vector<double> best_unit_ns(const std::vector<std::vector<double>>& per_pass) {
  std::vector<double> best = per_pass.front();
  for (const auto& p : per_pass)
    for (std::size_t u = 0; u < best.size(); ++u) best[u] = std::min(best[u], p[u]);
  return best;
}

namespace {

void add_layer_metrics(Result& r, const LayerTotals& t) {
  const double frames = static_cast<double>(std::max<std::uint64_t>(t.frames, 1));
  const double ttis = static_cast<double>(std::max<std::uint64_t>(t.ttis, 1));
  const double vectors = static_cast<double>(std::max<std::uint64_t>(t.detection_calls, 1));
  const auto us_per_frame = [&](Stage s) {
    return static_cast<double>(t.self.self_ns[static_cast<std::size_t>(s)]) / 1e3 / frames;
  };
  r.add("channel.draw_us", us_per_frame(Stage::kDraw), "us");
  r.add("common.payload_us", us_per_frame(Stage::kPayload), "us");
  r.add("common.noise_us", us_per_frame(Stage::kNoise), "us");
  r.add("phy.encode_us", us_per_frame(Stage::kEncode), "us");
  r.add("detect.prepare_us", us_per_frame(Stage::kPrepare), "us");
  r.add("linalg.assemble_us", us_per_frame(Stage::kAssemble), "us");
  r.add("detect.solve_us", us_per_frame(Stage::kSolve), "us");
  r.add("detect.solve_ns_per_vector",
        static_cast<double>(t.self.self_ns[static_cast<std::size_t>(Stage::kSolve)]) / vectors,
        "ns");
  r.add("detect.llr_us", us_per_frame(Stage::kLlr), "us");
  r.add("link.decode_us", us_per_frame(Stage::kDecode), "us");
  r.add("serve.schedule_us_per_tti",
        static_cast<double>(t.self.self_ns[static_cast<std::size_t>(Stage::kSchedule)]) / 1e3 /
            ttis,
        "us");
  r.add("detect.vectors_per_frame", static_cast<double>(t.detection_calls) / frames, "count");
  r.add("detect.preprocess_per_frame",
        static_cast<double>(t.detection.preprocess_calls) / frames, "count");
  r.add("detect.visited_nodes_per_vector",
        static_cast<double>(t.detection.visited_nodes) / vectors, "count");
  r.add("detect.ped_per_vector", static_cast<double>(t.detection.ped_computations) / vectors,
        "count");
  r.add("detect.tree_searches_per_vector",
        static_cast<double>(t.detection.tree_searches) / vectors, "count");
  r.add("frame_error_ratio",
        static_cast<double>(t.user_frame_errors) /
            static_cast<double>(std::max<std::uint64_t>(t.user_frames, 1)),
        "ratio");
  r.add("serve.frames_per_tti", static_cast<double>(t.frames) / ttis, "count");
  r.add("serve.probe_frames_per_tti", static_cast<double>(t.probe_frames) / ttis, "count");
  r.add("trace.unaccounted_share", t.unaccounted_share, "ratio");
  r.add("trace.overhead", t.overhead, "ratio");
}

}  // namespace

void TracedRun::add_pass(const std::vector<Span>& spans, std::int64_t wall_ns) {
  SelfTimes pass;
  pass.add(spans);
  pass_ns.push_back(static_cast<double>(wall_ns));
  unaccounted.push_back(1.0 - static_cast<double>(pass.stage_total_ns()) /
                                  static_cast<double>(wall_ns));
  for (std::size_t i = 0; i < kStages; ++i) totals.self.self_ns[i] += pass.self_ns[i];
  if (!kept.empty()) return;
  // Keep the first kTraceFileRoots frames/TTIs: a whole pass can hold
  // half a million spans, more than a trace viewer wants to load.
  std::size_t roots = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == i && ++roots > kTraceFileRoots) break;
    kept.push_back(spans[i]);
  }
}

void TracedRun::finish(Result& r, const std::vector<double>& untraced_pass_ns,
                       const Options& opt) {
  totals.unaccounted_share = median(unaccounted);
  totals.overhead = *std::min_element(pass_ns.begin(), pass_ns.end()) /
                        *std::min_element(untraced_pass_ns.begin(), untraced_pass_ns.end()) -
                    1.0;
  if (totals.unaccounted_share > kUnaccountedTolerance) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "stages leave %.1f%% of the traced total unaccounted (tolerance %.0f%%)",
                  100.0 * totals.unaccounted_share, 100.0 * kUnaccountedTolerance);
    r.fail(buf);
  }
  add_layer_metrics(r, totals);
  if (opt.trace_out.empty()) return;
  const std::string other = "{\"workload\": \"" + opt.workload + "\", \"seed\": " +
                            std::to_string(opt.seed) + ", \"host\": " + opt.host + "}";
  if (!write_chrome_trace(opt.trace_out, kept, other))
    r.fail("cannot write the trace file " + opt.trace_out);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak when larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

namespace {

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// A fixed amount of dependent integer work (about 20 ms per 10M iterations
/// on a 2.1 GHz Xeon core).
std::uint64_t spin(std::uint64_t iters) {
  std::uint64_t x = 88172645463325252ull;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Effective cores: N threads each run the same spin as one thread did
/// alone; N * t1 / tN is how many of them really ran in parallel. Each side
/// takes the best of two tries so a momentary stall does not decide it.
double effective_cores(unsigned n) {
  constexpr std::uint64_t kIters = 10'000'000;
  std::atomic<std::uint64_t> sink{0};
  double t1 = 1e30;
  double tn = 1e30;
  for (int rep = 0; rep < 2; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    sink += spin(kIters);
    t1 = std::min(t1, seconds_since(t0));

    t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (unsigned i = 0; i < n; ++i) threads.emplace_back([&] { sink += spin(kIters); });
    for (std::thread& t : threads) t.join();
    tn = std::min(tn, seconds_since(t0));
  }
  return static_cast<double>(n) * t1 / tn;
}

}  // namespace

std::string host_stamp() {
  const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
#ifdef PERFBENCH_FLAGS
  const char* flags = PERFBENCH_FLAGS;
#else
  const char* flags = "unknown";
#endif
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"sphere_kernel\": \"%s\", \"prepare_kernel\": \"%s\", "
                "\"viterbi_kernel\": \"%s\", \"compiler\": \"%s\", \"flags\": \"%s\", "
                "\"hardware_concurrency\": %u, \"effective_cores\": %.2f}",
                geosphere::sphere::simd::active_kernel().name,
                geosphere::prepare::simd::active_kernel().name,
                geosphere::coding::simd::active_viterbi_kernel().name,
                compiler_id().c_str(), flags, hc, effective_cores(hc));
  return buf;
}

}  // namespace perfbench
