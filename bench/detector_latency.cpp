// Engineering microbenchmark (not a paper figure): wall-clock latency of
// the three detection phases per detector and constellation on a 4x4
// Rayleigh channel at 25 dB. The prepare/solve split is reported as
// separate columns -- ns/prepare is the once-per-channel factorization
// cost (column ordering, QR, filter inversion) of a one-shot prepare(),
// which is a batch of one through the packed drivers, and ns/solve the
// per-received-vector cost of a one-shot solve(), which is likewise a
// batch of one through the detector's only solve routine -- so the table
// directly shows how much an OFDM frame saves by preparing each
// subcarrier once and solving it `ofdm_symbols` times ("frame speedup @4
// sym" = one-shot cost of 4 solves divided by prepare-once + 4 solves).
// The batched-prepare columns (ns/prep_b16 = per-channel cost of
// prepare_batch over 16 channels plus its 16 selects; prepx@16 =
// ns/prepare over that, i.e. 16 batches of one against one batch of 16)
// measure the lane packing of the SIMD factorization layer under
// src/detect/prepare/: the 16 channels ride as lanes through one
// Householder QR / Gram inversion. The batched-solve
// columns (ns/slv_b4, b16, b48 = per-vector cost of solve_batch at batch
// sizes 4/16/48; batchx@48 = ns/solve divided by the 48-column per-vector
// cost, i.e. 48 batches of one against one batch of 48) measure the
// amortization of the batched solve: one mat-mat product / warm workspace
// sweep per subcarrier instead of per-vector dispatch and scratch copies.
//
// Soft-capable detectors additionally report the per-vector LLR cost
// (ns/soft = solve_soft, a batch of one, ns/soft_b48 = per-vector cost of
// solve_soft_batch at batch 48) and srch/soft -- the measured
// tree_searches per solve_soft, which is the soft-output strategy in one
// number: 1 + streams*Q for the repeated-tree-search detector, exactly
// 1.0 for soft-geosphere-sts. Hard-only rows print '-' and record 0 in
// the JSON.
//
// Besides the human-readable table, the bench emits machine-readable
// BENCH_detector_latency.json (--json=PATH to relocate) with a "host"
// block (compiler, flags, GEOSPHERE_NATIVE, detected SIMD tier -- so
// committed baselines from different machines are comparable) and one
// record per (detector, QAM): {detector, qam, dims, ns_prepare,
// ns_prepare_b16, prepare_speedup16, prepare_speedup16_noise, ns_solve,
// ns_solve_b4, ns_solve_b16, ns_solve_b48, batch_speedup48,
// batch_speedup48_noise, ns_oneshot, ped_per_solve, ns_solve_soft,
// ns_solve_soft_b48, searches_per_soft} -- the perf trajectory; CI runs
// it with a small --budget-ms and validates the schema. Timings are
// median-of-5 interleaved passes after a warmup round; ratio columns
// within the surviving timer noise are flagged with '~'.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "channel/noise.h"
#include "common/rng.h"
#include "detect/spec.h"
#include "detect/sphere/simd/dispatch.h"

namespace {

using namespace geosphere;
using Clock = std::chrono::steady_clock;

/// Distinct channel draws per workload. With kBatchMax received vectors
/// per channel the vector population is kDraws * kBatchMax -- large enough
/// to sample the heavy tail of tree-search costs, small enough that the
/// working set stays cache-resident (capacity misses would otherwise
/// dominate the per-vector-vs-batched comparison with noise).
constexpr std::size_t kDraws = 16;
/// Batch sizes for the solve_batch columns (kBatchSizes.back() received
/// vectors are drawn per channel; smaller batches are leading sub-blocks).
constexpr std::size_t kBatchSizes[] = {4, 16, 48};
constexpr std::size_t kBatchMax = 48;

struct Workload {
  std::vector<linalg::CMatrix> h;
  /// Per channel, the kBatchMax received vectors individually -- the
  /// per-vector solve timing walks these so that ns/solve and the batched
  /// columns measure the exact same vector population.
  std::vector<std::vector<CVector>> y_cols;
  /// Per channel, one na x B batch per entry of kBatchSizes; the columns of
  /// the smaller batches are prefixes of the largest one.
  std::vector<std::vector<linalg::CMatrix>> y_batches;
  double n0 = 0.0;
};

const Workload& workload(unsigned order) {
  static std::map<unsigned, Workload> cache;
  const auto it = cache.find(order);
  if (it != cache.end()) return it->second;
  const Constellation& c = Constellation::qam(order);
  Workload w;
  w.n0 = channel::noise_variance_for_snr_db(25.0);
  // --seed rotates the workload; the default is reproducible run-to-run.
  // --channel swaps the 4x4 Rayleigh for any registered channel.
  Rng rng(order + bench::seed_or(0));
  const channel::ChannelModel& model = bench::make_channel("rayleigh", 4, 4);
  for (std::size_t i = 0; i < kDraws; ++i) {
    const auto h = model.draw_flat(rng);
    linalg::CMatrix yb(h.rows(), kBatchMax);
    std::vector<CVector> cols;
    cols.reserve(kBatchMax);
    for (std::size_t v = 0; v < kBatchMax; ++v) {
      CVector x(h.cols());
      for (auto& s : x)
        s = c.point(static_cast<unsigned>(rng.uniform_int(static_cast<int>(order))));
      CVector y = h * x;
      channel::add_awgn(y, w.n0, rng);
      yb.set_col(v, y);
      cols.push_back(std::move(y));
    }
    std::vector<linalg::CMatrix> batches;
    for (const std::size_t b : kBatchSizes)
      batches.push_back(yb.block(0, 0, yb.rows(), b));
    w.h.push_back(h);
    w.y_cols.push_back(std::move(cols));
    w.y_batches.push_back(std::move(batches));
  }
  return cache.emplace(order, std::move(w)).first->second;
}

/// One timeable metric: a callable plus its calibrated iteration count and
/// the statistics of its recorded passes.
struct Timed {
  static constexpr int kPasses = 5;

  std::function<void()> fn;
  std::size_t iters = 1;
  double ns = 0.0;         ///< Median-of-kPasses per-op estimate.
  double rel_noise = 0.0;  ///< Inter-quartile half-spread relative to the median.
  double samples[kPasses] = {};

  double time_once() const {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  }
};

/// Measures a group of related metrics with interleaved repetitions: each
/// metric's iteration count is first calibrated (doubling until the timed
/// region exceeds `budget_ms`), then -- after one discarded warmup round --
/// the group is timed over five round-robin passes and each metric keeps
/// the median. The interleaving matters on shared or frequency-scaled
/// hosts: a clock-speed drift between two back-to-back measurements would
/// otherwise corrupt every ratio derived from them (e.g. batch speedup =
/// ns/solve over ns/solve_b48); round-robin passes see the same machine
/// state to first order. The median (rather than the minimum of the old
/// min-of-3 scheme) is robust against scheduler interference in both
/// directions, and the surviving inter-quartile spread is reported as a
/// per-metric noise estimate so ratio columns can flag differences the
/// timer cannot resolve.
void time_group(double budget_ms, std::vector<Timed>& group) {
  for (Timed& t : group) {
    t.fn();  // Warm-up (first-touch allocations land outside the timing).
    t.iters = 1;
    while (t.time_once() < budget_ms * 1e6 && t.iters < (std::size_t{1} << 30))
      t.iters *= 2;
  }
  for (Timed& t : group) t.time_once();  // Discarded warmup round.
  for (int rep = 0; rep < Timed::kPasses; ++rep)
    for (Timed& t : group) t.samples[rep] = t.time_once();
  for (Timed& t : group) {
    std::sort(std::begin(t.samples), std::end(t.samples));
    const double median = t.samples[Timed::kPasses / 2];
    t.ns = median / static_cast<double>(t.iters);
    t.rel_noise = median > 0.0 ? (t.samples[3] - t.samples[1]) / (2.0 * median) : 0.0;
  }
}

/// Single-metric convenience form: median-of-5 ns/op plus relative noise.
struct TimedResult {
  double ns = 0.0;
  double rel_noise = 0.0;
};
TimedResult ns_per_op(double budget_ms, std::function<void()> fn) {
  std::vector<Timed> group;
  group.push_back({std::move(fn)});
  time_group(budget_ms, group);
  return {group.front().ns, group.front().rel_noise};
}

struct Measurement {
  std::string detector;
  unsigned qam = 0;
  std::string dims;
  double ns_prepare = 0.0;
  /// Per-channel cost of the batched-prepare path at batch 16: one
  /// prepare_batch over kDraws channels plus all kDraws selects, / kDraws.
  double ns_prepare_b16 = 0.0;
  double ns_solve = 0.0;
  /// Per-vector cost of solve_batch at each kBatchSizes entry.
  double ns_solve_batch[std::size(kBatchSizes)] = {};
  double ns_oneshot = 0.0;
  double ped_per_solve = 0.0;
  /// Soft-output columns (0 for hard-only detectors): per-vector
  /// solve_soft cost, per-vector solve_soft_batch cost at the largest
  /// batch, and measured tree_searches per solve_soft.
  double ns_solve_soft = 0.0;
  double ns_solve_soft_b48 = 0.0;
  double searches_per_soft = 0.0;
  /// Relative timer noise (inter-quartile half-spread / median) of the
  /// measurements entering each reported ratio.
  double noise_solve = 0.0;
  double noise_batch48 = 0.0;
  double noise_oneshot = 0.0;
  double noise_prepare = 0.0;
  double noise_prepare_b16 = 0.0;

  /// Per-vector solve throughput gain of the largest batch.
  double batch_speedup() const {
    const double b = ns_solve_batch[std::size(kBatchSizes) - 1];
    return b > 0.0 ? ns_solve / b : 0.0;
  }

  /// Combined relative noise of the batch-speedup ratio (first-order sum
  /// of the numerator's and denominator's relative spreads).
  double batch_speedup_noise() const { return noise_solve + noise_batch48; }

  /// Per-channel preparation throughput gain of the batched path at 16.
  double prepare_speedup() const {
    return ns_prepare_b16 > 0.0 ? ns_prepare / ns_prepare_b16 : 0.0;
  }

  double prepare_speedup_noise() const { return noise_prepare + noise_prepare_b16; }
};

/// Keeps results observable so the optimizer cannot delete the timed work.
std::uint64_t g_sink = 0;
void keep(std::uint64_t v) {
  g_sink += v;
  asm volatile("" : : "r"(g_sink) : "memory");
}

Measurement measure(const DetectorSpec& spec, unsigned order, const Workload& w,
                    double budget_ms) {
  const Constellation& c = Constellation::qam(order);
  Measurement m;
  m.detector = spec.text();
  m.qam = order;
  m.dims = std::to_string(w.h.front().rows()) + "x" + std::to_string(w.h.front().cols());

  // Phase 1 cost, per-channel vs batched, as one interleaved group: the
  // one-shot metric rotates through the channel set preparing each alone
  // (a batch of one); the batched metric factorizes all kDraws channels in
  // one prepare_batch and activates every slot (selects included -- that
  // is the full cost a frame pays), so prepx@16 = ns_prepare /
  // ns_prepare_b16 is robust against host clock drift.
  {
    const auto det = spec.create(c);
    const auto batch_det = spec.create(c);
    std::size_t i = 0;
    std::vector<Timed> group;
    group.push_back({[&] {
      det->prepare(w.h[i], w.n0);
      i = (i + 1) % kDraws;
    }});
    group.push_back({[&] {
      batch_det->prepare_batch(w.h.data(), kDraws, w.n0);
      for (std::size_t s = 0; s < kDraws; ++s) batch_det->select_prepared(s);
    }});
    time_group(budget_ms, group);
    m.ns_prepare = group[0].ns;
    m.noise_prepare = group[0].rel_noise;
    m.ns_prepare_b16 = group[1].ns / static_cast<double>(kDraws);
    m.noise_prepare_b16 = group[1].rel_noise;
  }

  // Phase 2 cost: one instance per channel, prepared outside the timed
  // region, so the loop is pure per-received-vector work.
  {
    std::vector<std::unique_ptr<Detector>> prepared;
    prepared.reserve(kDraws);
    for (std::size_t j = 0; j < kDraws; ++j) {
      prepared.push_back(spec.create(c));
      prepared.back()->prepare(w.h[j], w.n0);
    }
    // One-shot (batches of one) and batched dispatch, measured as one
    // interleaved group over the identical (channel, vector) population --
    // the batch-speedup ratio is then robust against host clock drift. The
    // per-vector walk aggregates the full DetectionStats exactly as a
    // per-vector caller must to match solve_batch's summed-stats output.
    DetectionResult out;
    DetectionStats agg;
    std::uint64_t peds = 0;
    std::uint64_t calls = 0;
    std::size_t i = 0;
    std::size_t v = 0;
    BatchResult batch;
    std::size_t batch_i[std::size(kBatchSizes)] = {};

    std::vector<Timed> group;
    group.push_back({[&] {
      prepared[i]->solve(w.y_cols[i][v], out);
      agg += out.stats;
      peds += out.stats.ped_computations;
      ++calls;
      keep(out.indices[0]);
      if (++v == kBatchMax) {
        v = 0;
        i = (i + 1) % kDraws;
      }
    }});
    for (std::size_t b = 0; b < std::size(kBatchSizes); ++b)
      group.push_back({[&, b] {
        std::size_t& j = batch_i[b];
        prepared[j]->solve_batch(w.y_batches[j][b], batch);
        keep(batch.indices[0]);
        j = (j + 1) % kDraws;
      }});

    // Soft-output metrics ride in the same interleaved group over the same
    // vector population, so ns/soft ratios across detectors share machine
    // state to first order. tree_searches is aggregated alongside the
    // timing: it is the strategy's headline counter (1 + streams*Q searches
    // per vector repeated vs exactly 1 single-tree-search).
    const bool has_soft = prepared.front()->soft() != nullptr;
    SoftDetectionResult soft_out;
    SoftBatchResult soft_batch;
    std::uint64_t soft_searches = 0;
    std::uint64_t soft_calls = 0;
    std::size_t si = 0;
    std::size_t sv = 0;
    std::size_t sbi = 0;
    if (has_soft) {
      group.push_back({[&] {
        prepared[si]->soft()->solve_soft(w.y_cols[si][sv], soft_out);
        soft_searches += soft_out.stats.tree_searches;
        ++soft_calls;
        keep(soft_out.indices[0]);
        if (++sv == kBatchMax) {
          sv = 0;
          si = (si + 1) % kDraws;
        }
      }});
      group.push_back({[&] {
        prepared[sbi]->soft()->solve_soft_batch(
            w.y_batches[sbi][std::size(kBatchSizes) - 1], soft_batch);
        keep(soft_batch.indices[0]);
        sbi = (sbi + 1) % kDraws;
      }});
    }
    time_group(budget_ms, group);

    m.ns_solve = group[0].ns;
    m.noise_solve = group[0].rel_noise;
    for (std::size_t b = 0; b < std::size(kBatchSizes); ++b)
      m.ns_solve_batch[b] = group[1 + b].ns / static_cast<double>(kBatchSizes[b]);
    m.noise_batch48 = group[std::size(kBatchSizes)].rel_noise;
    m.ped_per_solve = calls ? static_cast<double>(peds) / static_cast<double>(calls) : 0.0;
    if (has_soft) {
      const std::size_t base = 1 + std::size(kBatchSizes);
      m.ns_solve_soft = group[base].ns;
      m.ns_solve_soft_b48 =
          group[base + 1].ns / static_cast<double>(kBatchSizes[std::size(kBatchSizes) - 1]);
      m.searches_per_soft = soft_calls ? static_cast<double>(soft_searches) /
                                             static_cast<double>(soft_calls)
                                       : 0.0;
    }
    keep(agg.slicer_ops);
  }

  // Legacy one-shot cost (prepare + solve per received vector), the
  // pre-split behavior, for the amortization headline -- over the same
  // (channel, vector) population as the solve columns.
  {
    const auto det = spec.create(c);
    DetectionResult out;
    std::size_t i = 0;
    std::size_t v = 0;
    const TimedResult oneshot = ns_per_op(budget_ms, [&] {
      out = det->detect(w.y_cols[i][v], w.h[i], w.n0);
      keep(out.indices[0]);
      if (++v == kBatchMax) {
        v = 0;
        i = (i + 1) % kDraws;
      }
    });
    m.ns_oneshot = oneshot.ns;
    m.noise_oneshot = oneshot.rel_noise;
  }
  return m;
}

/// Formats a ratio column entry. A ratio whose deviation from 1.0 the
/// timer cannot resolve (|ratio - 1| <= combined relative noise of its
/// inputs) is flagged with '~' and, when below 1.0, clamped to 1.00 --
/// noise must not print as a phantom slowdown (or speedup). Genuine
/// regressions beyond the noise band still print raw.
std::string format_ratio(double ratio, double rel_noise) {
  char buf[32];
  const bool in_noise = ratio > 0.0 && std::fabs(ratio - 1.0) <= rel_noise;
  const double shown = in_noise && ratio < 1.0 ? 1.0 : ratio;
  std::snprintf(buf, sizeof buf, "%s%.2fx", in_noise ? "~" : "", shown);
  return buf;
}

/// Per-frame detection speedup of prepare-once vs one-shot when each
/// channel serves `syms` received vectors.
double frame_speedup(const Measurement& m, double syms) {
  const double split = m.ns_prepare + syms * m.ns_solve;
  const double oneshot = syms * m.ns_oneshot;
  return split > 0.0 ? oneshot / split : 0.0;
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) so a
/// --channel spec like trace:runs\x.geotrace cannot corrupt the output.
std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char ch : in) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

/// Compiler identification baked in at build time, so a committed baseline
/// records what produced it.
std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#elif defined(_MSC_VER)
  return "msvc " + std::to_string(_MSC_VER);
#else
  return "unknown";
#endif
}

/// The optimization flags this binary was built with (stamped by CMake; the
/// fallback covers ad-hoc compiles outside the build system).
std::string build_flags() {
#ifdef GEOSPHERE_BENCH_FLAGS
  return GEOSPHERE_BENCH_FLAGS;
#else
  return "unknown";
#endif
}

bool native_build() {
#ifdef GEOSPHERE_BENCH_NATIVE
  return GEOSPHERE_BENCH_NATIVE != 0;
#else
  return false;
#endif
}

void write_json(const std::string& path, const std::string& channel,
                const std::vector<Measurement>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  const auto& kern = geosphere::sphere::simd::active_kernel();
  std::fprintf(f, "{\n  \"bench\": \"detector_latency\",\n  \"channel\": \"%s\",\n",
               json_escape(channel).c_str());
  // Host metadata: committed baselines from different machines / build
  // configs are only comparable when the JSON says what produced them.
  std::fprintf(f,
               "  \"host\": {\"compiler\": \"%s\", \"flags\": \"%s\", "
               "\"geosphere_native\": %s, \"simd_tier\": \"%s\", "
               "\"simd_width\": %zu, \"hardware_concurrency\": %u},\n",
               json_escape(compiler_id()).c_str(), json_escape(build_flags()).c_str(),
               native_build() ? "true" : "false", kern.name, kern.width,
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"snr_db\": 25.0,\n  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    std::fprintf(f,
                 "    {\"detector\": \"%s\", \"qam\": %u, \"dims\": \"%s\", "
                 "\"ns_prepare\": %.1f, \"ns_prepare_b16\": %.1f, "
                 "\"prepare_speedup16\": %.3f, \"prepare_speedup16_noise\": %.3f, "
                 "\"ns_solve\": %.1f, "
                 "\"ns_solve_b4\": %.1f, \"ns_solve_b16\": %.1f, \"ns_solve_b48\": %.1f, "
                 "\"batch_speedup48\": %.3f, \"batch_speedup48_noise\": %.3f, "
                 "\"ns_oneshot\": %.1f, \"ped_per_solve\": %.2f, "
                 "\"ns_solve_soft\": %.1f, \"ns_solve_soft_b48\": %.1f, "
                 "\"searches_per_soft\": %.2f}%s\n",
                 json_escape(m.detector).c_str(), m.qam, json_escape(m.dims).c_str(),
                 m.ns_prepare, m.ns_prepare_b16, m.prepare_speedup(),
                 m.prepare_speedup_noise(), m.ns_solve, m.ns_solve_batch[0],
                 m.ns_solve_batch[1], m.ns_solve_batch[2], m.batch_speedup(),
                 m.batch_speedup_noise(), m.ns_oneshot, m.ped_per_solve, m.ns_solve_soft,
                 m.ns_solve_soft_b48, m.searches_per_soft,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  geosphere::bench::init_common(argc, argv);

  // Bench-local flags (everything shared is already stripped).
  double budget_ms = 20.0;
  std::string json_path = "BENCH_detector_latency.json";
  std::string detector_filter;  ///< Comma-separated spec allowlist; empty = all.
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--budget-ms=", 0) == 0) {
      budget_ms = std::atof(token.c_str() + 12);
      if (budget_ms <= 0.0) {
        std::fprintf(stderr, "error: --budget-ms expects a positive number\n");
        return 1;
      }
    } else if (token.rfind("--json=", 0) == 0) {
      json_path = token.substr(7);
    } else if (token.rfind("--detectors=", 0) == 0) {
      detector_filter = token.substr(12);
    } else {
      std::fprintf(stderr, "error: unknown flag %s (supported: --budget-ms=N --json=PATH"
                           " --detectors=a,b,... --seed=N --channel=SPEC)\n", token.c_str());
      return 1;
    }
  }

  struct Case {
    const char* spec;
    std::vector<unsigned> qams;
  };
  // ml is excluded (16M hypotheses per solve at 64-QAM 4x4). fsd runs the
  // full grid including 256-QAM: the root level fully expands to 256 paths
  // per vector (~15x the 16-QAM solve cost), which is exactly the
  // fixed-complexity trade the detector makes and worth tracking.
  const std::vector<Case> cases = {
      {"zf", {16, 64, 256}},        {"mmse", {16, 64, 256}},
      {"mmse-sic", {16, 64, 256}},  {"geosphere", {16, 64, 256}},
      {"geosphere-2dzz", {16, 64, 256}}, {"geosphere-sqrd", {16, 64, 256}},
      {"eth-sd", {16, 64, 256}},    {"shabany", {16, 64, 256}},
      {"rvd", {16, 64, 256}},       {"fsd", {16, 64, 256}},
      {"kbest:8", {16, 64, 256}},   {"hybrid", {16, 64, 256}},
      {"soft-geosphere", {16, 64, 256}},
      {"soft-geosphere-sts", {16, 64, 256}},
  };

  const std::string channel = geosphere::bench::channel_or("rayleigh");
  // Dims come off the resolved channel: a fixed-dims trace pins its own.
  const Workload& probe = workload(16);
  const auto& kern = geosphere::sphere::simd::active_kernel();
  std::printf("detector latency on %s %zux%zu @ 25 dB (%zu channel draws, %.0f ms/timer)\n",
              channel.c_str(), probe.h.front().rows(), probe.h.front().cols(), kDraws,
              budget_ms);
  std::printf("kernel tier: %s (width %zu), %s build\n\n", kern.name, kern.width,
              native_build() ? "native" : "portable");
  std::printf("%-18s %5s %11s %11s %9s %10s %10s %10s %10s %10s %11s %10s %13s %10s %11s"
              " %10s\n",
              "detector", "QAM", "ns/prepare", "ns/prep_b16", "prepx@16", "ns/solve",
              "ns/slv_b4", "ns/slv_b16", "ns/slv_b48", "batchx@48", "ns/oneshot",
              "PED/solve", "speedup@4sym", "ns/soft", "ns/soft_b48", "srch/soft");

  // Tokenize the allowlist once; exact spec matches only.
  std::vector<std::string> wanted_specs;
  for (std::size_t pos = 0; pos < detector_filter.size();) {
    const std::size_t comma = detector_filter.find(',', pos);
    const std::size_t end = comma == std::string::npos ? detector_filter.size() : comma;
    if (end > pos) wanted_specs.push_back(detector_filter.substr(pos, end - pos));
    pos = end + 1;
  }
  const auto selected = [&](const char* spec) {
    if (detector_filter.empty()) return true;
    for (const std::string& w : wanted_specs)
      if (w == spec) return true;
    return false;
  };

  std::vector<Measurement> results;
  for (const Case& c : cases) {
    if (!selected(c.spec)) continue;
    for (const unsigned qam : c.qams) {
      const Measurement m =
          measure(geosphere::DetectorSpec::parse(c.spec), qam, workload(qam), budget_ms);
      // The frame-speedup ratio compares oneshot against prepare+solve, so
      // its noise band combines those components' spreads. Soft columns
      // print '-' for hard-only detectors.
      char soft_cols[3][32];
      if (m.ns_solve_soft > 0.0) {
        std::snprintf(soft_cols[0], sizeof soft_cols[0], "%.0f", m.ns_solve_soft);
        std::snprintf(soft_cols[1], sizeof soft_cols[1], "%.0f", m.ns_solve_soft_b48);
        std::snprintf(soft_cols[2], sizeof soft_cols[2], "%.1f", m.searches_per_soft);
      } else {
        for (auto& col : soft_cols) std::snprintf(col, sizeof col, "-");
      }
      std::printf("%-18s %5u %11.0f %11.0f %9s %10.0f %10.0f %10.0f %10.0f %10s %11.0f"
                  " %10.1f %13s %10s %11s %10s\n",
                  m.detector.c_str(), m.qam, m.ns_prepare, m.ns_prepare_b16,
                  format_ratio(m.prepare_speedup(), m.prepare_speedup_noise()).c_str(),
                  m.ns_solve, m.ns_solve_batch[0], m.ns_solve_batch[1], m.ns_solve_batch[2],
                  format_ratio(m.batch_speedup(), m.batch_speedup_noise()).c_str(),
                  m.ns_oneshot, m.ped_per_solve,
                  format_ratio(frame_speedup(m, 4.0), m.noise_oneshot + m.noise_solve).c_str(),
                  soft_cols[0], soft_cols[1], soft_cols[2]);
      results.push_back(m);
    }
  }
  std::printf("\n~ = ratio within timer noise (clamped to 1.00 when below)\n");

  write_json(json_path, channel, results);
  std::printf("\nwrote %s (%zu records)\n", json_path.c_str(), results.size());
  return 0;
}
