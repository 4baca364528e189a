// Shared pieces of the perfbench binary: run options, the result record
// every workload fills, the exact-sample statistics, the per-layer metric
// set, and the host stamp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "detect/detector.h"
#include "trace.h"

namespace perfbench {

/// The largest share of the traced wall time the stage spans may leave
/// unaccounted (root-span self time plus gaps between roots) before a run
/// fails: the stages must explain at least 90% of the traced total.
constexpr double kUnaccountedTolerance = 0.10;

/// The trace file holds the spans of this many frames (link) or TTIs
/// (serve) from the start of the first traced pass.
constexpr std::size_t kTraceFileRoots = 100;

/// Set-up (construction + warm-up pass) is repeated this many times per
/// run and setup_s reports the median.
constexpr int kSetupRepeats = 3;

/// The warm-up pass draws its inputs from this fixed seed, so set-up does
/// the same work whatever --seed is.
constexpr std::uint64_t kWarmupSeed = 0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace JSON path (traced runs); empty: not written.
  std::string host;       ///< host_stamp(), copied into the trace file.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  /// Frames simulated (link) or served (serve) in the untraced passes. No
  /// operation is reported as failed: one that throws ends the run.
  std::uint64_t attempted = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< Why `correct` is false, one line each.
  std::vector<std::string> info;    ///< Extra "key: value" lines for the log.

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

/// What a traced replay measured, in the units the per-layer metrics need.
struct LayerTotals {
  SelfTimes self;                 ///< Summed over every traced pass.
  std::uint64_t frames = 0;       ///< MU-MIMO frames replayed (all passes).
  std::uint64_t ttis = 0;         ///< TTIs replayed (link: one frame per TTI).
  std::uint64_t probe_frames = 0; ///< Rate-probe frames run inside schedule_tti.
  std::uint64_t user_frames = 0;  ///< Per-stream frames decoded.
  std::uint64_t user_frame_errors = 0;  ///< ... that failed (CRC for link, bit check for serve).
  geosphere::DetectionStats detection;  ///< Over the frames above.
  std::uint64_t detection_calls = 0;
  double unaccounted_share = 0.0;  ///< Median over traced passes.
  double overhead = 0.0;           ///< Traced / untraced median pass wall - 1.
};

/// Collects the traced passes of one run and turns them into the per-layer
/// metrics, the stage-accounting gate and the trace file.
struct TracedRun {
  LayerTotals totals;  ///< Callers add frames, TTIs and counters per pass.
  std::vector<double> pass_ns;
  std::vector<double> unaccounted;
  std::vector<Span> kept;  ///< The trace file's spans, from the first pass.

  /// Folds one pass's spans (wall-clock `wall_ns`) into the totals.
  void add_pass(const std::vector<Span>& spans, std::int64_t wall_ns);
  /// Applies the accounting tolerance, appends every per-layer metric in
  /// BENCHMARK.json order and writes the trace file.
  void finish(Result& r, const std::vector<double>& untraced_pass_ns, const Options& opt);
};

/// Whether a run with `budget_ns` left for passes like those in `pass_ns`
/// should start another: always the first, then only while one more pass
/// of the median length still fits.
bool another_pass(const std::vector<double>& pass_ns, double budget_ns);

/// Each unit's (frame's or call's) best time over the passes: a unit is the
/// same work in every pass, so its fastest pass is the one least disturbed
/// by other tenants of the host. `per_pass[p][u]` is unit u's time in pass
/// p; the result has one exact, observed sample per unit.
std::vector<double> best_unit_ns(const std::vector<std::vector<double>>& per_pass);

/// Nearest-rank percentile of exact samples (sorts a copy): the value at
/// rank ceil(p * n), so it is always an observed sample, never above the max.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// One-line JSON object stamping the host: the active tier of the three
/// SIMD layers, compiler and flags, hardware_concurrency and a measured
/// effective-core count (N busy threads' speedup over one).
std::string host_stamp();

Result run_link(const Options& opt);
Result run_serve(const Options& opt);

bool is_link_workload(const std::string& name);
bool is_serve_workload(const std::string& name);

}  // namespace perfbench
