// perfbench: the end-to-end frame and serve benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Workloads: link-hard, link-soft (LinkSimulator::simulate_frame) and
// serve-adaptive, serve-short (serve::Server::run at one worker). One
// process, one worker thread. --trace 0 measures the end-to-end metrics;
// --trace 1 measures the untraced run and a traced replay of the same work
// and reports the per-layer metrics. Log lines go first; the last line of
// stdout is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when the outputs checked out, 1 when a check failed, 2 on a
// usage error or an exception (no result line then).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload link-hard|link-soft|serve-adaptive|serve-short "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n");
}

bool parse(int argc, char** argv, perfbench::Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      return false;
    }
  }
  return perfbench::is_link_workload(opt.workload) ||
         perfbench::is_serve_workload(opt.workload);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  perfbench::Result r;
  try {
    opt.host = perfbench::host_stamp();
    std::printf("host: %s\n", opt.host.c_str());
    std::fflush(stdout);
    r = perfbench::is_link_workload(opt.workload) ? perfbench::run_link(opt)
                                                  : perfbench::run_serve(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 2;
  }
  for (const std::string& line : r.info) std::printf("%s\n", line.c_str());
  for (const std::string& line : r.errors)
    std::fprintf(stderr, "perfbench: check failed: %s\n", line.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": 0, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return r.correct ? 0 : 1;
}
