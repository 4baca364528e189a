// Soft-output parity and quality bench: soft-geosphere (repeated tree
// search, the test reference under tests/reference/) vs soft-geosphere-sts
// (single tree search) over a PAIRED coded MU-MIMO Monte-Carlo -- both
// detectors see the exact same channels, payloads and noise at every grid
// point, so any output difference is the detectors', not the workload's.
//
// Per (QAM, SNR) point it reports, for each detector:
//  * coded BER after soft Viterbi decoding of the detector's LLRs -- the
//    end-to-end quality of the soft output. The STS strategy is exact
//    (bit-identical LLRs), so ber_sts must EQUAL ber_repeated at every
//    point; CI diffs the committed JSON on exactly that.
//  * max |LLR_sts - LLR_repeated| over every transmitted bit of the point
//    (max_abs_llr_diff). The documented bound is 0.0 -- exact parity,
//    including under clamp saturation -- and CI asserts it.
//  * tree_searches and PED computations per received vector: the collapse
//    this bench exists to certify (1 + clients*Q searches per vector for
//    the repeated strategy, exactly 1.0 for STS) and what it buys.
//  * wall-clock ns per solve_soft (prepare excluded; single-threaded),
//    with sts_speedup = ns_repeated / ns_sts as the headline.
//
// Hand-timed standalone binary (no google-benchmark), like
// detector_latency: CI runs it with a small --frames and schema-checks
// the committed BENCH_soft_llr_quality.json. Shared flags --frames=N,
// --seed=N, --channel=SPEC; bench-local --json=PATH.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "channel/noise.h"
#include "coding/convolutional.h"
#include "coding/viterbi.h"
#include "common/rng.h"
#include "detect/sphere/simd/dispatch.h"
#include "reference/test_detector_spec.h"

namespace {

using namespace geosphere;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kClients = 4;
constexpr std::size_t kAntennas = 4;
/// Info bits per (stream, frame): 90 + 6 tail bits encode to 192 coded
/// bits, divisible by every registry Q (4, 6, 8) -- whole OFDM symbols.
constexpr std::size_t kInfoBits = 90;
constexpr std::uint64_t kSeed = 20140817;  ///< SIGCOMM'14 vintage.

/// One frame's receptions: everything both detectors consume, drawn once.
struct Frame {
  linalg::CMatrix h;
  std::vector<CVector> y;                    ///< One received vector per symbol slot.
  std::vector<BitVector> info;               ///< Per stream, the payload bits.
};

/// What one detector produced over one grid point.
struct DetectorRun {
  std::size_t bit_errors = 0;
  double total_ns = 0.0;        ///< Summed solve_soft wall-clock.
  std::size_t vectors = 0;      ///< solve_soft calls timed.
  DetectionStats stats;         ///< Summed over every solve_soft.
  std::vector<double> llrs;     ///< Every LLR of the point, in emission order.
};

struct PointRecord {
  unsigned qam = 0;
  double snr_db = 0.0;
  std::size_t frames = 0;
  std::size_t info_bits = 0;  ///< Total decoded info bits per detector.
  DetectorRun repeated;
  DetectorRun sts;
  double max_abs_llr_diff = 0.0;
};

double ber(const DetectorRun& r, std::size_t info_bits) {
  return info_bits ? static_cast<double>(r.bit_errors) / static_cast<double>(info_bits)
                   : 0.0;
}

double per_vector(std::uint64_t total, std::size_t vectors) {
  return vectors ? static_cast<double>(total) / static_cast<double>(vectors) : 0.0;
}

double ns_per_soft(const DetectorRun& r) { return per_vector(static_cast<std::uint64_t>(r.total_ns), r.vectors); }

/// Runs `spec` over the point's frames: prepare once per frame, one timed
/// solve_soft per received vector, soft-Viterbi decode per stream.
DetectorRun run_detector(const testing::TestDetectorSpec& spec, const Constellation& c,
                         const std::vector<Frame>& frames, double n0) {
  const coding::ViterbiDecoder dec;
  const unsigned q = c.bits_per_symbol();
  const auto det = spec.create(c);
  DetectorRun run;
  SoftDetectionResult out;
  std::vector<double> conf;
  std::vector<std::vector<double>> stream_conf(kClients);
  for (const Frame& f : frames) {
    det->prepare(f.h, n0);
    for (auto& sc : stream_conf) sc.clear();
    for (const CVector& y : f.y) {
      const auto t0 = Clock::now();
      det->soft()->solve_soft(y, out);
      run.total_ns += static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
      ++run.vectors;
      run.stats += out.stats;
      llrs_to_confidence(out.llrs, conf);
      for (std::size_t k = 0; k < kClients; ++k) {
        run.llrs.insert(run.llrs.end(), out.llrs.begin() + k * q,
                        out.llrs.begin() + (k + 1) * q);
        stream_conf[k].insert(stream_conf[k].end(), conf.begin() + k * q,
                              conf.begin() + (k + 1) * q);
      }
    }
    for (std::size_t k = 0; k < kClients; ++k) {
      const BitVector decoded = dec.decode_soft(stream_conf[k]);
      for (std::size_t i = 0; i < kInfoBits; ++i)
        run.bit_errors += decoded[i] != f.info[k][i];
    }
  }
  return run;
}

PointRecord run_point(unsigned order, double snr_db, std::size_t nframes,
                      std::uint64_t point_index) {
  const Constellation& c = Constellation::qam(order);
  const coding::ConvolutionalEncoder enc;
  const unsigned q = c.bits_per_symbol();
  const std::size_t nsym = coding::ConvolutionalEncoder::coded_length(kInfoBits) / q;
  const double n0 = channel::noise_variance_for_snr_db(snr_db);
  const channel::ChannelModel& model = bench::make_channel("rayleigh", kClients, kAntennas);

  // Draw the paired workload once; both detectors replay it verbatim.
  Rng rng(bench::point_seed(kSeed, point_index));
  std::vector<Frame> frames(nframes);
  std::vector<std::uint8_t> sym_bits(q);
  for (Frame& f : frames) {
    f.h = model.draw_flat(rng);
    std::vector<BitVector> coded(kClients);
    for (std::size_t k = 0; k < kClients; ++k) {
      f.info.push_back(rng.bits(kInfoBits));
      coded[k] = enc.encode(f.info.back());
    }
    for (std::size_t t = 0; t < nsym; ++t) {
      CVector x(kClients);
      for (std::size_t k = 0; k < kClients; ++k)
        x[k] = c.point(c.index_from_bits(&coded[k][t * q]));
      CVector y = f.h * x;
      channel::add_awgn(y, n0, rng);
      f.y.push_back(std::move(y));
    }
  }

  PointRecord rec;
  rec.qam = order;
  rec.snr_db = snr_db;
  rec.frames = nframes;
  rec.info_bits = nframes * kClients * kInfoBits;
  rec.repeated =
      run_detector(testing::TestDetectorSpec::parse("soft-geosphere"), c, frames, n0);
  rec.sts = run_detector(testing::TestDetectorSpec::parse("soft-geosphere-sts"), c, frames, n0);
  for (std::size_t i = 0; i < rec.repeated.llrs.size(); ++i)
    rec.max_abs_llr_diff =
        std::max(rec.max_abs_llr_diff, std::fabs(rec.sts.llrs[i] - rec.repeated.llrs[i]));
  return rec;
}

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
                const std::vector<PointRecord>& points) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  const auto& kern = geosphere::sphere::simd::active_kernel();
  std::fprintf(f, "{\n  \"bench\": \"soft_llr_quality\",\n  \"channel\": \"%s\",\n",
               json_escape(channel).c_str());
  std::fprintf(f,
               "  \"host\": {\"compiler\": \"%s\", \"flags\": \"%s\", "
               "\"geosphere_native\": %s, \"simd_tier\": \"%s\"},\n",
               json_escape(compiler_id()).c_str(), json_escape(build_flags()).c_str(),
               native_build() ? "true" : "false", kern.name);
  std::fprintf(f, "  \"dims\": \"%zux%zu\",\n  \"llr_diff_bound\": 0.0,\n  \"results\": [\n",
               kAntennas, kClients);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointRecord& p = points[i];
    std::fprintf(
        f,
        "    {\"qam\": %u, \"snr_db\": %.1f, \"frames\": %zu, \"info_bits\": %zu, "
        "\"ber_repeated\": %.8f, \"ber_sts\": %.8f, \"max_abs_llr_diff\": %.17g, "
        "\"searches_per_vector_repeated\": %.2f, \"searches_per_vector_sts\": %.2f, "
        "\"ped_per_vector_repeated\": %.1f, \"ped_per_vector_sts\": %.1f, "
        "\"ns_soft_repeated\": %.1f, \"ns_soft_sts\": %.1f, \"sts_speedup\": %.3f}%s\n",
        p.qam, p.snr_db, p.frames, p.info_bits, ber(p.repeated, p.info_bits),
        ber(p.sts, p.info_bits), p.max_abs_llr_diff,
        per_vector(p.repeated.stats.tree_searches, p.repeated.vectors),
        per_vector(p.sts.stats.tree_searches, p.sts.vectors),
        per_vector(p.repeated.stats.ped_computations, p.repeated.vectors),
        per_vector(p.sts.stats.ped_computations, p.sts.vectors), ns_per_soft(p.repeated),
        ns_per_soft(p.sts),
        ns_per_soft(p.sts) > 0.0 ? ns_per_soft(p.repeated) / ns_per_soft(p.sts) : 0.0,
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  geosphere::bench::init_common(argc, argv);

  std::string json_path = "BENCH_soft_llr_quality.json";
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--json=", 0) == 0) {
      json_path = token.substr(7);
    } else {
      std::fprintf(stderr, "error: unknown flag %s (supported: --json=PATH --frames=N"
                           " --seed=N --channel=SPEC)\n", token.c_str());
      return 1;
    }
  }

  const std::size_t nframes = geosphere::bench::frames_or(30);
  const std::string channel = geosphere::bench::channel_or("rayleigh");
  std::printf("soft LLR quality/parity on %s %zux%zu, %zu frames/point "
              "(%zu info bits/stream, rate-1/2 K=7)\n\n",
              channel.c_str(), kAntennas, kClients, nframes, kInfoBits);
  std::printf("%5s %7s %12s %12s %13s %11s %11s %11s %9s\n", "QAM", "SNR", "BER rep",
              "BER sts", "max|dLLR|", "srch/v rep", "srch/v sts", "ns/soft rep",
              "sts spd");

  const struct {
    unsigned qam;
    std::vector<double> snrs;
  } grid[] = {
      {16, {10.0, 14.0, 18.0, 22.0}},
      {64, {16.0, 20.0, 24.0, 28.0}},
  };

  std::vector<PointRecord> points;
  std::uint64_t index = 0;
  for (const auto& g : grid)
    for (const double snr : g.snrs) {
      points.push_back(run_point(g.qam, snr, nframes, index++));
      const PointRecord& p = points.back();
      std::printf("%5u %7.1f %12.6f %12.6f %13.3g %11.1f %11.1f %11.0f %8.2fx\n", p.qam,
                  p.snr_db, ber(p.repeated, p.info_bits), ber(p.sts, p.info_bits),
                  p.max_abs_llr_diff,
                  per_vector(p.repeated.stats.tree_searches, p.repeated.vectors),
                  per_vector(p.sts.stats.tree_searches, p.sts.vectors),
                  ns_per_soft(p.repeated),
                  ns_per_soft(p.sts) > 0.0 ? ns_per_soft(p.repeated) / ns_per_soft(p.sts)
                                           : 0.0);
    }

  write_json(json_path, channel, points);
  std::printf("\nwrote %s (%zu records)\n", json_path.c_str(), points.size());
  return 0;
}
