// Coded-pipeline decoder bench: the quantized int16 batched Viterbi
// (coding/quantized_viterbi.h) vs the double-precision reference decoder
// over a PAIRED soft-input workload -- both decoders see the exact same
// noisy confidences at every grid point, so every BER difference is the
// quantization's, not the workload's.
//
// Per (code rate, SNR) point it reports:
//  * BER of the double reference and of the quantized decoder, plus their
//    absolute difference (ber_delta). The documented degradation bound is
//    kBerBound (see below); CI asserts every committed point stays inside
//    it, making "quantization costs at most this much BER" a regression-
//    checked contract rather than a README claim.
//  * wall-clock ns per decoded information bit for each decoder and the
//    headline quantized_speedup = ns_double / ns_quantized. The acceptance
//    floor asserted by CI on the committed JSON is >= 3x at every point
//    (the widest compiled kernel tier; the host block records which).
//  * a per-tier section timing every compiled-and-supported kernel tier
//    (scalar / avx2) on one fixed workload, so the ISA scaling of the
//    add-compare-select kernel is visible in the baseline.
//
// The workload is decoder-level on purpose: binary-input AWGN confidences
// (the exact posterior 1/(1+exp(-2y/sigma^2)) for BPSK at noise sigma),
// encoded with the (133,171) mother code and punctured per the rate under
// test, erasures reinserted at 0.5 -- the same soft-input contract the
// link layer's CodedPipeline feeds both decoders.
//
// Hand-timed standalone binary (no google-benchmark), like
// detector_latency: CI runs it with a small --frames and schema-checks
// the committed BENCH_coded_throughput.json. Shared flags --frames=N,
// --seed=N; bench-local --json=PATH.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "coding/convolutional.h"
#include "coding/puncture.h"
#include "coding/quantized_viterbi.h"
#include "coding/simd/dispatch.h"
#include "coding/viterbi.h"
#include "common/rng.h"

namespace {

using namespace geosphere;
using Clock = std::chrono::steady_clock;

/// Info bits per frame: long enough that traceback and renormalization
/// amortize like the link layer's frames, short enough for quick CI runs.
constexpr std::size_t kInfoBits = 1200;
constexpr std::uint64_t kSeed = 20140817;  ///< SIGCOMM'14 vintage.

/// The documented quantization cost: at every measured (rate, SNR) point
/// the quantized decoder's BER differs from the double reference by at
/// most this, absolute. README cites this bound; CI asserts it on the
/// committed JSON.
constexpr double kBerBound = 2e-3;

struct PointRecord {
  const char* code = "";
  double snr_db = 0.0;
  std::size_t frames = 0;
  std::size_t info_bits = 0;
  std::size_t errors_double = 0;
  std::size_t errors_quant = 0;
  double ns_double = 0.0;  ///< Total decode wall-clock, double reference.
  double ns_quant = 0.0;   ///< Total decode wall-clock, quantized kernels.
};

double ber(std::size_t errors, std::size_t bits) {
  return bits ? static_cast<double>(errors) / static_cast<double>(bits) : 0.0;
}

double ns_per_bit(double total_ns, std::size_t bits) {
  return bits ? total_ns / static_cast<double>(bits) : 0.0;
}

/// One frame's paired soft-input workload: the transmitted info bits and
/// the depunctured confidence stream both decoders consume.
struct Workload {
  std::vector<BitVector> info;
  std::vector<std::vector<double>> confidences;  ///< Mother-code length.
};

/// Binary-input AWGN at noise stddev `sigma`: confidence is the exact
/// bit posterior 1/(1+exp(-2y/sigma^2)) of the BPSK observation y.
Workload make_workload(coding::CodeRate rate, double sigma, std::size_t nframes,
                       std::uint64_t seed) {
  const coding::ConvolutionalEncoder enc;
  const coding::Puncturer punct(rate);
  const std::size_t coded_bits = coding::ConvolutionalEncoder::coded_length(kInfoBits);
  Workload w;
  w.info.reserve(nframes);
  w.confidences.reserve(nframes);
  Rng rng(seed);
  for (std::size_t f = 0; f < nframes; ++f) {
    w.info.push_back(rng.bits(kInfoBits));
    const BitVector sent = punct.puncture(enc.encode(w.info.back()));
    std::vector<double> received(sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      const double y = (sent[i] ? 1.0 : -1.0) + rng.gaussian(0.0, sigma);
      received[i] = 1.0 / (1.0 + std::exp(-2.0 * y / (sigma * sigma)));
    }
    w.confidences.push_back(punct.depuncture(received, coded_bits));
  }
  return w;
}

PointRecord run_point(const char* label, coding::CodeRate rate, double snr_db,
                      std::size_t nframes, std::uint64_t point_index) {
  // BPSK Es/N0: sigma = 10^(-snr/20) at unit signal power.
  const double sigma = std::pow(10.0, -snr_db / 20.0);
  const Workload w =
      make_workload(rate, sigma, nframes, bench::point_seed(kSeed, point_index));

  PointRecord rec;
  rec.code = label;
  rec.snr_db = snr_db;
  rec.frames = nframes;
  rec.info_bits = nframes * kInfoBits;

  const coding::ViterbiDecoder ref;
  coding::ViterbiWorkspace ref_ws;
  const coding::QuantizedViterbi quant;
  coding::QuantizedViterbiWorkspace quant_ws;
  BitVector out;
  for (std::size_t f = 0; f < nframes; ++f) {
    const std::vector<double>& conf = w.confidences[f];
    auto t0 = Clock::now();
    ref.decode_soft(conf.data(), conf.size(), ref_ws, out);
    rec.ns_double += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
    for (std::size_t i = 0; i < kInfoBits; ++i)
      rec.errors_double += out[i] != w.info[f][i];

    t0 = Clock::now();
    quant.decode_soft(conf.data(), conf.size(), quant_ws, out);
    rec.ns_quant += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
    for (std::size_t i = 0; i < kInfoBits; ++i)
      rec.errors_quant += out[i] != w.info[f][i];
  }
  return rec;
}

/// ns per info bit of the quantized decoder under one pinned kernel tier,
/// on a fixed rate-1/2 workload.
struct TierRecord {
  const char* name = "";
  double ns_per_info_bit = 0.0;
};

std::vector<TierRecord> run_tiers(std::size_t nframes) {
  const double sigma = std::pow(10.0, -5.0 / 20.0);
  const Workload w = make_workload(coding::CodeRate::kHalf, sigma, nframes,
                                   bench::point_seed(kSeed, 1000));
  std::vector<TierRecord> tiers;
  for (const auto* kernel : coding::simd::supported_viterbi_kernels()) {
    coding::simd::set_viterbi_kernel_override(kernel->name);
    const coding::QuantizedViterbi quant;
    coding::QuantizedViterbiWorkspace ws;
    BitVector out;
    const auto t0 = Clock::now();
    for (const auto& conf : w.confidences) quant.decode_soft(conf.data(), conf.size(), ws, out);
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
    coding::simd::set_viterbi_kernel_override(nullptr);
    tiers.push_back({kernel->name, ns_per_bit(ns, nframes * kInfoBits)});
  }
  return tiers;
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

void write_json(const std::string& path, const std::vector<PointRecord>& points,
                const std::vector<TierRecord>& tiers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"coded_throughput\",\n");
  std::fprintf(f,
               "  \"host\": {\"compiler\": \"%s\", \"flags\": \"%s\", "
               "\"geosphere_native\": %s, \"viterbi_tier\": \"%s\"},\n",
               json_escape(compiler_id()).c_str(), json_escape(build_flags()).c_str(),
               native_build() ? "true" : "false",
               coding::simd::active_viterbi_kernel().name);
  std::fprintf(f, "  \"info_bits_per_frame\": %zu,\n  \"ber_bound\": %.1e,\n",
               kInfoBits, kBerBound);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointRecord& p = points[i];
    const double nd = ns_per_bit(p.ns_double, p.info_bits);
    const double nq = ns_per_bit(p.ns_quant, p.info_bits);
    std::fprintf(f,
                 "    {\"code\": \"%s\", \"snr_db\": %.1f, \"frames\": %zu, "
                 "\"info_bits\": %zu, \"ber_double\": %.8f, \"ber_quantized\": %.8f, "
                 "\"ber_delta\": %.8f, \"ns_per_bit_double\": %.2f, "
                 "\"ns_per_bit_quantized\": %.2f, \"quantized_speedup\": %.3f}%s\n",
                 p.code, p.snr_db, p.frames, p.info_bits,
                 ber(p.errors_double, p.info_bits), ber(p.errors_quant, p.info_bits),
                 std::fabs(ber(p.errors_quant, p.info_bits) -
                           ber(p.errors_double, p.info_bits)),
                 nd, nq, nq > 0.0 ? nd / nq : 0.0, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"tiers\": [\n");
  for (std::size_t i = 0; i < tiers.size(); ++i)
    std::fprintf(f, "    {\"name\": \"%s\", \"ns_per_info_bit\": %.2f}%s\n",
                 tiers[i].name, tiers[i].ns_per_info_bit,
                 i + 1 < tiers.size() ? "," : "");
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  geosphere::bench::init_common(argc, argv);

  std::string json_path = "BENCH_coded_throughput.json";
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--json=", 0) == 0) {
      json_path = token.substr(7);
    } else {
      std::fprintf(stderr, "error: unknown flag %s (supported: --json=PATH --frames=N"
                           " --seed=N)\n", token.c_str());
      return 1;
    }
  }

  const std::size_t nframes = geosphere::bench::frames_or(60);
  std::printf("quantized vs double soft Viterbi, %zu frames/point, %zu info bits/frame, "
              "active tier %s\n\n",
              nframes, kInfoBits, geosphere::coding::simd::active_viterbi_kernel().name);
  std::printf("%5s %6s %12s %12s %12s %11s %11s %9s\n", "code", "SNR", "BER dbl",
              "BER quant", "|delta|", "ns/bit dbl", "ns/bit qnt", "speedup");

  const struct {
    const char* label;
    geosphere::coding::CodeRate rate;
    std::vector<double> snrs;
  } grid[] = {
      {"1/2", geosphere::coding::CodeRate::kHalf, {2.0, 4.0, 6.0}},
      {"2/3", geosphere::coding::CodeRate::kTwoThirds, {4.0, 6.0, 8.0}},
      {"3/4", geosphere::coding::CodeRate::kThreeQuarters, {5.0, 7.0, 9.0}},
  };

  std::vector<PointRecord> points;
  std::uint64_t index = 0;
  for (const auto& g : grid)
    for (const double snr : g.snrs) {
      points.push_back(run_point(g.label, g.rate, snr, nframes, index++));
      const PointRecord& p = points.back();
      const double nd = ns_per_bit(p.ns_double, p.info_bits);
      const double nq = ns_per_bit(p.ns_quant, p.info_bits);
      std::printf("%5s %6.1f %12.6f %12.6f %12.6f %11.2f %11.2f %8.2fx\n", p.code,
                  p.snr_db, ber(p.errors_double, p.info_bits),
                  ber(p.errors_quant, p.info_bits),
                  std::fabs(ber(p.errors_quant, p.info_bits) -
                            ber(p.errors_double, p.info_bits)),
                  nd, nq, nq > 0.0 ? nd / nq : 0.0);
    }

  const auto tiers = run_tiers(nframes);
  std::printf("\nkernel tiers (rate 1/2 @ 5.0 dB):\n");
  for (const auto& t : tiers)
    std::printf("  %-7s %8.2f ns/info bit\n", t.name, t.ns_per_info_bit);

  write_json(json_path, points, tiers);
  std::printf("\nwrote %s (%zu points, %zu tiers)\n", json_path.c_str(), points.size(),
              tiers.size());
  return 0;
}
