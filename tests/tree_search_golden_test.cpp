// Recorded counters and outputs of the enumerator-based tree searches.
//
// The sweep golden prints PED/sc to one decimal, the STS parity tests
// compare two detectors that share one enumerator, and the serve golden's
// only single-tree-search cell is 2x2. None of them would notice a search
// that computes a few PEDs more, or a 4-stream STS pruning radius that
// drifts. This test pins, per (detector, QAM), every DetectionStats field
// summed over a fixed input set and one 64-bit FNV-1a hash over every
// decided index and every LLR bit pattern, on every supported kernel tier.
//
// The inputs are seeded 4x4 Rayleigh channels at 8-41 dB. A sanity block
// checks that they reach the paths worth pinning: ML flips and counter-
// table writes in the single tree search, clamp-saturated LLRs, and
// geometric-pruning cuts.
//
// The values were recorded with the library before the enumerator and the
// STS radius were made incremental; an intended change to a search's
// counters re-records them from the failure messages, which print each
// cell's row in source form.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/db.h"
#include "common/rng.h"
#include "detect/spec.h"
#include "detect/sphere/simd/dispatch.h"
#include "detect/sphere/simd/kernel.h"
#include "test_util.h"

namespace geosphere {
namespace {

using geosphere::testing::random_channel;
using geosphere::testing::random_indices;
using geosphere::testing::transmit;
namespace simd = geosphere::sphere::simd;

constexpr std::size_t kStreams = 4;
constexpr std::size_t kAntennas = 4;
constexpr std::size_t kChannels = 3;  ///< Channels prepared per batch.
constexpr std::size_t kVectors = 3;   ///< Received vectors per channel.

/// One SNR grid per QAM, 8-41 dB overall: the low points reach ML flips
/// and unsaturated LLRs, the high points saturate the clamp.
std::vector<double> snrs_for(unsigned qam) {
  switch (qam) {
    case 16: return {8.0, 14.0, 20.0, 28.0};
    case 64: return {16.0, 22.0, 28.0, 34.0};
    default: return {28.0, 32.0, 36.0, 41.0};
  }
}

struct Recorded {
  const char* spec;
  unsigned qam;
  bool soft;  ///< Pinned through solve_soft_batch (else solve_batch).
  std::uint64_t stats[11];
  std::uint64_t hash;
};

std::vector<std::uint64_t> fields(const DetectionStats& s) {
  return {s.ped_computations, s.visited_nodes,       s.lb_lookups, s.lb_prunes,
          s.slicer_ops,       s.queue_ops,           s.preprocess_calls,
          s.prepare_batch_calls, s.batch_calls,      s.tree_searches, s.counter_updates};
}

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
};

/// What one cell's run observed, beyond the pinned values.
struct CellRun {
  DetectionStats stats;
  std::uint64_t hash = 0;
  std::vector<unsigned> indices;  ///< Every decision, in input order.
  std::size_t saturated_llrs = 0;
};

/// Solves the cell's fixed input set on the active kernel tier. Every cell
/// of one QAM sees the same channels and received vectors.
CellRun run_cell(const std::string& spec_text, unsigned qam, bool soft) {
  const DetectorSpec spec = DetectorSpec::parse(spec_text);
  const Constellation& c = Constellation::qam(qam);
  const auto det = spec.create(c);
  Rng rng(1000 + qam);
  CellRun run;
  Fnv1a fnv;
  BatchResult hard;
  SoftBatchResult soft_out;
  for (double snr_db : snrs_for(qam)) {
    // Unit-energy symbols on CN(0,1) taps: SNR per receive antenna is
    // streams / n0.
    const double n0 = static_cast<double>(kStreams) / db_to_lin(snr_db);
    std::vector<linalg::CMatrix> hs;
    for (std::size_t s = 0; s < kChannels; ++s)
      hs.push_back(random_channel(rng, kAntennas, kStreams));
    det->prepare_batch(hs, n0);
    for (std::size_t s = 0; s < kChannels; ++s) {
      linalg::CMatrix y(kAntennas, kVectors);
      for (std::size_t v = 0; v < kVectors; ++v)
        y.set_col(v, transmit(rng, hs[s], c, random_indices(rng, c, kStreams), n0));
      det->select_prepared(s);
      const std::vector<unsigned>* indices = &hard.indices;
      if (soft) {
        det->soft()->solve_soft_batch(y, soft_out);
        run.stats += soft_out.stats;
        indices = &soft_out.indices;
        // The soft specs' parameter is the LLR clamp.
        const double clamp = static_cast<double>(spec.param());
        for (double llr : soft_out.llrs) {
          fnv.add(llr);
          if (std::abs(llr) == clamp) ++run.saturated_llrs;
        }
      } else {
        det->solve_batch(y, hard);
        run.stats += hard.stats;
      }
      for (unsigned idx : *indices) {
        fnv.add(static_cast<std::uint64_t>(idx));
        run.indices.push_back(idx);
      }
    }
  }
  run.hash = fnv.h;
  return run;
}

// clang-format off
const Recorded kRecorded[] = {
    {"geosphere", 16, false, {1000,490,815,268,453,1179,0,0,12,36,0}, 0x87e81e77055773ccull},
    {"geosphere-2dzz", 16, false, {1268,490,0,0,453,1179,0,0,12,36,0}, 0x87e81e77055773ccull},
    {"geosphere-sqrd", 16, false, {894,432,723,240,411,1036,0,0,12,36,0}, 0x87e81e77055773ccull},
    {"eth-sd", 16, false, {2291,490,0,0,453,0,0,0,12,36,0}, 0x87e81e77055773ccull},
    {"shabany", 16, false, {1341,490,0,0,453,1182,0,0,12,36,0}, 0x87e81e77055773ccull},
    {"fsd", 16, false, {2304,2304,0,0,1764,4608,0,0,12,0,0}, 0xb3126deabb7f028aull},
    {"kbest:8", 16, false, {9552,7200,0,0,900,16752,0,0,12,0,0}, 0x8691d38aea668129ull},
    {"hybrid:10", 16, false, {662,316,493,119,384,786,0,0,12,12,0}, 0x417fa4c9a0fde309ull},
    {"soft-geosphere", 16, false, {1000,490,815,268,453,1179,0,0,12,36,0}, 0x87e81e77055773ccull},
    {"soft-geosphere-sts", 16, false, {1000,490,815,268,453,1179,0,0,12,36,0}, 0x87e81e77055773ccull},
    {"soft-geosphere-sts:5", 16, false, {1000,490,815,268,453,1179,0,0,12,36,0}, 0x87e81e77055773ccull},
    {"soft-geosphere", 16, true, {60018,19494,49635,8590,18973,74007,0,0,12,612,0}, 0x91a923cc61eb20f4ull},
    {"soft-geosphere-sts", 16, true, {24712,13795,20412,2711,7011,30394,0,0,12,36,1098}, 0x91a923cc61eb20f4ull},
    {"soft-geosphere-sts:5", 16, true, {8451,4511,6913,1172,2710,10095,0,0,12,36,559}, 0x8947a061af783a98ull},
    {"geosphere", 64, false, {581,308,559,271,293,699,0,0,12,36,0}, 0xb062ac1e28309f16ull},
    {"geosphere-2dzz", 64, false, {852,308,0,0,293,699,0,0,12,36,0}, 0xb062ac1e28309f16ull},
    {"geosphere-sqrd", 64, false, {407,230,430,244,221,501,0,0,12,36,0}, 0xb062ac1e28309f16ull},
    {"eth-sd", 64, false, {2652,308,0,0,293,0,0,0,12,36,0}, 0xb062ac1e28309f16ull},
    {"shabany", 64, false, {893,308,0,0,293,700,0,0,12,36,0}, 0xb062ac1e28309f16ull},
    {"fsd", 64, false, {9216,9216,0,0,6948,18432,0,0,12,0,0}, 0xfe928fd1e548d18dull},
    {"kbest:8", 64, false, {9915,7200,0,0,900,17115,0,0,12,0,0}, 0xb062ac1e28309f16ull},
    {"hybrid:10", 64, false, {269,132,232,88,221,311,0,0,12,12,0}, 0xee9efd7f00a6967eull},
    {"soft-geosphere", 64, false, {581,308,559,271,293,699,0,0,12,36,0}, 0xb062ac1e28309f16ull},
    {"soft-geosphere-sts", 64, false, {581,308,559,271,293,699,0,0,12,36,0}, 0xb062ac1e28309f16ull},
    {"soft-geosphere-sts:5", 64, false, {581,308,559,271,293,699,0,0,12,36,0}, 0xb062ac1e28309f16ull},
    {"soft-geosphere", 64, true, {460748,85080,423287,47216,84677,609109,0,0,12,900,0}, 0x72dd4a0f0cd77bcbull},
    {"soft-geosphere-sts", 64, true, {277327,179773,255298,25647,47676,373450,0,0,12,36,1284}, 0x72dd4a0f0cd77bcbull},
    {"soft-geosphere-sts:5", 64, true, {13237,6829,10897,1857,4197,15231,0,0,12,36,607}, 0x7bb90f62731d7de2ull},
    {"geosphere", 256, false, {71311,33195,39735,1549,33125,97821,0,0,12,36,0}, 0x67e918640fcb27bbull},
    {"geosphere-2dzz", 256, false, {72860,33195,0,0,33125,97821,0,0,12,36,0}, 0x67e918640fcb27bbull},
    {"geosphere-sqrd", 256, false, {1383,776,1096,471,758,2023,0,0,12,36,0}, 0x67e918640fcb27bbull},
    {"eth-sd", 256, false, {563195,33195,0,0,33125,0,0,0,12,36,0}, 0x67e918640fcb27bbull},
    {"shabany", 256, false, {78282,33195,0,0,33125,97888,0,0,12,36,0}, 0x67e918640fcb27bbull},
    {"fsd", 256, false, {36864,36864,0,0,27684,73728,0,0,12,0,0}, 0x85a3957fa8bbf62eull},
    {"kbest:8", 256, false, {9895,7200,0,0,900,17095,0,0,12,0,0}, 0xda20fd1d5f4ee00cull},
    {"hybrid:10", 256, false, {71098,33071,39499,1406,33089,97554,0,0,12,15,0}, 0x66bb860a0d71a499ull},
    {"soft-geosphere", 256, false, {71311,33195,39735,1549,33125,97821,0,0,12,36,0}, 0x67e918640fcb27bbull},
    {"soft-geosphere-sts", 256, false, {71311,33195,39735,1549,33125,97821,0,0,12,36,0}, 0x67e918640fcb27bbull},
    {"soft-geosphere-sts:5", 256, false, {71311,33195,39735,1549,33125,97821,0,0,12,36,0}, 0x67e918640fcb27bbull},
    {"soft-geosphere", 256, true, {964172,339949,683057,58662,339777,1229092,0,0,12,1188,0}, 0x6f75e46f0d7b13ecull},
    {"soft-geosphere-sts", 256, true, {300167,147347,200433,14225,113959,382309,0,0,12,36,2141}, 0x6f75e46f0d7b13ecull},
    {"soft-geosphere-sts:5", 256, true, {90206,41755,51602,2683,41287,121405,0,0,12,36,742}, 0x818bd4ed4741fb60ull},
};
// clang-format on

std::string source_row(const Recorded& r, const CellRun& run) {
  std::string out = std::string("    {\"") + r.spec + "\", " + std::to_string(r.qam) + ", " +
                    (r.soft ? "true" : "false") + ", {";
  const char* sep = "";
  for (std::uint64_t f : fields(run.stats)) {
    out += sep;
    out += std::to_string(f);
    sep = ",";
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llxull", static_cast<unsigned long long>(run.hash));
  return out + "}, " + hex + "},";
}

TEST(TreeSearchGolden, CountersAndOutputsMatchRecorded) {
  const auto tiers = simd::supported_kernels();
  for (const simd::Kernel* tier : tiers) {
    simd::set_kernel_override(tier->name);
    for (const Recorded& r : kRecorded) {
      const CellRun run = run_cell(r.spec, r.qam, r.soft);
      const auto got = fields(run.stats);
      bool same = run.hash == r.hash;
      for (std::size_t i = 0; i < got.size(); ++i) same = same && got[i] == r.stats[i];
      EXPECT_TRUE(same) << "tier " << tier->name << ", recorded row differs; this run:\n"
                        << source_row(r, run);
      if (tier != tiers.front()) continue;

      // The inputs reach the paths worth pinning (checked once, on the
      // first tier; the rows above pin the other tiers to the same runs).
      const std::string who = std::string(r.spec) + " " + std::to_string(r.qam) + "-QAM";
      if (std::string(r.spec) == "geosphere") {
        EXPECT_GT(run.stats.lb_prunes, 0u) << who;
      }
      if (r.soft) {
        EXPECT_GT(run.saturated_llrs, 0u) << who;
      }
      if (r.soft && std::string(r.spec).rfind("soft-geosphere-sts", 0) == 0) {
        EXPECT_GT(run.stats.counter_updates, 0u) << who;
        // The first leaf of a depth-first search is the sorted plunge's,
        // which K-best with K = 1 decides too; an ML decision that differs
        // from it took at least one ML flip.
        const CellRun plunge = run_cell("kbest:1", r.qam, false);
        ASSERT_EQ(plunge.indices.size(), run.indices.size()) << who;
        std::size_t flipped = 0;
        for (std::size_t i = 0; i < run.indices.size(); i += kStreams)
          flipped += !std::equal(run.indices.begin() + i, run.indices.begin() + i + kStreams,
                                 plunge.indices.begin() + i);
        EXPECT_GT(flipped, 0u) << who;
      }
    }
  }
  simd::set_kernel_override(nullptr);
}

}  // namespace
}  // namespace geosphere
