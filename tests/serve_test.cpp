// Tests for the streaming serving layer (src/serve): the latency
// histogram's bucket/merge/percentile algebra, the per-cell scheduler's
// deterministic policies (backlog-only candidates, antenna truncation,
// longest-unserved round robin with index tie-break, single-candidate
// rate shortcut), and the Server determinism contract -- every
// deterministic counter bit-identical for 1 vs 4 worker threads, under
// every kernel tier, and equal to a recorded golden.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "coding/simd/dispatch.h"
#include "common/rng.h"
#include "detect/prepare/simd/dispatch.h"
#include "detect/sphere/simd/dispatch.h"
#include "serve/latency.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/spec.h"

namespace geosphere::serve {
namespace {

TEST(LatencyRecorder, EmptyRecorder) {
  const LatencyRecorder rec;
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_EQ(rec.min_ns(), 0u);
  EXPECT_EQ(rec.max_ns(), 0u);
  EXPECT_EQ(rec.percentile_ns(0.5), 0.0);
  EXPECT_EQ(rec.percentile_ns(1.0), 0.0);
}

TEST(LatencyRecorder, BucketsAreMonotoneAndBounded) {
  EXPECT_EQ(LatencyRecorder::bucket_of(0), 0u);
  EXPECT_EQ(LatencyRecorder::bucket_of(LatencyRecorder::kMinNs), 0u);
  std::size_t prev = 0;
  for (std::uint64_t ns = 1; ns < (std::uint64_t{1} << 40); ns *= 3) {
    const std::size_t b = LatencyRecorder::bucket_of(ns);
    EXPECT_GE(b, prev);
    EXPECT_LT(b, LatencyRecorder::kBuckets);
    prev = b;
  }
  // Far beyond the last bucket floor: clamps instead of overflowing.
  EXPECT_EQ(LatencyRecorder::bucket_of(~std::uint64_t{0}), LatencyRecorder::kBuckets - 1);
}

TEST(LatencyRecorder, PercentileQuantizationIsTight) {
  // Quarter-octave buckets promise <= ~9% relative error at the reported
  // geometric midpoint.
  LatencyRecorder rec;
  for (int i = 0; i < 100; ++i) rec.record(25000);
  EXPECT_EQ(rec.count(), 100u);
  EXPECT_EQ(rec.max_ns(), 25000u);
  EXPECT_NEAR(rec.percentile_ns(0.5), 25000.0, 25000.0 * 0.09);
  EXPECT_NEAR(rec.percentile_ns(0.99), 25000.0, 25000.0 * 0.09);
}

TEST(LatencyRecorder, PercentileWalksTheDistribution) {
  LatencyRecorder rec;
  for (int i = 0; i < 90; ++i) rec.record(1000);
  for (int i = 0; i < 10; ++i) rec.record(1000000);
  EXPECT_NEAR(rec.percentile_ns(0.5), 1000.0, 1000.0 * 0.09);
  EXPECT_NEAR(rec.percentile_ns(0.9), 1000.0, 1000.0 * 0.09);
  EXPECT_NEAR(rec.percentile_ns(0.95), 1000000.0, 1000000.0 * 0.09);
  EXPECT_EQ(rec.max_ns(), 1000000u);
}

TEST(LatencyRecorder, MergeMatchesCombinedRecording) {
  LatencyRecorder a;
  LatencyRecorder b;
  LatencyRecorder combined;
  for (std::uint64_t ns = 100; ns < 100000; ns = ns * 2 + 7) {
    a.record(ns);
    combined.record(ns);
  }
  for (std::uint64_t ns = 50; ns < 500000; ns = ns * 3 + 1) {
    b.record(ns);
    combined.record(ns);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.max_ns(), combined.max_ns());
  for (const double p : {0.1, 0.5, 0.9, 0.99, 1.0})
    EXPECT_EQ(a.percentile_ns(p), combined.percentile_ns(p));
}

TEST(LatencyRecorder, PercentileNeverExceedsTheObservedMax) {
  // One sample just above a bucket's lower edge: the bucket's geometric
  // midpoint lies ~9% above the only value ever recorded.
  const auto ns =
      static_cast<std::uint64_t>(LatencyRecorder::bucket_floor_ns(40)) + 1;
  ASSERT_EQ(LatencyRecorder::bucket_of(ns), 40u);
  LatencyRecorder rec;
  rec.record(ns);
  EXPECT_EQ(rec.max_ns(), ns);
  for (const double p : {0.0, 0.5, 0.99, 1.0})
    EXPECT_EQ(rec.percentile_ns(p), static_cast<double>(ns)) << "p=" << p;
}

TEST(LatencyRecorder, RandomSamplesGiveMonotoneClampedMergeOrderFreePercentiles) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    // Log-uniform samples over ~6 decades, split across four partials the
    // way serve workers record them.
    std::vector<LatencyRecorder> parts(4);
    const int n = 1 + rng.uniform_int(200);
    for (int i = 0; i < n; ++i) {
      const auto ns = static_cast<std::uint64_t>(std::exp(rng.uniform(3.0, 17.0)));
      parts[static_cast<std::size_t>(rng.uniform_int(4))].record(ns);
    }
    LatencyRecorder forward;
    for (const LatencyRecorder& part : parts) forward.merge(part);
    LatencyRecorder backward;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) backward.merge(*it);
    ASSERT_EQ(forward.count(), static_cast<std::uint64_t>(n));
    EXPECT_EQ(backward.min_ns(), forward.min_ns());
    EXPECT_EQ(backward.max_ns(), forward.max_ns());

    double prev = 0.0;
    for (int pct = 0; pct <= 100; ++pct) {
      const double p = pct / 100.0;
      const double v = forward.percentile_ns(p);
      EXPECT_GE(v, prev) << "trial " << trial << " p=" << p;
      EXPECT_GE(v, static_cast<double>(forward.min_ns())) << "trial " << trial;
      EXPECT_LE(v, static_cast<double>(forward.max_ns())) << "trial " << trial;
      EXPECT_EQ(backward.percentile_ns(p), v) << "trial " << trial << " p=" << p;
      prev = v;
    }
  }
}

TEST(CellScheduler, NeverExceedsAntennasAndOnlySchedulesBackloggedUsers) {
  // Saturated cell, more users than antennas: every TTI transmits exactly
  // `antennas` distinct valid users.
  const CellSpec spec = CellSpec::parse("users=10,antennas=3,load=1.0,spread=0");
  CellScheduler sched(spec, /*master_seed=*/3, /*cell_index=*/0);
  for (std::uint64_t tti = 0; tti < 12; ++tti) {
    const CellSchedule s = sched.schedule_tti(tti);
    EXPECT_EQ(s.users.size(), 3u);
    for (std::size_t i = 0; i < s.users.size(); ++i) {
      EXPECT_LT(s.users[i], 10u);
      if (i > 0) {
        EXPECT_LT(s.users[i - 1], s.users[i]);  // Ascending, unique.
      }
    }
  }
}

TEST(CellScheduler, IdleWithoutBacklog) {
  // A (deterministically) arrival-free cell never schedules anyone:
  // zero-demand users stay off the air and the TTI reports idle.
  const CellSpec spec = CellSpec::parse("users=16,load=0.000001");
  CellScheduler sched(spec, 3, 0);
  for (std::uint64_t tti = 0; tti < 50; ++tti) {
    const CellSchedule s = sched.schedule_tti(tti);
    EXPECT_TRUE(s.users.empty());
    EXPECT_EQ(s.qam, 0u);
  }
  EXPECT_EQ(sched.backlog(), 0u);
  EXPECT_EQ(sched.arrivals(), 0u);
}

TEST(CellScheduler, RoundRobinWithIndexTieBreak) {
  // Equal SNRs and permanent backlog: longest-unserved-first with the
  // user-index tie-break is a pure rotation in index order.
  const CellSpec spec = CellSpec::parse("users=6,antennas=2,load=1.0,spread=0,qams=16");
  CellScheduler sched(spec, 11, 0);
  const std::vector<std::vector<std::size_t>> expect = {
      {0, 1}, {2, 3}, {4, 5}, {0, 1}, {2, 3}, {4, 5}};
  for (std::uint64_t tti = 0; tti < expect.size(); ++tti)
    EXPECT_EQ(sched.schedule_tti(tti).users, expect[tti]) << "tti " << tti;
}

TEST(CellScheduler, SingleCandidateQamListSkipsTheProbe) {
  const CellSpec spec = CellSpec::parse("users=4,antennas=2,load=1.0,qams=64");
  CellScheduler sched(spec, 5, 0);
  for (std::uint64_t tti = 0; tti < 4; ++tti)
    EXPECT_EQ(sched.schedule_tti(tti).qam, 64u);
}

TEST(CellScheduler, ScheduleIsSeedDeterministic) {
  const CellSpec spec =
      CellSpec::parse("users=8,antennas=4,load=0.6,payload=40,qams=4|16");
  CellScheduler a(spec, 21, 2);
  CellScheduler b(spec, 21, 2);
  for (std::uint64_t tti = 0; tti < 8; ++tti) {
    const CellSchedule sa = a.schedule_tti(tti);
    const CellSchedule sb = b.schedule_tti(tti);
    EXPECT_EQ(sa.users, sb.users);
    EXPECT_EQ(sa.qam, sb.qam);
    EXPECT_EQ(sa.snr_db, sb.snr_db);
  }
}

TEST(CellScheduler, DeliveredFramesLeaveTheQueueFailedOnesStay) {
  const CellSpec spec = CellSpec::parse("users=2,antennas=2,load=1.0,qams=4");
  CellScheduler sched(spec, 9, 0);
  const CellSchedule s = sched.schedule_tti(0);
  ASSERT_EQ(s.users.size(), 2u);
  const std::uint64_t before = sched.backlog();
  sched.complete(s.users[0], /*delivered=*/true);
  sched.complete(s.users[1], /*delivered=*/false);
  EXPECT_EQ(sched.backlog(), before - 1);
  EXPECT_THROW(sched.complete(99, true), std::invalid_argument);
}

/// Every CellCounters field, DetectionStats included, in declaration
/// order; kCounterFields names them.
std::vector<std::uint64_t> counter_row(const CellCounters& c) {
  const DetectionStats& d = c.detection;
  return {c.ttis,           c.arrivals,          c.scheduled_frames,   c.scheduled_users,
          c.user_frames_ok, c.user_frames_error, c.bit_errors,         c.payload_bits,
          c.delivered_bits, c.backlog_end,       c.schedule_hash,      d.ped_computations,
          d.visited_nodes,  d.lb_lookups,        d.lb_prunes,          d.slicer_ops,
          d.queue_ops,      d.preprocess_calls,  d.prepare_batch_calls, d.batch_calls,
          d.tree_searches,  d.counter_updates,   c.detection_calls};
}

const char* const kCounterFields[] = {
    "ttis",           "arrivals",          "scheduled_frames",   "scheduled_users",
    "user_frames_ok", "user_frames_error", "bit_errors",         "payload_bits",
    "delivered_bits", "backlog_end",       "schedule_hash",      "ped_computations",
    "visited_nodes",  "lb_lookups",        "lb_prunes",          "slicer_ops",
    "queue_ops",      "preprocess_calls",  "prepare_batch_calls", "batch_calls",
    "tree_searches",  "counter_updates",   "detection_calls"};

/// Expects `got` to equal `want` field by field, naming the first misses.
void expect_counters(const CellCounters& got, const std::vector<std::uint64_t>& want,
                     const std::string& where) {
  const std::vector<std::uint64_t> row = counter_row(got);
  ASSERT_EQ(row.size(), want.size());
  for (std::size_t i = 0; i < row.size(); ++i)
    EXPECT_EQ(row[i], want[i]) << where << " " << kCounterFields[i];
}

/// Expects every deterministic field of two reports to be bit-identical.
void expect_same_deterministic(const ServeResult& a, const ServeResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    expect_counters(a.cells[c].counters, counter_row(b.cells[c].counters),
                    "cell " + std::to_string(c));
    ASSERT_EQ(a.cells[c].schedule_log.size(), b.cells[c].schedule_log.size());
    for (std::size_t i = 0; i < a.cells[c].schedule_log.size(); ++i) {
      EXPECT_EQ(a.cells[c].schedule_log[i].tti, b.cells[c].schedule_log[i].tti);
      EXPECT_EQ(a.cells[c].schedule_log[i].users, b.cells[c].schedule_log[i].users);
      EXPECT_EQ(a.cells[c].schedule_log[i].qam, b.cells[c].schedule_log[i].qam);
    }
  }
}

TEST(Server, DeterministicCountersIdenticalAcrossThreadCounts) {
  // The issue's core contract: goodput / error / schedule counters are
  // bit-identical at any thread count; only latency is host-dependent.
  const ServeSpec spec = ServeSpec::parse(
      "users=6,antennas=2,load=0.7,payload=40,qams=4|16,snr=18;"
      "users=4,antennas=2,load=0.5,payload=30,detector=zf,qams=16,snr=24");
  Server one(spec, 1);
  Server four(spec, 4);
  ASSERT_EQ(one.threads(), 1u);
  ASSERT_EQ(four.threads(), 4u);
  const ServeResult a = one.run(/*ttis=*/8, /*seed=*/17);
  const ServeResult b = four.run(/*ttis=*/8, /*seed=*/17);
  expect_same_deterministic(a, b);

  // Same server re-run: state resets, so the result repeats exactly.
  const ServeResult c = four.run(8, 17);
  expect_same_deterministic(a, c);
}

TEST(Server, CountsAndLatencyBookkeepingAreConsistent) {
  const ServeSpec spec =
      ServeSpec::parse("users=5,antennas=2,load=0.8,payload=40,qams=16,snr=30,spread=0");
  Server server(spec, 2);
  const ServeResult r = server.run(/*ttis=*/6, /*seed=*/3);
  ASSERT_EQ(r.cells.size(), 1u);
  const CellCounters& cc = r.cells[0].counters;
  EXPECT_EQ(cc.ttis, 6u);
  EXPECT_EQ(cc.user_frames_ok + cc.user_frames_error, cc.scheduled_users);
  EXPECT_EQ(cc.scheduled_frames, r.cells[0].schedule_log.size());
  // One latency sample per transmitted MU-MIMO frame; totals merge cells.
  EXPECT_EQ(r.cells[0].latency.count(), cc.scheduled_frames);
  EXPECT_EQ(r.latency.count(), cc.scheduled_frames);
  // Queue conservation: everything that arrived was either delivered
  // (left the queue) or is still backlogged.
  EXPECT_EQ(cc.arrivals, cc.user_frames_ok + cc.backlog_end);
  // At 30 dB with 2 streams the cell delivers: goodput is positive.
  EXPECT_GT(cc.delivered_bits, 0u);
  EXPECT_GT(cc.goodput_mbps(), 0.0);
  EXPECT_GE(cc.fer(), 0.0);
  EXPECT_LE(cc.fer(), 1.0);
}

TEST(Server, SoftDetectorCellRunsAndIsDeterministic) {
  const ServeSpec spec = ServeSpec::parse(
      "users=3,antennas=2,load=0.8,payload=30,detector=soft-geosphere,qams=4,snr=12");
  Server one(spec, 1);
  Server two(spec, 2);
  const ServeResult a = one.run(/*ttis=*/4, /*seed=*/5);
  const ServeResult b = two.run(/*ttis=*/4, /*seed=*/5);
  expect_same_deterministic(a, b);
  EXPECT_GT(a.cells[0].counters.scheduled_frames, 0u);
}

/// Pins one tier in all three kernel layers; restores env/auto on exit.
struct AllLayersOnTier {
  explicit AllLayersOnTier(const char* name) {
    sphere::simd::set_kernel_override(name);
    prepare::simd::set_kernel_override(name);
    coding::simd::set_viterbi_kernel_override(name);
  }
  ~AllLayersOnTier() {
    sphere::simd::set_kernel_override(nullptr);
    prepare::simd::set_kernel_override(nullptr);
    coding::simd::set_viterbi_kernel_override(nullptr);
  }
};

TEST(Server, CountersMatchRecordedGolden) {
  // Pins serve counters across commits, not only across thread counts: a
  // hard tree-search cell with rate adaptation, a linear cell, and a soft
  // rate-3/4 cell. Every cell has failed frames, so the delivery verdict
  // and the retransmission path are pinned too.
  const ServeSpec spec = ServeSpec::parse(
      "users=6,antennas=2,load=0.7,payload=40,qams=4|16,snr=16;"
      "users=4,antennas=2,load=0.5,payload=30,detector=zf,qams=16,snr=20;"
      "users=4,antennas=2,load=0.6,payload=30,detector=soft-geosphere-sts,code=3/4,"
      "qams=4|16,snr=12");
  // One row per cell, fields in kCounterFields order.
  const std::vector<std::vector<std::uint64_t>> golden = {
      {12, 49, 12, 24, 22, 2, 174, 7680, 7040, 27, 0x915ee58c41ccfc31ull, 8364, 5808, 11250,
       8433, 5547, 12135, 576, 12, 576, 2448, 0, 2448},
      {12, 25, 12, 22, 21, 1, 4, 5280, 5040, 4, 0xc1f574107856d8c5ull, 0, 0, 0, 0, 3168, 0,
       576, 12, 576, 0, 0, 1728},
      {12, 31, 12, 23, 17, 6, 480, 5520, 4080, 14, 0x9521bf85f7fd4cd1ull, 33622, 20921, 30246,
       5865, 9241, 45311, 576, 12, 576, 1440, 7491, 1440}};
  for (const sphere::simd::Kernel* kernel : sphere::simd::supported_kernels()) {
    const AllLayersOnTier tier(kernel->name);
    Server server(spec, 1);
    const ServeResult r = server.run(/*ttis=*/12, /*seed=*/17);
    ASSERT_EQ(r.cells.size(), golden.size());
    for (std::size_t c = 0; c < golden.size(); ++c)
      expect_counters(r.cells[c].counters, golden[c],
                      std::string(kernel->name) + " cell " + std::to_string(c));
  }
}

TEST(Server, RejectsEmptySpec) {
  EXPECT_THROW(Server(ServeSpec{}, 1), std::invalid_argument);
}

}  // namespace
}  // namespace geosphere::serve
