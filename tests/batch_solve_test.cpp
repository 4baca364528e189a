// Tests for the solve phase of the detection contract. Every detector has
// one solve routine per mode (do_solve_batch / do_solve_soft_batch), and
// the one-shot solve() / solve_soft() run it on a batch of one:
//  * solve_batch(Y) equals N one-shot solves of Y's columns -- N batches
//    of one -- bit for bit: same decisions, same summed counters, for
//    EVERY registry detector across batch sizes {1, 3, ofdm_symbols}. So a
//    vector's result does not depend on its lane or tail position,
//  * solve_soft_batch matches N one-shot solve_soft() calls including
//    every LLR bit,
//  * every entry point rejects a received batch with the wrong row count
//    with std::invalid_argument,
//  * changing the batch size (and the stream count) between prepares leaks
//    no state,
//  * batch accounting: a batch of N counts as N detections and ONE
//    batch_call, so batched and per-vector runs report identical
//    detection_calls / ped_evaluations,
//  * the batched LinkSimulator reproduces the recorded pre-batching (PR 4
//    per-vector) LinkStats bit-for-bit, for any thread count,
//  * warm solves allocate nothing: once a detector has solved a batch,
//    solving it again makes no global operator new call.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "channel/spec.h"
#include "common/db.h"
#include "common/rng.h"
#include "detect/spec.h"
#include "link/link_simulator.h"
#include "phy/frame.h"
#include "sim/engine.h"
#include "test_util.h"

// Every global operator new in this binary is counted, so a test can assert
// that a stretch of code allocates nothing. The replacements stay out of
// line: inlined, GCC pairs their malloc/free with the new/delete
// expressions around them and reports a mismatch. The nothrow forms are
// replaced too (std::stable_sort's buffer uses them), so that under ASan
// every scalar new and delete pairs through malloc and free.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace geosphere {
namespace {

using geosphere::testing::random_channel;
using geosphere::testing::random_indices;
using geosphere::testing::transmit;

/// Every registry detector in a creatable spec form (required parameters
/// get a representative value).
std::vector<std::string> all_registry_specs() {
  std::vector<std::string> out;
  for (const DetectorInfo& info : detector_registry())
    out.push_back(info.param_required ? info.name + ":8" : info.name);
  return out;
}

void expect_same_stats(const DetectionStats& a, const DetectionStats& b,
                       const std::string& who) {
  EXPECT_EQ(a.ped_computations, b.ped_computations) << who;
  EXPECT_EQ(a.visited_nodes, b.visited_nodes) << who;
  EXPECT_EQ(a.lb_lookups, b.lb_lookups) << who;
  EXPECT_EQ(a.lb_prunes, b.lb_prunes) << who;
  EXPECT_EQ(a.slicer_ops, b.slicer_ops) << who;
  EXPECT_EQ(a.queue_ops, b.queue_ops) << who;
  EXPECT_EQ(a.preprocess_calls, b.preprocess_calls) << who;
  EXPECT_EQ(a.tree_searches, b.tree_searches) << who;
  EXPECT_EQ(a.counter_updates, b.counter_updates) << who;
}

/// One received-vector batch: column v carries `streams` random symbols
/// through `h` plus noise, drawn exactly like the per-vector helpers.
linalg::CMatrix make_batch(Rng& rng, const linalg::CMatrix& h, const Constellation& c,
                           std::size_t count, double n0) {
  linalg::CMatrix y_batch(h.rows(), count);
  for (std::size_t v = 0; v < count; ++v) {
    const auto sent = random_indices(rng, c, h.cols());
    y_batch.set_col(v, transmit(rng, h, c, sent, n0));
  }
  return y_batch;
}

/// The number of received vectors one prepared subcarrier serves in the
/// link layer (the tentpole's batch size) for a small representative frame.
std::size_t link_batch_size() {
  phy::FrameConfig config;
  config.qam_order = 16;
  config.payload_bytes = 120;
  return phy::FrameCodec(config).ofdm_symbols_per_frame();
}

class BatchSolveRegistry : public ::testing::TestWithParam<std::string> {};

TEST_P(BatchSolveRegistry, BatchMatchesLoopBitExactly) {
  const DetectorSpec spec = DetectorSpec::parse(GetParam());
  const Constellation& c = Constellation::qam(16);
  const auto loop_det = spec.create(c);
  const auto batch_det = spec.create(c);
  const double n0 = db_to_lin(-14.0);

  Rng rng(909);
  CVector y;
  BatchResult batch;
  for (const std::size_t count : {std::size_t{1}, std::size_t{3}, link_batch_size()}) {
    ASSERT_GE(count, 1u);
    const auto h = random_channel(rng, 4, 3);
    const linalg::CMatrix y_batch = make_batch(rng, h, c, count, n0);

    loop_det->prepare(h, n0);
    batch_det->prepare(h, n0);

    // Reference: N one-shot solves (N batches of one) on a separate
    // instance. Each vector then sits in lane 0 of a one-column batch, so
    // equality shows that a vector's result does not depend on its lane or
    // on falling in a SIMD tail.
    std::vector<unsigned> ref_indices;
    DetectionStats ref_stats;
    for (std::size_t v = 0; v < count; ++v) {
      y_batch.col_into(v, y);
      const DetectionResult r = loop_det->solve(y);
      EXPECT_EQ(r.stats.batch_calls, 0u) << spec.text();
      ASSERT_EQ(r.symbols.size(), r.indices.size()) << spec.text();
      for (std::size_t k = 0; k < r.indices.size(); ++k)
        EXPECT_EQ(r.symbols[k], c.point(r.indices[k])) << spec.text();
      ref_indices.insert(ref_indices.end(), r.indices.begin(), r.indices.end());
      ref_stats += r.stats;
    }

    batch_det->solve_batch(y_batch, batch);
    EXPECT_EQ(batch.count, count) << spec.text();
    EXPECT_EQ(batch.streams, 3u) << spec.text();
    EXPECT_EQ(batch.indices, ref_indices) << spec.text() << " count=" << count;
    expect_same_stats(batch.stats, ref_stats, spec.text());
    // A batch of N is N detections but ONE batched invocation.
    EXPECT_EQ(batch.stats.batch_calls, 1u) << spec.text();
  }
}

TEST_P(BatchSolveRegistry, BatchSizeAndStreamChangesAcrossPreparesAreSafe) {
  // Same instance, alternating channels with different stream counts AND
  // different batch sizes: every per-batch workspace must be fully
  // re-shaped, so results equal those of a fresh instance.
  const DetectorSpec spec = DetectorSpec::parse(GetParam());
  const Constellation& c = Constellation::qam(16);
  const auto reused = spec.create(c);
  const double n0 = db_to_lin(-14.0);

  Rng rng(1010);
  const auto h3 = random_channel(rng, 4, 3);
  const auto h2 = random_channel(rng, 4, 2);
  const linalg::CMatrix big = make_batch(rng, h3, c, 7, n0);
  const linalg::CMatrix small = make_batch(rng, h2, c, 2, n0);

  const auto fresh_run = [&](const linalg::CMatrix& h, const linalg::CMatrix& y_batch) {
    const auto det = spec.create(c);
    det->prepare(h, n0);
    return det->solve_batch(y_batch);
  };
  const BatchResult fresh_big = fresh_run(h3, big);
  const BatchResult fresh_small = fresh_run(h2, small);

  reused->prepare(h3, n0);
  BatchResult out;
  reused->solve_batch(big, out);
  EXPECT_EQ(out.indices, fresh_big.indices) << spec.text();

  reused->prepare(h2, n0);  // 3 -> 2 streams, batch 7 -> 2.
  reused->solve_batch(small, out);
  EXPECT_EQ(out.indices, fresh_small.indices) << spec.text();
  expect_same_stats(out.stats, fresh_small.stats, spec.text());

  reused->prepare(h3, n0);  // ... and back up.
  reused->solve_batch(big, out);
  EXPECT_EQ(out.indices, fresh_big.indices) << spec.text();
  expect_same_stats(out.stats, fresh_big.stats, spec.text());
}

TEST_P(BatchSolveRegistry, SolveBatchBeforePrepareThrows) {
  const DetectorSpec spec = DetectorSpec::parse(GetParam());
  const auto det = spec.create(Constellation::qam(16));
  BatchResult out;
  EXPECT_THROW(det->solve_batch(linalg::CMatrix(4, 2), out), std::logic_error)
      << spec.text();
  if (SoftDetector* soft = det->soft()) {
    SoftBatchResult sout;
    EXPECT_THROW(soft->solve_soft_batch(linalg::CMatrix(4, 2), sout), std::logic_error)
        << spec.text();
  }
}

TEST_P(BatchSolveRegistry, WrongRowCountThrowsInvalidArgument) {
  // A received vector or batch must have n_a rows, at every entry point.
  const DetectorSpec spec = DetectorSpec::parse(GetParam());
  const Constellation& c = Constellation::qam(16);
  const auto det = spec.create(c);
  Rng rng(1414);
  det->prepare(random_channel(rng, 4, 3), db_to_lin(-14.0));
  for (const std::size_t rows : {std::size_t{3}, std::size_t{5}}) {
    const CVector y(rows, cf64{0.5, -0.5});
    const linalg::CMatrix y_batch(rows, 2);
    EXPECT_THROW(det->solve(y), std::invalid_argument) << spec.text() << " rows=" << rows;
    EXPECT_THROW(det->solve_batch(y_batch), std::invalid_argument)
        << spec.text() << " rows=" << rows;
    if (SoftDetector* soft = det->soft()) {
      SoftBatchResult out;
      EXPECT_THROW(soft->solve_soft(y), std::invalid_argument)
          << spec.text() << " rows=" << rows;
      EXPECT_THROW(soft->solve_soft_batch(y_batch, out), std::invalid_argument)
          << spec.text() << " rows=" << rows;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegistryDetectors, BatchSolveRegistry,
                         ::testing::ValuesIn(all_registry_specs()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name)
                             if (ch == ':' || ch == '-') ch = '_';
                           return name;
                         });

// Warm solves allocate nothing: after one pass over a prepared batch, a
// second pass over the same channels and received vectors makes no global
// operator new call in solve_batch or, where the detector has one,
// solve_soft_batch. Every registry detector, plus hybrid at both routing
// extremes (hybrid:0 sends every channel to Geosphere, hybrid:200 every
// channel to ZF). Prepare and select are not counted.
TEST(BatchSolveRegistry, WarmSolvesAllocateNothing) {
  std::vector<std::string> specs = all_registry_specs();  // kbest:8 included.
  specs.insert(specs.end(), {"hybrid:0", "hybrid:200"});
  constexpr std::size_t kChannels = 4, kVectors = 5;
  for (unsigned qam : {16u, 64u}) {
    const Constellation& c = Constellation::qam(qam);
    Rng rng(40 + qam);
    const double n0 = 3.0 / db_to_lin(18.0);
    std::vector<linalg::CMatrix> hs;
    std::vector<linalg::CMatrix> ys;
    for (std::size_t s = 0; s < kChannels; ++s) {
      hs.push_back(random_channel(rng, 4, 3));
      ys.push_back(make_batch(rng, hs.back(), c, kVectors, n0));
    }
    for (const std::string& text : specs) {
      const auto det = DetectorSpec::parse(text).create(c);
      SoftDetector* soft = det->soft();
      det->prepare_batch(hs, n0);
      BatchResult out;
      SoftBatchResult soft_out;
      std::size_t hard_allocs = 0, soft_allocs = 0;
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t s = 0; s < kChannels; ++s) {
          det->select_prepared(s);
          std::size_t before = g_allocations.load();
          det->solve_batch(ys[s], out);
          if (pass == 1) hard_allocs += g_allocations.load() - before;
          if (soft == nullptr) continue;
          before = g_allocations.load();
          soft->solve_soft_batch(ys[s], soft_out);
          if (pass == 1) soft_allocs += g_allocations.load() - before;
        }
      }
      EXPECT_EQ(hard_allocs, 0u) << text << ", " << qam << "-QAM solve_batch";
      EXPECT_EQ(soft_allocs, 0u) << text << ", " << qam << "-QAM solve_soft_batch";
    }
  }
}

TEST(BatchSolve, SoftBatchMatchesLoopBitExactlyIncludingLlrs) {
  const DetectorSpec spec = DetectorSpec::parse("soft-geosphere");
  const Constellation& c = Constellation::qam(16);
  const auto loop_det = spec.create(c);
  const auto batch_det = spec.create(c);
  const double n0 = db_to_lin(-12.0);

  Rng rng(1111);
  CVector y;
  SoftBatchResult batch;
  for (const std::size_t count : {std::size_t{1}, std::size_t{3}, link_batch_size()}) {
    const auto h = random_channel(rng, 4, 2);
    const linalg::CMatrix y_batch = make_batch(rng, h, c, count, n0);

    loop_det->prepare(h, n0);
    batch_det->prepare(h, n0);

    std::vector<unsigned> ref_indices;
    std::vector<double> ref_llrs;
    DetectionStats ref_stats;
    for (std::size_t v = 0; v < count; ++v) {
      y_batch.col_into(v, y);
      const SoftDetectionResult r = loop_det->soft()->solve_soft(y);
      EXPECT_EQ(r.stats.batch_calls, 0u);
      ref_indices.insert(ref_indices.end(), r.indices.begin(), r.indices.end());
      ref_llrs.insert(ref_llrs.end(), r.llrs.begin(), r.llrs.end());
      ref_stats += r.stats;
    }

    batch_det->soft()->solve_soft_batch(y_batch, batch);
    EXPECT_EQ(batch.count, count);
    EXPECT_EQ(batch.streams, 2u);
    EXPECT_EQ(batch.indices, ref_indices) << "count=" << count;
    EXPECT_EQ(batch.llrs, ref_llrs) << "count=" << count;  // Bit-exact LLRs.
    expect_same_stats(batch.stats, ref_stats, "soft-geosphere");
    EXPECT_EQ(batch.stats.batch_calls, 1u);
  }
}

TEST(BatchSolve, HardBatchOfSoftDetectorMatchesLoop) {
  // The soft detector's hard solve_batch (unconstrained searches only).
  const DetectorSpec spec = DetectorSpec::parse("soft-geosphere");
  const Constellation& c = Constellation::qam(16);
  const auto det = spec.create(c);
  const auto loop_det = spec.create(c);
  const double n0 = db_to_lin(-12.0);

  Rng rng(1212);
  const auto h = random_channel(rng, 3, 2);
  const linalg::CMatrix y_batch = make_batch(rng, h, c, 5, n0);
  det->prepare(h, n0);
  loop_det->prepare(h, n0);

  const BatchResult batch = det->solve_batch(y_batch);
  CVector y;
  for (std::size_t v = 0; v < 5; ++v) {
    y_batch.col_into(v, y);
    const DetectionResult r = loop_det->solve(y);
    for (std::size_t k = 0; k < 2; ++k)
      EXPECT_EQ(batch.indices[v * 2 + k], r.indices[k]) << "v=" << v;
  }
}

TEST(BatchSolve, EmptyBatchIsWellDefined) {
  for (const char* name : {"zf", "geosphere"}) {
    const auto det = DetectorSpec::parse(name).create(Constellation::qam(16));
    Rng rng(1313);
    det->prepare(random_channel(rng, 4, 2), db_to_lin(-14.0));
    const BatchResult batch = det->solve_batch(linalg::CMatrix(4, 0));
    EXPECT_EQ(batch.count, 0u) << name;
    EXPECT_TRUE(batch.indices.empty()) << name;
    EXPECT_EQ(batch.stats.ped_computations, 0u) << name;
  }
}

TEST(BatchSolve, LinkAccountingCountsBatchOfNAsNDetections) {
  // The satellite's accounting contract: batched and per-vector paths
  // report identical detection_calls / ped work -- a batch of N counts as
  // N detections and one batch_call, and preparations are untouched.
  channel::ChannelSpec spec = channel::ChannelSpec::parse("rayleigh");
  link::LinkScenario scenario;
  scenario.frame.qam_order = 16;
  scenario.frame.payload_bytes = 100;
  scenario.snr_db = 18.0;
  const phy::FrameCodec codec(scenario.frame);
  const std::size_t nsc = scenario.frame.data_subcarriers;
  const std::size_t syms = codec.ofdm_symbols_per_frame();
  ASSERT_GE(syms, 2u);

  link::LinkSimulator sim(spec, 2, 4, scenario);
  const std::size_t frames = 3;
  for (const char* name : {"geosphere", "soft-geosphere"}) {
    const DetectorSpec ds = DetectorSpec::parse(name);
    const auto det = ds.create(Constellation::qam(16));
    const link::LinkStats stats = sim.run(*det, ds.decision(), frames, /*seed=*/7);
    EXPECT_EQ(stats.detection_calls, frames * nsc * syms) << name;
    EXPECT_EQ(stats.detection.batch_calls, frames * nsc) << name;
    EXPECT_EQ(stats.detection.preprocess_calls, frames * nsc) << name;
  }
}

/// The golden LinkStats below were recorded by running THIS scenario on the
/// PR 4 build (per-vector simulate_frame, before solve_batch existed). The
/// batched link layer must reproduce every counter bit-for-bit.
struct GoldenLink {
  const char* detector;
  std::size_t bit_errors, fe0, fe1;
  std::uint64_t ped, visited, slicer, lb_lookups, lb_prunes, queue;
};

TEST(BatchSolve, LinkStatsMatchPreBatchingGoldensBitForBit) {
  link::LinkScenario scenario;
  scenario.frame.qam_order = 16;
  scenario.frame.payload_bytes = 120;
  scenario.snr_db = 16.0;
  scenario.snr_jitter_db = 3.0;

  const auto chspec = channel::ChannelSpec::parse("kronecker:0.6");
  link::LinkSimulator sim(chspec, 2, 4, scenario);
  const Constellation& c = Constellation::qam(16);
  const std::size_t frames = 4;
  const std::uint64_t seed = 42;

  const GoldenLink goldens[] = {
      {"geosphere", 0, 0, 0, 4531, 4255, 4243, 8503, 8215, 8525},
      {"mmse-sic", 0, 0, 0, 0, 0, 4224, 0, 0, 0},
      {"soft-geosphere", 0, 0, 0, 153168, 43140, 55622, 139431, 41885, 180296},
  };
  for (const GoldenLink& g : goldens) {
    const DetectorSpec ds = DetectorSpec::parse(g.detector);
    const auto det = ds.create(c);
    const link::LinkStats s = sim.run(*det, ds.decision(), frames, seed);
    EXPECT_EQ(s.frames, frames) << g.detector;
    EXPECT_EQ(s.payload_bits, frames * 2 * scenario.frame.payload_bits()) << g.detector;
    EXPECT_EQ(s.bit_errors, g.bit_errors) << g.detector;
    EXPECT_EQ(s.client_frame_errors[0], g.fe0) << g.detector;
    EXPECT_EQ(s.client_frame_errors[1], g.fe1) << g.detector;
    EXPECT_EQ(s.detection.ped_computations, g.ped) << g.detector;
    EXPECT_EQ(s.detection.visited_nodes, g.visited) << g.detector;
    EXPECT_EQ(s.detection.slicer_ops, g.slicer) << g.detector;
    EXPECT_EQ(s.detection.lb_lookups, g.lb_lookups) << g.detector;
    EXPECT_EQ(s.detection.lb_prunes, g.lb_prunes) << g.detector;
    EXPECT_EQ(s.detection.queue_ops, g.queue) << g.detector;
    EXPECT_EQ(s.detection.preprocess_calls, frames * 48u) << g.detector;
    EXPECT_EQ(s.detection_calls, frames * 48u * 11u) << g.detector;
  }
}

TEST(BatchSolve, BatchedLinkIsThreadCountInvariant) {
  // The batched simulate_frame keeps the engine's bit-identical-for-any-
  // thread-count guarantee, including the new batch_calls counter.
  link::LinkScenario scenario;
  scenario.frame.qam_order = 16;
  scenario.frame.payload_bytes = 80;
  scenario.snr_db = 15.0;

  const auto chspec = channel::ChannelSpec::parse("kronecker:0.6");
  sim::Engine one(1);
  sim::Engine four(4);
  for (const char* name : {"geosphere", "soft-geosphere", "soft-geosphere-sts"}) {
    const DetectorSpec ds = DetectorSpec::parse(name);
    const link::LinkStats a = one.run_link(chspec, 2, 4, scenario, ds, 8, /*seed=*/5);
    const link::LinkStats b = four.run_link(chspec, 2, 4, scenario, ds, 8, /*seed=*/5);
    EXPECT_EQ(a.bit_errors, b.bit_errors) << name;
    EXPECT_EQ(a.client_frame_errors, b.client_frame_errors) << name;
    EXPECT_EQ(a.detection_calls, b.detection_calls) << name;
    EXPECT_EQ(a.detection.ped_computations, b.detection.ped_computations) << name;
    EXPECT_EQ(a.detection.batch_calls, b.detection.batch_calls) << name;
    EXPECT_EQ(a.detection.preprocess_calls, b.detection.preprocess_calls) << name;
    EXPECT_EQ(a.detection.tree_searches, b.detection.tree_searches) << name;
    EXPECT_EQ(a.detection.counter_updates, b.detection.counter_updates) << name;
  }
}

}  // namespace
}  // namespace geosphere
