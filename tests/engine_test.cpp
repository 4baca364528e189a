// Tests for the parallel deterministic experiment engine: the thread
// pool, bit-identical results across thread counts, parity with the
// sequential LinkSimulator, and the declarative sweep runner.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "channel/kronecker.h"
#include "channel/rayleigh.h"
#include "channel/spec.h"
#include "channel/testbed_ensemble.h"
#include "channel/trace.h"
#include "coding/simd/dispatch.h"
#include "detect/spec.h"
#include "link/link_simulator.h"
#include "sim/conditioning_experiment.h"
#include "sim/engine.h"
#include "sim/thread_pool.h"

namespace geosphere::sim {
namespace {

link::LinkScenario small_scenario(unsigned qam, double snr_db) {
  link::LinkScenario s;
  s.frame.qam_order = qam;
  s.frame.payload_bytes = 100;
  s.snr_db = snr_db;
  return s;
}

void expect_identical(const link::LinkStats& a, const link::LinkStats& b) {
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.clients, b.clients);
  EXPECT_EQ(a.client_frame_errors, b.client_frame_errors);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.payload_bits, b.payload_bits);
  EXPECT_EQ(a.crc_frames_ok, b.crc_frames_ok);
  EXPECT_EQ(a.crc_frames_error, b.crc_frames_error);
  EXPECT_EQ(a.delivered_payload_bits, b.delivered_payload_bits);
  EXPECT_EQ(a.ofdm_symbol_slots, b.ofdm_symbol_slots);
  EXPECT_EQ(a.detection_calls, b.detection_calls);
  EXPECT_EQ(a.detection.ped_computations, b.detection.ped_computations);
  EXPECT_EQ(a.detection.visited_nodes, b.detection.visited_nodes);
  EXPECT_EQ(a.detection.lb_lookups, b.detection.lb_lookups);
  EXPECT_EQ(a.detection.lb_prunes, b.detection.lb_prunes);
  EXPECT_EQ(a.detection.slicer_ops, b.detection.slicer_ops);
  EXPECT_EQ(a.detection.queue_ops, b.detection.queue_ops);
  EXPECT_DOUBLE_EQ(a.fer(), b.fer());
  EXPECT_DOUBLE_EQ(a.ber(), b.ber());
}

TEST(ThreadPool, RunsEveryWorkerExactlyOnce) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  std::atomic<int> calls{0};
  std::set<std::size_t> indices;
  std::mutex mu;
  pool.run_on_workers([&](std::size_t w) {
    ++calls;
    std::lock_guard<std::mutex> lock(mu);
    indices.insert(w);
  });
  EXPECT_EQ(calls.load(), 4);
  EXPECT_EQ(indices, (std::set<std::size_t>{0, 1, 2, 3}));
}

TEST(ThreadPool, ParallelForCoversAllIndicesOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.run_on_workers([](std::size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  // The pool must survive a failed job.
  std::atomic<int> calls{0};
  pool.run_on_workers([&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 2);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  pool.run_on_workers([&](std::size_t w) {
    EXPECT_EQ(w, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(Engine, SingleThreadMatchesDirectLinkSimulatorRun) {
  channel::RayleighChannel ch(4, 2);
  link::LinkSimulator sim(ch, small_scenario(16, 14.0));
  const Constellation& c = Constellation::qam(16);
  const DetectorSpec geo = DetectorSpec::parse("geosphere");
  const auto det = geo.create(c);
  const link::LinkStats direct = sim.run(*det, DecisionMode::kHard, 30, /*seed=*/42);

  Engine engine(1);
  const link::LinkStats pooled = engine.run_link(sim, geo, 30, 42);
  expect_identical(direct, pooled);
}

TEST(Engine, ResultsBitIdenticalAcrossThreadCounts) {
  // The issue's headline guarantee: 1 thread vs 8 threads, same master
  // seed => identical LinkStats (FER, BER, PED counts, everything).
  channel::TestbedConfig tc;
  tc.clients = 2;
  tc.ap_antennas = 4;
  const channel::TestbedEnsemble ch(tc);
  link::LinkSimulator sim(ch, small_scenario(16, 14.0));

  Engine one(1);
  Engine eight(8);
  const DetectorSpec geo = DetectorSpec::parse("geosphere");
  const link::LinkStats a = one.run_link(sim, geo, 40, 7);
  const link::LinkStats b = eight.run_link(sim, geo, 40, 7);
  EXPECT_GT(a.frames, 0u);
  EXPECT_GT(a.detection.ped_computations, 0u);
  expect_identical(a, b);
}

TEST(Engine, ZeroFramesYieldsEmptyInitializedStats) {
  channel::RayleighChannel ch(2, 2);
  link::LinkSimulator sim(ch, small_scenario(4, 20.0));
  Engine engine(2);
  const link::LinkStats stats = engine.run_link(sim, DetectorSpec::parse("zf"), 0, 1);
  EXPECT_EQ(stats.frames, 0u);
  EXPECT_EQ(stats.clients, 2u);
  EXPECT_DOUBLE_EQ(stats.fer(), 0.0);
}

TEST(Engine, BestRateMatchesSequentialBestRate) {
  channel::RayleighChannel ch(4, 2);
  link::LinkScenario base = small_scenario(16, 30.0);
  const DetectorSpec geo = DetectorSpec::parse("geosphere");
  const link::RateChoice seq = link::best_rate(ch, base, geo, 15, 9, {4, 16, 64});
  Engine engine(3);
  const link::RateChoice par = engine.best_rate(ch, base, geo, 15, 9, {4, 16, 64});
  EXPECT_EQ(seq.qam_order, par.qam_order);
  EXPECT_DOUBLE_EQ(seq.throughput_mbps, par.throughput_mbps);
  EXPECT_EQ(seq.simulated_frames, par.simulated_frames);
  expect_identical(seq.stats, par.stats);
}

TEST(Engine, RunSweepProducesSnrMajorDetectorOrderedCells) {
  channel::TestbedConfig tc;
  tc.clients = 2;
  tc.ap_antennas = 2;
  const channel::TestbedEnsemble ch(tc);

  SweepSpec spec;
  spec.detectors = {"zf", "geosphere"};
  spec.snr_grid_db = {15.0, 25.0};
  spec.candidate_qams = {4, 16};
  spec.frames = 10;
  spec.payload_bytes = 100;
  spec.seed = 5;

  Engine engine(2);
  const auto cells = engine.run_sweep(ch, spec);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].detector, "zf");
  EXPECT_EQ(cells[1].detector, "geosphere");
  EXPECT_DOUBLE_EQ(cells[0].snr_db, 15.0);
  EXPECT_DOUBLE_EQ(cells[2].snr_db, 25.0);
  for (const auto& cell : cells) {
    EXPECT_GT(cell.best_qam, 0u);
    EXPECT_EQ(cell.stats.frames, 10u);
  }
  // Paired workloads: both detectors at one SNR point see the same frames,
  // so the ML detector can't do worse than linear ZF on FER.
  EXPECT_LE(cells[1].stats.fer(), cells[0].stats.fer() + 1e-12);
}

TEST(Engine, RunSweepDeterministicAcrossThreadCounts) {
  channel::RayleighChannel ch(4, 2);
  SweepSpec spec;
  spec.detectors = {"geosphere"};
  spec.snr_grid_db = {18.0};
  spec.candidate_qams = {16};
  spec.frames = 12;
  spec.payload_bytes = 100;
  spec.seed = 11;

  Engine one(1);
  Engine four(4);
  const auto a = one.run_sweep(ch, spec);
  const auto b = four.run_sweep(ch, spec);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].best_qam, b[0].best_qam);
  EXPECT_DOUBLE_EQ(a[0].throughput_mbps, b[0].throughput_mbps);
  expect_identical(a[0].stats, b[0].stats);
}

TEST(Engine, ConditioningDeterministicAcrossThreadCounts) {
  ConditioningConfig config;
  config.sizes = {{2, 2}};
  config.links = 16;
  config.subcarriers = 4;
  Engine one(1);
  Engine four(4);
  const auto a = run_conditioning(one, config);
  const auto b = run_conditioning(four, config);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].kappa_sq_db.count(), 16u * 4u);
  // Sample-for-sample identical CDFs regardless of thread count.
  for (const double p : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_DOUBLE_EQ(a[0].kappa_sq_db.percentile(p), b[0].kappa_sq_db.percentile(p));
    EXPECT_DOUBLE_EQ(a[0].lambda_db.percentile(p), b[0].lambda_db.percentile(p));
  }
}

TEST(DetectorRegistry, EveryPlainNameCreatesADetector) {
  for (const auto& name : detector_names()) {
    const DetectorSpec spec = DetectorSpec::parse(name);
    const auto detector = spec.create(Constellation::qam(16));
    ASSERT_NE(detector, nullptr) << name;
    EXPECT_FALSE(detector->name().empty());
    // The spec's decision mode must be servable by the created instance.
    if (spec.decision() == DecisionMode::kSoft) {
      EXPECT_NE(detector->soft(), nullptr);
    }
  }
}

TEST(Engine, SoftRunLinkBitIdenticalAcrossThreadsAndMatchesSequential) {
  // The old sequential-only run_soft semantics, preserved by the unified
  // path: Engine::run_link with a soft spec at 1 and 8 threads both equal
  // the direct sequential LinkSimulator::run in soft mode.
  channel::RayleighChannel ch(4, 2);
  link::LinkScenario scenario = small_scenario(16, 10.0);
  scenario.frame.payload_bytes = 60;
  link::LinkSimulator sim(ch, scenario);

  const DetectorSpec spec = DetectorSpec::parse("soft-geosphere-sts");
  ASSERT_EQ(spec.decision(), DecisionMode::kSoft);
  const auto det = spec.create(Constellation::qam(16));
  const link::LinkStats direct = sim.run(*det, DecisionMode::kSoft, 10, /*seed=*/33);

  Engine one(1);
  Engine eight(8);
  const link::LinkStats a = one.run_link(sim, spec, 10, 33);
  const link::LinkStats b = eight.run_link(sim, spec, 10, 33);
  EXPECT_GT(a.frames, 0u);
  expect_identical(direct, a);
  expect_identical(a, b);
}

TEST(Engine, RunSweepCellParallelDeterministicAcrossThreadCounts) {
  // The sweep is one flat (cell x candidate x frame) work pool; with
  // multiple cells and candidates, any thread count must produce the same
  // cells bit for bit.
  channel::RayleighChannel ch(4, 2);
  SweepSpec spec;
  spec.detectors = {"zf", "geosphere"};
  spec.snr_grid_db = {14.0, 22.0};
  spec.candidate_qams = {4, 16};
  spec.frames = 8;
  spec.payload_bytes = 100;
  spec.seed = 13;

  Engine one(1);
  Engine four(4);
  const auto a = one.run_sweep(ch, spec);
  const auto b = four.run_sweep(ch, spec);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].detector, b[i].detector);
    EXPECT_EQ(a[i].decision, b[i].decision);
    EXPECT_DOUBLE_EQ(a[i].snr_db, b[i].snr_db);
    EXPECT_EQ(a[i].best_qam, b[i].best_qam);
    EXPECT_DOUBLE_EQ(a[i].throughput_mbps, b[i].throughput_mbps);
    expect_identical(a[i].stats, b[i].stats);
  }
}

TEST(Engine, CodedSweepBitIdenticalAcrossThreadCountsAndKernelTiers) {
  // The coded pipeline's determinism contract: with the code axis and the
  // quantized decoder on the hot path, every counter (coded BER / CRC-FER /
  // goodput inputs included) is bit-identical for any thread count and for
  // every compiled-and-supported Viterbi kernel tier.
  SweepSpec spec;
  spec.channel = "kronecker:0.6";
  spec.clients = 2;
  spec.antennas = 4;
  spec.detectors = {"geosphere"};
  spec.codes = {"1/2", "3/4", "none"};
  spec.viterbi = phy::ViterbiImpl::kQuantized;
  spec.snr_grid_db = {14.0, 22.0};
  spec.candidate_qams = {16};
  spec.frames = 6;
  spec.payload_bytes = 100;
  spec.seed = 19;

  Engine one(1);
  Engine four(4);
  const auto a = one.run_sweep(spec);
  const auto b = four.run_sweep(spec);
  ASSERT_EQ(a.size(), 6u);  // 2 SNRs x 1 detector x 3 codes.
  ASSERT_EQ(b.size(), 6u);
  bool any_crc_error = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].code, spec.codes[i % 3]);
    EXPECT_EQ(a[i].code, b[i].code);
    EXPECT_DOUBLE_EQ(a[i].code_rate, b[i].code_rate);
    EXPECT_EQ(a[i].best_qam, b[i].best_qam);
    EXPECT_DOUBLE_EQ(a[i].throughput_mbps, b[i].throughput_mbps);
    expect_identical(a[i].stats, b[i].stats);
    EXPECT_EQ(a[i].stats.crc_frames_ok + a[i].stats.crc_frames_error,
              a[i].stats.frames * spec.clients);
    EXPECT_GT(a[i].stats.ofdm_symbol_slots, 0u);
    any_crc_error |= a[i].stats.crc_frames_error > 0;
  }
  // 14 dB at rate 3/4 / uncoded must produce real CRC failures, otherwise
  // the goodput axis isn't exercised.
  EXPECT_TRUE(any_crc_error);

  // Kernel tiers: pin each supported tier and re-run; the quantized
  // decoder's cross-tier bit-identity must carry through the full sweep.
  for (const auto& kernel : coding::simd::supported_viterbi_kernels()) {
    coding::simd::set_viterbi_kernel_override(kernel->name);
    Engine tier(3);
    const auto c = tier.run_sweep(spec);
    coding::simd::set_viterbi_kernel_override(nullptr);
    ASSERT_EQ(c.size(), a.size()) << kernel->name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].best_qam, c[i].best_qam) << kernel->name;
      EXPECT_DOUBLE_EQ(a[i].throughput_mbps, c[i].throughput_mbps) << kernel->name;
      expect_identical(a[i].stats, c[i].stats);
    }
  }
}

TEST(Engine, RunSweepSupportsSoftDetectors) {
  channel::RayleighChannel ch(4, 2);
  SweepSpec spec;
  spec.detectors = {"soft-geosphere-sts"};
  spec.snr_grid_db = {12.0};
  spec.candidate_qams = {4};
  spec.frames = 4;
  spec.payload_bytes = 60;
  spec.seed = 3;

  Engine engine(2);
  const auto cells = engine.run_sweep(ch, spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].decision, DecisionMode::kSoft);
  EXPECT_EQ(cells[0].stats.frames, 4u);
  EXPECT_GT(cells[0].stats.detection_calls, 0u);

  // A decision override to soft must be rejected for hard-only detectors.
  spec.detectors = {"zf"};
  spec.decision = DecisionMode::kSoft;
  EXPECT_THROW(engine.run_sweep(ch, spec), std::invalid_argument);
  // ...and forcing the soft detector to hard mode is allowed.
  spec.detectors = {"soft-geosphere-sts"};
  spec.decision = DecisionMode::kHard;
  const auto hard_cells = engine.run_sweep(ch, spec);
  ASSERT_EQ(hard_cells.size(), 1u);
  EXPECT_EQ(hard_cells[0].decision, DecisionMode::kHard);
}

TEST(Engine, RunSweepRejectsARepeatedCandidateQam) {
  // A repeat can never win (a tie goes to the first entry) but would cost
  // a candidate per sweep point, so the up-front validation refuses it.
  channel::RayleighChannel ch(4, 2);
  SweepSpec spec;
  spec.detectors = {"zf"};
  spec.snr_grid_db = {20.0};
  spec.candidate_qams = {16, 64, 16};
  spec.frames = 1;
  Engine engine(1);
  try {
    (void)engine.run_sweep(ch, spec);
    FAIL() << "expected a repeated candidate QAM to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("candidate QAM 16"), std::string::npos)
        << e.what();
  }
}

TEST(Engine, SpecBasedSweepMatchesExplicitModel) {
  // The declarative route (SweepSpec.channel resolved through the
  // engine's channel cache) is bit-identical to handing run_sweep the
  // equivalent hand-constructed model.
  SweepSpec spec;
  spec.channel = "kronecker:0.7";
  spec.clients = 2;
  spec.antennas = 4;
  spec.detectors = {"zf", "geosphere"};
  spec.snr_grid_db = {14.0, 22.0};
  spec.candidate_qams = {4, 16};
  spec.frames = 6;
  spec.payload_bytes = 100;
  spec.seed = 21;

  Engine engine(2);
  const auto declarative = engine.run_sweep(spec);

  const channel::KroneckerChannel explicit_model(4, 2, 0.7, 0.7);
  const auto reference = engine.run_sweep(explicit_model, spec);

  ASSERT_EQ(declarative.size(), reference.size());
  for (std::size_t i = 0; i < declarative.size(); ++i) {
    EXPECT_EQ(declarative[i].channel, "kronecker:0.7");
    EXPECT_EQ(reference[i].channel, "custom");
    EXPECT_EQ(declarative[i].detector, reference[i].detector);
    EXPECT_EQ(declarative[i].best_qam, reference[i].best_qam);
    EXPECT_DOUBLE_EQ(declarative[i].throughput_mbps, reference[i].throughput_mbps);
    expect_identical(declarative[i].stats, reference[i].stats);
  }
}

TEST(Engine, SpecBasedSweepDeterministicAcrossThreadCounts) {
  SweepSpec spec;
  spec.channel = "kronecker:0.7";
  spec.clients = 2;
  spec.antennas = 2;
  spec.detectors = {"geosphere"};
  spec.snr_grid_db = {16.0};
  spec.candidate_qams = {16};
  spec.frames = 10;
  spec.payload_bytes = 100;
  spec.seed = 4;

  Engine one(1);
  Engine four(4);
  const auto a = one.run_sweep(spec);
  const auto b = four.run_sweep(spec);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].best_qam, b[0].best_qam);
  EXPECT_DOUBLE_EQ(a[0].throughput_mbps, b[0].throughput_mbps);
  expect_identical(a[0].stats, b[0].stats);
}

TEST(Engine, CrossChannelPairedSeeds) {
  // The paper's paired-comparison methodology extended to the channel
  // axis: the seed of SNR point `si` is Rng::derive_seed(spec.seed, si)
  // regardless of the channel, so sweeps that differ only in channel stay
  // paired point-for-point. Verified by reproducing each channel's cell
  // from the same derived seed with a direct sequential run.
  SweepSpec spec;
  spec.clients = 2;
  spec.antennas = 4;
  spec.detectors = {"geosphere"};
  spec.snr_grid_db = {12.0, 18.0};
  spec.candidate_qams = {16};
  spec.frames = 6;
  spec.payload_bytes = 100;
  spec.seed = 77;

  Engine engine(3);
  const Constellation& c = Constellation::qam(16);
  for (const std::string channel : {"rayleigh", "kronecker:0.7"}) {
    spec.channel = channel;
    const auto cells = engine.run_sweep(spec);
    ASSERT_EQ(cells.size(), 2u);

    const auto model = channel::ChannelSpec::parse(channel).create(2, 4);
    for (std::size_t si = 0; si < spec.snr_grid_db.size(); ++si) {
      link::LinkScenario scenario;
      scenario.frame.qam_order = 16;
      scenario.frame.payload_bytes = 100;
      scenario.snr_db = spec.snr_grid_db[si];
      scenario.snr_jitter_db = spec.snr_jitter_db;
      link::LinkSimulator sim(*model, scenario);
      const auto det = DetectorSpec::parse("geosphere").create(c);
      const link::LinkStats direct =
          sim.run(*det, DecisionMode::kHard, spec.frames,
                  Rng::derive_seed(spec.seed, si));
      expect_identical(direct, cells[si].stats);
    }
  }
}

TEST(Engine, SpecBasedHelpersMatchExplicitModel) {
  // The spec-based routes to a channel -- the engine's channel cache and
  // the owning LinkSimulator constructor -- run the same link as a model
  // constructed by hand.
  const channel::ChannelSpec chspec = channel::ChannelSpec::parse("kronecker:0.7");
  const channel::KroneckerChannel model(4, 2, 0.7, 0.7);
  link::LinkScenario base = small_scenario(16, 18.0);
  const DetectorSpec zf = DetectorSpec::parse("zf");

  Engine engine(2);
  const link::LinkSimulator cached(engine.channel(chspec, 2, 4), base);
  const link::LinkStats a = engine.run_link(cached, zf, 8, 5);
  const link::LinkStats b = engine.run_link(link::LinkSimulator(model, base), zf, 8, 5);
  expect_identical(a, b);

  const link::LinkSimulator owning(chspec, 2, 4, base);
  EXPECT_EQ(owning.channel().num_tx(), 2u);
  EXPECT_EQ(owning.channel().num_rx(), 4u);
  const auto det = zf.create(Constellation::qam(16));
  expect_identical(owning.run(*det, DecisionMode::kHard, 8, 5), a);
}

TEST(Engine, TraceRoundTripSweepDeterministicAcrossThreadCounts) {
  // The full trace-driven loop: record from a live ensemble, save, replay
  // via a "trace:FILE" SweepSpec -- identical cells for any thread count,
  // and a second run through the engine's channel cache stays identical
  // (the file is only loaded once per engine).
  const std::string path =
      (std::filesystem::temp_directory_path() / "geo_engine_trace.geotrace").string();
  {
    const channel::RayleighChannel live(2, 2);
    Rng rec(11);
    channel::save_trace(path, channel::record_trace(live, 6, 48, rec));
  }

  SweepSpec spec;
  spec.channel = "trace:" + path;
  spec.clients = 2;  // Ignored: the trace fixes 2x2.
  spec.antennas = 2;
  spec.detectors = {"zf", "geosphere"};
  spec.snr_grid_db = {15.0, 25.0};
  spec.candidate_qams = {4, 16};
  spec.frames = 6;
  spec.payload_bytes = 100;
  spec.seed = 8;

  Engine one(1);
  Engine four(4);
  const auto a = one.run_sweep(spec);
  const auto b = four.run_sweep(spec);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].channel, spec.channel);
    EXPECT_EQ(a[i].best_qam, b[i].best_qam);
    EXPECT_DOUBLE_EQ(a[i].throughput_mbps, b[i].throughput_mbps);
    expect_identical(a[i].stats, b[i].stats);
  }

  const auto again = four.run_sweep(spec);
  for (std::size_t i = 0; i < a.size(); ++i)
    expect_identical(a[i].stats, again[i].stats);
  std::remove(path.c_str());
}

TEST(Engine, ChannelCacheReturnsOneInstancePerSpecAndDims) {
  Engine engine(2);
  const channel::ChannelSpec spec = channel::ChannelSpec::parse("indoor");
  const channel::ChannelModel& a = engine.channel(spec, 2, 4);
  const channel::ChannelModel& b = engine.channel(spec, 2, 4);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.num_tx(), 2u);
  EXPECT_EQ(a.num_rx(), 4u);
  // Different dimensions or an equivalent spelling of the same spec.
  const channel::ChannelModel& c = engine.channel(spec, 4, 4);
  EXPECT_NE(&a, &c);
  const channel::ChannelModel& d =
      engine.channel(channel::ChannelSpec::parse("kronecker:0.50"), 2, 4);
  const channel::ChannelModel& e =
      engine.channel(channel::ChannelSpec::parse("kronecker"), 2, 4);
  EXPECT_EQ(&d, &e);

  // Fixed-dims specs (traces) share one entry regardless of the requested
  // dimensions: the file is loaded once per engine.
  const std::string path =
      (std::filesystem::temp_directory_path() / "geo_cache_trace.geotrace").string();
  {
    const channel::RayleighChannel live(2, 2);
    Rng rec(1);
    channel::save_trace(path, channel::record_trace(live, 2, 4, rec));
  }
  const channel::ChannelSpec trace = channel::ChannelSpec::parse("trace:" + path);
  const channel::ChannelModel& t1 = engine.channel(trace, 2, 2);
  const channel::ChannelModel& t2 = engine.channel(trace, 4, 4);
  EXPECT_EQ(&t1, &t2);
  std::remove(path.c_str());
}

TEST(Engine, PerWorkerDetectorCacheIsTransparent) {
  // Cached detector instances are reused across engine calls; reuse must
  // not change any statistic (detectors reset per detect() call).
  channel::RayleighChannel ch(4, 2);
  link::LinkSimulator sim(ch, small_scenario(16, 14.0));
  const DetectorSpec geo = DetectorSpec::parse("geosphere");

  Engine engine(2);
  const link::LinkStats first = engine.run_link(sim, geo, 12, 5);
  const link::LinkStats again = engine.run_link(sim, geo, 12, 5);
  expect_identical(first, again);

  // Same cache, different constellation key: must not collide.
  link::LinkSimulator sim64(ch, small_scenario(64, 14.0));
  const link::LinkStats other = engine.run_link(sim64, geo, 6, 5);
  EXPECT_EQ(other.frames, 6u);
  const link::LinkStats third = engine.run_link(sim, geo, 12, 5);
  expect_identical(first, third);
}

}  // namespace
}  // namespace geosphere::sim
