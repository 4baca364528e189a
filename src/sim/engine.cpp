#include "sim/engine.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "coding/spec.h"

namespace geosphere::sim {

Detector& Engine::worker_detector(std::size_t worker, const DetectorSpec& spec,
                                  unsigned qam_order) {
  const std::string key = spec.text() + "@" + std::to_string(qam_order);
  auto& slot = detector_cache_[worker][key];
  if (!slot) slot = spec.create(Constellation::qam(qam_order));
  return *slot;
}

const channel::ChannelModel& Engine::channel(const channel::ChannelSpec& spec,
                                             std::size_t clients, std::size_t antennas) {
  // Fixed-dims specs (traces) ignore the requested dimensions, so they
  // share one entry regardless of clients/antennas -- the file is loaded
  // once per engine even across differently-sized sweeps.
  const std::string key =
      spec.fixed_dims()
          ? spec.text()
          : spec.text() + "@" + std::to_string(clients) + "x" + std::to_string(antennas);
  auto& slot = channel_cache_[key];
  if (!slot) slot = spec.create(clients, antennas);
  return *slot;
}

link::LinkStats Engine::run_link(const link::LinkSimulator& sim, const DetectorSpec& spec,
                                 std::size_t frames, std::uint64_t seed) {
  const unsigned qam = sim.scenario().frame.qam_order;
  std::vector<link::LinkStats> partial(pool_.size());
  std::atomic<std::size_t> next{0};
  pool_.run_on_workers([&](std::size_t worker) {
    Detector& detector = worker_detector(worker, spec, qam);
    link::LinkStats& local = partial[worker];
    for (std::size_t f; (f = next.fetch_add(1, std::memory_order_relaxed)) < frames;) {
      Rng rng = Rng::for_frame(seed, f);
      sim.simulate_frame(detector, spec.decision(), rng, local);
    }
  });

  link::LinkStats total;
  sim.init_stats(total);  // frames == 0 parity with LinkSimulator::run.
  for (const auto& p : partial) total += p;
  return total;
}

link::FrameBatchRunner Engine::runner() {
  return [this](const link::LinkSimulator& sim, const DetectorSpec& spec,
                std::size_t frames, std::uint64_t seed) {
    return run_link(sim, spec, frames, seed);
  };
}

link::RateChoice Engine::best_rate(const channel::ChannelModel& channel,
                                   link::LinkScenario base, const DetectorSpec& spec,
                                   std::size_t frames, std::uint64_t seed,
                                   const std::vector<unsigned>& candidate_qams) {
  return link::best_rate(channel, base, spec, frames, seed, candidate_qams, runner());
}

double Engine::find_snr_for_fer(const channel::ChannelModel& channel,
                                link::LinkScenario base, const DetectorSpec& spec,
                                const link::SnrSearchConfig& config, std::uint64_t seed) {
  return link::find_snr_for_fer(channel, base, spec, config, seed, runner());
}

std::vector<SweepCell> Engine::run_sweep(const channel::ChannelModel& channel,
                                         const SweepSpec& spec) {
  return run_sweep_impl(channel, spec, "custom");
}

std::vector<SweepCell> Engine::run_sweep(const SweepSpec& spec) {
  const channel::ChannelSpec chspec = channel::ChannelSpec::parse(spec.channel);
  return run_sweep_impl(channel(chspec, spec.clients, spec.antennas), spec,
                        chspec.text());
}

std::vector<SweepCell> Engine::run_sweep_impl(const channel::ChannelModel& channel,
                                              const SweepSpec& spec,
                                              const std::string& channel_label) {
  // Parse and validate every detector (including the decision override)
  // before any work is scheduled.
  std::vector<DetectorSpec> specs;
  specs.reserve(spec.detectors.size());
  for (const std::string& name : spec.detectors) {
    DetectorSpec parsed = DetectorSpec::parse(name);
    if (spec.decision) parsed = parsed.with_decision(*spec.decision);
    specs.push_back(std::move(parsed));
  }

  // Parse the code axis up front too (strict: a typo fails the sweep
  // before any frame is simulated).
  std::vector<coding::CodeSpec> code_specs;
  code_specs.reserve(spec.codes.size());
  for (const std::string& code : spec.codes)
    code_specs.push_back(coding::CodeSpec::parse(code));
  if (code_specs.empty())
    throw std::invalid_argument("SweepSpec: codes must not be empty");
  // A repeated QAM can never win (a tie goes to the first entry), yet it
  // would cost a candidate per sweep point.
  for (std::size_t qi = 0; qi < spec.candidate_qams.size(); ++qi)
    if (std::find(spec.candidate_qams.begin(), spec.candidate_qams.begin() + qi,
                  spec.candidate_qams[qi]) != spec.candidate_qams.begin() + qi)
      throw std::invalid_argument("SweepSpec: candidate QAM " +
                                  std::to_string(spec.candidate_qams[qi]) +
                                  " is listed more than once");

  const std::size_t ns = spec.snr_grid_db.size();
  const std::size_t nd = specs.size();
  const std::size_t nc = code_specs.size();
  const std::size_t nq = spec.candidate_qams.size();
  const std::size_t frames = spec.frames;

  link::LinkScenario base;
  base.frame.payload_bytes = spec.payload_bytes;
  base.frame.viterbi = spec.viterbi;
  base.snr_jitter_db = spec.snr_jitter_db;

  // One LinkSimulator per (SNR point, code, candidate QAM); detectors
  // share it.
  std::vector<link::LinkSimulator> sims;
  sims.reserve(ns * nc * nq);
  for (std::size_t si = 0; si < ns; ++si) {
    for (std::size_t ci = 0; ci < nc; ++ci) {
      for (std::size_t qi = 0; qi < nq; ++qi) {
        link::LinkScenario scenario = base;
        scenario.snr_db = spec.snr_grid_db[si];
        scenario.frame.set_code(code_specs[ci]);
        scenario.frame.qam_order = spec.candidate_qams[qi];
        sims.emplace_back(channel, scenario);
      }
    }
  }

  // One derived seed per SNR point, shared across detectors and codes so
  // their comparison is paired on identical channel/noise draws.
  std::vector<std::uint64_t> point_seeds(ns);
  for (std::size_t si = 0; si < ns; ++si)
    point_seeds[si] = Rng::derive_seed(spec.seed, si);

  // The whole sweep is one flat work pool over (SNR, detector, code,
  // candidate, frame): cells and rate-adaptation candidates parallelize,
  // not just frames within a cell.
  // partial[worker][((si * nd + di) * nc + ci) * nq + qi] accumulates that
  // worker's frames for one (cell, candidate).
  std::vector<std::vector<link::LinkStats>> partial(
      pool_.size(), std::vector<link::LinkStats>(ns * nd * nc * nq));
  std::atomic<std::size_t> next{0};
  const std::size_t total = ns * nd * nc * nq * frames;
  pool_.run_on_workers([&](std::size_t worker) {
    for (std::size_t g; (g = next.fetch_add(1, std::memory_order_relaxed)) < total;) {
      const std::size_t f = g % frames;
      std::size_t rest = g / frames;
      const std::size_t qi = rest % nq;
      rest /= nq;
      const std::size_t ci = rest % nc;
      rest /= nc;
      const std::size_t di = rest % nd;
      const std::size_t si = rest / nd;

      Detector& detector = worker_detector(worker, specs[di], spec.candidate_qams[qi]);
      Rng rng = Rng::for_frame(point_seeds[si], f);
      sims[(si * nc + ci) * nq + qi].simulate_frame(
          detector, specs[di].decision(), rng,
          partial[worker][((si * nd + di) * nc + ci) * nq + qi]);
    }
  });

  // Assemble cells SNR-major, then detector, then code; each cell offers
  // its candidates, in list order, to the one rate-choice rule.
  std::vector<SweepCell> out;
  out.reserve(ns * nd * nc);
  for (std::size_t si = 0; si < ns; ++si) {
    for (std::size_t di = 0; di < nd; ++di) {
      for (std::size_t ci = 0; ci < nc; ++ci) {
        link::RateSelector selector;
        for (std::size_t qi = 0; qi < nq; ++qi) {
          const link::LinkSimulator& sim = sims[(si * nc + ci) * nq + qi];
          link::LinkStats stats;
          sim.init_stats(stats);
          for (const auto& p : partial)
            stats += p[((si * nd + di) * nc + ci) * nq + qi];
          selector.offer(qi, link::rate_choice(sim, std::move(stats)));
        }
        link::RateChoice& best = selector.choice();
        SweepCell cell;
        cell.detector = spec.detectors[di];
        cell.channel = channel_label;
        cell.decision = specs[di].decision();
        cell.snr_db = spec.snr_grid_db[si];
        cell.code = code_specs[ci].text();
        cell.best_qam = best.qam_order;
        cell.code_rate = best.code_rate;
        cell.throughput_mbps = best.throughput_mbps;
        cell.stats = std::move(best.stats);
        out.push_back(std::move(cell));
      }
    }
  }
  return out;
}

}  // namespace geosphere::sim
