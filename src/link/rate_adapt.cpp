#include "link/rate_adapt.h"

#include <algorithm>
#include <numeric>

#include "link/throughput.h"

namespace geosphere::link {

RateChoice rate_choice(const LinkSimulator& sim, LinkStats stats) {
  const phy::FrameConfig& frame = sim.scenario().frame;
  RateChoice out;
  out.qam_order = frame.qam_order;
  out.code_rate = frame.code_rate_value();
  out.throughput_mbps =
      net_throughput_mbps(sim.channel().num_tx(), frame.qam_order, out.code_rate,
                          stats.per_client_fer(), frame.data_subcarriers);
  out.simulated_frames = stats.frames;
  out.stats = std::move(stats);
  return out;
}

RateChoice best_rate(const channel::ChannelModel& channel, LinkScenario base,
                     const DetectorSpec& spec, std::size_t frames,
                     std::uint64_t seed, const std::vector<unsigned>& candidate_qams,
                     const FrameBatchRunner& runner) {
  // Each candidate's throughput if every frame decoded: the same call
  // rate_choice makes, with an all-zero FER vector (see the header for
  // why this bounds the simulated throughput bit for bit).
  const std::size_t nq = candidate_qams.size();
  const std::vector<double> no_errors(channel.num_tx(), 0.0);
  std::vector<double> bound(nq);
  for (std::size_t i = 0; i < nq; ++i)
    bound[i] = net_throughput_mbps(channel.num_tx(), candidate_qams[i],
                                   base.frame.code_rate_value(), no_errors,
                                   base.frame.data_subcarriers);

  // Highest bound first; equal bounds (a repeated QAM) keep list order.
  std::vector<std::size_t> order(nq);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return bound[a] > bound[b]; });

  RateSelector selector;
  std::size_t simulated_frames = 0;
  for (const std::size_t i : order) {
    if (!selector.can_win(i, bound[i])) continue;
    LinkScenario scenario = base;
    scenario.frame.qam_order = candidate_qams[i];
    const LinkSimulator sim(channel, scenario);
    // Identical draws for every candidate: same seed, per-frame seeding.
    RateChoice choice = rate_choice(sim, runner(sim, spec, frames, seed));
    simulated_frames += choice.simulated_frames;
    selector.offer(i, std::move(choice));
  }
  RateChoice best = std::move(selector.choice());
  best.simulated_frames = simulated_frames;
  return best;
}

}  // namespace geosphere::link
