// Ideal (oracle) rate adaptation, emulating the paper's methodology
// (Section 5.2): "we show throughput results for the constellation that
// achieves the best average throughput ... this emulates ideal bit rate
// adaptation and makes the results independent of the rate adaptation
// method employed."
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "channel/channel_model.h"
#include "detect/spec.h"
#include "link/link_simulator.h"

namespace geosphere::link {

struct RateChoice {
  unsigned qam_order = 0;
  /// Information bits per coded bit of the scenario's code (1.0 = uncoded).
  double code_rate = 0.5;
  double throughput_mbps = 0.0;
  LinkStats stats;
  /// Frames simulated to make the choice, summed over every candidate
  /// that was simulated; a skipped candidate adds none.
  std::size_t simulated_frames = 0;
};

/// The choice record of one simulated candidate: `sim`'s QAM order and
/// code rate, and the net throughput of `stats` (link::net_throughput_mbps
/// over sim's clients and data subcarriers).
RateChoice rate_choice(const LinkSimulator& sim, LinkStats stats);

/// The one rate-choice rule: the highest net throughput wins, and a tie
/// goes to the candidate listed first. Candidates may be offered in any
/// order; `index` is a candidate's position in the candidate list.
class RateSelector {
 public:
  /// Whether a candidate at list position `index` whose net throughput is
  /// at most `bound` could still replace the incumbent. When it is false,
  /// offering that candidate changes nothing, so it need not be simulated.
  bool can_win(std::size_t index, double bound) const {
    return index_ == kNone || bound > best_.throughput_mbps ||
           (bound == best_.throughput_mbps && index < index_);
  }

  /// Keeps `choice` as the incumbent when it wins under the rule above.
  void offer(std::size_t index, RateChoice choice) {
    if (!can_win(index, choice.throughput_mbps)) return;
    index_ = index;
    best_ = std::move(choice);
  }

  /// The incumbent: a default RateChoice until the first offer.
  RateChoice& choice() { return best_; }

 private:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::size_t index_ = kNone;
  RateChoice best_;
};

/// Returns the candidate QAM order (at the scenario's code rate) with the
/// highest net throughput, ties to the first-listed, as if every candidate
/// were simulated -- but simulates only those that can still win, by
/// branch and bound. `base.frame.qam_order` is overridden per candidate;
/// every simulated candidate reuses `seed`, so every modulation sees
/// identical channel/noise draws.
///
/// A candidate's bound is its net throughput if every frame decoded:
/// net_throughput_mbps with the same arguments and an all-zero FER vector.
/// The bound holds in floating point, not only in real arithmetic: the
/// sum runs over per_client_rate * (1 - fer) with fer >= 0, each term is
/// at most per_client_rate, and a round-to-nearest sum of non-negative
/// terms in the same order is monotone. Candidates are simulated in
/// descending bound order (list order among equal bounds), and one whose
/// bound cannot beat the incumbent under RateSelector's rule is skipped.
/// So the returned choice -- QAM, code rate, every bit of the throughput
/// and the stats -- is the exhaustive search's, and the simulated set is
/// a subset of the list (at low SNR, where the lowest QAM wins, all of
/// it). A skipped candidate is never simulated, so it cannot throw
/// either, e.g. the no-leaf rule's std::runtime_error on a degenerate
/// channel.
///
/// `runner` executes each simulated candidate's frame batch in the spec's
/// decision mode; the default runs sequentially, sim::Engine::runner()
/// parallelizes the frames of each candidate (same results, any thread
/// count).
RateChoice best_rate(const channel::ChannelModel& channel, LinkScenario base,
                     const DetectorSpec& spec, std::size_t frames,
                     std::uint64_t seed,
                     const std::vector<unsigned>& candidate_qams = {4, 16, 64},
                     const FrameBatchRunner& runner = sequential_runner());

}  // namespace geosphere::link
