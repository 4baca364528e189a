#include "link/link_simulator.h"

#include <stdexcept>

#include "channel/noise.h"
#include "link/frame_receiver.h"

namespace geosphere::link {

LinkStats& LinkStats::operator+=(const LinkStats& o) {
  if (o.frames == 0 && o.clients == 0) return *this;
  if (clients == 0 && frames == 0) {
    *this = o;
    return *this;
  }
  if (clients != o.clients)
    throw std::invalid_argument("LinkStats::operator+=: client count mismatch");
  frames += o.frames;
  for (std::size_t k = 0; k < clients; ++k)
    client_frame_errors[k] += o.client_frame_errors[k];
  bit_errors += o.bit_errors;
  payload_bits += o.payload_bits;
  crc_frames_ok += o.crc_frames_ok;
  crc_frames_error += o.crc_frames_error;
  delivered_payload_bits += o.delivered_payload_bits;
  ofdm_symbol_slots += o.ofdm_symbol_slots;
  detection += o.detection;
  detection_calls += o.detection_calls;
  return *this;
}

double LinkStats::fer() const {
  if (frames == 0 || clients == 0) return 0.0;
  double total = 0.0;
  for (const std::size_t errors : client_frame_errors)
    total += static_cast<double>(errors) / static_cast<double>(frames);
  return total / static_cast<double>(clients);
}

std::vector<double> LinkStats::per_client_fer() const {
  std::vector<double> out(clients, 0.0);
  if (frames == 0) return out;
  for (std::size_t k = 0; k < clients; ++k)
    out[k] = static_cast<double>(client_frame_errors[k]) / static_cast<double>(frames);
  return out;
}

double LinkStats::ber() const {
  return payload_bits == 0 ? 0.0
                           : static_cast<double>(bit_errors) / static_cast<double>(payload_bits);
}

double LinkStats::crc_fer() const {
  const std::size_t total = crc_frames_ok + crc_frames_error;
  return total == 0 ? 0.0
                    : static_cast<double>(crc_frames_error) / static_cast<double>(total);
}

double LinkStats::goodput_mbps(double symbol_duration_s) const {
  if (ofdm_symbol_slots == 0) return 0.0;
  const double airtime_s = static_cast<double>(ofdm_symbol_slots) * symbol_duration_s;
  return static_cast<double>(delivered_payload_bits) / airtime_s / 1e6;
}

double LinkStats::avg_ped_per_subcarrier() const {
  return detection_calls == 0 ? 0.0
                              : static_cast<double>(detection.ped_computations) /
                                    static_cast<double>(detection_calls);
}

double LinkStats::avg_visited_nodes_per_subcarrier() const {
  return detection_calls == 0 ? 0.0
                              : static_cast<double>(detection.visited_nodes) /
                                    static_cast<double>(detection_calls);
}

LinkSimulator::LinkSimulator(const channel::ChannelModel& channel, LinkScenario scenario)
    : channel_(&channel), scenario_(scenario), codec_(scenario.frame) {}

LinkSimulator::LinkSimulator(const channel::ChannelSpec& spec, std::size_t clients,
                             std::size_t antennas, LinkScenario scenario)
    : owned_(spec.create(clients, antennas)),
      channel_(owned_.get()),
      scenario_(scenario),
      codec_(scenario.frame) {}

void LinkSimulator::init_stats(LinkStats& stats) const {
  const std::size_t nc = channel_->num_tx();
  if (stats.clients == 0) {
    stats.clients = nc;
    stats.client_frame_errors.assign(nc, 0);
  } else if (stats.clients != nc) {
    throw std::invalid_argument("LinkSimulator: stats accumulated for a different link");
  }
}

void LinkSimulator::simulate_frame(Detector& detector, DecisionMode mode, Rng& rng,
                                   LinkStats& stats) const {
  init_stats(stats);

  // Identical draw order in both modes (link, jitter, payloads, noise), so
  // hard and soft runs of the same seed are paired on identical channels.
  DrawnFrame frame;
  channel_->draw_link_into(rng, scenario_.frame.data_subcarriers, frame.link);
  const double snr_db =
      scenario_.snr_db + (scenario_.snr_jitter_db > 0.0
                              ? rng.uniform(-scenario_.snr_jitter_db, scenario_.snr_jitter_db)
                              : 0.0);
  frame.n0 = channel::noise_variance_for_snr_db(snr_db);
  draw_streams(codec_, rng, frame);

  FrameReceiver receiver;
  stats.detection_calls += receiver.receive(detector, mode, codec_, frame, stats.detection);

  for (std::size_t k = 0; k < stats.clients; ++k) {
    const StreamDecodeResult& r = receiver.results()[k];
    stats.bit_errors += r.bit_errors;
    stats.payload_bits += r.payload_bits;
    stats.client_frame_errors[k] += r.bit_errors != 0 ? 1 : 0;
    if (r.crc_ok) {
      ++stats.crc_frames_ok;
      stats.delivered_payload_bits += r.payload_bits;
    } else {
      ++stats.crc_frames_error;
    }
  }
  stats.ofdm_symbol_slots += codec_.ofdm_symbols_per_frame();
  ++stats.frames;
}

LinkStats LinkSimulator::run(Detector& detector, DecisionMode mode, std::size_t frames,
                             std::uint64_t seed) const {
  LinkStats stats;
  init_stats(stats);
  for (std::size_t f = 0; f < frames; ++f) {
    Rng rng = Rng::for_frame(seed, f);
    simulate_frame(detector, mode, rng, stats);
  }
  return stats;
}

FrameBatchRunner sequential_runner() {
  return [](const LinkSimulator& sim, const DetectorSpec& spec, std::size_t frames,
            std::uint64_t seed) {
    const Constellation& c = Constellation::qam(sim.scenario().frame.qam_order);
    const auto detector = spec.create(c);
    return sim.run(*detector, spec.decision(), frames, seed);
  };
}

}  // namespace geosphere::link
