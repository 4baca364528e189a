// The frame steps both replays share: the transmit-side draws and the
// detection loop, performed through public calls exactly as
// LinkSimulator::simulate_frame and serve::Server::run perform them, one
// span per call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "channel/channel_model.h"
#include "common/rng.h"
#include "detect/detector.h"
#include "phy/frame.h"
#include "trace.h"

namespace perfbench {

/// One MU-MIMO frame in flight: what draw_tx() draws and detect() fills.
struct ReplayFrame {
  geosphere::channel::Link link;
  double n0 = 0.0;
  std::vector<geosphere::phy::EncodedFrame> tx;
  /// Hard decisions, rx[k][sym * nsc + sc].
  std::vector<std::vector<unsigned>> rx;
  /// Soft confidences, rx_conf[k][(sym * nsc + sc) * q + b].
  std::vector<std::vector<double>> rx_conf;
  /// Symbol-major pre-drawn noise, noise[(sym * nsc + sc) * antennas + i].
  std::vector<geosphere::cf64> noise;
};

/// Draws the payload and encoding of each of `streams` streams, then the
/// noise, from `rng` (after the caller drew the link and SNR), and sizes
/// the receive buffers for hard or `soft` decisions.
void draw_tx(const geosphere::phy::FrameCodec& codec, geosphere::Rng& rng,
             std::size_t streams, std::size_t antennas, bool soft, ReplayFrame& f,
             Tracer& tr, std::uint32_t id);

/// Detects one frame: one prepare_batch, then per subcarrier a select, the
/// Y assembly, one batched solve and the hand-off into rx / rx_conf. Adds
/// the detector's counters to `stats` and returns the vectors solved.
class FrameDetector {
 public:
  std::size_t detect(geosphere::Detector& det, bool soft, std::size_t antennas,
                     std::size_t syms, ReplayFrame& f, geosphere::DetectionStats& stats,
                     Tracer& tr, std::uint32_t id);

 private:
  geosphere::CVector x_, y_;
  geosphere::linalg::CMatrix y_batch_;
  geosphere::BatchResult batch_;
  geosphere::SoftBatchResult soft_batch_;
  std::vector<double> conf_;
};

/// First differing DetectionStats field ("detection.<field>"), or "".
std::string diff_detection(const geosphere::DetectionStats& a,
                           const geosphere::DetectionStats& b);

}  // namespace perfbench
