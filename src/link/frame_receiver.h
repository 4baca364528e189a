// The receive side of one MU-MIMO frame, shared by the link simulator and
// the serve loop: detection over every subcarrier, then per-stream decoding
// with a CRC verdict. Both call sites draw a frame the same way (their own
// link draw, then draw_streams) and hand it to a FrameReceiver.
//
// Detection is subcarrier-major. One prepare_batch factorizes the frame's
// nsc channel matrices; per subcarrier, select_prepared activates the slot,
// all of the frame's OFDM symbols on it are assembled as the columns of
// one Y batch (multiply_into plus the pre-drawn noise), and one
// solve_batch / solve_soft_batch decides them. Accounting per frame: one
// prepare_batch_call, one preprocess_call per subcarrier, and one
// detection per received vector. Batched solves are bit-identical to
// per-vector solves, and the noise is pre-drawn in the historical
// symbol-major order, so every decision, LLR and counter matches the
// original per-vector loop.
#pragma once

#include <cstddef>
#include <vector>

#include "channel/channel_model.h"
#include "common/rng.h"
#include "common/types.h"
#include "detect/detector.h"
#include "link/coded_pipeline.h"
#include "phy/frame.h"

namespace geosphere::link {

/// One transmitted frame: the channel, the noise variance, every stream's
/// encoded frame and the noise the receiver will see.
struct DrawnFrame {
  channel::Link link;  ///< One antennas x streams matrix per data subcarrier.
  double n0 = 0.0;
  std::vector<phy::EncodedFrame> tx;
  /// Symbol-major, noise[(sym * nsc + sc) * antennas + i]; empty at n0 <= 0.
  std::vector<cf64> noise;
};

/// The transmit half that follows the link draw: per stream, draws the
/// payload bits and encodes them, then draws the symbol-major noise (no
/// draws at n0 <= 0). `frame.link` and `frame.n0` must already be set;
/// the stream and antenna counts come from the link's matrices. Payloads,
/// symbols and noise are written into `frame`'s existing storage, so a
/// warm frame of the same shape allocates nothing.
void draw_streams(const phy::FrameCodec& codec, Rng& rng, DrawnFrame& frame);

/// Detects and decodes drawn frames. Owns every per-frame workspace and
/// reuses it from frame to frame; a frame's outcome never depends on the
/// frames before it, whatever their shape. Not thread-safe: one receiver
/// per thread.
class FrameReceiver {
 public:
  /// Runs `frame` through `detector` in `mode` and decodes each stream with
  /// `codec`. Throws std::invalid_argument when the detector's
  /// constellation is not the codec's, or when kSoft is asked of a
  /// detector with no soft() interface. Adds the detector's counters to
  /// `stats` and returns the number of received vectors solved; the
  /// per-stream verdicts are in results() until the next call.
  std::size_t receive(Detector& detector, DecisionMode mode, const phy::FrameCodec& codec,
                      const DrawnFrame& frame, DetectionStats& stats);

  /// One entry per stream of the last received frame.
  const std::vector<StreamDecodeResult>& results() const { return results_; }

 private:
  CVector x_;
  CVector y_;
  linalg::CMatrix y_batch_;
  BatchResult batch_;
  SoftBatchResult soft_batch_;
  std::vector<double> conf_;
  /// Hard path: per-stream symbol decisions, rx_[k][sym * nsc + sc].
  std::vector<std::vector<unsigned>> rx_;
  /// Soft path: per-stream bit confidences, rx_conf_[k][(sym * nsc + sc) * q + b].
  std::vector<std::vector<double>> rx_conf_;
  CodedPipeline pipeline_;
  std::vector<StreamDecodeResult> results_;
};

}  // namespace geosphere::link
