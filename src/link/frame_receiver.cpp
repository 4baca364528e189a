#include "link/frame_receiver.h"

#include <algorithm>
#include <stdexcept>

namespace geosphere::link {

void draw_streams(const phy::FrameCodec& codec, Rng& rng, DrawnFrame& frame) {
  const std::size_t nsc = codec.config().data_subcarriers;
  if (frame.link.subcarriers.size() != nsc)
    throw std::invalid_argument("draw_streams: link/frame subcarrier count mismatch");
  const linalg::CMatrix& h = frame.link.subcarriers.front();
  frame.tx.resize(h.cols());
  for (phy::EncodedFrame& tx : frame.tx) {
    rng.bits(codec.config().payload_bits(), tx.payload);
    codec.encode(tx);
  }
  frame.noise.clear();
  if (frame.n0 > 0.0) {  // add_awgn semantics: no draws at non-positive variance.
    frame.noise.resize(codec.ofdm_symbols_per_frame() * nsc * h.rows());
    rng.fill_cgaussian(frame.n0, frame.noise.data(), frame.noise.size());
  }
}

std::size_t FrameReceiver::receive(Detector& detector, DecisionMode mode,
                                   const phy::FrameCodec& codec, const DrawnFrame& frame,
                                   DetectionStats& stats) {
  const Constellation& constellation = detector.constellation();
  if (constellation.order() != codec.config().qam_order)
    throw std::invalid_argument("FrameReceiver: detector/frame constellation mismatch");
  SoftDetector* soft = nullptr;
  if (mode == DecisionMode::kSoft) {
    soft = detector.soft();
    if (soft == nullptr)
      throw std::invalid_argument("FrameReceiver: detector \"" + detector.name() +
                                  "\" cannot produce soft decisions");
  }
  const std::size_t nsc = codec.config().data_subcarriers;
  const std::size_t syms = codec.ofdm_symbols_per_frame();
  const auto encoded_by_codec = [&](const phy::EncodedFrame& tx) {
    return tx.symbol_indices.size() == syms * nsc;
  };
  if (frame.link.subcarriers.size() != nsc ||
      frame.noise.size() !=
          (frame.n0 > 0.0 ? syms * nsc * frame.link.subcarriers.front().rows() : 0) ||
      !std::all_of(frame.tx.begin(), frame.tx.end(), encoded_by_codec))
    throw std::invalid_argument("FrameReceiver: frame was not drawn for this codec");

  const std::size_t nc = frame.tx.size();
  const unsigned q = constellation.bits_per_symbol();
  // Reused buffers are reset in full, so nothing carries over between
  // frames of different shapes.
  if (soft != nullptr) {
    rx_conf_.resize(nc);
    for (std::vector<double>& conf : rx_conf_) conf.assign(syms * nsc * q, 0.5);
  } else {
    rx_.resize(nc);
    for (std::vector<unsigned>& indices : rx_) indices.assign(syms * nsc, 0);
  }
  x_.resize(nc);

  detector.prepare_batch(frame.link.subcarriers, frame.n0);
  ++stats.prepare_batch_calls;

  std::size_t vectors = 0;
  for (std::size_t sc = 0; sc < nsc; ++sc) {
    const linalg::CMatrix& h = frame.link.subcarriers[sc];
    const std::size_t na = h.rows();
    detector.select_prepared(sc);
    ++stats.preprocess_calls;

    y_batch_.assign_shape(na, syms);
    for (std::size_t sym = 0; sym < syms; ++sym) {
      for (std::size_t k = 0; k < nc; ++k)
        x_[k] = constellation.point(frame.tx[k].symbol_at(sym, sc, nsc));
      multiply_into(h, x_, y_);
      if (frame.n0 > 0.0) {
        const cf64* w = &frame.noise[(sym * nsc + sc) * na];
        for (std::size_t i = 0; i < na; ++i) y_[i] += w[i];
      }
      for (std::size_t i = 0; i < na; ++i) y_batch_(i, sym) = y_[i];
    }

    if (soft != nullptr) {
      soft->solve_soft_batch(y_batch_, soft_batch_);
      stats += soft_batch_.stats;
      vectors += soft_batch_.count;
      llrs_to_confidence(soft_batch_.llrs, conf_);
      for (std::size_t sym = 0; sym < syms; ++sym)
        for (std::size_t k = 0; k < nc; ++k)
          for (unsigned b = 0; b < q; ++b)
            rx_conf_[k][(sym * nsc + sc) * q + b] = conf_[(sym * nc + k) * q + b];
    } else {
      detector.solve_batch(y_batch_, batch_);
      stats += batch_.stats;
      vectors += batch_.count;
      for (std::size_t sym = 0; sym < syms; ++sym)
        for (std::size_t k = 0; k < nc; ++k)
          rx_[k][sym * nsc + sc] = batch_.indices[sym * nc + k];
    }
  }

  if (soft != nullptr)
    pipeline_.decode_frame_soft(codec, rx_conf_, syms, frame.tx, results_);
  else
    pipeline_.decode_frame_hard(codec, rx_, syms, frame.tx, results_);
  return vectors;
}

}  // namespace geosphere::link
