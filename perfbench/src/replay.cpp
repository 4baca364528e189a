#include "replay.h"

#include <stdexcept>

namespace perfbench {

using namespace geosphere;

void draw_tx(const phy::FrameCodec& codec, Rng& rng, std::size_t streams,
             std::size_t antennas, bool soft, ReplayFrame& f, Tracer& tr, std::uint32_t id) {
  const std::size_t nsc = codec.config().data_subcarriers;
  const std::size_t syms = codec.ofdm_symbols_per_frame();
  const unsigned q = codec.constellation().bits_per_symbol();
  f.tx.resize(streams);
  f.rx.resize(soft ? 0 : streams);
  f.rx_conf.resize(soft ? streams : 0);
  for (std::size_t k = 0; k < streams; ++k) {
    tr.begin(Stage::kPayload, id);
    const BitVector payload = rng.bits(codec.config().payload_bits());
    tr.end();
    {
      const Scope s(tr, Stage::kEncode, id);
      f.tx[k] = codec.encode(payload);
    }
    if (soft)
      f.rx_conf[k].assign(syms * nsc * q, 0.5);
    else
      f.rx[k].assign(syms * nsc, 0);
  }
  const Scope s(tr, Stage::kNoise, id);
  f.noise.clear();
  if (f.n0 > 0.0) {  // No draws at non-positive variance, as add_awgn.
    f.noise.resize(syms * nsc * antennas);
    for (auto& v : f.noise) v = rng.cgaussian(f.n0);
  }
}

std::size_t FrameDetector::detect(Detector& det, bool soft_mode, std::size_t antennas,
                                  std::size_t syms, ReplayFrame& f, DetectionStats& stats,
                                  Tracer& tr, std::uint32_t id) {
  SoftDetector* soft = nullptr;
  if (soft_mode) {
    soft = det.soft();
    if (soft == nullptr)
      throw std::invalid_argument("detector \"" + det.name() + "\" has no soft output");
  }
  const std::size_t nsc = f.link.subcarriers.size();
  const std::size_t streams = f.tx.size();
  const unsigned q = det.constellation().bits_per_symbol();
  {
    const Scope s(tr, Stage::kPrepare, id);
    det.prepare_batch(f.link.subcarriers, f.n0);
  }
  ++stats.prepare_batch_calls;

  std::size_t vectors = 0;
  x_.resize(streams);
  y_.resize(antennas);
  for (std::size_t sc = 0; sc < nsc; ++sc) {
    {
      const Scope s(tr, Stage::kPrepare, id);
      det.select_prepared(sc);
    }
    ++stats.preprocess_calls;
    {
      const Scope s(tr, Stage::kAssemble, id);
      y_batch_.assign_shape(antennas, syms);
      for (std::size_t sym = 0; sym < syms; ++sym) {
        for (std::size_t k = 0; k < streams; ++k)
          x_[k] = det.constellation().point(f.tx[k].symbol_at(sym, sc, nsc));
        multiply_into(f.link.subcarriers[sc], x_, y_);
        if (f.n0 > 0.0) {
          const cf64* w = &f.noise[(sym * nsc + sc) * antennas];
          for (std::size_t i = 0; i < antennas; ++i) y_[i] += w[i];
        }
        for (std::size_t i = 0; i < antennas; ++i) y_batch_(i, sym) = y_[i];
      }
    }
    if (soft != nullptr) {
      {
        const Scope s(tr, Stage::kSolve, id);
        soft->solve_soft_batch(y_batch_, soft_batch_);
      }
      stats += soft_batch_.stats;
      vectors += soft_batch_.count;
      const Scope s(tr, Stage::kLlr, id);
      llrs_to_confidence(soft_batch_.llrs, conf_);
      for (std::size_t sym = 0; sym < syms; ++sym)
        for (std::size_t k = 0; k < streams; ++k)
          for (unsigned b = 0; b < q; ++b)
            f.rx_conf[k][(sym * nsc + sc) * q + b] = conf_[(sym * streams + k) * q + b];
    } else {
      {
        const Scope s(tr, Stage::kSolve, id);
        det.solve_batch(y_batch_, batch_);
      }
      stats += batch_.stats;
      vectors += batch_.count;
      const Scope s(tr, Stage::kLlr, id);
      for (std::size_t sym = 0; sym < syms; ++sym)
        for (std::size_t k = 0; k < streams; ++k)
          f.rx[k][sym * nsc + sc] = batch_.indices[sym * streams + k];
    }
  }
  return vectors;
}

std::string diff_detection(const DetectionStats& a, const DetectionStats& b) {
#define PERFBENCH_CMP(field) \
  if (a.field != b.field) return "detection." #field;
  PERFBENCH_CMP(ped_computations)
  PERFBENCH_CMP(visited_nodes)
  PERFBENCH_CMP(lb_lookups)
  PERFBENCH_CMP(lb_prunes)
  PERFBENCH_CMP(slicer_ops)
  PERFBENCH_CMP(queue_ops)
  PERFBENCH_CMP(preprocess_calls)
  PERFBENCH_CMP(prepare_batch_calls)
  PERFBENCH_CMP(batch_calls)
  PERFBENCH_CMP(tree_searches)
  PERFBENCH_CMP(counter_updates)
#undef PERFBENCH_CMP
  return "";
}

}  // namespace perfbench
