// The receive-side coded pipeline, batched per frame across streams:
//   demap -> deinterleave-soft -> depuncture -> (batched) Viterbi -> CRC.
// One CodedPipeline owns the codec workspace all streams of a frame share,
// so after the first frame the whole receive chain allocates nothing, and
// the Viterbi kernel (double or quantized SIMD, per FrameConfig::viterbi)
// runs back-to-back over the streams -- the hot loop the coded-throughput
// bench measures.
//
// Each stream is scored against its transmitted payload: exact bit errors,
// and a CRC32 delivery check that emulates an in-band frame check sequence
// without spending airtime on it (decoded CRC vs payload CRC -- identical
// to appending the FCS up to 2^-32 collisions). Goodput counts only the
// payload bits of CRC-clean frames.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "phy/frame.h"

namespace geosphere::link {

/// Per-stream outcome of one frame through the pipeline.
struct StreamDecodeResult {
  std::size_t payload_bits = 0;
  std::size_t bit_errors = 0;
  bool crc_ok = false;

  bool operator==(const StreamDecodeResult&) const = default;
};

class CodedPipeline {
 public:
  /// Soft path: per-stream per-coded-bit confidences (transmitted order).
  /// Decodes every stream with the shared workspace and scores it against
  /// tx[k].payload; results is resized to the stream count.
  void decode_frame_soft(const phy::FrameCodec& codec,
                         const std::vector<std::vector<double>>& rx_conf,
                         std::size_t ofdm_symbols,
                         const std::vector<phy::EncodedFrame>& tx,
                         std::vector<StreamDecodeResult>& results);

  /// Hard path: per-stream detected symbol indices (transmitted order).
  void decode_frame_hard(const phy::FrameCodec& codec,
                         const std::vector<std::vector<unsigned>>& rx,
                         std::size_t ofdm_symbols,
                         const std::vector<phy::EncodedFrame>& tx,
                         std::vector<StreamDecodeResult>& results);

 private:
  StreamDecodeResult score(const BitVector& decoded, const BitVector& payload) const;

  phy::CodecWorkspace ws_;
  BitVector decoded_;
};

}  // namespace geosphere::link
