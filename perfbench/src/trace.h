// In-memory span recording for the traced replay.
//
// A span is one call into a layer's public API, timed with steady_clock at
// the call site: a stage, a start, an end, its parent span (the frame or
// TTI root) and the frame/TTI id it belongs to. Spans stay in a vector while
// the run executes; afterwards they are folded into per-stage self times
// (duration minus the part covered by child spans) and can be written as
// Chrome trace-event JSON, which Perfetto and chrome://tracing open.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Every span name the benchmark records. kFrame and kTti are roots; the
/// rest are stages, each a call (or tight group of calls) into one layer.
enum class Stage : std::uint8_t {
  kFrame,     ///< Root: one link frame.
  kTti,       ///< Root: one serve TTI (all cells).
  kSchedule,  ///< CellScheduler::schedule_tti (serve) / Rng::for_frame (link).
  kDraw,      ///< ChannelModel::draw_link.
  kPayload,   ///< Rng::bits for one stream's payload.
  kEncode,    ///< FrameCodec::encode for one stream.
  kNoise,     ///< The Rng::cgaussian noise pre-draw of one frame.
  kPrepare,   ///< Detector::prepare_batch, or one select_prepared.
  kAssemble,  ///< multiply_into + noise assembly of one subcarrier's Y batch.
  kSolve,     ///< solve_batch / solve_soft_batch of one subcarrier.
  kLlr,       ///< Detector output hand-off: llrs_to_confidence + scatter.
  kDecode,    ///< CodedPipeline::decode_frame_* (link) / FrameCodec::decode (serve).
  kCount
};

constexpr std::size_t kStages = static_cast<std::size_t>(Stage::kCount);

/// The span name written to the trace and used for per-layer metrics.
const char* stage_name(Stage s);

inline bool is_root(Stage s) { return s == Stage::kFrame || s == Stage::kTti; }

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;  ///< Index of the parent span; a root is its own parent.
  std::uint32_t id = 0;      ///< Frame (link) or TTI (serve) the span belongs to.
  Stage stage = Stage::kFrame;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Records spans. begin() opens a span under the innermost open one and
/// end() closes the innermost; Scope pairs them.
class Tracer {
 public:
  void begin(Stage stage, std::uint32_t id);
  void end();
  void clear() {
    spans_.clear();
    open_.clear();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

class Scope {
 public:
  Scope(Tracer& t, Stage stage, std::uint32_t id) : t_(t) { t_.begin(stage, id); }
  ~Scope() { t_.end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
};

/// Per-stage self time (ns) over a set of spans.
struct SelfTimes {
  std::array<std::int64_t, kStages> self_ns{};

  /// Sum of self time over the non-root stages.
  std::int64_t stage_total_ns() const;
  void add(const std::vector<Span>& spans);
};

/// Writes `spans` as a Chrome trace-event JSON object ("X" complete events,
/// microsecond timestamps relative to the first span) with `other_data`
/// (a JSON object text) under "otherData". Returns false when the file
/// cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& other_data);

}  // namespace perfbench
