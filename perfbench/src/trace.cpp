#include "trace.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kFrame: return "frame";
    case Stage::kTti: return "tti";
    case Stage::kSchedule: return "serve.schedule";
    case Stage::kDraw: return "channel.draw";
    case Stage::kPayload: return "common.payload";
    case Stage::kEncode: return "phy.encode";
    case Stage::kNoise: return "common.noise";
    case Stage::kPrepare: return "detect.prepare";
    case Stage::kAssemble: return "linalg.assemble";
    case Stage::kSolve: return "detect.solve";
    case Stage::kLlr: return "detect.llr";
    case Stage::kDecode: return "link.decode";
    case Stage::kCount: break;
  }
  return "?";
}

void Tracer::begin(Stage stage, std::uint32_t id) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  Span s;
  s.stage = stage;
  s.id = id;
  s.parent = open_.empty() ? index : open_.back();
  spans_.push_back(s);
  open_.push_back(index);
  spans_.back().start_ns = now_ns();
}

void Tracer::end() {
  if (open_.empty()) throw std::logic_error("Tracer::end without an open span");
  spans_[open_.back()].end_ns = now_ns();
  open_.pop_back();
}

std::int64_t SelfTimes::stage_total_ns() const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < kStages; ++i)
    if (!is_root(static_cast<Stage>(i))) total += self_ns[i];
  return total;
}

void SelfTimes::add(const std::vector<Span>& spans) {
  // Self time = own duration minus the durations of direct children.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    const auto st = static_cast<std::size_t>(s.stage);
    self_ns[st] += dur;
    if (s.parent != i) self_ns[static_cast<std::size_t>(spans[s.parent].stage)] -= dur;
  }
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& other_data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"otherData\": %s,\n\"traceEvents\": [\n",
               other_data.c_str());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, \"parent\": %u, "
                 "\"id\": %u}}%s\n",
                 stage_name(s.stage), static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent, s.id,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
