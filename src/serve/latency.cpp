#include "serve/latency.h"

#include <algorithm>
#include <cmath>

namespace geosphere::serve {

namespace {

/// 2^(1/4): the quarter-octave bucket growth ratio.
const double kRatio = std::pow(2.0, 0.25);
const double kLogRatio = std::log(kRatio);

}  // namespace

std::size_t LatencyRecorder::bucket_of(std::uint64_t ns) {
  if (ns <= kMinNs) return 0;
  const double exact =
      std::log(static_cast<double>(ns) / static_cast<double>(kMinNs)) / kLogRatio;
  const auto index = static_cast<std::size_t>(exact);
  return std::min(index, kBuckets - 1);
}

double LatencyRecorder::bucket_floor_ns(std::size_t index) {
  return static_cast<double>(kMinNs) * std::pow(kRatio, static_cast<double>(index));
}

void LatencyRecorder::record(std::uint64_t ns) {
  ++counts_[bucket_of(ns)];
  ++count_;
  min_ns_ = std::min(min_ns_, ns);
  max_ns_ = std::max(max_ns_, ns);
}

void LatencyRecorder::merge(const LatencyRecorder& o) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
  count_ += o.count_;
  min_ns_ = std::min(min_ns_, o.min_ns_);
  max_ns_ = std::max(max_ns_, o.max_ns_);
}

double LatencyRecorder::percentile_ns(double p) const {
  if (count_ == 0) return 0.0;
  const double clamped = std::clamp(p, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(clamped * static_cast<double>(count_))));
  std::size_t i = 0;  // First bucket whose cumulative count reaches rank.
  for (std::uint64_t seen = counts_[0]; seen < rank && i + 1 < kBuckets;)
    seen += counts_[++i];
  // Geometric midpoint of [floor, floor * ratio): sqrt(ratio) * floor. A
  // bucket's midpoint can lie past the largest (or below the smallest)
  // sample it holds, so clamp to the exact observed range.
  return std::clamp(bucket_floor_ns(i) * std::sqrt(kRatio), static_cast<double>(min_ns_),
                    static_cast<double>(max_ns_));
}

}  // namespace geosphere::serve
