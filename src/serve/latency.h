// Fixed-bucket log-scale latency histogram for the serving layer.
//
// Latency is the one host-dependent output of a serve run (everything else
// is deterministic counters), so the recorder is built for cheap recording
// and associative merging: the server records each frame into its cell's
// LatencyRecorder and merges the cells into the total -- counts are exact
// regardless of which worker completed which frame, only the values
// themselves depend on the host.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace geosphere::serve {

/// A log-scale histogram of nanosecond latencies: quarter-octave buckets
/// (each 2^(1/4) wider than the last) from kMinNs up, covering ~nine
/// decades in 128 buckets with <= ~9% relative quantization error per
/// bucket. record() is O(1) with no allocation; percentile() reports the
/// geometric midpoint of the bucket containing the requested rank, clamped
/// to the exact observed [min, max].
class LatencyRecorder {
 public:
  static constexpr std::size_t kBuckets = 128;
  static constexpr std::uint64_t kMinNs = 64;

  void record(std::uint64_t ns);

  /// Associative, commutative merge of independently recorded partials.
  void merge(const LatencyRecorder& o);

  std::uint64_t count() const { return count_; }
  /// Smallest recorded latency (0 when empty).
  std::uint64_t min_ns() const { return count_ == 0 ? 0 : min_ns_; }
  std::uint64_t max_ns() const { return max_ns_; }

  /// The latency at rank ceil(p * count) (p in [0, 1]; p50 = percentile
  /// 0.5): the geometric midpoint of the first bucket whose cumulative
  /// count reaches the rank, clamped to [min_ns(), max_ns()] so no
  /// percentile lies outside the observed range. Returns 0 when empty.
  double percentile_ns(double p) const;

  /// The bucket index `ns` lands in (exposed for tests).
  static std::size_t bucket_of(std::uint64_t ns);
  /// Inclusive lower edge of bucket `index` in ns.
  static double bucket_floor_ns(std::size_t index);

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t min_ns_ = ~std::uint64_t{0};
  std::uint64_t max_ns_ = 0;
};

}  // namespace geosphere::serve
