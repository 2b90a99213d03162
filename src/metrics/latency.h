// Thread-safe latency histogram for the serving path.
//
// Geometric buckets (4 per factor-of-two octave) over microseconds give
// <~19% relative error on any reported percentile. record() takes no lock:
// three relaxed read-modify-writes (the bucket and count increments, the
// floating-point add to the sum) and, for min and max, a load followed by
// a CAS loop only when the observation is a new extreme. The inference
// engine records each served request once. Percentiles interpolate inside
// the winning bucket, and exact min/max are tracked separately so the
// tails never read outside the observed range.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace slide {

class LatencyHistogram {
 public:
  LatencyHistogram();

  /// Records one latency observation, in microseconds. Thread-safe.
  void record(double us) noexcept;

  std::uint64_t count() const noexcept;
  double mean_us() const noexcept;
  double min_us() const noexcept;  // 0 when empty
  double max_us() const noexcept;  // 0 when empty

  /// Approximate quantile (q in [0, 1]); 0 when empty. Thread-safe with
  /// respect to concurrent record() calls (the answer reflects some
  /// near-current state of the histogram).
  double percentile(double q) const;

  void reset() noexcept;

  /// One consistent read of the usual report row.
  struct Summary {
    std::uint64_t count = 0;
    double mean_us = 0.0;
    double min_us = 0.0;
    double max_us = 0.0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
  };
  Summary summary() const;

  // 4 sub-buckets per octave covering [1us, ~2^30us ≈ 18min); everything
  // below/above clamps into the first/last bucket.
  static constexpr int kSubBuckets = 4;
  static constexpr int kOctaves = 30;
  static constexpr int kNumBuckets = kSubBuckets * kOctaves;

  /// One near-consistent read of every bucket, for exporters that need the
  /// full distribution (the Prometheus renderer). `count` and `sum_us` are
  /// read alongside the buckets but not atomically with them; exporters
  /// that need internal consistency (Prometheus histogram `_count` must
  /// equal the +Inf bucket) should re-derive the count by summing
  /// `counts`.
  struct Snapshot {
    std::array<std::uint64_t, kNumBuckets> counts{};
    std::uint64_t count = 0;
    double sum_us = 0.0;
  };
  Snapshot snapshot() const;

  /// Exclusive upper bound of `bucket`, in microseconds. Exposed so
  /// exporters can emit the bucket boundaries without duplicating the
  /// geometric layout.
  static double bucket_upper_bound_us(int bucket) noexcept;

 private:
  static int bucket_of(double us) noexcept;
  static double bucket_lower_us(int bucket) noexcept;
  static double bucket_upper_us(int bucket) noexcept;

  std::atomic<std::uint64_t> buckets_[kNumBuckets];
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_us_{0.0};
  std::atomic<double> min_us_{0.0};
  std::atomic<double> max_us_{0.0};
};

/// "p50 1.23ms" style helper: microseconds to a human unit string.
std::string fmt_latency_us(double us);

}  // namespace slide
