// Statistics accumulators used by the metric collectors.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/types.h"

namespace wormcast {

/// Streaming mean/variance/min/max (Welford).
class RunningStat {
 public:
  void add(double x);

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }

  /// Merges another accumulator into this one.
  void merge(const RunningStat& other);

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Sample reservoir that also supports exact percentiles (keeps all samples;
/// fine for per-run latency collections of <= a few hundred thousand values).
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
    sum_ += x;
    stat_.add(x);
  }

  [[nodiscard]] const RunningStat& stat() const { return stat_; }
  [[nodiscard]] std::int64_t count() const { return stat_.count(); }
  /// Sum over count. Integer samples (byte-time latencies) sum exactly
  /// below 2^53, so the mean does not depend on the order of the adds:
  /// two runs that record the same samples in different orders agree to
  /// the last bit, which Welford's running mean does not.
  [[nodiscard]] double mean() const {
    return count() > 0 ? sum_ / static_cast<double>(count()) : 0.0;
  }

  /// Exact percentile; `p` is clamped to [0,100]. 0 when empty.
  [[nodiscard]] double percentile(double p) const;

  /// All samples in ascending order (the equivalence suite compares whole
  /// sample streams, not just their moments). Sorts in place at most once
  /// per batch of add()s — repeated calls return the cached sorted vector.
  [[nodiscard]] const std::vector<double>& sorted_values() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    return samples_;
  }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  double sum_ = 0.0;
  RunningStat stat_;
};

/// Counts events per unit time over a measurement window.
class RateMeter {
 public:
  void start_window(Time now) {
    window_start_ = now;
    total_ = 0;
  }
  void add(std::int64_t amount = 1) { total_ += amount; }

  [[nodiscard]] std::int64_t total() const { return total_; }
  /// Events per byte-time over [window_start, now].
  [[nodiscard]] double rate(Time now) const {
    const Time span = now - window_start_;
    return span > 0 ? static_cast<double>(total_) / static_cast<double>(span) : 0.0;
  }

 private:
  Time window_start_ = 0;
  std::int64_t total_ = 0;
};

}  // namespace wormcast
