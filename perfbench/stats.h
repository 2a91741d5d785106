// perfbench/stats.h
//
// Order statistics for the benchmark's timing samples. Every sample of a
// run is kept and summarized; nothing is best-of-N. A summary carries the
// median and the highest percentile of the ladder p50/p90/p99/p99.9 that
// still has at least ten samples above it (nearest-rank definition), so a
// reported tail is never a single outlier relabelled as "p99".

#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

struct Summary {
  std::size_t n = 0;
  double median = 0.0;  ///< 0 when n == 0
  /// Highest supported percentile (50, 90, 99 or 99.9); 0 when n < 20,
  /// where no percentile has ten samples beyond it.
  double tail_pct = 0.0;
  double tail = 0.0;  ///< value at tail_pct (0 when tail_pct == 0)
};

/// Nearest-rank percentile (p in (0, 100]) of an ascending-sorted sample:
/// the smallest value with at least p% of the sample at or below it.
/// Precondition: !sorted.empty().
double nearest_rank(const std::vector<double>& sorted, double p);

/// Samples above the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// Median (mean of the two middle values for even n) and the highest
/// percentile with >= 10 samples beyond it. Takes the samples by value
/// (sorts a copy).
Summary summarize(std::vector<double> samples);

}  // namespace perfbench
