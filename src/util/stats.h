// vmtherm/util/stats.h
//
// Descriptive statistics and regression error metrics.
//
// Two flavours:
//   * RunningStats — single-pass accumulator (Welford) used by the
//     simulator's window statistics and the profiler.
//   * free functions over std::span<const double> — used by evaluation code
//     where the whole series is in memory.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace vmtherm {

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm —
/// numerically stable for long temperature traces).
class RunningStats {
 public:
  void add(double x) noexcept;

  /// Merges another accumulator into this one (parallel Welford).
  void merge(const RunningStats& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }

  /// Mean of the observations. Returns 0 when empty.
  double mean() const noexcept { return mean_; }

  /// Population variance (divides by n). Returns 0 for n < 2.
  double variance() const noexcept;

  /// Sample variance (divides by n-1). Returns 0 for n < 2.
  double sample_variance() const noexcept;

  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs) noexcept;

/// Population variance; 0 for fewer than two elements.
double variance(std::span<const double> xs) noexcept;

/// Population standard deviation.
double stddev(std::span<const double> xs) noexcept;

/// Linearly interpolated quantile, q in [0, 1]. Copies and sorts; 0 for an
/// empty span.
double quantile(std::span<const double> xs, double q);

/// Mean squared error between equally sized prediction/truth series.
/// Throws DataError on size mismatch or empty input.
double mse(std::span<const double> predicted, std::span<const double> actual);

/// Root of mse().
double rmse(std::span<const double> predicted, std::span<const double> actual);

/// Mean absolute error.
double mae(std::span<const double> predicted, std::span<const double> actual);

/// Maximum absolute error.
double max_abs_error(std::span<const double> predicted,
                     std::span<const double> actual);

/// Coefficient of determination R^2 = 1 - SS_res/SS_tot. Returns 0 when the
/// actual series has zero variance. Throws DataError on size mismatch or
/// empty input.
double r_squared(std::span<const double> predicted,
                 std::span<const double> actual);

/// Pearson correlation coefficient; 0 when either series is constant.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Element-wise absolute residuals |predicted - actual|.
std::vector<double> abs_residuals(std::span<const double> predicted,
                                  std::span<const double> actual);

}  // namespace vmtherm
