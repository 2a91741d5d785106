#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace vmtherm {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n_total = na + nb;
  mean_ += delta * nb / n_total;
  m2_ += other.m2_ + delta * delta * na * nb / n_total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::sample_variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) noexcept {
  return std::sqrt(variance(xs));
}

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

namespace {

void check_pair(std::span<const double> a, std::span<const double> b) {
  detail::require_data(a.size() == b.size(),
                       "metric inputs must have equal length");
  detail::require_data(!a.empty(), "metric inputs must be non-empty");
}

}  // namespace

double mse(std::span<const double> predicted, std::span<const double> actual) {
  check_pair(predicted, actual);
  double acc = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const double e = predicted[i] - actual[i];
    acc += e * e;
  }
  return acc / static_cast<double>(predicted.size());
}

double rmse(std::span<const double> predicted, std::span<const double> actual) {
  return std::sqrt(mse(predicted, actual));
}

double mae(std::span<const double> predicted, std::span<const double> actual) {
  check_pair(predicted, actual);
  double acc = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    acc += std::abs(predicted[i] - actual[i]);
  }
  return acc / static_cast<double>(predicted.size());
}

double max_abs_error(std::span<const double> predicted,
                     std::span<const double> actual) {
  check_pair(predicted, actual);
  double worst = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    worst = std::max(worst, std::abs(predicted[i] - actual[i]));
  }
  return worst;
}

double r_squared(std::span<const double> predicted,
                 std::span<const double> actual) {
  check_pair(predicted, actual);
  const double m = mean(actual);
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const double r = actual[i] - predicted[i];
    const double d = actual[i] - m;
    ss_res += r * r;
    ss_tot += d * d;
  }
  if (ss_tot == 0.0) return 0.0;
  return 1.0 - ss_res / ss_tot;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  check_pair(xs, ys);
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> abs_residuals(std::span<const double> predicted,
                                  std::span<const double> actual) {
  check_pair(predicted, actual);
  std::vector<double> out(predicted.size());
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    out[i] = std::abs(predicted[i] - actual[i]);
  }
  return out;
}

}  // namespace vmtherm
