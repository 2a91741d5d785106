#include "core/drift.h"

#include <algorithm>
#include <cmath>

namespace vmtherm::core {

void StageSums::add(double dif) noexcept {
  weight = kResidualDecay * weight + 1.0;
  sum = kResidualDecay * sum + dif;
  sum_sq = kResidualDecay * sum_sq + dif * dif;
  sum_abs = kResidualDecay * sum_abs + std::abs(dif);
}

StageSums& StageSums::operator+=(const StageSums& other) noexcept {
  weight += other.weight;
  sum += other.sum;
  sum_sq += other.sum_sq;
  sum_abs += other.sum_abs;
  return *this;
}

bool ResidualMonitor::observe(double dif, bool stable_stage, double slack_c,
                              double threshold_c) noexcept {
  ++count;
  positive = std::max(0.0, positive + dif - slack_c);
  negative = std::max(0.0, negative - dif - slack_c);
  (stable_stage ? stable : transient).add(dif);
  const bool latched =
      !drifted && (positive > threshold_c || negative > threshold_c);
  drifted = drifted || latched;
  return latched;
}

void ResidualMonitor::validate() const {
  const auto valid_sums = [](const StageSums& s) {
    return std::isfinite(s.weight) && std::isfinite(s.sum) &&
           std::isfinite(s.sum_sq) && std::isfinite(s.sum_abs) &&
           s.weight >= 0.0 && s.sum_sq >= 0.0 && s.sum_abs >= 0.0;
  };
  detail::require(std::isfinite(positive) && std::isfinite(negative) &&
                      positive >= 0.0 && negative >= 0.0,
                  "cusum sums must be finite and non-negative");
  detail::require(valid_sums(transient) && valid_sums(stable),
                  "residual sums must be finite, with non-negative weight, "
                  "square and absolute sums");
}

}  // namespace vmtherm::core
