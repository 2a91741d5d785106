// vmtherm/core/drift.h
//
// The one residual statistic of a deployed predictor. A trained
// stable-temperature model goes stale when the datacenter changes under it
// (hardware swap, CRAC re-commissioning, new workload families), and the
// run-time calibration can be mistuned. Both show in the paper's Eq. 5
// error, dif = φ(t) − ψ(t), measured minus predicted. `ResidualMonitor`
// watches that one signal twice over:
//
//  * a two-sided CUSUM raises a latched retrain signal when its mean
//    shifts — closing the loop between offline training and serving;
//  * decayed sums split along the paper's two stages: before t_break the
//    error is the transient curve ψ*(t) + γ (Eqs. 4–8), after it the SVR's
//    ψ_stable (Eqs. 1–3). Stable-stage bias says "retrain the SVR",
//    transient error says "tune λ / Δ_update".
//
// The type is plain data of fixed size: it lives inline in each serving
// host (observe() is O(1) and allocation-free on the shard hot path) and is
// snapshotted field by field. The CUSUM tuning is passed in by the owner,
// not copied into every host.

#pragma once

#include <cstdint>

#include "util/error.h"

namespace vmtherm::core {

/// Default CUSUM slack k and threshold h (deg C) of every drift monitor.
inline constexpr double kDefaultDriftSlackC = 0.5;
inline constexpr double kDefaultDriftThresholdC = 8.0;

/// Throws ConfigError unless slack >= 0 and threshold > 0. With slack k and
/// threshold h, shifts of the residual mean beyond ±k accumulate and an
/// accumulated excess of h fires. For Gaussian noise of stddev s, a common
/// choice is k = s / 2 and h = 4..5 s.
inline void validate_drift_tuning(double slack_c, double threshold_c) {
  detail::require(slack_c >= 0.0, "drift slack must be >= 0");
  detail::require(threshold_c > 0.0, "drift threshold must be > 0");
}

/// Per-observation decay β of the stage sums: a memory of about 128
/// observations of that stage.
inline constexpr double kResidualDecay = 1.0 - 1.0 / 128.0;

/// Exponentially decayed sums of one stage's residuals. Sums of different
/// hosts merge by addition; a fixed merge order keeps the result bitwise
/// reproducible.
struct StageSums {
  double weight = 0.0;   ///< Σ β^age: the stage's effective sample count
  double sum = 0.0;      ///< Σ β^age · dif
  double sum_sq = 0.0;   ///< Σ β^age · dif²
  double sum_abs = 0.0;  ///< Σ β^age · |dif|

  /// Decays every sum by β and adds one residual with weight 1.
  void add(double dif) noexcept;

  StageSums& operator+=(const StageSums& other) noexcept;

  /// Weighted mean, mean square and mean absolute residual; 0 when empty.
  double mean() const noexcept { return per_weight(sum); }
  double mse() const noexcept { return per_weight(sum_sq); }
  double mae() const noexcept { return per_weight(sum_abs); }

  bool operator==(const StageSums&) const = default;

 private:
  double per_weight(double s) const noexcept {
    return weight > 0.0 ? s / weight : 0.0;
  }
};

inline StageSums operator+(StageSums a, const StageSums& b) noexcept {
  return a += b;
}

/// CUSUM drift state plus the two stages' decayed residual sums.
struct ResidualMonitor {
  double positive = 0.0;  ///< CUSUM sum; grows while readings run above ψ
  double negative = 0.0;  ///< CUSUM sum; grows while readings run below ψ
  std::uint64_t count = 0;  ///< residuals fed since construction / reset
  bool drifted = false;     ///< latched once either sum exceeded h
  StageSums transient;      ///< t − t0 < t_break: the ψ*(t) + γ stage
  StageSums stable;         ///< t − t0 ≥ t_break: the ψ_stable stage

  /// Feeds one Eq. 5 residual (measured − predicted) into the CUSUM and
  /// into the sums of its stage. Returns true when this observation
  /// latches drift (the first time either sum exceeds the threshold).
  bool observe(double dif, bool stable_stage, double slack_c,
               double threshold_c) noexcept;

  /// Both stages merged (transient + stable): the rolling statistics.
  StageSums merged() const noexcept { return transient + stable; }

  /// Throws ConfigError on a state observe() cannot produce: a negative
  /// CUSUM sum, sum of squares, absolute sum or weight, or a non-finite
  /// value (restore paths).
  void validate() const;

  bool operator==(const ResidualMonitor&) const = default;
};

}  // namespace vmtherm::core
