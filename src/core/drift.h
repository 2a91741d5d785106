// vmtherm/core/drift.h
//
// Residual drift detection for deployed models. A trained
// stable-temperature model goes stale when the datacenter changes under it
// (hardware swap, CRAC re-commissioning, new workload families). This
// module watches the stream of prediction residuals with a two-sided CUSUM
// and raises a retrain signal when their mean shifts — closing the loop
// between the paper's offline training and online serving.

#pragma once

#include <cstddef>

#include "util/error.h"

namespace vmtherm::core {

/// Two-sided CUSUM over a residual stream.
///
/// With slack k and threshold h (both in the residual's units, i.e. deg C):
/// shifts of the residual mean beyond +-k accumulate; an accumulated excess
/// of h fires. For Gaussian noise of stddev s, a common choice is
/// k = s / 2 and h = 4..5 s.
///
/// The detector works with either residual sign: positive_sum() grows while
/// residuals run above zero and negative_sum() while they run below. Each
/// caller states which difference it feeds (OnlineTrainer: predicted -
/// measured; serve::Shard: the paper's Eq. 5 dif, measured - predicted).
class CusumDetector {
 public:
  CusumDetector(double slack_c, double threshold_c);

  /// Feeds one residual, in the sign convention the caller chose. Returns
  /// true when drift is detected by this observation (and latches; see
  /// drifted()).
  bool observe(double residual_c);

  bool drifted() const noexcept { return drifted_; }

  /// Positive/negative accumulators (diagnostics).
  double positive_sum() const noexcept { return positive_; }
  double negative_sum() const noexcept { return negative_; }
  std::size_t observation_count() const noexcept { return count_; }

  /// Clears state (after retraining).
  void reset() noexcept;

  /// Restores accumulator state exported via the accessors above (serving
  /// snapshots). Throws ConfigError on negative accumulators.
  void restore(double positive_sum, double negative_sum, bool drifted,
               std::size_t observation_count);

 private:
  double slack_;
  double threshold_;
  double positive_ = 0.0;
  double negative_ = 0.0;
  bool drifted_ = false;
  std::size_t count_ = 0;
};

}  // namespace vmtherm::core
