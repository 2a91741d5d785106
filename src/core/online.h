// vmtherm/core/online.h
//
// Online training loop: the deployment glue the paper describes in prose
// ("a model was trained from the collected data and deployed in real
// environment; then the model received data collected online"). The
// OnlineTrainer accumulates profiling records as they arrive, evaluates the
// live model prequentially (predict-then-learn) on each new record, feeds
// the residual stream to a core::ResidualMonitor, and retrains when enough
// new data arrived — or immediately when its CUSUM says the model went
// stale.

#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/drift.h"
#include "core/stable_predictor.h"

namespace vmtherm::core {

/// Policy knobs of the online loop.
struct OnlineTrainerOptions {
  /// Records required before the first model is fit.
  std::size_t min_records_for_training = 50;
  /// Retrain after this many records arrive on top of the last fit.
  std::size_t retrain_batch = 50;
  /// Retrain when the drift detector fires. The buffer is first trimmed to
  /// the most recent `drift_keep_recent` records (the new regime; older
  /// data would poison the refit) and the refit is deferred until the
  /// buffer regrows to min_records_for_training.
  bool retrain_on_drift = true;
  std::size_t drift_keep_recent = 10;
  /// CUSUM tuning on residuals (deg C).
  double drift_slack_c = kDefaultDriftSlackC;
  double drift_threshold_c = kDefaultDriftThresholdC;
  /// How models are fit (grid vs fixed parameters).
  StableTrainOptions train_options;
  /// Cap on retained records (0 = unbounded). When exceeded, the oldest
  /// records are dropped — a sliding window over a changing datacenter.
  std::size_t max_records = 0;

  void validate() const {
    detail::require(min_records_for_training >= 2,
                    "online trainer needs >= 2 records for the first fit");
    detail::require(retrain_batch >= 1, "retrain_batch must be >= 1");
    validate_drift_tuning(drift_slack_c, drift_threshold_c);
  }
};

/// Reason the most recent retrain happened.
enum class RetrainReason { kNone, kInitial, kBatch, kDrift };

/// The online model manager.
class OnlineTrainer {
 public:
  explicit OnlineTrainer(OnlineTrainerOptions options = {});

  /// Feeds one labelled record. If a model is live, it is first scored on
  /// the record (prequential residual measured - predicted, the Eq. 5
  /// sign; labels are ψ_stable, so it feeds the monitor's stable stage),
  /// then the record joins the training buffer, then retraining triggers
  /// fire.
  /// Returns true when this record caused a retrain.
  bool add_record(const Record& record);

  bool has_model() const noexcept { return model_.has_value(); }

  /// The live model; throws ConfigError before the first fit.
  const StableTemperaturePredictor& model() const;

  /// 0 before the first fit, then increments on every retrain.
  std::size_t model_version() const noexcept { return version_; }

  RetrainReason last_retrain_reason() const noexcept { return reason_; }

  std::size_t records_seen() const noexcept { return records_seen_; }
  std::size_t buffered_records() const noexcept { return buffer_.size(); }

  /// Prequential error of the *current* model: decayed (β = 1 − 1/128)
  /// mean squared error of its predictions on records that arrived after
  /// it was fit. Resets on retrain. Returns 0 when nothing was scored yet.
  double prequential_mse() const noexcept { return residuals_.stable.mse(); }
  std::size_t prequential_count() const noexcept {
    return static_cast<std::size_t>(residuals_.count);
  }

  /// Whether the drift detector has fired since the last retrain (only
  /// observable when retrain_on_drift is false, since otherwise a retrain
  /// clears it immediately).
  bool drift_pending() const noexcept { return residuals_.drifted; }

  /// Whether a drift-triggered refit is waiting for enough new-regime
  /// records.
  bool drift_refit_deferred() const noexcept { return drift_trimmed_; }

 private:
  void retrain(RetrainReason reason);

  OnlineTrainerOptions options_;
  std::vector<Record> buffer_;
  std::optional<StableTemperaturePredictor> model_;
  ResidualMonitor residuals_;  ///< of the live model; reset on retrain
  std::size_t records_seen_ = 0;
  std::size_t new_since_fit_ = 0;
  std::size_t version_ = 0;
  RetrainReason reason_ = RetrainReason::kNone;
  bool drift_trimmed_ = false;
};

}  // namespace vmtherm::core
