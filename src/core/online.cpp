#include "core/online.h"

#include <algorithm>

namespace vmtherm::core {

OnlineTrainer::OnlineTrainer(OnlineTrainerOptions options)
    : options_(std::move(options)) {
  options_.validate();
}

const StableTemperaturePredictor& OnlineTrainer::model() const {
  detail::require(model_.has_value(), "online trainer has no model yet");
  return *model_;
}

bool OnlineTrainer::add_record(const Record& record) {
  ++records_seen_;

  if (model_.has_value()) {
    residuals_.observe(record.stable_temp_c - model_->predict(record),
                       /*stable_stage=*/true, options_.drift_slack_c,
                       options_.drift_threshold_c);
  }

  buffer_.push_back(record);
  if (options_.max_records > 0 && buffer_.size() > options_.max_records) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() +
                      static_cast<long>(buffer_.size() - options_.max_records));
  }
  ++new_since_fit_;

  if (!model_.has_value()) {
    if (buffer_.size() >= options_.min_records_for_training) {
      retrain(RetrainReason::kInitial);
      return true;
    }
    return false;
  }
  if (options_.retrain_on_drift && residuals_.drifted) {
    // The model went stale: older records describe the previous regime and
    // would poison a refit. Keep only the most recent ones and wait until
    // enough new-regime data accumulated to train on.
    if (!drift_trimmed_) {
      const std::size_t keep =
          std::max<std::size_t>(1, options_.drift_keep_recent);
      if (buffer_.size() > keep) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + static_cast<long>(buffer_.size() - keep));
      }
      drift_trimmed_ = true;
    }
    if (buffer_.size() >= options_.min_records_for_training) {
      retrain(RetrainReason::kDrift);
      return true;
    }
    return false;
  }
  if (new_since_fit_ >= options_.retrain_batch) {
    retrain(RetrainReason::kBatch);
    return true;
  }
  return false;
}

void OnlineTrainer::retrain(RetrainReason reason) {
  model_ = StableTemperaturePredictor::train(buffer_, options_.train_options);
  ++version_;
  reason_ = reason;
  new_since_fit_ = 0;
  residuals_ = {};
  drift_trimmed_ = false;
}

}  // namespace vmtherm::core
