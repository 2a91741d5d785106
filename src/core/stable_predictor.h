// vmtherm/core/stable_predictor.h
//
// Stable CPU temperature prediction — the paper's first stage. Wraps the
// full LIBSVM-style pipeline: feature encoding (Eq. 2), min-max scaling,
// grid-searched (easygrid-equivalent) RBF ε-SVR with k-fold CV, and
// prediction for proposed placements.

#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/record.h"
#include "ml/grid.h"
#include "ml/scaler.h"
#include "ml/svr.h"

namespace vmtherm::core {

/// Training configuration. Defaults reproduce the paper's setup: RBF
/// kernel, grid parameter search, 10-fold validation.
struct StableTrainOptions {
  ml::GridSpec grid;  ///< grid + folds (default: 10-fold, RBF log2 grid)
  /// Skip the grid search and train directly with these parameters
  /// (used by ablations and tests that need speed).
  std::optional<ml::SvrParams> fixed_params;
};

/// Training diagnostics.
struct StableTrainReport {
  ml::SvrParams chosen_params;
  double cv_mse = 0.0;       ///< CV MSE of the winning grid point (0 if fixed)
  std::size_t grid_points_evaluated = 0;
  ml::SvrTrainReport final_fit;
  std::size_t training_records = 0;
};

/// A trained stable-temperature predictor.
class StableTemperaturePredictor {
 public:
  /// Trains from labelled records. Throws DataError when `records` is
  /// empty or smaller than the fold count (with grid search enabled).
  static StableTemperaturePredictor train(const std::vector<Record>& records,
                                          const StableTrainOptions& options = {},
                                          StableTrainReport* report = nullptr);

  /// Reconstructs from persisted parts (see save/load below).
  StableTemperaturePredictor(ml::MinMaxScaler scaler, ml::SvrModel model);

  /// Predicts ψ_stable for the record's inputs (its label is ignored).
  double predict(const Record& record) const;

  /// Convenience: predicts for explicit experiment inputs.
  double predict(const sim::ServerSpec& server,
                 const std::vector<sim::VmConfig>& vms, int active_fans,
                 double env_temp_c) const;

  /// Predicts from an already-encoded raw (unscaled) feature vector,
  /// scaling into `scaled`. Bitwise-identical to predict() on the record
  /// that produced `features`. A one-row predict_batch_from_features.
  double predict_from_features(std::span<const double> features,
                               std::vector<double>& scaled) const;

  /// Predicts `count` already-encoded raw feature vectors packed row-major
  /// in `features` (count x feature dim) into out[0..count), scaling into
  /// `scaled` (reused, grown once). Each result is bitwise-identical to
  /// predict_from_features on that row alone, at any count; the rows run
  /// through the SVR in query tiles. Throws DataError on extent mismatch.
  void predict_batch_from_features(std::span<const double> features,
                                   std::size_t count,
                                   std::vector<double>& scaled,
                                   std::span<double> out) const;

  /// Persists scaler + SVR into one directory-less two-section text file.
  void save(const std::string& path) const;
  static StableTemperaturePredictor load(const std::string& path);

  const ml::MinMaxScaler& scaler() const noexcept { return scaler_; }
  const ml::SvrModel& model() const noexcept { return model_; }

 private:
  ml::MinMaxScaler scaler_;
  ml::SvrModel model_;
};

/// Converts records to an ml::Dataset (feature encoding + labels).
ml::Dataset records_to_dataset(const std::vector<Record>& records);

}  // namespace vmtherm::core
