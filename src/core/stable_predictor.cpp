#include "core/stable_predictor.h"

#include <fstream>

#include "ml/model_io.h"

namespace vmtherm::core {

ml::Dataset records_to_dataset(const std::vector<Record>& records) {
  ml::Dataset data;
  for (const auto& r : records) {
    data.add(ml::Sample{to_feature_vector(r), r.stable_temp_c});
  }
  return data;
}

StableTemperaturePredictor StableTemperaturePredictor::train(
    const std::vector<Record>& records, const StableTrainOptions& options,
    StableTrainReport* report) {
  detail::require_data(!records.empty(), "no training records");

  const ml::Dataset raw = records_to_dataset(records);
  const ml::MinMaxScaler scaler = ml::MinMaxScaler::fit(raw);
  const ml::Dataset scaled = scaler.transform(raw);

  StableTrainReport local;
  local.training_records = records.size();

  ml::SvrParams params;
  if (options.fixed_params.has_value()) {
    params = *options.fixed_params;
  } else {
    const ml::GridSearchResult grid = ml::grid_search_svr(scaled, options.grid);
    params = grid.best_params;
    local.cv_mse = grid.best_cv_mse;
    local.grid_points_evaluated = grid.evaluated.size();
  }
  local.chosen_params = params;

  const ml::SvrModel model = ml::SvrModel::train(scaled, params,
                                                 &local.final_fit);
  if (report != nullptr) *report = local;
  return StableTemperaturePredictor(scaler, model);
}

StableTemperaturePredictor::StableTemperaturePredictor(ml::MinMaxScaler scaler,
                                                       ml::SvrModel model)
    : scaler_(std::move(scaler)), model_(std::move(model)) {}

double StableTemperaturePredictor::predict(const Record& record) const {
  const std::vector<double> x = scaler_.transform(to_feature_vector(record));
  return model_.predict(x);
}

double StableTemperaturePredictor::predict_from_features(
    std::span<const double> features, std::vector<double>& scaled) const {
  double psi = 0.0;
  predict_batch_from_features(features, 1, scaled,
                              std::span<double>(&psi, 1));
  return psi;
}

void StableTemperaturePredictor::predict_batch_from_features(
    std::span<const double> features, std::size_t count,
    std::vector<double>& scaled, std::span<double> out) const {
  const std::size_t dim = scaler_.dim();
  detail::require_data(features.size() == count * dim,
                       "scaler input dimension mismatch");
  scaled.resize(features.size());
  for (std::size_t i = 0; i < count; ++i) {
    scaler_.transform_into(features.subspan(i * dim, dim),
                           std::span<double>(scaled).subspan(i * dim, dim));
  }
  model_.predict_batch(scaled, count, out);
}

double StableTemperaturePredictor::predict(
    const sim::ServerSpec& server, const std::vector<sim::VmConfig>& vms,
    int active_fans, double env_temp_c) const {
  return predict(make_record_inputs(server, vms, active_fans, env_temp_c));
}

void StableTemperaturePredictor::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw IoError("cannot create predictor file: " + path);
  ml::save_scaler(out, scaler_);
  ml::save_svr(out, model_);
}

StableTemperaturePredictor StableTemperaturePredictor::load(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open predictor file: " + path);
  ml::MinMaxScaler scaler = ml::load_scaler(in);
  ml::SvrModel model = ml::load_svr(in);
  return StableTemperaturePredictor(std::move(scaler), std::move(model));
}

}  // namespace vmtherm::core
