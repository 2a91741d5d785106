#include "ml/scaler.h"

#include <algorithm>

namespace vmtherm::ml {

MinMaxScaler MinMaxScaler::fit(const Dataset& data) {
  detail::require_data(!data.empty(), "cannot fit scaler on empty dataset");
  const std::size_t d = data.dim();
  std::vector<double> mins(d, 0.0);
  std::vector<double> maxs(d, 0.0);
  for (std::size_t j = 0; j < d; ++j) {
    mins[j] = data[0].x[j];
    maxs[j] = data[0].x[j];
  }
  for (std::size_t i = 1; i < data.size(); ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      mins[j] = std::min(mins[j], data[i].x[j]);
      maxs[j] = std::max(maxs[j], data[i].x[j]);
    }
  }
  return MinMaxScaler(std::move(mins), std::move(maxs));
}

MinMaxScaler::MinMaxScaler(std::vector<double> mins, std::vector<double> maxs)
    : mins_(std::move(mins)), maxs_(std::move(maxs)) {
  detail::require(mins_.size() == maxs_.size(),
                  "scaler min/max size mismatch");
  for (std::size_t j = 0; j < mins_.size(); ++j) {
    detail::require(mins_[j] <= maxs_[j], "scaler min exceeds max");
  }
}

std::vector<double> MinMaxScaler::transform(std::span<const double> x) const {
  std::vector<double> out(x.size());
  transform_into(x, out);
  return out;
}

void MinMaxScaler::transform_into(std::span<const double> x,
                                  std::span<double> out) const {
  detail::require_data(x.size() == mins_.size(),
                       "scaler input dimension mismatch");
  detail::require_data(out.size() == x.size(),
                       "scaler output dimension mismatch");
  for (std::size_t j = 0; j < x.size(); ++j) {
    const double span = maxs_[j] - mins_[j];
    out[j] = span > 0.0 ? -1.0 + 2.0 * (x[j] - mins_[j]) / span : 0.0;
  }
}

Dataset MinMaxScaler::transform(const Dataset& data) const {
  Dataset out;
  for (const auto& s : data.samples()) {
    out.add(Sample{transform(s.x), s.y});
  }
  return out;
}

std::vector<double> MinMaxScaler::inverse(
    std::span<const double> scaled) const {
  detail::require_data(scaled.size() == mins_.size(),
                       "scaler input dimension mismatch");
  std::vector<double> out(scaled.size());
  for (std::size_t j = 0; j < scaled.size(); ++j) {
    const double span = maxs_[j] - mins_[j];
    out[j] = span > 0.0 ? mins_[j] + (scaled[j] + 1.0) * 0.5 * span : mins_[j];
  }
  return out;
}

}  // namespace vmtherm::ml
