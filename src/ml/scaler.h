// vmtherm/ml/scaler.h
//
// Min-max feature scaling to [-1, 1] — the equivalent of LIBSVM's
// svm-scale preprocessing, which the paper's pipeline (LIBSVM + easygrid)
// applies before training RBF models.

#pragma once

#include <span>
#include <vector>

#include "ml/dataset.h"

namespace vmtherm::ml {

/// Per-feature affine scaler fit on training data. Constant features map
/// to 0. Test-time values outside the training range extrapolate linearly
/// (not clipped) so the model sees their direction.
class MinMaxScaler {
 public:
  MinMaxScaler() = default;

  /// Learns per-feature ranges; throws DataError on empty data.
  static MinMaxScaler fit(const Dataset& data);

  /// Reconstructs a scaler from persisted ranges (model_io).
  MinMaxScaler(std::vector<double> mins, std::vector<double> maxs);

  std::size_t dim() const noexcept { return mins_.size(); }
  const std::vector<double>& mins() const noexcept { return mins_; }
  const std::vector<double>& maxs() const noexcept { return maxs_; }

  /// Scales one feature vector; throws DataError on dimension mismatch.
  std::vector<double> transform(std::span<const double> x) const;

  /// Allocation-free variant for hot paths: scales into `out`, which must
  /// have x's size. `x` and `out` must not alias.
  void transform_into(std::span<const double> x, std::span<double> out) const;

  /// Scales every sample of a dataset (targets unchanged).
  Dataset transform(const Dataset& data) const;

  /// Inverse of transform for one vector.
  std::vector<double> inverse(std::span<const double> scaled) const;

 private:
  std::vector<double> mins_;
  std::vector<double> maxs_;
};

}  // namespace vmtherm::ml
