// vmtherm/ml/svr.h
//
// Epsilon-Support-Vector Regression trained by Sequential Minimal
// Optimization — a from-scratch replacement for the LIBSVM 3.17 ε-SVR the
// paper uses.
//
// The solver optimizes LIBSVM's dual formulation: with l training samples
// it introduces 2l variables α (the first l play the role of α, the second
// l of α*), labels y_i = +1 (i < l) / -1 (i >= l), linear term
// p_i = ε - t_i / ε + t_i, and Q~(i,j) = y_i y_j K(x_{i mod l}, x_{j mod l}):
//
//   min_α  1/2 αᵀ Q~ α + pᵀ α   s.t.  yᵀα = 0,  0 <= α_i <= C
//
// solved by maximal-violating-pair SMO with an LRU kernel-row cache. The
// regression coefficients are β_k = α_k - α_{k+l} and the decision function
// is f(x) = Σ_k β_k K(x_k, x) + b with b = -ρ from the solver's optimality
// conditions. Deterministic given the dataset order.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/kernel.h"
#include "ml/svr_inference.h"

namespace vmtherm::ml {

/// Training hyper-parameters (mirrors LIBSVM's -c/-p/-e/-m flags plus the
/// kernel parameters).
struct SvrParams {
  KernelParams kernel;
  double c = 8.0;            ///< box constraint C (> 0)
  double epsilon = 0.1;      ///< ε-insensitive tube half-width (>= 0)
  double tolerance = 1e-3;   ///< KKT violation stopping threshold
  std::size_t max_iterations = 0;  ///< 0 = auto (max(100000, 200*l))
  double cache_mb = 16.0;    ///< kernel row cache budget
  /// Working-set selection: second-order (LIBSVM's WSS2; picks the pair
  /// with the largest objective decrease — fewer iterations per solve) or
  /// the simpler maximal-violating-pair rule (WSS1) when false. Both reach
  /// the same optimum; the perf_svr bench quantifies the difference.
  bool second_order_working_set = true;

  void validate() const {
    kernel.validate();
    detail::require(c > 0.0, "svr C must be positive");
    detail::require(epsilon >= 0.0, "svr epsilon must be >= 0");
    detail::require(tolerance > 0.0, "svr tolerance must be positive");
    detail::require(cache_mb > 0.0, "svr cache_mb must be positive");
  }
};

/// Diagnostics from a training run.
struct SvrTrainReport {
  std::size_t iterations = 0;
  bool converged = false;
  std::size_t support_vector_count = 0;
  double bias = 0.0;
  /// Final maximal KKT violation (< tolerance when converged).
  double final_violation = 0.0;
};

/// A trained ε-SVR model: support vectors, their coefficients and the bias.
class SvrModel {
 public:
  /// Trains on `data` (which must be non-empty and finite). If `report` is
  /// non-null it receives training diagnostics. Throws DataError /
  /// ConfigError on invalid inputs; a run that hits max_iterations returns
  /// the best-so-far model with report->converged = false.
  static SvrModel train(const Dataset& data, const SvrParams& params,
                        SvrTrainReport* report = nullptr);

  /// Reconstructs a model from persisted parts (model_io).
  SvrModel(KernelParams kernel, std::vector<std::vector<double>> support_vectors,
           std::vector<double> coefficients, double bias);

  /// f(x) = Σ β_k K(sv_k, x) + b. Throws DataError on dimension mismatch.
  /// Evaluated by the packed SvrInference engine (see svr_inference.h for
  /// the bitwise-determinism contract).
  double predict(std::span<const double> x) const;

  /// Batch prediction over a dataset's features — routed through the
  /// packed engine; bitwise-identical to calling predict() per sample.
  std::vector<double> predict(const Dataset& data) const;

  /// Batched prediction over `query_count` queries packed row-major into
  /// `queries`; see SvrInference::predict_batch.
  void predict_batch(std::span<const double> queries, std::size_t query_count,
                     std::span<double> out) const;

  std::size_t support_vector_count() const noexcept {
    return support_vectors_.size();
  }
  const std::vector<std::vector<double>>& support_vectors() const noexcept {
    return support_vectors_;
  }
  const std::vector<double>& coefficients() const noexcept {
    return coefficients_;
  }
  double bias() const noexcept { return bias_; }
  const KernelParams& kernel() const noexcept { return kernel_; }
  /// The packed inference engine that evaluates this model.
  const SvrInference& inference() const noexcept { return inference_; }

 private:
  KernelParams kernel_;
  std::vector<std::vector<double>> support_vectors_;
  std::vector<double> coefficients_;  ///< β_k, aligned with support_vectors_
  double bias_ = 0.0;
  SvrInference inference_;  ///< packed evaluator; built last from the above
};

}  // namespace vmtherm::ml
