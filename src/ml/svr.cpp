#include "ml/svr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <list>
#include <unordered_map>

namespace vmtherm::ml {

namespace {

constexpr double kTau = 1e-12;  // floor for non-positive-definite 2x2 blocks

/// LRU cache of kernel rows K(i, .) over the l base samples.
class KernelRowCache {
 public:
  KernelRowCache(const Dataset& data, const KernelParams& kernel,
                 double cache_mb)
      : data_(data), kernel_(kernel) {
    const std::size_t l = data.size();
    const double bytes_per_row = static_cast<double>(l) * sizeof(double);
    max_rows_ = std::max<std::size_t>(
        2, static_cast<std::size_t>(cache_mb * 1024.0 * 1024.0 /
                                    std::max(1.0, bytes_per_row)));
  }

  /// Returns K(i, t) for all base t; the reference is valid until the next
  /// call to row().
  const std::vector<double>& row(std::size_t i) {
    auto it = map_.find(i);
    if (it != map_.end()) {
      // Move to front of the LRU list.
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.values;
    }
    if (map_.size() >= max_rows_) {
      const std::size_t victim = lru_.back();
      lru_.pop_back();
      map_.erase(victim);
    }
    lru_.push_front(i);
    Entry entry;
    entry.lru_it = lru_.begin();
    entry.values.resize(data_.size());
    const auto& xi = data_[i].x;
    for (std::size_t t = 0; t < data_.size(); ++t) {
      entry.values[t] = kernel_eval(kernel_, xi, data_[t].x);
    }
    auto [ins_it, inserted] = map_.emplace(i, std::move(entry));
    return ins_it->second.values;
  }

 private:
  struct Entry {
    std::vector<double> values;
    std::list<std::size_t>::iterator lru_it;
  };

  const Dataset& data_;
  const KernelParams& kernel_;
  std::size_t max_rows_;
  std::unordered_map<std::size_t, Entry> map_;
  std::list<std::size_t> lru_;
};

/// SMO solver state for the 2l-variable SVR dual.
class SvrSolver {
 public:
  SvrSolver(const Dataset& data, const SvrParams& params)
      : data_(data),
        params_(params),
        l_(data.size()),
        n_(2 * data.size()),
        cache_(data, params.kernel, params.cache_mb) {
    alpha_.assign(n_, 0.0);
    grad_.resize(n_);
    qdiag_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      grad_[i] = p(i);  // alpha = 0 -> G = p
      const auto& xi = data_[base(i)].x;
      qdiag_[i] = kernel_eval(params_.kernel, xi, xi);  // y_i^2 = 1
    }
  }

  SvrTrainReport solve() {
    SvrTrainReport report;
    const std::size_t max_iter =
        params_.max_iterations > 0
            ? params_.max_iterations
            : std::max<std::size_t>(100000, 200 * l_);

    std::size_t iter = 0;
    double violation = std::numeric_limits<double>::infinity();
    while (iter < max_iter) {
      auto [i, j, viol] = params_.second_order_working_set
                              ? select_working_set_second_order()
                              : select_working_set();
      violation = viol;
      if (viol < params_.tolerance) break;
      update_pair(i, j);
      ++iter;
    }

    report.iterations = iter;
    report.final_violation = violation;
    report.converged = violation < params_.tolerance;
    report.bias = -calculate_rho();
    return report;
  }

  /// β_k = α_k − α_{k+l} after solve().
  std::vector<double> betas() const {
    std::vector<double> out(l_);
    for (std::size_t k = 0; k < l_; ++k) out[k] = alpha_[k] - alpha_[k + l_];
    return out;
  }

 private:
  std::size_t base(std::size_t i) const noexcept { return i < l_ ? i : i - l_; }
  double sign(std::size_t i) const noexcept { return i < l_ ? 1.0 : -1.0; }
  double p(std::size_t i) const noexcept {
    return i < l_ ? params_.epsilon - data_[i].y
                  : params_.epsilon + data_[i - l_].y;
  }

  /// Q~(i, t) for all t, via one cached kernel row of base(i).
  /// The returned vector aliases internal scratch; valid until next call.
  const std::vector<double>& q_row(std::size_t i) {
    const auto& krow = cache_.row(base(i));
    qrow_scratch_.resize(n_);
    const double yi = sign(i);
    for (std::size_t t = 0; t < n_; ++t) {
      qrow_scratch_[t] = yi * sign(t) * krow[base(t)];
    }
    return qrow_scratch_;
  }

  /// Maximal-violating-pair selection (LIBSVM WSS1).
  /// Returns (i, j, violation).
  std::tuple<std::size_t, std::size_t, double> select_working_set() const {
    double gmax = -std::numeric_limits<double>::infinity();
    double gmin = std::numeric_limits<double>::infinity();
    std::size_t i_sel = 0;
    std::size_t j_sel = 0;
    for (std::size_t t = 0; t < n_; ++t) {
      const double y = sign(t);
      const bool at_upper = alpha_[t] >= params_.c;
      const bool at_lower = alpha_[t] <= 0.0;
      // I_up: can increase y*alpha
      if ((y > 0 && !at_upper) || (y < 0 && !at_lower)) {
        const double v = -y * grad_[t];
        if (v > gmax) {
          gmax = v;
          i_sel = t;
        }
      }
      // I_low: can decrease y*alpha
      if ((y > 0 && !at_lower) || (y < 0 && !at_upper)) {
        const double v = -y * grad_[t];
        if (v < gmin) {
          gmin = v;
          j_sel = t;
        }
      }
    }
    return {i_sel, j_sel, gmax - gmin};
  }

  /// Second-order selection (LIBSVM WSS2): i is the maximal violator from
  /// I_up; j is the I_low index giving the largest guaranteed decrease of
  /// the dual objective for the (i, j) subproblem.
  std::tuple<std::size_t, std::size_t, double>
  select_working_set_second_order() {
    double gmax = -std::numeric_limits<double>::infinity();
    std::size_t i_sel = 0;
    for (std::size_t t = 0; t < n_; ++t) {
      const double y = sign(t);
      const bool at_upper = alpha_[t] >= params_.c;
      const bool at_lower = alpha_[t] <= 0.0;
      if ((y > 0 && !at_upper) || (y < 0 && !at_lower)) {
        const double v = -y * grad_[t];
        if (v > gmax) {
          gmax = v;
          i_sel = t;
        }
      }
    }
    if (!std::isfinite(gmax)) return {0, 0, 0.0};  // I_up empty: optimal

    const std::vector<double>& qi = q_row(i_sel);
    const double yi = sign(i_sel);

    double gmax2 = -std::numeric_limits<double>::infinity();
    double best_obj = std::numeric_limits<double>::infinity();
    std::size_t j_sel = n_;  // sentinel: no improving j found
    for (std::size_t t = 0; t < n_; ++t) {
      const double y = sign(t);
      const bool at_upper = alpha_[t] >= params_.c;
      const bool at_lower = alpha_[t] <= 0.0;
      if (!((y > 0 && !at_lower) || (y < 0 && !at_upper))) continue;  // I_low
      gmax2 = std::max(gmax2, y * grad_[t]);

      const double grad_diff = gmax + y * grad_[t];
      if (grad_diff <= 0.0) continue;
      // Curvature of the (i, t) subproblem: K_ii + K_tt - 2 K_it. qi[t]
      // carries the y_i y_t sign, which the explicit factor cancels.
      double a = qdiag_[i_sel] + qdiag_[t] - 2.0 * yi * sign(t) * qi[t];
      if (a <= 0.0) a = kTau;
      const double obj = -(grad_diff * grad_diff) / a;
      if (obj < best_obj) {
        best_obj = obj;
        j_sel = t;
      }
    }
    const double violation = gmax + gmax2;
    if (j_sel == n_) {
      // No pair yields progress: report the raw violation with a dummy j;
      // the caller stops if it is under tolerance.
      return {i_sel, i_sel, violation};
    }
    return {i_sel, j_sel, violation};
  }

  void update_pair(std::size_t i, std::size_t j) {
    const double c = params_.c;
    const double yi = sign(i);
    const double yj = sign(j);

    // Snapshot Q entries before alpha changes. Copy row i (scratch is
    // reused by the second q_row call).
    const std::vector<double> qi = q_row(i);
    const std::vector<double>& qj = q_row(j);

    const double old_ai = alpha_[i];
    const double old_aj = alpha_[j];

    if (yi != yj) {
      double quad = qdiag_[i] + qdiag_[j] + 2.0 * qi[j];
      if (quad <= 0.0) quad = kTau;
      const double delta = (-grad_[i] - grad_[j]) / quad;
      const double diff = alpha_[i] - alpha_[j];
      alpha_[i] += delta;
      alpha_[j] += delta;
      if (diff > 0.0) {
        if (alpha_[j] < 0.0) {
          alpha_[j] = 0.0;
          alpha_[i] = diff;
        }
      } else {
        if (alpha_[i] < 0.0) {
          alpha_[i] = 0.0;
          alpha_[j] = -diff;
        }
      }
      if (diff > 0.0) {
        if (alpha_[i] > c) {
          alpha_[i] = c;
          alpha_[j] = c - diff;
        }
      } else {
        if (alpha_[j] > c) {
          alpha_[j] = c;
          alpha_[i] = c + diff;
        }
      }
    } else {
      double quad = qdiag_[i] + qdiag_[j] - 2.0 * qi[j];
      if (quad <= 0.0) quad = kTau;
      const double delta = (grad_[i] - grad_[j]) / quad;
      const double sum = alpha_[i] + alpha_[j];
      alpha_[i] -= delta;
      alpha_[j] += delta;
      if (sum > c) {
        if (alpha_[i] > c) {
          alpha_[i] = c;
          alpha_[j] = sum - c;
        }
      } else {
        if (alpha_[j] < 0.0) {
          alpha_[j] = 0.0;
          alpha_[i] = sum;
        }
      }
      if (sum > c) {
        if (alpha_[j] > c) {
          alpha_[j] = c;
          alpha_[i] = sum - c;
        }
      } else {
        if (alpha_[i] < 0.0) {
          alpha_[i] = 0.0;
          alpha_[j] = sum;
        }
      }
    }

    const double dai = alpha_[i] - old_ai;
    const double daj = alpha_[j] - old_aj;
    if (dai == 0.0 && daj == 0.0) return;
    for (std::size_t t = 0; t < n_; ++t) {
      grad_[t] += qi[t] * dai + qj[t] * daj;
    }
  }

  /// LIBSVM's calculate_rho over the unified solver variables.
  double calculate_rho() const {
    double ub = std::numeric_limits<double>::infinity();
    double lb = -std::numeric_limits<double>::infinity();
    double sum_free = 0.0;
    std::size_t nr_free = 0;
    for (std::size_t t = 0; t < n_; ++t) {
      const double y = sign(t);
      const double yg = y * grad_[t];
      if (alpha_[t] >= params_.c) {
        if (y < 0) ub = std::min(ub, yg);
        else lb = std::max(lb, yg);
      } else if (alpha_[t] <= 0.0) {
        if (y > 0) ub = std::min(ub, yg);
        else lb = std::max(lb, yg);
      } else {
        ++nr_free;
        sum_free += yg;
      }
    }
    if (nr_free > 0) return sum_free / static_cast<double>(nr_free);
    return (ub + lb) / 2.0;
  }

  const Dataset& data_;
  const SvrParams& params_;
  std::size_t l_;
  std::size_t n_;
  KernelRowCache cache_;
  std::vector<double> alpha_;
  std::vector<double> grad_;
  std::vector<double> qdiag_;
  mutable std::vector<double> qrow_scratch_;
};

}  // namespace

SvrModel SvrModel::train(const Dataset& data, const SvrParams& params,
                         SvrTrainReport* report) {
  params.validate();
  detail::require_data(!data.empty(), "svr training set is empty");
  for (const auto& s : data.samples()) {
    detail::require_data(std::isfinite(s.y), "svr target must be finite");
    for (double v : s.x) {
      detail::require_data(std::isfinite(v), "svr feature must be finite");
    }
  }

  SvrSolver solver(data, params);
  SvrTrainReport local = solver.solve();
  const std::vector<double> betas = solver.betas();

  std::vector<std::vector<double>> svs;
  std::vector<double> coefs;
  for (std::size_t k = 0; k < data.size(); ++k) {
    if (betas[k] != 0.0) {
      svs.push_back(data[k].x);
      coefs.push_back(betas[k]);
    }
  }
  local.support_vector_count = svs.size();
  if (report != nullptr) *report = local;

  return SvrModel(params.kernel, std::move(svs), std::move(coefs), local.bias);
}

SvrModel::SvrModel(KernelParams kernel,
                   std::vector<std::vector<double>> support_vectors,
                   std::vector<double> coefficients, double bias)
    : kernel_(kernel),
      support_vectors_(std::move(support_vectors)),
      coefficients_(std::move(coefficients)),
      bias_(bias),
      // Validates the kernel, the sv/coef alignment and the row
      // dimensions, and packs the evaluator in one pass.
      inference_(kernel_, support_vectors_, coefficients_, bias_) {}

double SvrModel::predict(std::span<const double> x) const {
  return inference_.predict(x);
}

std::vector<double> SvrModel::predict(const Dataset& data) const {
  std::vector<double> out(data.size());
  if (inference_.support_vector_count() == 0) {
    std::fill(out.begin(), out.end(), bias_);
    return out;
  }
  const std::size_t dim = inference_.dim();
  std::vector<double> flat;
  flat.reserve(data.size() * dim);
  for (const auto& s : data.samples()) {
    detail::require_data(s.x.size() == dim, "svr predict dimension mismatch");
    flat.insert(flat.end(), s.x.begin(), s.x.end());
  }
  inference_.predict_batch(flat, data.size(), out);
  return out;
}

void SvrModel::predict_batch(std::span<const double> queries,
                             std::size_t query_count,
                             std::span<double> out) const {
  inference_.predict_batch(queries, query_count, out);
}

}  // namespace vmtherm::ml
