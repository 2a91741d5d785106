#include "core/dynamic_predictor.h"

namespace vmtherm::core {

DynamicTemperaturePredictor::DynamicTemperaturePredictor(
    const DynamicOptions& options)
    : options_(options) {
  options_.validate();
}

void DynamicTemperaturePredictor::begin(double t0, double phi0,
                                        double psi_stable) {
  started_ = true;
  t0_ = t0;
  phi0_ = phi0;
  psi_stable_ = psi_stable;
  gamma_ = 0.0;
  last_update_s_ = t0;
  last_observed_s_ = t0;
  curve_ = PredefinedCurve(phi0, psi_stable, options_.t_break_s,
                           options_.curvature);
}

void DynamicTemperaturePredictor::require_started() const {
  detail::require(started_, "dynamic predictor used before begin()");
}

void DynamicTemperaturePredictor::observe(double t, double measured) {
  require_started();
  detail::require(t >= last_observed_s_,
                  "observations must arrive in time order");
  last_observed_s_ = t;

  if (!options_.calibration_enabled) return;
  if (t - last_update_s_ < options_.update_interval_s) return;

  // Eq. (5): dif between measurement and current calibrated prediction.
  const double dif = measured - (curve_.value(t - t0_) + gamma_);
  // Eq. (6): gamma update with learning rate lambda.
  gamma_ += options_.learning_rate * dif;
  last_update_s_ = t;
}

double DynamicTemperaturePredictor::predict_at(double t) const {
  require_started();
  return curve_.value(t - t0_) + gamma_;
}

double DynamicTemperaturePredictor::predict_ahead(double gap_s) const {
  require_started();
  return predict_at(last_observed_s_ + gap_s);
}

void DynamicTemperaturePredictor::retarget(double t, double phi_now,
                                           double new_psi_stable) {
  require_started();
  detail::require(t >= last_observed_s_,
                  "retarget time must not precede observations");
  // Built before any member changes: if it throws (a non-finite reading or
  // ψ_stable), the tracker keeps its previous state.
  PredefinedCurve curve(phi_now, new_psi_stable, options_.t_break_s,
                        options_.curvature);
  t0_ = t;
  phi0_ = phi_now;
  psi_stable_ = new_psi_stable;
  last_observed_s_ = t;
  if (!options_.retain_calibration_on_retarget) {
    // The new curve starts at the measured operating point, so no offset is
    // warranted until fresh errors are observed.
    gamma_ = 0.0;
    last_update_s_ = t;
  }
  curve_ = curve;
}

DynamicPredictorState DynamicTemperaturePredictor::export_state()
    const noexcept {
  DynamicPredictorState state;
  state.started = started_;
  state.t0 = t0_;
  state.gamma = gamma_;
  state.last_update_s = last_update_s_;
  state.last_observed_s = last_observed_s_;
  state.phi0 = phi0_;
  state.psi_stable = psi_stable_;
  return state;
}

void DynamicTemperaturePredictor::restore_state(
    const DynamicPredictorState& state) {
  if (!state.started) {
    *this = DynamicTemperaturePredictor(options_);
    return;
  }
  detail::require(state.last_observed_s >= state.t0 &&
                      state.last_update_s >= state.t0,
                  "dynamic predictor state has observations before t0");
  started_ = true;
  t0_ = state.t0;
  gamma_ = state.gamma;
  last_update_s_ = state.last_update_s;
  last_observed_s_ = state.last_observed_s;
  phi0_ = state.phi0;
  psi_stable_ = state.psi_stable;
  curve_ = PredefinedCurve(phi0_, psi_stable_, options_.t_break_s,
                           options_.curvature);
}

const PredefinedCurve& DynamicTemperaturePredictor::curve() const {
  require_started();
  return curve_;
}

}  // namespace vmtherm::core
