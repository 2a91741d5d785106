// vmtherm/core/dynamic_predictor.h
//
// Dynamic CPU temperature prediction — the paper's second stage
// (Eqs. 4-8). The predictor tracks the pre-defined curve ψ*(t) seeded by a
// stable-temperature prediction, and corrects it online with a calibration
// term γ learned from observed errors:
//
//   prediction:   ψ(t + Δ_gap) = ψ*(t + Δ_gap) + γ            (Eq. 8)
//   observation:  dif = φ(t) − ψ(t) = φ(t) − (ψ*(t) + γ)      (Eq. 5)
//   update:       γ ← γ + λ · dif                              (Eq. 6)
//
// γ starts at 0 and is updated once per Δ_update seconds of observations
// (paper: λ = 0.8, Δ_update = 15 s, Δ_gap = 60 s in the running example).
// Setting calibration_enabled = false freezes γ at 0, which is the paper's
// "without calibration" baseline in Fig. 1(b).
//
// Cloud dynamics (VM creation/removal/migration) change the stable target
// at run time; retarget() restarts the curve from the current operating
// point toward a new ψ_stable while keeping the learned γ.

#pragma once

#include "core/curve.h"
#include "core/profiler.h"

namespace vmtherm::core {

/// Dynamic prediction configuration.
struct DynamicOptions {
  double learning_rate = 0.8;       ///< λ
  double update_interval_s = 15.0;  ///< Δ_update
  double t_break_s = kDefaultTbreakS;
  double curvature = kDefaultCurvature;  ///< δ of ψ*(t)
  bool calibration_enabled = true;
  /// Whether retarget() keeps the learned γ. The new curve starts at the
  /// *measured* operating point, so the correct instantaneous offset is 0;
  /// the default therefore resets γ. Set true when γ is known to track a
  /// persistent sensor bias rather than model error for the previous target.
  bool retain_calibration_on_retarget = false;

  void validate() const {
    detail::require(learning_rate >= 0.0 && learning_rate <= 1.0,
                    "learning rate must be in [0, 1]");
    detail::require(update_interval_s > 0.0,
                    "update interval must be positive");
    detail::require(t_break_s > 0.0, "t_break must be positive");
    detail::require(curvature > 0.0, "curvature must be positive");
  }
};

/// The full mutable state of a DynamicTemperaturePredictor, as plain data.
/// Exported/restored by the serving layer's snapshot machinery so a
/// restarted service resumes with its calibration intact instead of cold.
struct DynamicPredictorState {
  bool started = false;
  double t0 = 0.0;
  double gamma = 0.0;
  double last_update_s = 0.0;
  double last_observed_s = 0.0;
  double phi0 = 0.0;
  double psi_stable = 0.0;
};

/// Online dynamic temperature predictor for one machine.
class DynamicTemperaturePredictor {
 public:
  explicit DynamicTemperaturePredictor(const DynamicOptions& options = {});

  /// Starts (or restarts) prediction at absolute time t0 with observed
  /// temperature phi0 and predicted stable temperature psi_stable.
  /// Resets γ to 0 (Eq. 4: "at the very beginning, γ = 0").
  void begin(double t0, double phi0, double psi_stable);

  /// Whether begin() has been called.
  bool started() const noexcept { return started_; }

  /// Feeds a measurement φ(t). Performs a calibration update when at least
  /// Δ_update seconds have elapsed since the previous update (Eqs. 5-6).
  /// Measurements must arrive in non-decreasing time order; throws
  /// ConfigError otherwise or if begin() was not called.
  void observe(double t, double measured);

  /// ψ(t) = ψ*(t) + γ at an absolute time t >= t0 (Eq. 8). Throws
  /// ConfigError before begin().
  double predict_at(double t) const;

  /// Prediction Δ_gap seconds after the latest observation (or after t0 if
  /// nothing was observed yet).
  double predict_ahead(double gap_s) const;

  /// Re-aims the curve at a new stable temperature from the current
  /// operating point (VM churn / migration / fan change). Resets γ to 0
  /// unless options.retain_calibration_on_retarget is set (see there).
  /// Throws ConfigError when t precedes the last observation or phi_now /
  /// new_psi_stable is not finite, and then leaves the state unchanged.
  void retarget(double t, double phi_now, double new_psi_stable);

  double calibration() const noexcept { return gamma_; }
  /// Time of the latest observation, or of the latest begin()/retarget()
  /// if later; observe() rejects an earlier time.
  double last_observed_s() const noexcept { return last_observed_s_; }
  const DynamicOptions& options() const noexcept { return options_; }

  /// Plain-data copy of the mutable state (snapshot support).
  DynamicPredictorState export_state() const noexcept;

  /// Restores a state produced by export_state() — bitwise-exact: the curve
  /// is rebuilt from the same doubles, so subsequent predictions equal the
  /// original predictor's. Options keep their constructed values. Throws
  /// ConfigError on inconsistent states (observation times before t0).
  void restore_state(const DynamicPredictorState& state);

  /// The current underlying curve (throws ConfigError before begin()).
  const PredefinedCurve& curve() const;

 private:
  void require_started() const;

  DynamicOptions options_;
  bool started_ = false;
  double t0_ = 0.0;               ///< absolute time the curve starts
  double gamma_ = 0.0;            ///< calibration γ
  double last_update_s_ = 0.0;    ///< absolute time of last γ update
  double last_observed_s_ = 0.0;  ///< absolute time of latest observation
  // Storage for the (re-startable) curve; optional-like via started_ flag.
  double phi0_ = 0.0;
  double psi_stable_ = 0.0;
  // Rebuilt on begin()/retarget(); cheap value type.
  PredefinedCurve curve_{0.0, 0.0, 1.0};
};

}  // namespace vmtherm::core
