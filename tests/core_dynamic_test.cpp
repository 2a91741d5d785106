// Tests for core/dynamic_predictor: the paper's Eqs. (4)-(8), including the
// worked example from Section II.

#include "core/dynamic_predictor.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace vmtherm::core {
namespace {

DynamicOptions paper_options() {
  DynamicOptions options;
  options.learning_rate = 0.8;     // lambda, paper value
  options.update_interval_s = 15;  // Delta_update, paper example
  options.t_break_s = 600.0;
  return options;
}

TEST(DynamicOptionsTest, Validation) {
  DynamicOptions options;
  options.learning_rate = -0.1;
  EXPECT_THROW(options.validate(), ConfigError);
  options = DynamicOptions{};
  options.learning_rate = 1.1;
  EXPECT_THROW(options.validate(), ConfigError);
  options = DynamicOptions{};
  options.update_interval_s = 0.0;
  EXPECT_THROW(options.validate(), ConfigError);
  options = DynamicOptions{};
  options.curvature = 0.0;
  EXPECT_THROW(options.validate(), ConfigError);
}

TEST(DynamicPredictorTest, UseBeforeBeginThrows) {
  DynamicTemperaturePredictor p(paper_options());
  EXPECT_FALSE(p.started());
  EXPECT_THROW((void)p.predict_at(10.0), ConfigError);
  EXPECT_THROW((void)p.predict_ahead(60.0), ConfigError);
  EXPECT_THROW(p.observe(0.0, 50.0), ConfigError);
  EXPECT_THROW((void)p.curve(), ConfigError);
}

TEST(DynamicPredictorTest, GammaStartsAtZero) {
  DynamicTemperaturePredictor p(paper_options());
  p.begin(0.0, 30.0, 60.0);
  EXPECT_DOUBLE_EQ(p.calibration(), 0.0);
  // Eq. (4): psi(60) = psi*(60) + 0 = psi*(60).
  EXPECT_DOUBLE_EQ(p.predict_at(60.0), p.curve().value(60.0));
}

TEST(DynamicPredictorTest, PaperWorkedExampleEquations5To7) {
  // Paper Section II: at t = 15, dif = phi(15) - psi*(15) (gamma still 0),
  // then gamma = lambda * dif, and psi(75) = psi*(75) + gamma.
  DynamicTemperaturePredictor p(paper_options());
  p.begin(0.0, 30.0, 60.0);
  const double psi_star_15 = p.curve().value(15.0);
  const double measured_15 = psi_star_15 + 2.0;  // 2 degrees hotter

  p.observe(15.0, measured_15);
  const double expected_gamma = 0.8 * 2.0;  // Eq. (6)
  EXPECT_NEAR(p.calibration(), expected_gamma, 1e-12);

  const double psi_star_75 = p.curve().value(75.0);
  EXPECT_NEAR(p.predict_at(75.0), psi_star_75 + expected_gamma, 1e-12);
  // Eq. (8) via predict_ahead: last observation at 15, gap 60 -> t=75.
  EXPECT_NEAR(p.predict_ahead(60.0), psi_star_75 + expected_gamma, 1e-12);
}

TEST(DynamicPredictorTest, UpdatesOnlyEveryUpdateInterval) {
  DynamicTemperaturePredictor p(paper_options());
  p.begin(0.0, 30.0, 60.0);
  // t = 10 < 15: too early; gamma stays 0.
  p.observe(10.0, 99.0);
  EXPECT_DOUBLE_EQ(p.calibration(), 0.0);
  // t = 15: update happens.
  p.observe(15.0, p.curve().value(15.0) + 1.0);
  EXPECT_NEAR(p.calibration(), 0.8, 1e-12);
  // t = 20 (< 15 + 15): no update.
  const double gamma_before = p.calibration();
  p.observe(20.0, 99.0);
  EXPECT_DOUBLE_EQ(p.calibration(), gamma_before);
  // t = 30: next update uses the *calibrated* prediction in dif (Eq. 5).
  const double psi_30 = p.curve().value(30.0) + gamma_before;
  p.observe(30.0, psi_30 + 0.5);
  EXPECT_NEAR(p.calibration(), gamma_before + 0.8 * 0.5, 1e-12);
}

TEST(DynamicPredictorTest, CalibrationConvergesToConstantOffset) {
  // If reality is always curve + 3, gamma -> 3.
  auto options = paper_options();
  DynamicTemperaturePredictor p(options);
  p.begin(0.0, 30.0, 60.0);
  for (double t = 15.0; t <= 600.0; t += 15.0) {
    p.observe(t, p.curve().value(t) + 3.0);
  }
  EXPECT_NEAR(p.calibration(), 3.0, 1e-6);
  EXPECT_NEAR(p.predict_ahead(60.0), p.curve().value(660.0) + 3.0, 1e-6);
}

TEST(DynamicPredictorTest, DisabledCalibrationKeepsGammaZero) {
  auto options = paper_options();
  options.calibration_enabled = false;
  DynamicTemperaturePredictor p(options);
  p.begin(0.0, 30.0, 60.0);
  for (double t = 15.0; t <= 300.0; t += 15.0) {
    p.observe(t, p.curve().value(t) + 10.0);
  }
  EXPECT_DOUBLE_EQ(p.calibration(), 0.0);
  EXPECT_DOUBLE_EQ(p.predict_at(400.0), p.curve().value(400.0));
}

TEST(DynamicPredictorTest, ZeroLearningRateNeverCalibrates) {
  auto options = paper_options();
  options.learning_rate = 0.0;
  DynamicTemperaturePredictor p(options);
  p.begin(0.0, 30.0, 60.0);
  for (double t = 15.0; t <= 300.0; t += 15.0) {
    p.observe(t, p.curve().value(t) + 10.0);
  }
  EXPECT_DOUBLE_EQ(p.calibration(), 0.0);
}

TEST(DynamicPredictorTest, OutOfOrderObservationThrows) {
  DynamicTemperaturePredictor p(paper_options());
  p.begin(0.0, 30.0, 60.0);
  p.observe(20.0, 31.0);
  EXPECT_THROW(p.observe(10.0, 31.0), ConfigError);
}

TEST(DynamicPredictorTest, BeginResetsGamma) {
  DynamicTemperaturePredictor p(paper_options());
  p.begin(0.0, 30.0, 60.0);
  p.observe(15.0, p.curve().value(15.0) + 5.0);
  EXPECT_GT(p.calibration(), 0.0);
  p.begin(100.0, 40.0, 55.0);
  EXPECT_DOUBLE_EQ(p.calibration(), 0.0);
  EXPECT_DOUBLE_EQ(p.predict_at(100.0), 40.0);
}

TEST(DynamicPredictorTest, RetargetResetsGammaByDefault) {
  DynamicTemperaturePredictor p(paper_options());
  p.begin(0.0, 30.0, 60.0);
  p.observe(15.0, p.curve().value(15.0) + 2.0);
  ASSERT_GT(p.calibration(), 0.0);

  p.retarget(300.0, 52.0, 48.0);  // VM removed: now cooling toward 48
  EXPECT_DOUBLE_EQ(p.calibration(), 0.0);
  EXPECT_DOUBLE_EQ(p.curve().phi0(), 52.0);
  EXPECT_DOUBLE_EQ(p.curve().psi_stable(), 48.0);
  // Immediately after retarget, prediction = the measured operating point.
  EXPECT_DOUBLE_EQ(p.predict_at(300.0), 52.0);
}

TEST(DynamicPredictorTest, RetargetCanRetainGammaWhenConfigured) {
  auto options = paper_options();
  options.retain_calibration_on_retarget = true;
  DynamicTemperaturePredictor p(options);
  p.begin(0.0, 30.0, 60.0);
  p.observe(15.0, p.curve().value(15.0) + 2.0);
  const double gamma = p.calibration();
  ASSERT_GT(gamma, 0.0);

  p.retarget(300.0, 52.0, 48.0);
  EXPECT_DOUBLE_EQ(p.calibration(), gamma);
  EXPECT_DOUBLE_EQ(p.predict_at(300.0), 52.0 + gamma);
}

TEST(DynamicPredictorTest, RetargetRestartsUpdateClock) {
  // After a (resetting) retarget, the first calibration update happens one
  // full update interval later, not immediately.
  DynamicTemperaturePredictor p(paper_options());
  p.begin(0.0, 30.0, 60.0);
  p.observe(15.0, p.curve().value(15.0) + 2.0);
  p.retarget(300.0, 52.0, 48.0);
  p.observe(305.0, 99.0);  // only 5 s after retarget: no update yet
  EXPECT_DOUBLE_EQ(p.calibration(), 0.0);
  p.observe(315.0, p.curve().value(15.0) + 1.0);
  EXPECT_NEAR(p.calibration(),
              0.8 * (p.curve().value(15.0) + 1.0 -
                     p.curve().value(315.0 - 300.0)),
              1e-12);
}

TEST(DynamicPredictorTest, RetargetBeforeObservationsThrows) {
  DynamicTemperaturePredictor p(paper_options());
  p.begin(0.0, 30.0, 60.0);
  p.observe(100.0, 40.0);
  EXPECT_THROW(p.retarget(50.0, 40.0, 55.0), ConfigError);
}

TEST(DynamicPredictorTest, FailedRetargetLeavesStateUnchanged) {
  // Every field of the state, doubles by bit pattern.
  const auto bits = [](const DynamicPredictorState& s) {
    return std::vector<std::uint64_t>{
        s.started ? 1u : 0u,
        std::bit_cast<std::uint64_t>(s.t0),
        std::bit_cast<std::uint64_t>(s.gamma),
        std::bit_cast<std::uint64_t>(s.last_update_s),
        std::bit_cast<std::uint64_t>(s.last_observed_s),
        std::bit_cast<std::uint64_t>(s.phi0),
        std::bit_cast<std::uint64_t>(s.psi_stable)};
  };
  DynamicTemperaturePredictor p(paper_options());
  p.begin(0.0, 30.0, 60.0);
  p.observe(15.0, p.curve().value(15.0) + 2.0);
  const std::vector<std::uint64_t> before = bits(p.export_state());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(p.retarget(300.0, 52.0, nan), ConfigError);
  EXPECT_EQ(bits(p.export_state()), before);
  EXPECT_THROW(p.retarget(300.0, inf, 48.0), ConfigError);
  EXPECT_EQ(bits(p.export_state()), before);
  EXPECT_EQ(p.curve().psi_stable(), 60.0);
}

TEST(DynamicPredictorTest, PredictAheadUsesLatestObservationTime) {
  DynamicTemperaturePredictor p(paper_options());
  p.begin(0.0, 30.0, 60.0);
  p.observe(100.0, p.curve().value(100.0));
  EXPECT_DOUBLE_EQ(p.predict_ahead(50.0), p.predict_at(150.0));
}

TEST(DynamicPredictorTest, TrackingImprovesWithCalibrationOnExponential) {
  // Ground truth is exponential; the log curve alone mis-tracks, the
  // calibrated version must have lower squared error on 60 s-ahead
  // predictions. This is the mechanism behind Fig. 1(b).
  const double psi_inf = 60.0;
  const double phi0 = 30.0;
  const double tau = 220.0;
  auto truth = [&](double t) {
    return psi_inf + (phi0 - psi_inf) * std::exp(-t / tau);
  };

  auto options = paper_options();
  DynamicTemperaturePredictor calibrated(options);
  calibrated.begin(0.0, phi0, psi_inf);
  options.calibration_enabled = false;
  DynamicTemperaturePredictor uncalibrated(options);
  uncalibrated.begin(0.0, phi0, psi_inf);

  double se_cal = 0.0;
  double se_uncal = 0.0;
  int n = 0;
  for (double t = 15.0; t <= 540.0; t += 15.0) {
    calibrated.observe(t, truth(t));
    uncalibrated.observe(t, truth(t));
    const double target = truth(t + 60.0);
    se_cal += std::pow(calibrated.predict_at(t + 60.0) - target, 2);
    se_uncal += std::pow(uncalibrated.predict_at(t + 60.0) - target, 2);
    ++n;
  }
  EXPECT_LT(se_cal / n, se_uncal / n);
}

}  // namespace
}  // namespace vmtherm::core
