// Tests for core/drift: the residual monitor's CUSUM drift detection and
// its per-stage decayed sums.

#include "core/drift.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace vmtherm::core {
namespace {

/// A monitor plus the tuning its owner passes in, fed one stage.
struct TunedMonitor {
  double slack;
  double threshold;
  ResidualMonitor monitor = {};

  bool observe(double dif) {
    return monitor.observe(dif, /*stable_stage=*/true, slack, threshold);
  }
};

TEST(CusumTest, InvalidParamsRejected) {
  EXPECT_THROW(validate_drift_tuning(-0.1, 1.0), ConfigError);
  EXPECT_THROW(validate_drift_tuning(0.1, 0.0), ConfigError);
  EXPECT_THROW(validate_drift_tuning(0.1, -1.0), ConfigError);
  EXPECT_NO_THROW(
      validate_drift_tuning(kDefaultDriftSlackC, kDefaultDriftThresholdC));
}

TEST(CusumTest, NoDriftOnZeroMeanNoise) {
  // sigma = 0.5; k = sigma/2, h = 10 sigma: with this tuning the
  // in-control average run length is far beyond the horizon below.
  TunedMonitor detector{0.25, 5.0};
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    detector.observe(rng.normal(0.0, 0.5));
  }
  EXPECT_FALSE(detector.monitor.drifted);
  EXPECT_EQ(detector.monitor.count, 20000u);
}

TEST(CusumTest, DetectsPositiveMeanShift) {
  TunedMonitor detector{0.25, 5.0};
  Rng rng(2);
  // Clean period...
  for (int i = 0; i < 500; ++i) detector.observe(rng.normal(0.0, 0.5));
  ASSERT_FALSE(detector.monitor.drifted);
  // ...then the model goes stale by +1 C.
  bool fired = false;
  int steps_to_fire = 0;
  for (int i = 0; i < 200 && !fired; ++i) {
    fired = detector.observe(rng.normal(1.0, 0.5));
    ++steps_to_fire;
  }
  EXPECT_TRUE(fired);
  EXPECT_LT(steps_to_fire, 30);  // a 2-sigma shift fires fast
}

TEST(CusumTest, DetectsNegativeMeanShift) {
  TunedMonitor detector{0.25, 5.0};
  Rng rng(3);
  for (int i = 0; i < 500; ++i) detector.observe(rng.normal(0.0, 0.5));
  ASSERT_FALSE(detector.monitor.drifted);
  bool fired = false;
  for (int i = 0; i < 200 && !fired; ++i) {
    fired = detector.observe(rng.normal(-1.0, 0.5));
  }
  EXPECT_TRUE(fired);
  EXPECT_GT(detector.monitor.negative, detector.monitor.positive);
}

TEST(CusumTest, DriftLatchesUntilReset) {
  TunedMonitor detector{0.0, 1.0};
  detector.observe(2.0);  // fires immediately
  EXPECT_TRUE(detector.monitor.drifted);
  detector.observe(0.0);
  EXPECT_TRUE(detector.monitor.drifted);  // latched
  detector.monitor = {};
  EXPECT_FALSE(detector.monitor.drifted);
  EXPECT_EQ(detector.monitor.count, 0u);
  EXPECT_DOUBLE_EQ(detector.monitor.positive, 0.0);
}

TEST(CusumTest, SlackAbsorbsSmallBias) {
  // A bias smaller than the slack never accumulates.
  TunedMonitor detector{0.5, 2.0};
  for (int i = 0; i < 10000; ++i) {
    detector.observe(0.4);  // |bias| < slack
  }
  EXPECT_FALSE(detector.monitor.drifted);
}

TEST(CusumTest, AccumulatorsNonNegative) {
  TunedMonitor detector{0.1, 5.0};
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    detector.observe(rng.normal(0.0, 1.0));
    ASSERT_GE(detector.monitor.positive, 0.0);
    ASSERT_GE(detector.monitor.negative, 0.0);
  }
}

TEST(CusumTest, DetectionDelayScalesWithShiftSize) {
  auto delay_for_shift = [](double shift) {
    TunedMonitor detector{0.25, 5.0};
    Rng rng(5);
    int steps = 0;
    bool fired = false;
    while (!fired && steps < 100000) {
      fired = detector.observe(rng.normal(shift, 0.5));
      ++steps;
    }
    return steps;
  };
  EXPECT_LT(delay_for_shift(2.0), delay_for_shift(0.6));
}

TEST(ResidualMonitorTest, NegatedResidualsSwapTheCusumSums) {
  // Callers feed one sign, measured - predicted; the opposite sign would
  // only swap the two sums, bit for bit, and latch at the same step.
  ResidualMonitor a;
  ResidualMonitor b;
  Rng rng(6);
  for (int i = 0; i < 400; ++i) {
    const double dif = rng.normal(0.3, 1.0);
    ASSERT_EQ(a.observe(dif, i % 2 == 0, 0.25, 5.0),
              b.observe(-dif, i % 2 == 0, 0.25, 5.0));
    ASSERT_EQ(a.positive, b.negative);
    ASSERT_EQ(a.negative, b.positive);
  }
  EXPECT_TRUE(a.drifted && b.drifted);
}

}  // namespace
}  // namespace vmtherm::core
