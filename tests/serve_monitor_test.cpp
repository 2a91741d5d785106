// Tests for online host monitoring through serve/engine: FleetEngine with
// one manually drained shard, its serial form, driven one event at a time
// the way a single operator tracks a handful of hosts.

#include "serve/engine.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/evaluator.h"
#include "sim/machine.h"

namespace vmtherm::serve {
namespace {

const core::StableTemperaturePredictor& predictor() {
  static const core::StableTemperaturePredictor trained = [] {
    sim::ScenarioRanges ranges;
    ranges.duration_s = 1200.0;
    ranges.sample_interval_s = 10.0;
    core::StableTrainOptions options;
    ml::SvrParams params;
    params.kernel.gamma = 1.0 / 32;
    params.c = 512.0;
    params.epsilon = 0.05;
    options.fixed_params = params;
    return core::StableTemperaturePredictor::train(
        core::generate_corpus(ranges, 150, 73), options);
  }();
  return trained;
}

FleetEngineOptions serial_options() {
  FleetEngineOptions options;
  options.shards = 1;
  options.drain = DrainMode::kManual;
  options.backpressure = BackpressurePolicy::kDropNewest;
  return options;
}

mgmt::MonitoredConfig busy_config() {
  mgmt::MonitoredConfig config;
  config.server = sim::make_server_spec("medium");
  config.fans = 4;
  sim::VmConfig burn;
  burn.vcpus = 8;
  burn.memory_gb = 8.0;
  burn.task = sim::TaskType::kCpuBurn;
  config.vms = {burn, burn};
  config.env_temp_c = 23.0;
  return config;
}

mgmt::MonitoredConfig idle_config() {
  mgmt::MonitoredConfig config = busy_config();
  sim::VmConfig idle;
  idle.vcpus = 2;
  idle.memory_gb = 4.0;
  idle.task = sim::TaskType::kIdle;
  config.vms = {idle};
  return config;
}

double stable_prediction(const mgmt::MonitoredConfig& config) {
  return predictor().predict(config.server, config.vms, config.fans,
                             config.env_temp_c);
}

/// Ingests one reading and applies it before returning.
void observe(FleetEngine& engine, HostHandle h, double t, double measured) {
  engine.ingest(TelemetryEvent::observe(h, t, measured));
  engine.flush();
}

TEST(MonitorTest, RegisterAndQuery) {
  FleetEngine engine(predictor(), serial_options());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  EXPECT_TRUE(engine.has_host("h1"));
  EXPECT_EQ(engine.host_count(), 1u);
  EXPECT_GT(stable_prediction(engine.config_of(h)), 30.0);
  EXPECT_EQ(engine.config_of(h).fans, 4);
}

TEST(MonitorTest, DuplicateRegistrationThrows) {
  FleetEngine engine(predictor(), serial_options());
  engine.register_host("h1", busy_config(), 0.0, 23.0);
  EXPECT_THROW(engine.register_host("h1", busy_config(), 0.0, 23.0),
               ConfigError);
}

TEST(MonitorTest, UnknownHostThrows) {
  FleetEngine engine(predictor(), serial_options());
  const HostHandle ghost = engine.handle_of("ghost");
  EXPECT_EQ(ghost, kInvalidHostHandle);
  EXPECT_THROW(engine.ingest(TelemetryEvent::observe(ghost, 1.0, 40.0)),
               ConfigError);
  EXPECT_THROW((void)engine.forecast(ghost, 60.0), ConfigError);
  EXPECT_THROW(engine.unregister_host(ghost), ConfigError);
  EXPECT_THROW((void)engine.config_of(ghost), ConfigError);
}

TEST(MonitorTest, UnregisterRemoves) {
  FleetEngine engine(predictor(), serial_options());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  engine.unregister_host(h);
  EXPECT_FALSE(engine.has_host("h1"));
  EXPECT_EQ(engine.host_count(), 0u);
}

TEST(MonitorTest, ForecastRisesTowardStablePrediction) {
  FleetEngine engine(predictor(), serial_options());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  const double near = engine.forecast(h, 30.0);
  const double far = engine.forecast(h, 590.0);
  EXPECT_GT(far, near);  // heating toward the stable target
  EXPECT_NEAR(far, stable_prediction(busy_config()), 6.0);
}

TEST(MonitorTest, ObservationsCalibrateForecasts) {
  FleetEngine engine(predictor(), serial_options());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  // Feed measurements consistently 4 C above the model's own trajectory.
  for (double t = 15.0; t <= 300.0; t += 15.0) {
    const double model_now = engine.forecast(h, 0.0);
    observe(engine, h, t, model_now + 4.0);
  }
  ASSERT_GT(engine.calibration_of(h), 0.0);
  // After many updates the forecast carries (most of) the offset.
  const double before_offset = engine.forecast(h, 0.0);
  observe(engine, h, 315.0, before_offset);  // consistent reading
  EXPECT_GT(engine.forecast(h, 0.0), before_offset - 1.0);
}

TEST(MonitorTest, UpdateConfigRetargets) {
  FleetEngine engine(predictor(), serial_options());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  for (double t = 15.0; t <= 120.0; t += 15.0) {
    observe(engine, h, t, 30.0 + t * 0.05);
  }
  const double busy_stable = stable_prediction(engine.config_of(h));
  engine.ingest(TelemetryEvent::update_config(h, 120.0, 36.0, idle_config()));
  engine.flush();
  EXPECT_EQ(engine.config_of(h).vms.size(), 1u);
  const double idle_stable = stable_prediction(engine.config_of(h));
  EXPECT_LT(idle_stable, busy_stable - 5.0);
  // Forecast now heads toward the idle stable prediction (consistency of
  // the retargeted curve, not absolute model accuracy).
  EXPECT_NEAR(engine.forecast(h, 590.0), idle_stable, 2.0);
  EXPECT_LT(engine.forecast(h, 590.0), busy_stable - 4.0);
}

TEST(MonitorTest, HotspotRisksSortedAndFlagged) {
  FleetEngine engine(predictor(), serial_options());
  engine.register_host("hot", busy_config(), 0.0, 23.0);
  engine.register_host("cool", idle_config(), 0.0, 23.0);

  const auto risks = engine.hotspot_scan(590.0, 45.0);
  ASSERT_EQ(risks.size(), 2u);
  EXPECT_EQ(risks[0].host_id, "hot");
  EXPECT_GE(risks[0].forecast_c, risks[1].forecast_c);
  EXPECT_TRUE(risks[0].at_risk);
  EXPECT_FALSE(risks[1].at_risk);
}

TEST(MonitorTest, TracksLiveSimulatedMachine) {
  // End to end: the monitor tracks a simulated machine within a tight MAE.
  FleetEngine engine(predictor(), serial_options());

  sim::MachineOptions machine_options;
  machine_options.initial_temp_c = 23.0;
  sim::PhysicalMachine machine(sim::make_server_spec("medium"),
                               machine_options, Rng(3));
  const sim::VmConfig burn = busy_config().vms.front();
  machine.add_vm(sim::Vm("b0", burn, Rng(4)));
  machine.add_vm(sim::Vm("b1", burn, Rng(5)));
  const HostHandle h = engine.register_host("m", busy_config(), 0.0, 23.0);

  double abs_err = 0.0;
  int n = 0;
  for (int step = 1; step <= 240; ++step) {
    const auto sample = machine.step(5.0, 23.0);
    abs_err += std::abs(engine.forecast(h, 0.0) - sample.cpu_temp_sensed_c);
    ++n;
    observe(engine, h, sample.time_s, sample.cpu_temp_sensed_c);
  }
  EXPECT_LT(abs_err / n, 2.0);
}

}  // namespace
}  // namespace vmtherm::serve
