// Tests for the accuracy report: per-stage decayed residual sums against
// an oldest-to-newest reference, core-replica agreement, the stage split
// on simulated faults, order-independent fleet aggregation, and the
// engine-level determinism contracts (shard count, ψ-cache on/off,
// tracing on/off).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/drift.h"
#include "core/dynamic_predictor.h"
#include "core/evaluator.h"
#include "core/record.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "sim/machine.h"

namespace vmtherm::serve {
namespace {

using core::ResidualMonitor;
using core::StageSums;

// Deterministic pseudo-random doubles in [-1, 1) (no global RNG state).
class Lcg {
 public:
  double next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state_ >> 11) /
               static_cast<double>(1ULL << 52) -
           1.0;
  }

 private:
  std::uint64_t state_ = 42;
};

/// Decayed sums of `difs` recomputed from scratch, oldest to newest.
StageSums reference_sums(const std::vector<double>& difs) {
  StageSums sums;
  for (const double d : difs) {
    sums.weight = core::kResidualDecay * sums.weight + 1.0;
    sums.sum = core::kResidualDecay * sums.sum + d;
    sums.sum_sq = core::kResidualDecay * sums.sum_sq + d * d;
    sums.sum_abs = core::kResidualDecay * sums.sum_abs + std::abs(d);
  }
  return sums;
}

TEST(HostAccuracyTest, MatchesBruteForceReference) {
  ResidualMonitor monitor;
  std::vector<double> transient;  // each stage's samples, oldest first
  std::vector<double> stable;
  Lcg rng;
  for (int i = 0; i < 1000; ++i) {
    const double dif = 3.0 * rng.next();
    const bool stable_stage = rng.next() > -0.3;
    monitor.observe(dif, stable_stage, 0.5, 8.0);
    (stable_stage ? stable : transient).push_back(dif);
    // Recomputed from the full history: bitwise-identical, not merely
    // close, and each stage decays only with its own observations.
    ASSERT_EQ(monitor.transient, reference_sums(transient));
    ASSERT_EQ(monitor.stable, reference_sums(stable));
  }
  EXPECT_EQ(monitor.count, 1000u);
  // β^age weighting: after n samples the weight is (1 − β^n) / (1 − β),
  // approaching 128.
  const auto n = static_cast<double>(stable.size());
  EXPECT_NEAR(monitor.stable.weight,
              (1.0 - std::pow(core::kResidualDecay, n)) * 128.0, 1e-9);
}

HostAccuracyStats make_host_stats(const std::string& id,
                                  StageSums transient, StageSums stable,
                                  std::uint64_t count, bool drifted) {
  HostAccuracyStats stats;
  stats.host_id = id;
  stats.residuals.count = count;
  stats.residuals.drifted = drifted;
  stats.residuals.transient = transient;
  stats.residuals.stable = stable;
  return stats;
}

TEST(AggregateFleetTest, ResultIsIndependentOfInputOrder) {
  const std::vector<HostAccuracyStats> rows = {
      make_host_stats("c", {3, -3.0, 9.0, 3.0}, {1, 0.5, 0.25, 0.5}, 4, true),
      make_host_stats("a", {1, 1.0, 1.0, 1.0}, {}, 1, false),
      make_host_stats("b", {}, {2, 0.5, 0.25, 0.5}, 2, true),
  };
  std::vector<HostAccuracyStats> shuffled = {rows[1], rows[2], rows[0]};

  const FleetAccuracyStats x = aggregate_fleet(rows);
  const FleetAccuracyStats y = aggregate_fleet(shuffled);
  ASSERT_EQ(x.hosts.size(), 3u);
  EXPECT_EQ(x.hosts[0].host_id, "a");  // sorted by id
  EXPECT_EQ(x.hosts[1].host_id, "b");
  EXPECT_EQ(x.hosts[2].host_id, "c");
  EXPECT_EQ(y.hosts[0].host_id, "a");
  EXPECT_EQ(x.observations, 7u);
  EXPECT_EQ(x.hosts_drifted, 2u);
  EXPECT_EQ(x.transient, y.transient);
  EXPECT_EQ(x.stable, y.stable);
  // Spot-check the merged math: stage sums merged in host-id order, the
  // rolling statistics merge the two stages, then divide.
  EXPECT_EQ(x.transient, (StageSums{4, -2.0, 10.0, 4.0}));
  EXPECT_EQ(x.stable, (StageSums{3, 1.0, 0.5, 1.0}));
  EXPECT_EQ(x.merged().mse(), (10.0 + 0.5) / 7.0);
  EXPECT_EQ(x.merged().mean(), (-2.0 + 1.0) / 7.0);
  EXPECT_EQ(x.stable.mean(), 1.0 / 3.0);
}

TEST(AggregateFleetTest, EmptyFleetReportsZeros) {
  const FleetAccuracyStats fleet = aggregate_fleet({});
  EXPECT_TRUE(fleet.hosts.empty());
  EXPECT_EQ(fleet.observations, 0u);
  EXPECT_EQ(fleet.merged().mse(), 0.0);
  EXPECT_EQ(fleet.stable.mean(), 0.0);
  EXPECT_EQ(fleet.hosts_drifted, 0u);
}

// ---------------------------------------------------------------------------
// Engine-level contracts (same shared predictor pattern as
// serve_engine_test).

const core::StableTemperaturePredictor& shared_predictor() {
  static const core::StableTemperaturePredictor predictor = [] {
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
        core::generate_corpus(ranges, 80, 73), options);
  }();
  return predictor;
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

FleetEngineOptions manual_options(std::size_t shards) {
  FleetEngineOptions options;
  options.shards = shards;
  options.drain = DrainMode::kManual;
  options.backpressure = BackpressurePolicy::kDropNewest;
  return options;
}

struct RunResult {
  FleetAccuracyStats report;
  std::vector<double> forecasts;
};

// One fixed 6-host, 60-step telemetry stream that crosses t_break (600 s)
// and retargets host-1 at 675 s back into its transient stage; the tests
// below replay it under different engine configurations and demand
// identical results.
RunResult run_fixed_stream(FleetEngineOptions options) {
  FleetEngine engine(shared_predictor(), options);
  std::vector<HostHandle> handles;
  std::vector<ForecastRequest> requests;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(engine.register_host(
        "host-" + std::to_string(i),
        i % 2 == 0 ? busy_config() : idle_config(), 0.0, 22.0 + i));
    requests.push_back(ForecastRequest{handles.back(), 120.0});
  }
  for (int step = 1; step <= 60; ++step) {
    std::vector<TelemetryEvent> batch;
    for (int i = 0; i < 6; ++i) {
      batch.push_back(TelemetryEvent::observe(
          handles[i], step * 15.0, 25.0 + i + 0.2 * step));
    }
    if (step == 45) {
      batch.push_back(TelemetryEvent::update_config(handles[1], step * 15.0,
                                                    40.0, busy_config()));
    }
    engine.ingest_batch(std::move(batch));
    engine.flush();
  }
  RunResult result;
  result.forecasts = engine.forecast_batch(requests);
  result.report = engine.accuracy_report();
  return result;
}

// Bitwise equality of everything except the cache/queue diagnostics,
// which legitimately vary with shard count and cache configuration. The
// derived fields (rolling_*, stable_bias, transient_mse) are quotients of
// the compared sums.
void expect_accuracy_equal(const FleetAccuracyStats& a,
                           const FleetAccuracyStats& b) {
  EXPECT_EQ(a.hosts, b.hosts);  // ids, γ and residual monitors
  EXPECT_EQ(a.observations, b.observations);
  EXPECT_EQ(a.transient, b.transient);
  EXPECT_EQ(a.stable, b.stable);
  EXPECT_EQ(a.hosts_drifted, b.hosts_drifted);
}

TEST(EngineAccuracyTest, MatchesStandaloneCoreReplica) {
  // One engine-managed host against a hand-rolled replica built from the
  // same core components (Eq. 5–8 tracker + residual monitor) fed the
  // identical observation stream: every reported number must agree.
  FleetEngineOptions options = manual_options(1);
  FleetEngine engine(shared_predictor(), options);
  const mgmt::MonitoredConfig config = busy_config();
  const HostHandle h = engine.register_host("h1", config, 0.0, 23.0);

  std::vector<double> features;
  std::vector<double> scaled;
  core::encode_features(
      core::make_record_inputs(config.server, config.vms, config.fans,
                               config.env_temp_c),
      features);
  const double psi =
      shared_predictor().predict_from_features(features, scaled);
  core::DynamicTemperaturePredictor replica(options.dynamic);
  replica.begin(0.0, 23.0, psi);
  ResidualMonitor monitor;

  for (int step = 1; step <= 60; ++step) {
    const double t = step * 15.0;
    const double measured = 30.0 + 0.15 * t;  // strays: exercises CUSUM
    const double dif = measured - replica.predict_at(t);
    // The stage rule: stable once t − t0 reaches t_break.
    monitor.observe(dif, t >= options.dynamic.t_break_s,
                    options.drift_slack_c, options.drift_threshold_c);
    replica.observe(t, measured);
    engine.ingest(TelemetryEvent::observe(h, t, measured));
  }
  engine.flush();

  const FleetAccuracyStats fleet = engine.accuracy_report();
  ASSERT_EQ(fleet.hosts.size(), 1u);
  const HostAccuracyStats& host = fleet.hosts[0];
  EXPECT_EQ(host.host_id, "h1");
  EXPECT_EQ(host.residuals, monitor);
  EXPECT_EQ(host.residuals.count, 60u);
  EXPECT_GT(host.residuals.stable.weight, 0.0);  // both stages were fed
  EXPECT_GT(host.residuals.transient.weight, 0.0);
  EXPECT_EQ(host.gamma, replica.calibration());
  EXPECT_EQ(host.gamma, engine.calibration_of(h));
  // dif = measured - predicted: readings above the forecast drive the
  // positive sum only.
  EXPECT_GT(host.residuals.positive, 0.0);
  EXPECT_EQ(host.residuals.negative, 0.0);
  EXPECT_TRUE(host.residuals.drifted);  // the ramp is a genuine mean shift
  EXPECT_EQ(fleet.hosts_drifted, 1u);
  EXPECT_EQ(fleet.merged(), host.residuals.merged());  // single host
}

/// Sensed temperatures every 15 s for 1500 s of a medium server running
/// one cpu-burn VM from a cold start. At 900 s (past t_break) the host
/// continues on a twin whose heatsink-to-air resistance is `r_scale` times
/// nominal, from the same thermal state.
std::vector<double> burn_trace(double r_scale) {
  sim::MachineOptions machine_options;
  machine_options.initial_temp_c = 23.0;
  const auto machine = [&](double scale) {
    sim::ServerSpec spec = busy_config().server;
    spec.thermal.sink_to_ambient_resistance *= scale;
    auto m = std::make_unique<sim::PhysicalMachine>(spec, machine_options,
                                                    Rng(3));
    m->add_vm(sim::Vm("burn", busy_config().vms.front(), Rng(4)));
    return m;
  };
  auto host = machine(1.0);
  std::vector<double> trace;
  for (int step = 1; step <= 100; ++step) {
    if (step == 61) {
      auto twin = machine(r_scale);
      twin->thermal().reset(host->thermal().die_temp_c(),
                            host->thermal().sink_temp_c());
      host = std::move(twin);
    }
    trace.push_back(host->step(15.0, 23.0).cpu_temp_sensed_c);
  }
  return trace;
}

/// The residual monitor of one host that ran the burn trace.
ResidualMonitor monitor_after(const std::vector<double>& trace,
                              const core::DynamicOptions& dynamic) {
  FleetEngineOptions options = manual_options(1);
  options.dynamic = dynamic;
  FleetEngine engine(shared_predictor(), options);
  mgmt::MonitoredConfig config = busy_config();
  config.vms.resize(1);
  const HostHandle h = engine.register_host("burn", config, 0.0, 23.0);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    engine.ingest(TelemetryEvent::observe(
        h, 15.0 * static_cast<double>(i + 1), trace[i]));
  }
  engine.flush();
  return engine.accuracy_report().hosts.at(0).residuals;
}

TEST(EngineAccuracyTest, DegradedHeatsinkMovesStableBiasOnly) {
  // The heatsink degrades by 30% after the host settled: readings climb
  // above ψ_stable + γ and γ lags behind, so the stable stage's mean dif
  // rises; the transient stage saw none of it.
  const ResidualMonitor healthy = monitor_after(burn_trace(1.0), {});
  const ResidualMonitor degraded = monitor_after(burn_trace(1.3), {});
  EXPECT_GT(degraded.stable.mean() - healthy.stable.mean(), 0.05);
  EXPECT_EQ(degraded.transient, healthy.transient);
}

TEST(EngineAccuracyTest, MisSetLambdaMovesTransientErrorOnly) {
  // λ = 0.2 instead of the paper's 0.8: γ trails the curve-shape error
  // through the transient, but has caught up by t_break, so the stable
  // stage's bias stays as small as with the paper's λ.
  core::DynamicOptions slow;
  slow.learning_rate = 0.2;
  const std::vector<double> trace = burn_trace(1.0);
  const ResidualMonitor tuned = monitor_after(trace, {});
  const ResidualMonitor mis_set = monitor_after(trace, slow);
  EXPECT_GT(mis_set.transient.mse() - tuned.transient.mse(), 2.0);
  EXPECT_LT(std::abs(mis_set.stable.mean() - tuned.stable.mean()), 0.05);
}

TEST(EngineAccuracyTest, IdenticalWithAndWithoutPsiCache) {
  FleetEngineOptions cached = manual_options(2);
  FleetEngineOptions uncached = manual_options(2);
  uncached.psi_cache_capacity = 0;
  const RunResult with_cache = run_fixed_stream(cached);
  const RunResult without_cache = run_fixed_stream(uncached);
  EXPECT_EQ(with_cache.forecasts, without_cache.forecasts);
  expect_accuracy_equal(with_cache.report, without_cache.report);
  EXPECT_EQ(without_cache.report.psi_cache_hits, 0u);
}

TEST(EngineAccuracyTest, ReportIsDeterministicAcrossShardCounts) {
  const RunResult one = run_fixed_stream(manual_options(1));
  const RunResult seven = run_fixed_stream(manual_options(7));
  EXPECT_EQ(one.forecasts, seven.forecasts);
  expect_accuracy_equal(one.report, seven.report);
  // The stream feeds both stages, so the compared sums are not vacuous.
  EXPECT_GT(one.report.stable.weight, 0.0);
  EXPECT_GT(one.report.transient.weight, 0.0);
}

TEST(EngineAccuracyTest, TracingDoesNotPerturbResults) {
  // The acceptance contract: forecasts and accuracy stats are bitwise
  // identical whether the span recorder is enabled or not.
  const RunResult untraced = run_fixed_stream(manual_options(3));
  obs::TraceRecorder& recorder = obs::global_trace();
  recorder.clear();
  recorder.set_enabled(true);
  const RunResult traced = run_fixed_stream(manual_options(3));
  recorder.set_enabled(false);
  EXPECT_GT(recorder.event_count(), 0u);  // the hot path really recorded
  recorder.clear();
  EXPECT_EQ(untraced.forecasts, traced.forecasts);
  expect_accuracy_equal(untraced.report, traced.report);
}

}  // namespace
}  // namespace vmtherm::serve
