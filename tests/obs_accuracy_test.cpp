// Tests for obs/accuracy: the rolling prediction-quality window against a
// brute-force reference, γ/CUSUM agreement with standalone core
// components, order-independent fleet aggregation, and the engine-level
// determinism contracts (shard count, ψ-cache on/off, tracing on/off).

#include "obs/accuracy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/drift.h"
#include "core/dynamic_predictor.h"
#include "core/evaluator.h"
#include "core/record.h"
#include "obs/trace.h"
#include "serve/engine.h"

namespace vmtherm::obs {
namespace {

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

TEST(HostAccuracyTest, MatchesBruteForceReference) {
  constexpr std::size_t kWindow = 64;
  HostAccuracy accuracy(kWindow);
  std::deque<double> reference;  // the same samples, oldest first
  Lcg rng;
  for (int i = 0; i < 1000; ++i) {
    const double dif = 3.0 * rng.next();
    accuracy.record(dif, 0.1 * i);
    reference.push_back(dif);
    if (reference.size() > kWindow) reference.pop_front();

    // Brute-force sums in the same (chronological) order: the class's
    // results must be bitwise-identical, not merely close.
    double sum_sq = 0.0;
    double sum_abs = 0.0;
    double sum = 0.0;
    for (const double d : reference) {
      sum_sq += d * d;
      sum_abs += std::abs(d);
      sum += d;
    }
    const WindowSums sums = accuracy.window_sums();
    ASSERT_EQ(sums.samples, reference.size());
    ASSERT_EQ(sums.sum_sq_dif, sum_sq);
    ASSERT_EQ(sums.sum_abs_dif, sum_abs);
    ASSERT_EQ(sums.sum_dif, sum);
    const double n = static_cast<double>(reference.size());
    ASSERT_EQ(accuracy.rolling_mse(), sum_sq / n);
    ASSERT_EQ(accuracy.rolling_mae(), sum_abs / n);
    ASSERT_EQ(accuracy.rolling_mean_dif(), sum / n);
  }
  EXPECT_EQ(accuracy.observations(), 1000u);
  EXPECT_EQ(accuracy.in_window(), kWindow);
}

TEST(HostAccuracyTest, GammaDriftSpansTheCurrentWindow) {
  HostAccuracy accuracy(3);
  EXPECT_EQ(accuracy.latest_gamma(), 0.0);
  EXPECT_EQ(accuracy.gamma_drift(), 0.0);
  accuracy.record(0.0, 1.0);
  EXPECT_EQ(accuracy.latest_gamma(), 1.0);
  EXPECT_EQ(accuracy.gamma_drift(), 0.0);  // one sample: no drift yet
  accuracy.record(0.0, 1.5);
  EXPECT_EQ(accuracy.gamma_drift(), 0.5);  // 1.5 - 1.0
  accuracy.record(0.0, 3.0);
  EXPECT_EQ(accuracy.gamma_drift(), 2.0);  // 3.0 - 1.0
  accuracy.record(0.0, 2.0);  // evicts γ=1.0; oldest is now 1.5
  EXPECT_EQ(accuracy.latest_gamma(), 2.0);
  EXPECT_EQ(accuracy.gamma_drift(), 0.5);  // 2.0 - 1.5
}

TEST(HostAccuracyTest, ZeroWindowIsClampedToOne) {
  HostAccuracy accuracy(0);
  EXPECT_EQ(accuracy.window(), 1u);
  accuracy.record(2.0, 0.5);
  accuracy.record(4.0, 0.7);
  EXPECT_EQ(accuracy.in_window(), 1u);
  EXPECT_EQ(accuracy.rolling_mse(), 16.0);
  EXPECT_EQ(accuracy.latest_gamma(), 0.7);
}

HostAccuracyStats make_host_stats(const std::string& id, double sum_sq,
                                  double sum_abs, double sum,
                                  std::size_t samples, bool drifted) {
  HostAccuracyStats stats;
  stats.host_id = id;
  stats.observations = samples;
  stats.window = 8;
  stats.in_window = samples;
  stats.sums = WindowSums{sum_sq, sum_abs, sum, samples};
  stats.drifted = drifted;
  return stats;
}

TEST(AggregateFleetTest, ResultIsIndependentOfInputOrder) {
  const std::vector<HostAccuracyStats> rows = {
      make_host_stats("c", 9.0, 3.0, -3.0, 3, true),
      make_host_stats("a", 1.0, 1.0, 1.0, 1, false),
      make_host_stats("b", 0.25, 0.5, 0.5, 2, true),
  };
  std::vector<HostAccuracyStats> shuffled = {rows[1], rows[2], rows[0]};

  const FleetAccuracyStats x = aggregate_fleet(rows);
  const FleetAccuracyStats y = aggregate_fleet(shuffled);
  ASSERT_EQ(x.hosts.size(), 3u);
  EXPECT_EQ(x.hosts[0].host_id, "a");  // sorted by id
  EXPECT_EQ(x.hosts[1].host_id, "b");
  EXPECT_EQ(x.hosts[2].host_id, "c");
  EXPECT_EQ(y.hosts[0].host_id, "a");
  EXPECT_EQ(x.observations, 6u);
  EXPECT_EQ(x.samples_in_window, 6u);
  EXPECT_EQ(x.hosts_drifted, 2u);
  EXPECT_EQ(x.rolling_mse, y.rolling_mse);
  EXPECT_EQ(x.rolling_mae, y.rolling_mae);
  EXPECT_EQ(x.rolling_mean_dif, y.rolling_mean_dif);
  // Spot-check the merged math: sums merged in host-id order, then divided.
  EXPECT_EQ(x.rolling_mse, (1.0 + 0.25 + 9.0) / 6.0);
  EXPECT_EQ(x.rolling_mean_dif, (1.0 + 0.5 + -3.0) / 6.0);
}

TEST(AggregateFleetTest, EmptyFleetReportsZeros) {
  const FleetAccuracyStats fleet = aggregate_fleet({});
  EXPECT_TRUE(fleet.hosts.empty());
  EXPECT_EQ(fleet.observations, 0u);
  EXPECT_EQ(fleet.rolling_mse, 0.0);
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

serve::FleetEngineOptions manual_options(std::size_t shards) {
  serve::FleetEngineOptions options;
  options.shards = shards;
  options.drain = serve::DrainMode::kManual;
  options.backpressure = serve::BackpressurePolicy::kDropNewest;
  options.accuracy_window = 32;
  return options;
}

struct RunResult {
  FleetAccuracyStats report;
  std::vector<double> forecasts;
};

// One fixed 6-host, 40-step telemetry stream; the tests below replay it
// under different engine configurations and demand identical results.
RunResult run_fixed_stream(serve::FleetEngineOptions options) {
  serve::FleetEngine engine(shared_predictor(), options);
  std::vector<serve::HostHandle> handles;
  std::vector<serve::ForecastRequest> requests;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(engine.register_host(
        "host-" + std::to_string(i),
        i % 2 == 0 ? busy_config() : idle_config(), 0.0, 22.0 + i));
    requests.push_back(serve::ForecastRequest{handles.back(), 120.0});
  }
  for (int step = 1; step <= 40; ++step) {
    std::vector<serve::TelemetryEvent> batch;
    for (int i = 0; i < 6; ++i) {
      batch.push_back(serve::TelemetryEvent::observe(
          handles[i], step * 15.0, 25.0 + i + 0.2 * step));
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
// which legitimately vary with shard count and cache configuration.
void expect_accuracy_equal(const FleetAccuracyStats& a,
                           const FleetAccuracyStats& b) {
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (std::size_t i = 0; i < a.hosts.size(); ++i) {
    const HostAccuracyStats& x = a.hosts[i];
    const HostAccuracyStats& y = b.hosts[i];
    EXPECT_EQ(x.host_id, y.host_id);
    EXPECT_EQ(x.observations, y.observations);
    EXPECT_EQ(x.in_window, y.in_window);
    EXPECT_EQ(x.rolling_mse, y.rolling_mse);
    EXPECT_EQ(x.rolling_mae, y.rolling_mae);
    EXPECT_EQ(x.rolling_mean_dif, y.rolling_mean_dif);
    EXPECT_EQ(x.gamma, y.gamma);
    EXPECT_EQ(x.gamma_drift, y.gamma_drift);
    EXPECT_EQ(x.drift_positive, y.drift_positive);
    EXPECT_EQ(x.drift_negative, y.drift_negative);
    EXPECT_EQ(x.drifted, y.drifted);
  }
  EXPECT_EQ(a.observations, b.observations);
  EXPECT_EQ(a.samples_in_window, b.samples_in_window);
  EXPECT_EQ(a.rolling_mse, b.rolling_mse);
  EXPECT_EQ(a.rolling_mae, b.rolling_mae);
  EXPECT_EQ(a.rolling_mean_dif, b.rolling_mean_dif);
  EXPECT_EQ(a.hosts_drifted, b.hosts_drifted);
}

TEST(EngineAccuracyTest, MatchesStandaloneCoreReplica) {
  // One engine-managed host against a hand-rolled replica built from the
  // same core components (Eq. 5–8 tracker + CUSUM + rolling window) fed
  // the identical observation stream: every reported number must agree.
  serve::FleetEngineOptions options = manual_options(1);
  serve::FleetEngine engine(shared_predictor(), options);
  const mgmt::MonitoredConfig config = busy_config();
  const serve::HostHandle h =
      engine.register_host("h1", config, 0.0, 23.0);

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
  core::CusumDetector cusum(options.drift_slack_c,
                            options.drift_threshold_c);
  HostAccuracy accuracy(options.accuracy_window);

  for (int step = 1; step <= 40; ++step) {
    const double t = step * 15.0;
    const double measured = 30.0 + 0.15 * t;  // strays: exercises CUSUM
    const double dif = measured - replica.predict_at(t);
    cusum.observe(dif);
    replica.observe(t, measured);
    accuracy.record(dif, replica.calibration());
    engine.ingest(serve::TelemetryEvent::observe(h, t, measured));
  }
  engine.flush();

  const FleetAccuracyStats fleet = engine.accuracy_report();
  ASSERT_EQ(fleet.hosts.size(), 1u);
  const HostAccuracyStats& host = fleet.hosts[0];
  EXPECT_EQ(host.host_id, "h1");
  EXPECT_EQ(host.observations, accuracy.observations());
  EXPECT_EQ(host.in_window, accuracy.in_window());
  EXPECT_EQ(host.rolling_mse, accuracy.rolling_mse());
  EXPECT_EQ(host.rolling_mae, accuracy.rolling_mae());
  EXPECT_EQ(host.rolling_mean_dif, accuracy.rolling_mean_dif());
  EXPECT_EQ(host.gamma, replica.calibration());
  EXPECT_EQ(host.gamma, engine.calibration_of(h));
  EXPECT_EQ(host.gamma_drift, accuracy.gamma_drift());
  EXPECT_EQ(host.drift_positive, cusum.positive_sum());
  EXPECT_EQ(host.drift_negative, cusum.negative_sum());
  // dif = measured - predicted: readings above the forecast drive the
  // positive sum only.
  EXPECT_GT(host.drift_positive, 0.0);
  EXPECT_EQ(host.drift_negative, 0.0);
  EXPECT_EQ(host.drifted, cusum.drifted());
  EXPECT_TRUE(host.drifted);  // the ramp is a genuine mean shift
  EXPECT_EQ(fleet.hosts_drifted, 1u);
  EXPECT_EQ(fleet.rolling_mse, host.rolling_mse);  // single host
}

TEST(EngineAccuracyTest, IdenticalWithAndWithoutPsiCache) {
  serve::FleetEngineOptions cached = manual_options(2);
  serve::FleetEngineOptions uncached = manual_options(2);
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
}

TEST(EngineAccuracyTest, TracingDoesNotPerturbResults) {
  // The acceptance contract: forecasts and accuracy stats are bitwise
  // identical whether the span recorder is enabled or not.
  const RunResult untraced = run_fixed_stream(manual_options(3));
  TraceRecorder& recorder = global_trace();
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
}  // namespace vmtherm::obs
