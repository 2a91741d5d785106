// Tests for serve/engine: the sharded FleetEngine — registration, manual
// and pooled draining, backpressure, determinism across shard counts, and
// the concurrency protocol (this file is the TSan target for the serving
// layer; see scripts/check_tsan.sh).

#include "serve/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.h"
#include "serve/snapshot.h"

namespace vmtherm::serve {
namespace {

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

FleetEngineOptions manual_options(std::size_t shards = 2) {
  FleetEngineOptions options;
  options.shards = shards;
  options.drain = DrainMode::kManual;
  options.backpressure = BackpressurePolicy::kDropNewest;
  return options;
}

TEST(FleetEngineTest, OptionsValidation) {
  FleetEngineOptions options;
  options.shards = 0;
  EXPECT_THROW(options.validate(), ConfigError);
  options = FleetEngineOptions{};
  options.queue_capacity = 0;
  EXPECT_THROW(options.validate(), ConfigError);
  // Blocking producers with nothing draining would deadlock.
  options = FleetEngineOptions{};
  options.drain = DrainMode::kManual;
  options.backpressure = BackpressurePolicy::kBlock;
  EXPECT_THROW(options.validate(), ConfigError);
}

TEST(FleetEngineTest, RegisterQueryUnregister) {
  FleetEngine engine(shared_predictor(), manual_options());
  const HostHandle h1 = engine.register_host("h1", busy_config(), 0.0, 23.0);
  EXPECT_TRUE(engine.has_host("h1"));
  EXPECT_EQ(engine.handle_of("h1"), h1);
  EXPECT_EQ(engine.host_count(), 1u);
  EXPECT_EQ(engine.config_of(h1).fans, 4);
  EXPECT_EQ(engine.metrics().gauge("fleet.hosts").value(), 1);

  EXPECT_THROW(engine.register_host("h1", busy_config(), 0.0, 23.0),
               ConfigError);
  EXPECT_THROW(engine.register_host("", busy_config(), 0.0, 23.0),
               ConfigError);
  EXPECT_THROW(engine.register_host("bad id", busy_config(), 0.0, 23.0),
               ConfigError);

  engine.unregister_host(h1);
  EXPECT_FALSE(engine.has_host("h1"));
  EXPECT_EQ(engine.handle_of("h1"), kInvalidHostHandle);
  EXPECT_THROW((void)engine.forecast(h1, 60.0), ConfigError);
  EXPECT_EQ(engine.metrics().gauge("fleet.hosts").value(), 0);
}

TEST(FleetEngineTest, ReRegisterAfterUnregister) {
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    FleetEngine engine(shared_predictor(), manual_options(shards));
    std::vector<HostHandle> handles;
    for (int i = 0; i < 6; ++i) {
      handles.push_back(engine.register_host("host-" + std::to_string(i),
                                             busy_config(), 0.0, 23.0));
    }
    EXPECT_EQ(engine.host_count(), 6u);

    engine.unregister_host(handles[2]);
    EXPECT_EQ(engine.host_count(), 5u);
    EXPECT_EQ(engine.handle_of("host-2"), kInvalidHostHandle);
    // Its neighbours keep their handles.
    EXPECT_EQ(engine.handle_of("host-1"), handles[1]);
    EXPECT_EQ(engine.handle_of("host-3"), handles[3]);
    EXPECT_THROW(engine.unregister_host(handles[2]), ConfigError);

    const HostHandle again =
        engine.register_host("host-2", idle_config(), 0.0, 23.0);
    EXPECT_NE(again, handles[2]);
    EXPECT_EQ(engine.handle_of("host-2"), again);
    EXPECT_EQ(engine.host_count(), 6u);
    EXPECT_EQ(engine.config_of(again).vms.size(), 1u);
    EXPECT_THROW((void)engine.forecast(handles[2], 60.0), ConfigError);
    EXPECT_EQ(engine.metrics().gauge("fleet.hosts").value(), 6);
  }
}

TEST(FleetEngineTest, ShardAssignmentIsStable) {
  FleetEngine a(shared_predictor(), manual_options(8));
  FleetEngine b(shared_predictor(), manual_options(8));
  for (const char* id : {"host-0001", "host-0002", "rack12/u7", "web-42"}) {
    EXPECT_EQ(a.shard_of(id), b.shard_of(id));
    EXPECT_LT(a.shard_of(id), 8u);
  }
}

TEST(FleetEngineTest, ManualDrainAppliesInOrder) {
  FleetEngine engine(shared_predictor(), manual_options());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);

  std::vector<TelemetryEvent> batch;
  for (double t = 15.0; t <= 90.0; t += 15.0) {
    batch.push_back(TelemetryEvent::observe(h, t, 30.0 + t * 0.1));
  }
  engine.ingest_batch(std::move(batch));
  // Nothing applied until flush in manual mode.
  EXPECT_EQ(engine.metrics().counter("apply.observe").value(), 0u);
  engine.flush();
  EXPECT_EQ(engine.metrics().counter("apply.observe").value(), 6u);
  EXPECT_EQ(engine.metrics().counter("ingest.events").value(), 6u);
  EXPECT_EQ(engine.metrics().counter("apply.errors").value(), 0u);
  EXPECT_GT(engine.forecast(h, 60.0), 23.0);
}

/// ψ_stable of a config from the predictor's public scalar entry point.
double scalar_psi(const mgmt::MonitoredConfig& config) {
  return shared_predictor().predict(config.server, config.vms, config.fans,
                                    config.env_temp_c);
}

TEST(FleetEngineTest, MatchesMonitorServiceBitwise) {
  // Same event stream, same defaults: the sharded engine and a serial
  // reference, one bare core tracker retargeted at the scalar ψ_stable,
  // must produce identical forecasts.
  FleetEngine engine(shared_predictor(), manual_options(3));
  core::DynamicTemperaturePredictor serial(FleetEngineOptions{}.dynamic);
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  serial.begin(0.0, 23.0, scalar_psi(busy_config()));

  for (double t = 15.0; t <= 300.0; t += 15.0) {
    const double measured = 30.0 + t * 0.08;
    engine.ingest(TelemetryEvent::observe(h, t, measured));
    serial.observe(t, measured);
  }
  engine.ingest(
      TelemetryEvent::update_config(h, 315.0, 52.0, idle_config()));
  serial.retarget(315.0, 52.0, scalar_psi(idle_config()));
  engine.flush();

  for (const double gap : {0.0, 30.0, 60.0, 600.0}) {
    EXPECT_EQ(engine.forecast(h, gap), serial.predict_ahead(gap));
  }
  EXPECT_EQ(engine.calibration_of(h), 0.0);  // retarget resets gamma
}

TEST(FleetEngineTest, BackpressureDropsNewestWhenFull) {
  FleetEngineOptions options = manual_options(1);
  options.queue_capacity = 2;
  FleetEngine engine(shared_predictor(), options);
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);

  std::vector<TelemetryEvent> batch;
  for (double t = 1.0; t <= 5.0; t += 1.0) {
    batch.push_back(TelemetryEvent::observe(h, t, 30.0));
  }
  engine.ingest_batch(std::move(batch));
  EXPECT_EQ(engine.metrics().counter("ingest.events").value(), 2u);
  EXPECT_EQ(engine.metrics().counter("ingest.dropped").value(), 3u);
  engine.flush();
  EXPECT_EQ(engine.metrics().counter("apply.observe").value(), 2u);
}

TEST(FleetEngineTest, InvalidHandleRejectedUpFront) {
  FleetEngine engine(shared_predictor(), manual_options());
  EXPECT_THROW(engine.ingest(TelemetryEvent::observe(7, 1.0, 30.0)),
               ConfigError);
  EXPECT_THROW((void)engine.forecast_batch({ForecastRequest{7, 60.0}}),
               ConfigError);
  // The rejected batch enqueued nothing.
  EXPECT_EQ(engine.metrics().counter("ingest.events").value(), 0u);
}

TEST(FleetEngineTest, EventsToUnregisteredHostCountAsApplyErrors) {
  FleetEngine engine(shared_predictor(), manual_options());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  engine.ingest(TelemetryEvent::observe(h, 10.0, 30.0));
  engine.unregister_host(h);  // tombstones the slot; the event is queued
  engine.flush();
  EXPECT_EQ(engine.metrics().counter("apply.errors").value(), 1u);
  EXPECT_EQ(engine.metrics().counter("apply.observe").value(), 0u);
}

TEST(FleetEngineTest, MalformedEventsAreCountedNotThrown) {
  FleetEngine engine(shared_predictor(), manual_options());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  engine.ingest(TelemetryEvent::observe(h, 100.0, 30.0));
  engine.ingest(TelemetryEvent::observe(h, 50.0, 30.0));  // time reversal
  engine.flush();
  EXPECT_EQ(engine.metrics().counter("apply.observe").value(), 1u);
  EXPECT_EQ(engine.metrics().counter("apply.errors").value(), 1u);
  // The engine keeps serving.
  EXPECT_GT(engine.forecast(h, 60.0), 0.0);
}

TEST(FleetEngineTest, ForecastBatchReturnsInRequestOrder) {
  FleetEngine engine(shared_predictor(), manual_options(4));
  std::vector<HostHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(engine.register_host("host-" + std::to_string(i),
                                           i % 2 == 0 ? busy_config()
                                                      : idle_config(),
                                           0.0, 23.0));
  }
  std::vector<ForecastRequest> requests;
  for (auto it = handles.rbegin(); it != handles.rend(); ++it) {
    requests.push_back(ForecastRequest{*it, 120.0});
  }
  const std::vector<double> batched = engine.forecast_batch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batched[i], engine.forecast(requests[i].host, 120.0));
  }
}

TEST(FleetEngineTest, HotspotScanSortedAndDeterministic) {
  FleetEngine engine(shared_predictor(), manual_options(4));
  for (int i = 0; i < 8; ++i) {
    engine.register_host("host-" + std::to_string(i),
                         i < 4 ? busy_config() : idle_config(), 0.0, 23.0);
  }
  // Threshold between the two config classes' long-horizon forecasts, so
  // the at_risk split is robust to the shared predictor's exact fit.
  const double busy_c = engine.forecast(engine.handle_of("host-0"), 590.0);
  const double idle_c = engine.forecast(engine.handle_of("host-7"), 590.0);
  ASSERT_GT(busy_c, idle_c);
  const auto risks = engine.hotspot_scan(590.0, (busy_c + idle_c) / 2.0);
  ASSERT_EQ(risks.size(), 8u);
  for (std::size_t i = 1; i < risks.size(); ++i) {
    EXPECT_GE(risks[i - 1].forecast_c, risks[i].forecast_c);
  }
  EXPECT_TRUE(risks.front().at_risk);
  EXPECT_FALSE(risks.back().at_risk);
  EXPECT_EQ(engine.metrics().counter("hotspot.scans").value(), 1u);
}

TEST(FleetEngineTest, HotspotScanOrdersNanForecastsLast) {
  // Finite but absurd readings on Δ_update steps overflow γ: +1e308 then
  // -1e308 drive it to -inf, and the next reading makes it -inf + inf,
  // i.e. NaN, and so the forecast NaN. (Non-finite readings themselves
  // never reach γ; see NonFiniteReadingIsRejectedBeforeHostState.) The
  // scan must still be a total order: finite rows hottest first, NaN rows
  // after them, host id ascending within each.
  std::vector<std::vector<mgmt::HotspotRisk>> scans;
  for (const std::size_t shards : {1u, 4u}) {
    FleetEngine engine(shared_predictor(), manual_options(shards));
    std::vector<HostHandle> handles;
    for (int i = 0; i < 12; ++i) {
      handles.push_back(engine.register_host(
          "host-" + std::to_string(i), i % 2 == 0 ? busy_config()
                                                  : idle_config(),
          0.0, 23.0));
    }
    const double absurd[] = {1e308, -1e308, 30.0};
    for (int step = 0; step < 3; ++step) {
      std::vector<TelemetryEvent> batch;
      for (int i = 0; i < 12; ++i) {
        const double measured = i % 3 == 1 ? absurd[step] : 30.0 + i;
        batch.push_back(
            TelemetryEvent::observe(handles[i], 15.0 * (step + 1), measured));
      }
      engine.ingest_batch(std::move(batch));
    }
    engine.flush();
    ASSERT_TRUE(std::isnan(engine.forecast(handles[1], 60.0)));
    scans.push_back(engine.hotspot_scan(60.0, 40.0));
  }

  const std::vector<mgmt::HotspotRisk>& rows = scans[0];
  ASSERT_EQ(rows.size(), 12u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(std::isnan(rows[i].forecast_c));
    if (i > 0) {
      EXPECT_GE(rows[i - 1].forecast_c, rows[i].forecast_c);
    }
  }
  const std::vector<std::string> nan_ids = {"host-1", "host-10", "host-4",
                                            "host-7"};
  for (std::size_t i = 0; i < nan_ids.size(); ++i) {
    EXPECT_EQ(rows[8 + i].host_id, nan_ids[i]);
    EXPECT_TRUE(std::isnan(rows[8 + i].forecast_c));
  }
  ASSERT_EQ(scans[1].size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(scans[1][i].host_id, rows[i].host_id);
  }
}

TEST(FleetEngineTest, HotspotScanMatchesReferenceOrderAtAnyTopology) {
  // Four groups of hosts, each fed one identical stream, so every group
  // ties on its forecast and the tie spreads over shards: two numeric
  // groups, one driven to NaN by the ±1e308 overflow of
  // HotspotScanOrdersNanForecastsLast, one left at its registration.
  // Every fifth host is unregistered before the scan.
  constexpr int kHosts = 40;
  constexpr double kHorizonS = 60.0;
  FleetEngineOptions pooled;
  pooled.shards = 4;
  pooled.threads = 2;
  pooled.drain = DrainMode::kAuto;
  std::vector<FleetEngineOptions> topologies;
  for (const std::size_t shards : {1u, 2u, 3u, 7u}) {
    topologies.push_back(manual_options(shards));
  }
  topologies.push_back(pooled);
  for (const FleetEngineOptions& options : topologies) {
    SCOPED_TRACE(options.shards);
    FleetEngine engine(shared_predictor(), options);
    std::vector<HostHandle> handles;
    for (int i = 0; i < kHosts; ++i) {
      handles.push_back(engine.register_host(
          "scan-" + std::to_string(i),
          i % 4 == 1 ? idle_config() : busy_config(), 0.0, 23.0));
    }
    const double absurd[] = {1e308, -1e308, 30.0};
    for (int step = 0; step < 3; ++step) {
      std::vector<TelemetryEvent> batch;
      for (int i = 0; i < kHosts; ++i) {
        if (i % 4 == 3) continue;
        const double measured = i % 4 == 2 ? absurd[step] : 30.0 + step;
        batch.push_back(
            TelemetryEvent::observe(handles[i], 15.0 * (step + 1), measured));
      }
      engine.ingest_batch(std::move(batch));
    }
    engine.flush();
    for (int i = 0; i < kHosts; i += 5) engine.unregister_host(handles[i]);

    // The reference: per-host forecast() ranked by the shared scan order,
    // at a threshold that one tied group meets exactly.
    const double threshold_c = engine.forecast(handles[4], kHorizonS);
    std::vector<mgmt::HotspotRisk> reference;
    for (int i = 0; i < kHosts; ++i) {
      if (i % 5 == 0) continue;
      const double forecast = engine.forecast(handles[i], kHorizonS);
      reference.push_back(
          {"scan-" + std::to_string(i), forecast, forecast >= threshold_c});
    }
    std::sort(reference.begin(), reference.end(),
              [](const mgmt::HotspotRisk& a, const mgmt::HotspotRisk& b) {
                return mgmt::scan_before(a.forecast_c, a.host_id, b.forecast_c,
                                         b.host_id);
              });
    // NaN rows occur, and rows that tie sit on different shards.
    std::size_t nan_rows = 0;
    std::size_t cross_shard_ties = 0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const double forecast = reference[i].forecast_c;
      if (std::isnan(forecast)) ++nan_rows;
      if (i == 0) continue;
      const double previous = reference[i - 1].forecast_c;
      const bool tie = forecast == previous ||
                       (std::isnan(forecast) && std::isnan(previous));
      if (tie && engine.shard_of(reference[i].host_id) !=
                     engine.shard_of(reference[i - 1].host_id)) {
        ++cross_shard_ties;
      }
    }
    EXPECT_EQ(nan_rows, 8u);
    EXPECT_EQ(cross_shard_ties > 0, options.shards > 1);

    const std::vector<mgmt::HotspotRisk> risks =
        engine.hotspot_scan(kHorizonS, threshold_c);
    ASSERT_EQ(risks.size(), reference.size());
    for (std::size_t i = 0; i < risks.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(risks[i].host_id, reference[i].host_id);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(risks[i].forecast_c),
                std::bit_cast<std::uint64_t>(reference[i].forecast_c));
      EXPECT_EQ(risks[i].at_risk, reference[i].at_risk);
    }
  }
}

// The per-event metrics (apply.*, drift.signals, psi_cache.*, the
// calibration.abs_error_c buckets) are tallied per shard and published per
// drain chunk. This stream touches every one of them; after flush() the
// deterministic metrics must match the golden document below at any
// topology. The histogram scores exactly the applied observes: its total
// equals apply.observe.
constexpr const char* kTallyGoldenJson =
    "{\"counters\":{\"apply.config_update\":3,\"apply.errors\":2,"
    "\"apply.observe\":453,\"drift.signals\":7,\"forecast.requests\":0,"
    "\"hotspot.scans\":0,\"ingest.batches\":64,\"ingest.dropped\":0,"
    "\"ingest.events\":458},\"gauges\":{\"fleet.hosts\":7},"
    "\"histograms\":{\"calibration.abs_error_c\":{\"bounds\":[0.25,0.5,1,"
    "2,4,8],\"counts\":[218,72,63,48,31,15,6],\"total\":453,"
    "\"p50\":0.2795138888888889,\"p99\":8}}}";

std::uint64_t psi_lookups(FleetEngine& engine) {
  constexpr auto kTiming = obs::MetricKind::kTiming;
  obs::MetricsRegistry& registry = engine.metrics();
  return registry.counter("psi_cache.hits", kTiming).value() +
         registry.counter("psi_cache.misses", kTiming).value();
}

std::string metric_lines(const std::string& snapshot) {
  return snapshot.substr(snapshot.find("\nmetrics "));
}

TEST(FleetEngineTest, PerEventMetricsExactAfterFlushAtAnyTopology) {
  FleetEngineOptions manual = manual_options(1);
  FleetEngineOptions pooled;
  pooled.shards = 4;
  pooled.threads = 2;
  pooled.drain = DrainMode::kAuto;

  std::vector<std::string> final_json;
  std::vector<std::string> mid_snapshots;
  for (const FleetEngineOptions& options : {manual, pooled}) {
    SCOPED_TRACE(options.shards);
    FleetEngine engine(shared_predictor(), options);
    std::vector<HostHandle> handles;
    for (int i = 0; i < 8; ++i) {
      handles.push_back(engine.register_host(
          "tally-" + std::to_string(i),
          i % 2 == 0 ? busy_config() : idle_config(), 0.0, 22.0 + i));
      // Registration's ψ lookup is published before register_host returns.
      EXPECT_EQ(psi_lookups(engine), handles.size());
    }

    // Observes. Host 0 jumps far above its forecast; CUSUM latches on
    // seven hosts in all.
    for (int step = 1; step <= 40; ++step) {
      std::vector<TelemetryEvent> batch;
      for (int i = 0; i < 8; ++i) {
        const double measured =
            i == 0 && step >= 30 ? 95.0 : 25.0 + i + 0.3 * step;
        batch.push_back(
            TelemetryEvent::observe(handles[i], step * 15.0, measured));
      }
      engine.ingest_batch(std::move(batch));
    }
    // Config updates: a condition already cached and a fresh one.
    mgmt::MonitoredConfig hot = busy_config();
    hot.env_temp_c = 31.0;
    engine.ingest(
        TelemetryEvent::update_config(handles[1], 615.0, 40.0, busy_config()));
    engine.ingest(TelemetryEvent::update_config(handles[2], 615.0, 45.0, hot));
    engine.ingest(
        TelemetryEvent::update_config(handles[3], 615.0, 41.0, idle_config()));
    // Time going backwards: rejected before the residual is scored, so
    // the host's residual monitor and the histogram do not move.
    engine.flush();
    const core::ResidualMonitor residuals = engine.export_hosts()[4].residuals;
    engine.ingest(TelemetryEvent::observe(handles[4], 5.0, 30.0));

    std::ostringstream mid;
    save_fleet(mid, engine);
    const std::vector<HostSnapshot> hosts = engine.export_hosts();
    ASSERT_EQ(hosts[4].host_id, "tally-4");  // export is sorted by id
    EXPECT_EQ(hosts[4].residuals, residuals);
    mid_snapshots.push_back(mid.str());
    EXPECT_NE(mid.str().find("counter apply.observe 320\n"),
              std::string::npos);
    EXPECT_NE(mid.str().find("counter apply.config_update 3\n"),
              std::string::npos);
    EXPECT_NE(mid.str().find("counter apply.errors 1\n"), std::string::npos);
    EXPECT_NE(mid.str().find("counter drift.signals 7\n"), std::string::npos);

    // An update whose payload is invalid, racing with its host's removal:
    // either way it lands in apply.errors and nowhere else.
    mgmt::MonitoredConfig broken = busy_config();
    broken.server.physical_cores = 0;
    engine.ingest(
        TelemetryEvent::update_config(handles[5], 630.0, 40.0, broken));
    engine.unregister_host(handles[5]);

    for (int step = 42; step <= 60; ++step) {
      std::vector<TelemetryEvent> batch;
      for (int i = 0; i < 8; ++i) {
        if (i == 5) continue;
        batch.push_back(TelemetryEvent::observe(handles[i], step * 15.0,
                                                26.0 + i + 0.2 * step));
      }
      engine.ingest_batch(std::move(batch));
    }
    engine.flush();
    final_json.push_back(engine.metrics().to_json(/*include_timing=*/false));
    EXPECT_EQ(engine.metrics().counter("apply.errors").value(), 2u);
    EXPECT_EQ(psi_lookups(engine), 8u + 3u);
  }
  EXPECT_EQ(metric_lines(mid_snapshots[0]), metric_lines(mid_snapshots[1]));
  EXPECT_EQ(final_json[0], final_json[1]);
  EXPECT_EQ(final_json[0], kTallyGoldenJson);
}

TEST(FleetEngineTest, NonFiniteReadingIsRejectedBeforeHostState) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    FleetEngine engine(shared_predictor(), manual_options(shards));
    EXPECT_THROW(engine.register_host("bad-t0", busy_config(), nan, 23.0),
                 DataError);
    EXPECT_THROW(engine.register_host("bad-phi", busy_config(), 0.0, inf),
                 DataError);
    EXPECT_FALSE(engine.has_host("bad-t0"));
    EXPECT_FALSE(engine.has_host("bad-phi"));

    std::vector<HostHandle> handles;
    for (int i = 0; i < 6; ++i) {
      handles.push_back(engine.register_host(
          "host-" + std::to_string(i),
          i % 2 == 0 ? busy_config() : idle_config(), 0.0, 23.0));
    }
    for (const HostHandle h : handles) {
      engine.ingest(TelemetryEvent::observe(h, 15.0, 29.0));
    }
    engine.flush();
    const std::uint64_t errors_before =
        engine.metrics().counter("apply.errors").value();

    // t = 30 is a Δ_update step (15 s after the last update), where a NaN
    // reading that got through would turn γ into NaN for good.
    engine.ingest(TelemetryEvent::observe(handles[1], 30.0, nan));
    engine.flush();
    EXPECT_EQ(engine.metrics().counter("apply.errors").value(),
              errors_before + 1);
    EXPECT_EQ(engine.calibration_of(handles[1]),
              engine.calibration_of(handles[3]));  // same config and readings

    // A non-finite time or a non-finite reading on a config update is
    // rejected the same way.
    engine.ingest(TelemetryEvent::observe(handles[2], nan, 30.0));
    engine.ingest(
        TelemetryEvent::update_config(handles[4], 30.0, inf, idle_config()));
    engine.flush();
    EXPECT_EQ(engine.metrics().counter("apply.errors").value(),
              errors_before + 3);
    EXPECT_EQ(engine.config_of(handles[4]).vms.size(), 2u);  // unchanged

    // So is an update whose config is invalid: a non-finite room
    // temperature, or a fan count outside 1..fan_slots. Neither reaches
    // the host's config or tracker.
    std::vector<double> forecasts_before;
    for (const HostHandle h : handles) {
      forecasts_before.push_back(engine.forecast(h, 60.0));
    }
    mgmt::MonitoredConfig nan_env = idle_config();
    nan_env.env_temp_c = nan;
    mgmt::MonitoredConfig bad_fans = idle_config();
    bad_fans.fans = -3;
    engine.ingest(
        TelemetryEvent::update_config(handles[4], 30.0, 31.0, nan_env));
    engine.ingest(
        TelemetryEvent::update_config(handles[0], 30.0, 31.0, bad_fans));
    engine.flush();
    EXPECT_EQ(engine.metrics().counter("apply.errors").value(),
              errors_before + 5);
    EXPECT_EQ(engine.metrics().counter("apply.config_update").value(), 0u);
    EXPECT_EQ(engine.config_of(handles[4]).env_temp_c, 23.0);
    EXPECT_EQ(engine.config_of(handles[0]).fans, 4);
    for (std::size_t i = 0; i < handles.size(); ++i) {
      EXPECT_EQ(engine.forecast(handles[i], 60.0), forecasts_before[i]) << i;
    }

    for (const HostHandle h : handles) {
      engine.ingest(TelemetryEvent::observe(h, 45.0, 31.0));
    }
    engine.flush();
    for (const HostHandle h : handles) {
      EXPECT_TRUE(std::isfinite(engine.forecast(h, 60.0))) << h;
    }

    std::stringstream snapshot;
    save_fleet(snapshot, engine);
    std::unique_ptr<FleetEngine> restored = load_fleet(snapshot);
    for (int i = 0; i < 6; ++i) {
      const std::string id = "host-" + std::to_string(i);
      EXPECT_EQ(restored->forecast(restored->handle_of(id), 60.0),
                engine.forecast(handles[i], 60.0))
          << id;
    }
  }
}

// ψ_stable is resolved per drain chunk: pass 1 looks up every config
// event of the chunk and evaluates the misses in one batched SVR call,
// pass 2 applies the events in order. This stream puts cache hits, fresh
// misses, two identical new conditions, an invalid config, a config for an
// unregistered host and a retarget whose time goes backwards into the same
// chunk. Every topology and cache size must give the same forecasts,
// snapshot and deterministic metrics as a one-event-at-a-time replay on
// core::DynamicTemperaturePredictor with ψ from predict_from_features.
struct ChunkEvent {
  std::size_t host = 0;
  bool config = false;
  double time_s = 0.0;
  double measured_c = 0.0;
  mgmt::MonitoredConfig payload;
};

mgmt::MonitoredConfig condition(double env_temp_c, int burn_vms) {
  mgmt::MonitoredConfig config = busy_config();
  config.env_temp_c = env_temp_c;
  config.vms.resize(static_cast<std::size_t>(burn_vms), config.vms.front());
  return config;
}

constexpr std::size_t kChunkHosts = 10;
constexpr std::size_t kDoomedHost = 9;  ///< unregistered with events queued

mgmt::MonitoredConfig initial_condition(std::size_t host) {
  return host % 2 == 0 ? busy_config() : idle_config();
}

std::vector<std::vector<ChunkEvent>> chunk_rounds() {
  mgmt::MonitoredConfig invalid = busy_config();
  invalid.server.physical_cores = 0;
  std::vector<std::vector<ChunkEvent>> rounds(3);
  for (std::size_t h = 0; h < kChunkHosts; ++h) {
    rounds[0].push_back({h, false, 15.0, 27.0 + h, {}});
    rounds[0].push_back({h, false, 30.0, 28.0 + h, {}});
  }
  std::vector<ChunkEvent>& mixed = rounds[1];
  for (std::size_t h = 0; h < kChunkHosts; ++h) {
    if (h != kDoomedHost) mixed.push_back({h, false, 45.0, 29.0 + h, {}});
  }
  mixed.push_back({0, true, 50.0, 30.0, busy_config()});        // hit
  mixed.push_back({1, true, 50.0, 31.0, condition(27.5, 3)});   // new
  mixed.push_back({2, true, 50.0, 32.0, condition(24.0, 1)});   // new
  mixed.push_back({3, true, 50.0, 33.0, condition(27.5, 3)});   // same new
  mixed.push_back({4, true, 50.0, 34.0, invalid});
  mixed.push_back({5, true, 10.0, 35.0, condition(30.0, 2)});   // t < 45
  mixed.push_back({kDoomedHost, true, 5.0, 36.0, condition(31.0, 4)});
  mixed.push_back({6, true, 50.0, 37.0, condition(25.0, 4)});   // new
  mixed.push_back({7, true, 50.0, 38.0, condition(26.0, 1)});   // new
  for (std::size_t h = 0; h < kChunkHosts; ++h) {
    if (h != kDoomedHost) mixed.push_back({h, false, 60.0, 30.0 + h, {}});
  }
  for (std::size_t h = 0; h < kChunkHosts; ++h) {
    if (h == kDoomedHost) continue;
    rounds[2].push_back({h, false, 75.0, 31.0 + h, {}});
    if (h % 3 == 0) {
      rounds[2].push_back({h, true, 80.0, 32.0, condition(24.0, 1)});  // hit
    }
    rounds[2].push_back({h, false, 90.0, 33.0 + h, {}});
  }
  return rounds;
}

struct ChunkRunResult {
  std::vector<double> forecasts;
  std::string snapshot;
  std::string deterministic_json;
  std::uint64_t psi_hits = 0;
  std::uint64_t psi_misses = 0;
};

constexpr double kChunkGaps[] = {0.0, 60.0, 600.0};

ChunkRunResult run_chunk_stream(const FleetEngineOptions& options) {
  FleetEngine engine(shared_predictor(), options);
  std::vector<HostHandle> handles;
  for (std::size_t h = 0; h < kChunkHosts; ++h) {
    handles.push_back(engine.register_host("chunk-" + std::to_string(h),
                                           initial_condition(h), 0.0, 23.0));
  }
  const std::vector<std::vector<ChunkEvent>> rounds = chunk_rounds();
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    std::vector<TelemetryEvent> batch;
    for (const ChunkEvent& e : rounds[r]) {
      batch.push_back(
          e.config ? TelemetryEvent::update_config(handles[e.host], e.time_s,
                                                   e.measured_c, e.payload)
                   : TelemetryEvent::observe(handles[e.host], e.time_s,
                                             e.measured_c));
    }
    engine.ingest_batch(std::move(batch));
    // The doomed host's observes apply before it is unregistered. Its only
    // event after that is a retarget back in time, so it is an apply error
    // whether a pooled drain reaches it before the unregister or not.
    if (r == 0) engine.flush();
    if (r == 1) engine.unregister_host(handles[kDoomedHost]);
  }
  engine.flush();

  ChunkRunResult result;
  for (std::size_t h = 0; h < kChunkHosts; ++h) {
    if (h == kDoomedHost) continue;
    for (const double gap : kChunkGaps) {
      result.forecasts.push_back(engine.forecast(handles[h], gap));
    }
  }
  std::ostringstream snapshot;
  save_fleet(snapshot, engine);
  result.snapshot = snapshot.str();
  result.deterministic_json = engine.metrics().to_json(false);
  obs::MetricsRegistry& registry = engine.metrics();
  result.psi_hits =
      registry.counter("psi_cache.hits", obs::MetricKind::kTiming).value();
  result.psi_misses =
      registry.counter("psi_cache.misses", obs::MetricKind::kTiming).value();
  return result;
}

/// One event at a time on bare trackers, ψ from the scalar entry point.
std::vector<double> reference_chunk_forecasts() {
  const core::StableTemperaturePredictor& predictor = shared_predictor();
  std::vector<double> features;
  std::vector<double> scaled;
  const auto psi_of = [&](const mgmt::MonitoredConfig& config) {
    core::encode_features(
        core::make_record_inputs(config.server, config.vms, config.fans,
                                 config.env_temp_c),
        features);
    return predictor.predict_from_features(features, scaled);
  };
  const core::DynamicOptions dynamic = FleetEngineOptions{}.dynamic;
  std::vector<core::DynamicTemperaturePredictor> trackers;
  for (std::size_t h = 0; h < kChunkHosts; ++h) {
    trackers.emplace_back(dynamic);
    trackers.back().begin(0.0, 23.0, psi_of(initial_condition(h)));
  }
  for (const std::vector<ChunkEvent>& round : chunk_rounds()) {
    for (const ChunkEvent& e : round) {
      if (e.host == kDoomedHost && e.config) continue;  // unregistered
      try {
        if (e.config) {
          e.payload.validate();
          trackers[e.host].retarget(e.time_s, e.measured_c,
                                    psi_of(e.payload));
        } else {
          trackers[e.host].observe(e.time_s, e.measured_c);
        }
      } catch (const Error&) {
        // Counted in apply.errors by the engine; the tracker is untouched.
      }
    }
  }
  std::vector<double> forecasts;
  for (std::size_t h = 0; h < kChunkHosts; ++h) {
    if (h == kDoomedHost) continue;
    for (const double gap : kChunkGaps) {
      forecasts.push_back(trackers[h].predict_ahead(gap));
    }
  }
  return forecasts;
}

TEST(FleetEngineTest, ChunkBatchedPsiMatchesScalarReplay) {
  FleetEngineOptions manual = manual_options(1);
  FleetEngineOptions pooled;
  pooled.shards = 4;
  pooled.threads = 2;
  pooled.drain = DrainMode::kAuto;
  FleetEngineOptions uncached = manual_options(1);
  uncached.psi_cache_capacity = 0;
  // Seven distinct conditions overflow four entries, so generational
  // clears fall inside the mixed chunk.
  FleetEngineOptions tiny = manual_options(1);
  tiny.psi_cache_capacity = 4;

  std::vector<ChunkRunResult> runs;
  for (const FleetEngineOptions& options : {manual, pooled, uncached, tiny}) {
    runs.push_back(run_chunk_stream(options));
  }
  const std::vector<double> reference = reference_chunk_forecasts();
  ASSERT_EQ(runs[0].forecasts.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(runs[0].forecasts[i]),
              std::bit_cast<std::uint64_t>(reference[i]))
        << "forecast " << i;
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    SCOPED_TRACE(r);
    EXPECT_EQ(runs[r].forecasts, runs[0].forecasts);
    EXPECT_EQ(runs[r].snapshot, runs[0].snapshot);
    EXPECT_EQ(runs[r].deterministic_json, runs[0].deterministic_json);
  }
  EXPECT_NE(runs[0].deterministic_json.find("\"apply.config_update\":9,"),
            std::string::npos);
  EXPECT_NE(runs[0].deterministic_json.find("\"apply.errors\":3,"),
            std::string::npos);

  // Registrations: 2 misses, 8 hits. Mixed chunk: the unregistered host
  // and the invalid config are not looked up; the repeated new condition
  // counts as a hit, as it would one event at a time. Last round: 3 hits.
  EXPECT_EQ(runs[0].psi_misses, 2u + 5u);
  EXPECT_EQ(runs[0].psi_hits, 8u + 2u + 3u);
  // A disabled cache counts every lookup as a miss.
  EXPECT_EQ(runs[2].psi_hits, 0u);
  EXPECT_EQ(runs[2].psi_misses, 10u + 7u + 3u);
}

TEST(FleetEngineTest, DeterministicAcrossShardAndThreadCounts) {
  // Same logical event stream at (1 shard, 1 thread), (2, 2) and (8, 4):
  // bitwise-identical forecasts and byte-identical deterministic metrics.
  struct Setup {
    std::size_t shards;
    std::size_t threads;
  };
  std::vector<std::vector<double>> forecasts;
  std::vector<std::string> metrics;
  for (const Setup& setup :
       {Setup{1, 1}, Setup{2, 2}, Setup{8, 4}}) {
    FleetEngineOptions options;
    options.shards = setup.shards;
    options.threads = setup.threads;
    FleetEngine engine(shared_predictor(), options);
    std::vector<HostHandle> handles;
    std::vector<ForecastRequest> requests;
    for (int i = 0; i < 10; ++i) {
      handles.push_back(engine.register_host(
          "host-" + std::to_string(i),
          i % 3 == 0 ? idle_config() : busy_config(), 0.0, 22.0 + i));
      requests.push_back(ForecastRequest{handles.back(), 60.0});
    }
    for (int step = 1; step <= 30; ++step) {
      std::vector<TelemetryEvent> batch;
      for (int i = 0; i < 10; ++i) {
        batch.push_back(TelemetryEvent::observe(
            handles[i], step * 15.0, 25.0 + i + 0.3 * step));
      }
      engine.ingest_batch(std::move(batch));
    }
    engine.flush();
    forecasts.push_back(engine.forecast_batch(requests));
    metrics.push_back(engine.metrics().to_json(/*include_timing=*/false));
  }
  EXPECT_EQ(forecasts[0], forecasts[1]);
  EXPECT_EQ(forecasts[0], forecasts[2]);
  EXPECT_EQ(metrics[0], metrics[1]);
  EXPECT_EQ(metrics[0], metrics[2]);
}

TEST(FleetEngineTest, ConcurrentProducersAndQueriesAreSafe) {
  // Multiple producer threads ingesting disjoint hosts while a reader
  // issues forecasts and scans: exercises the queue/drain/state protocol
  // under TSan. Small queues force the blocking-backpressure path too.
  FleetEngineOptions options;
  options.shards = 4;
  options.threads = 2;
  options.queue_capacity = 16;
  FleetEngine engine(shared_predictor(), options);

  constexpr int kProducers = 4;
  constexpr int kHostsPerProducer = 3;
  constexpr int kStepsPerHost = 50;
  std::vector<std::vector<HostHandle>> handles(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    for (int i = 0; i < kHostsPerProducer; ++i) {
      std::string host_id = "p";
      host_id += std::to_string(p);
      host_id += "-h";
      host_id += std::to_string(i);
      handles[p].push_back(
          engine.register_host(host_id, busy_config(), 0.0, 23.0));
    }
  }

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, &handles, p] {
      for (int step = 1; step <= kStepsPerHost; ++step) {
        std::vector<TelemetryEvent> batch;
        for (const HostHandle h : handles[p]) {
          batch.push_back(
              TelemetryEvent::observe(h, step * 5.0, 30.0 + 0.1 * step));
        }
        engine.ingest_batch(std::move(batch));
      }
    });
  }
  std::thread reader([&engine, &handles] {
    for (int i = 0; i < 20; ++i) {
      (void)engine.forecast(handles[0][0], 60.0);
      (void)engine.hotspot_scan(60.0, 70.0);
    }
  });
  for (std::thread& producer : producers) producer.join();
  reader.join();
  engine.flush();

  constexpr auto kTotal = static_cast<std::uint64_t>(kProducers) *
                          kHostsPerProducer * kStepsPerHost;
  EXPECT_EQ(engine.metrics().counter("ingest.events").value(), kTotal);
  EXPECT_EQ(engine.metrics().counter("apply.observe").value(), kTotal);
  EXPECT_EQ(engine.metrics().counter("ingest.dropped").value(), 0u);
  // Per-host order held: no time-reversal apply errors.
  EXPECT_EQ(engine.metrics().counter("apply.errors").value(), 0u);
}

TEST(FleetEngineTest, DestructorDrainsPendingEvents) {
  FleetEngineOptions options;
  options.shards = 2;
  options.threads = 2;
  {
    FleetEngine engine(shared_predictor(), options);
    const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
    std::vector<TelemetryEvent> batch;
    for (int step = 1; step <= 200; ++step) {
      batch.push_back(TelemetryEvent::observe(h, step * 5.0, 30.0));
    }
    engine.ingest_batch(std::move(batch));
    // No flush: the destructor must drain without deadlock or loss.
  }
  SUCCEED();
}

}  // namespace
}  // namespace vmtherm::serve
