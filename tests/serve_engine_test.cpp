// Tests for serve/engine: the sharded FleetEngine — registration, manual
// and pooled draining, backpressure, determinism across shard counts, and
// the concurrency protocol (this file is the TSan target for the serving
// layer; see scripts/check_tsan.sh).

#include "serve/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
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

TEST(FleetEngineTest, MatchesMonitorServiceBitwise) {
  // Same event stream, same defaults: the sharded engine and the serial
  // ThermalMonitorService must produce identical forecasts.
  FleetEngine engine(shared_predictor(), manual_options(3));
  mgmt::ThermalMonitorService monitor(shared_predictor());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  monitor.register_host("h1", busy_config(), 0.0, 23.0);

  for (double t = 15.0; t <= 300.0; t += 15.0) {
    const double measured = 30.0 + t * 0.08;
    engine.ingest(TelemetryEvent::observe(h, t, measured));
    monitor.observe("h1", t, measured);
  }
  engine.ingest(
      TelemetryEvent::update_config(h, 315.0, 52.0, idle_config()));
  monitor.update_config("h1", idle_config(), 315.0, 52.0);
  engine.flush();

  for (const double gap : {0.0, 30.0, 60.0, 600.0}) {
    EXPECT_EQ(engine.forecast(h, gap), monitor.forecast("h1", gap));
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
  // One NaN reading on a Δ_update step makes that host's γ, and so its
  // forecast, NaN. The scan must still be a total order: finite rows
  // hottest first, NaN rows after them, host id ascending within each.
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
    std::vector<TelemetryEvent> batch;
    for (int i = 0; i < 12; ++i) {
      const double measured = i % 3 == 1
                                  ? std::numeric_limits<double>::quiet_NaN()
                                  : 30.0 + i;
      batch.push_back(TelemetryEvent::observe(handles[i], 15.0, measured));
    }
    engine.ingest_batch(std::move(batch));
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

// The per-event metrics (apply.*, drift.signals, psi_cache.*, the
// calibration.abs_error_c buckets) are tallied per shard and published per
// drain chunk. This stream touches every one of them; after flush() the
// deterministic metrics must match the golden document below (captured
// when every event updated the registry directly) at any topology.
constexpr const char* kTallyGoldenJson =
    "{\"counters\":{\"apply.config_update\":3,\"apply.errors\":2,"
    "\"apply.observe\":453,\"drift.signals\":7,\"forecast.requests\":0,"
    "\"hotspot.scans\":0,\"ingest.batches\":64,\"ingest.dropped\":0,"
    "\"ingest.events\":458},\"gauges\":{\"fleet.hosts\":7},"
    "\"histograms\":{\"calibration.abs_error_c\":{\"bounds\":[0.25,0.5,1,"
    "2,4,8],\"counts\":[218,72,63,48,31,15,7],\"total\":454,"
    "\"p50\":0.28125,\"p99\":8}}}";

std::uint64_t psi_lookups(FleetEngine& engine) {
  MetricsRegistry& registry = engine.metrics();
  return registry.counter("psi_cache.hits", MetricKind::kTiming).value() +
         registry.counter("psi_cache.misses", MetricKind::kTiming).value();
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
    // Time going backwards: the residual is scored, then the tracker throws.
    engine.ingest(TelemetryEvent::observe(handles[4], 5.0, 30.0));

    std::ostringstream mid;
    save_fleet(mid, engine);
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
