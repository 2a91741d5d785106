// Tests for serve/snapshot: versioned save/restore of a FleetEngine —
// byte-stable round-trips, bitwise-equal resumed forecasts, and metric
// continuity across a restart.

#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/evaluator.h"

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

mgmt::MonitoredConfig host_config(int vms) {
  mgmt::MonitoredConfig config;
  config.server = sim::make_server_spec("medium");
  config.fans = 4;
  sim::VmConfig burn;
  burn.vcpus = 4;
  burn.memory_gb = 8.0;
  burn.task = sim::TaskType::kCpuBurn;
  config.vms.assign(static_cast<std::size_t>(vms), burn);
  config.env_temp_c = 23.0;
  return config;
}

FleetEngineOptions engine_options(std::size_t shards) {
  FleetEngineOptions options;
  options.shards = shards;
  options.drain = DrainMode::kManual;
  options.backpressure = BackpressurePolicy::kDropNewest;
  options.dynamic.learning_rate = 0.7;  // non-default: must survive the trip
  options.drift_threshold_c = 6.5;
  return options;
}

/// Builds an engine with three hosts and `steps` observations each.
std::unique_ptr<FleetEngine> make_fed_engine(std::size_t shards,
                                             int steps) {
  auto engine = std::make_unique<FleetEngine>(shared_predictor(),
                                              engine_options(shards));
  std::vector<HostHandle> handles;
  for (int i = 0; i < 3; ++i) {
    handles.push_back(engine->register_host("host-" + std::to_string(i),
                                            host_config(i + 1), 0.0,
                                            22.0 + i));
  }
  for (int step = 1; step <= steps; ++step) {
    std::vector<TelemetryEvent> batch;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      batch.push_back(TelemetryEvent::observe(
          handles[i], step * 15.0,
          28.0 + static_cast<double>(i) + 0.2 * step));
    }
    engine->ingest_batch(std::move(batch));
  }
  engine->flush();
  return engine;
}

TEST(FleetSnapshotTest, SaveLoadSaveIsByteIdentical) {
  auto engine = make_fed_engine(2, 20);
  std::ostringstream first;
  save_fleet(first, *engine);

  std::istringstream in(first.str());
  auto restored = load_fleet(in, engine_options(2));
  std::ostringstream second;
  save_fleet(second, *restored);
  EXPECT_EQ(first.str(), second.str());
}

TEST(FleetSnapshotTest, RestoredEngineForecastsBitwiseEqual) {
  auto engine = make_fed_engine(2, 20);
  std::ostringstream snapshot;
  save_fleet(snapshot, *engine);

  // Restore at a different shard count: host handles are reassigned but
  // per-host state must be exact.
  std::istringstream in(snapshot.str());
  auto restored = load_fleet(in, engine_options(5));
  EXPECT_EQ(restored->host_count(), 3u);
  EXPECT_EQ(restored->shard_count(), 5u);
  EXPECT_EQ(restored->options().dynamic.learning_rate, 0.7);
  EXPECT_EQ(restored->options().drift_threshold_c, 6.5);

  for (int i = 0; i < 3; ++i) {
    const std::string id = "host-" + std::to_string(i);
    const HostHandle a = engine->handle_of(id);
    const HostHandle b = restored->handle_of(id);
    for (const double gap : {0.0, 30.0, 60.0, 600.0}) {
      EXPECT_EQ(engine->forecast(a, gap), restored->forecast(b, gap));
    }
    EXPECT_EQ(engine->calibration_of(a), restored->calibration_of(b));
    EXPECT_EQ(engine->config_of(a).vms.size(),
              restored->config_of(b).vms.size());
  }
  EXPECT_EQ(engine->metrics().to_json(false),
            restored->metrics().to_json(false));
}

TEST(FleetSnapshotTest, ResumeEquivalence) {
  // Run 40 steps straight through vs. 20 steps -> snapshot -> restore ->
  // 20 more steps: final forecasts and deterministic metrics must match.
  auto full = make_fed_engine(3, 40);

  auto half = make_fed_engine(3, 20);
  std::ostringstream snapshot;
  save_fleet(snapshot, *half);
  std::istringstream in(snapshot.str());
  auto resumed = load_fleet(in, engine_options(3));

  std::vector<HostHandle> handles;
  for (int i = 0; i < 3; ++i) {
    handles.push_back(resumed->handle_of("host-" + std::to_string(i)));
  }
  for (int step = 21; step <= 40; ++step) {
    std::vector<TelemetryEvent> batch;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      batch.push_back(TelemetryEvent::observe(
          handles[i], step * 15.0,
          28.0 + static_cast<double>(i) + 0.2 * step));
    }
    resumed->ingest_batch(std::move(batch));
  }
  resumed->flush();

  for (int i = 0; i < 3; ++i) {
    const std::string id = "host-" + std::to_string(i);
    EXPECT_EQ(full->forecast(full->handle_of(id), 60.0),
              resumed->forecast(resumed->handle_of(id), 60.0));
  }
  EXPECT_EQ(full->metrics().to_json(false), resumed->metrics().to_json(false));
}

TEST(FleetSnapshotTest, FileRoundTrip) {
  auto engine = make_fed_engine(2, 5);
  const std::string path = ::testing::TempDir() + "fleet_snapshot_test.txt";
  save_fleet_file(path, *engine);
  auto restored = load_fleet_file(path, engine_options(2));
  EXPECT_EQ(restored->host_count(), 3u);
  const std::string id = "host-0";
  EXPECT_EQ(engine->forecast(engine->handle_of(id), 60.0),
            restored->forecast(restored->handle_of(id), 60.0));
}

/// `snapshot` with `resid_line` after every tracker line, where v1 files
/// carry the lifetime residual statistic.
std::string with_resid_lines(const std::string& snapshot,
                             const std::string& resid_line) {
  std::istringstream in(snapshot);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    out += line + "\n";
    if (line.rfind("tracker ", 0) == 0) out += resid_line + "\n";
  }
  return out;
}

/// Swaps the format header; both versions' headers have the same length.
std::string with_header(std::string snapshot, const std::string& header) {
  return snapshot.replace(0, header.size(), header);
}

TEST(FleetSnapshotTest, LoadsV1SnapshotsAndDropsResiduals) {
  auto engine = make_fed_engine(2, 20);
  std::ostringstream v2;
  save_fleet(v2, *engine);

  std::istringstream v1(with_header(
      with_resid_lines(v2.str(), "resid 20 0.25 3.5 -1.5 2.0000000000000004"),
      "vmtherm_fleet v1"));
  auto restored = load_fleet(v1, engine_options(3));
  std::ostringstream resaved;
  save_fleet(resaved, *restored);
  EXPECT_EQ(resaved.str(), v2.str());
  for (int i = 0; i < 3; ++i) {
    const std::string id = "host-" + std::to_string(i);
    EXPECT_EQ(engine->forecast(engine->handle_of(id), 60.0),
              restored->forecast(restored->handle_of(id), 60.0));
  }

  // The discarded line is still parsed: a short one misaligns the stream,
  // and a v2 file does not carry it at all.
  std::istringstream short_resid(with_header(
      with_resid_lines(v2.str(), "resid 20 0.25 3.5"), "vmtherm_fleet v1"));
  EXPECT_THROW((void)load_fleet(short_resid), IoError);
  std::istringstream v2_with_resid(
      with_resid_lines(v2.str(), "resid 0 0 0 0 0"));
  EXPECT_THROW((void)load_fleet(v2_with_resid), IoError);
}

TEST(FleetSnapshotTest, MalformedInputThrows) {
  std::istringstream bad_magic("not_a_fleet v1\n");
  EXPECT_THROW((void)load_fleet(bad_magic), IoError);

  auto engine = make_fed_engine(1, 3);
  std::ostringstream snapshot;
  save_fleet(snapshot, *engine);
  const std::string text = snapshot.str();
  std::istringstream truncated(text.substr(0, text.size() / 2));
  EXPECT_THROW((void)load_fleet(truncated), IoError);

  EXPECT_THROW((void)load_fleet_file("/nonexistent/fleet.txt"), IoError);
}

}  // namespace
}  // namespace vmtherm::serve
