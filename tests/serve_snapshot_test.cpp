// Tests for serve/snapshot: versioned save/restore of a FleetEngine —
// byte-stable round-trips, bitwise-equal resumed forecasts, and metric
// continuity across a restart.

#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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

TEST(FleetSnapshotTest, AccuracyReportSurvivesRestore) {
  auto engine = make_fed_engine(2, 50);  // 750 s: both stages are fed
  std::ostringstream snapshot;
  save_fleet(snapshot, *engine);
  std::istringstream in(snapshot.str());
  const FleetAccuracyStats saved = engine->accuracy_report();
  const FleetAccuracyStats loaded =
      load_fleet(in, engine_options(3))->accuracy_report();
  EXPECT_GT(saved.stable.weight, 0.0);
  EXPECT_GT(saved.transient.weight, 0.0);
  EXPECT_EQ(loaded.hosts, saved.hosts);  // ids, γ and residual monitors
  EXPECT_EQ(loaded.observations, saved.observations);
  EXPECT_EQ(loaded.transient, saved.transient);
  EXPECT_EQ(loaded.stable, saved.stable);
  EXPECT_EQ(loaded.hosts_drifted, saved.hosts_drifted);
}

/// The committed v3 snapshot of make_fed_engine(2, 20), written by the
/// v3 writer before v4 replaced it.
std::string v3_fixture() {
  std::ifstream in(VMTHERM_TEST_DATA_DIR "/fleet_v3.txt", std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
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

/// Swaps the format header; all versions' headers have the same length.
std::string with_header(std::string snapshot, const std::string& header) {
  return snapshot.replace(0, header.size(), header);
}

std::vector<std::string> split(const std::string& line) {
  std::istringstream fields(line);
  std::vector<std::string> tokens;
  for (std::string token; fields >> token;) tokens.push_back(token);
  return tokens;
}

std::string join(const std::vector<std::string>& tokens) {
  std::string line;
  for (const std::string& token : tokens) {
    line += line.empty() ? "" : " ";
    line += token;
  }
  return line;
}

/// `snapshot` with every line for which `select(line)` holds replaced by
/// its tokens after `edit`, joined by single spaces.
template <typename Select, typename Edit>
std::string with_lines_edited(const std::string& snapshot, Select select,
                              Edit edit) {
  std::istringstream in(snapshot);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (select(line)) {
      std::vector<std::string> tokens = split(line);
      edit(tokens);
      line = join(tokens);
    }
    out += line + "\n";
  }
  return out;
}

/// A v3 `snapshot` with every host's `residuals` line edited.
template <typename Edit>
std::string with_residuals_edited(const std::string& snapshot, Edit edit) {
  return with_lines_edited(
      snapshot,
      [](const std::string& line) { return line.rfind("residuals ", 0) == 0; },
      edit);
}

/// A v4 row: id, condition, 7 tracker fields, then the 12 residual fields
/// (CUSUM state, transient sums, stable sums) from this token on.
constexpr std::size_t kRowResiduals = 9;

/// A v4 `snapshot` with every host row edited (the lines between `hosts`
/// and `metrics`).
template <typename Edit>
std::string with_host_rows_edited(const std::string& snapshot, Edit edit) {
  bool in_hosts = false;
  return with_lines_edited(
      snapshot,
      [&in_hosts](const std::string& line) {
        if (line.rfind("hosts ", 0) == 0) {
          in_hosts = true;
          return false;
        }
        if (line.rfind("metrics ", 0) == 0) in_hosts = false;
        return in_hosts;
      },
      edit);
}

std::string save(FleetEngine& engine) {
  std::ostringstream out;
  save_fleet(out, engine);
  return out.str();
}

TEST(FleetSnapshotTest, WritesV4WithOneConditionTable) {
  auto engine = make_fed_engine(2, 20);
  const std::string text = save(*engine);
  EXPECT_EQ(text.rfind("vmtherm_fleet v4\n", 0), 0u);
  // Three hosts on three conditions (1, 2 and 3 VMs), numbered in host-id
  // order; one row per host names its condition.
  EXPECT_NE(text.find("\nconditions 3\n"), std::string::npos);
  const std::size_t hosts = text.find("\nhosts 3\n");
  ASSERT_NE(hosts, std::string::npos);
  std::istringstream rows(text.substr(hosts + 9));
  for (int i = 0; i < 3; ++i) {
    std::string line;
    std::getline(rows, line);
    const std::vector<std::string> tokens = split(line);
    ASSERT_EQ(tokens.size(), kRowResiduals + 12) << line;
    EXPECT_EQ(tokens[0], "host-" + std::to_string(i));
    EXPECT_EQ(tokens[1], std::to_string(i));
  }

  // Hosts registered on one condition share its line.
  auto shared = std::make_unique<FleetEngine>(shared_predictor(),
                                              engine_options(3));
  for (int i = 0; i < 40; ++i) {
    shared->register_host("host-" + std::to_string(i), host_config(1 + i % 2),
                          0.0, 23.0);
  }
  const std::string two = save(*shared);
  EXPECT_NE(two.find("\nconditions 2\n"), std::string::npos);
  std::istringstream in(two);
  EXPECT_EQ(save(*load_fleet(in, engine_options(1))), two);
}

TEST(FleetSnapshotTest, BytesAreTheSameAtAnyShardCount) {
  // Same per-host streams, including config updates, at 1 and 4 shards.
  std::vector<std::string> snapshots;
  for (const std::size_t shards : {1u, 4u}) {
    auto engine = make_fed_engine(shards, 20);
    std::vector<TelemetryEvent> batch;
    for (int i = 0; i < 3; ++i) {
      batch.push_back(TelemetryEvent::update_config(
          engine->handle_of("host-" + std::to_string(i)), 310.0, 30.0,
          host_config(3 - i)));
    }
    engine->ingest_batch(std::move(batch));
    engine->flush();
    snapshots.push_back(save(*engine));
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_NE(snapshots[0].find("\nconditions 3\n"), std::string::npos);
}

TEST(FleetSnapshotTest, LoadsV1SnapshotsAndDropsResiduals) {
  // Everything is compared against the fixture itself, not against an
  // engine trained here: the fixture embeds its own model, and training
  // may round differently in another build type.
  const std::string v3 = v3_fixture();
  ASSERT_EQ(v3.rfind("vmtherm_fleet v3\n", 0), 0u);
  std::istringstream v3_in(v3);
  auto reference = load_fleet(v3_in, engine_options(2));
  const std::string v4 = save(*reference);

  // The v4 rows carry the fixture's tracker and residual values exactly.
  std::vector<std::vector<std::string>> v3_values;
  with_lines_edited(
      v3,
      [](const std::string& line) {
        return line.rfind("tracker ", 0) == 0 ||
               line.rfind("residuals ", 0) == 0;
      },
      [&v3_values](std::vector<std::string>& tokens) {
        v3_values.emplace_back(tokens.begin() + 1, tokens.end());
      });
  std::vector<std::vector<std::string>> v4_rows;
  with_host_rows_edited(v4, [&v4_rows](std::vector<std::string>& tokens) {
    v4_rows.push_back(tokens);
  });
  ASSERT_EQ(v4_rows.size(), 3u);
  ASSERT_EQ(v3_values.size(), 6u);
  for (std::size_t h = 0; h < 3; ++h) {
    std::vector<std::string> fields = v3_values[2 * h];
    fields.insert(fields.end(), v3_values[2 * h + 1].begin(),
                  v3_values[2 * h + 1].end());
    ASSERT_EQ(fields.size() + 2, v4_rows[h].size());
    for (std::size_t f = 0; f < fields.size(); ++f) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(std::stod(fields[f])),
                std::bit_cast<std::uint64_t>(std::stod(v4_rows[h][f + 2])))
          << "host " << h << " field " << f;
    }
  }

  // v1 and v2 carry no stage sums: they restore empty.
  // Their `cusum` line is the CUSUM state, the first four values.
  const std::string v2 = with_header(
      with_residuals_edited(v3,
                            [](std::vector<std::string>& tokens) {
                              tokens.resize(5);
                              tokens[0] = "cusum";
                            }),
      "vmtherm_fleet v2");
  const std::string v4_without_sums =
      with_host_rows_edited(v4, [](std::vector<std::string>& tokens) {
        std::fill(tokens.begin() + kRowResiduals + 4, tokens.end(),
                  std::string("0"));
      });
  const std::string v1 = with_header(
      with_resid_lines(v2, "resid 20 0.25 3.5 -1.5 2.0000000000000004"),
      "vmtherm_fleet v1");

  for (const auto& [old, expected] :
       {std::pair{v1, v4_without_sums}, std::pair{v2, v4_without_sums},
        std::pair{v4, v4}}) {
    std::istringstream in(old);
    auto restored = load_fleet(in, engine_options(3));
    EXPECT_EQ(save(*restored), expected);
    for (int i = 0; i < 3; ++i) {
      const std::string id = "host-" + std::to_string(i);
      EXPECT_EQ(reference->forecast(reference->handle_of(id), 60.0),
                restored->forecast(restored->handle_of(id), 60.0));
    }
  }

  // The discarded line is still parsed: a short one is rejected, and a v2
  // file does not carry it at all. A v3 file needs the sums.
  std::istringstream short_resid(with_header(
      with_resid_lines(v2, "resid 20 0.25 3.5"), "vmtherm_fleet v1"));
  EXPECT_THROW((void)load_fleet(short_resid), IoError);
  std::istringstream v2_with_resid(with_resid_lines(v2, "resid 0 0 0 0 0"));
  EXPECT_THROW((void)load_fleet(v2_with_resid), IoError);
  std::istringstream v3_with_cusum(with_header(v2, "vmtherm_fleet v3"));
  EXPECT_THROW((void)load_fleet(v3_with_cusum), IoError);
}

TEST(FleetSnapshotTest, MalformedInputThrows) {
  std::istringstream bad_magic("not_a_fleet v1\n");
  EXPECT_THROW((void)load_fleet(bad_magic), IoError);

  auto engine = make_fed_engine(1, 3);
  const std::string text = save(*engine);
  std::istringstream truncated(text.substr(0, text.size() / 2));
  EXPECT_THROW((void)load_fleet(truncated), IoError);

  // Residual states observe() cannot produce: negative CUSUM sums,
  // weights, squares or absolute sums, and NaN. Fields count from 1 at
  // the first residual field of a host row.
  const std::vector<std::pair<int, std::string>> bad_fields = {
      {1, "-1"}, {2, "-0.5"}, {5, "-1"},  {9, "-2"},
      {7, "-4"}, {8, "-3"},   {12, "-1"}, {6, "nan"}};
  for (const auto& [field, value] : bad_fields) {
    std::istringstream bad(with_host_rows_edited(
        text, [&](std::vector<std::string>& tokens) {
          tokens.at(kRowResiduals - 1 + static_cast<std::size_t>(field)) =
              value;
        }));
    EXPECT_THROW((void)load_fleet(bad), IoError) << field << " = " << value;
  }

  // std::from_chars reads "inf" and "nan": no double field may hold them.
  for (const std::string value : {"inf", "-inf", "nan", "infinity"}) {
    std::istringstream bad_gamma(with_host_rows_edited(
        text, [&](std::vector<std::string>& tokens) { tokens.at(4) = value; }));
    EXPECT_THROW((void)load_fleet(bad_gamma), IoError) << value;
  }

  // A condition number past the table, and an implausible table size.
  std::istringstream bad_condition(with_host_rows_edited(
      text, [](std::vector<std::string>& tokens) { tokens.at(1) = "3"; }));
  EXPECT_THROW((void)load_fleet(bad_condition), IoError);
  std::istringstream bad_count(
      with_lines_edited(text,
                        [](const std::string& line) {
                          return line.rfind("conditions ", 0) == 0;
                        },
                        [](std::vector<std::string>& tokens) {
                          tokens.at(1) = "18446744073709551615";
                        }));
  EXPECT_THROW((void)load_fleet(bad_count), IoError);

  EXPECT_THROW((void)load_fleet_file("/nonexistent/fleet.txt"), IoError);
}

TEST(FleetSnapshotTest, RefusesHostsItCouldNotRestore) {
  // Finite but absurd readings on Δ_update steps overflow one host's γ to
  // NaN (see FleetEngineTest.HotspotScanOrdersNanForecastsLast). The
  // loader would reject that host, so the writer refuses the fleet and
  // names the host instead of writing an unrestorable checkpoint.
  FleetEngineOptions options = engine_options(2);
  options.dynamic = core::DynamicOptions{};  // that test's λ
  auto engine = std::make_unique<FleetEngine>(shared_predictor(), options);
  for (int i = 0; i < 3; ++i) {
    engine->register_host("host-" + std::to_string(i), host_config(i + 1),
                          0.0, 23.0);
  }
  const HostHandle poisoned = engine->handle_of("host-1");
  const double absurd[] = {1e308, -1e308, 30.0};
  for (int step = 0; step < 3; ++step) {
    engine->ingest(
        TelemetryEvent::observe(poisoned, 15.0 * (step + 1), absurd[step]));
  }
  engine->flush();
  ASSERT_TRUE(std::isnan(engine->forecast(poisoned, 60.0)));
  std::ostringstream out;
  try {
    save_fleet(out, *engine);
    ADD_FAILURE() << "save_fleet wrote an unrestorable host";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("host-1"), std::string::npos)
        << e.what();
  }

  engine->unregister_host(poisoned);
  const std::string text = save(*engine);
  std::istringstream in(text);
  EXPECT_EQ(load_fleet(in, options)->host_count(), 2u);
}

}  // namespace
}  // namespace vmtherm::serve
