// Tests for serve/replay: deterministic fleet replay — byte-identical
// digests and metrics at any shard/thread count, and bitwise equivalence
// with serial core trackers fed the same event stream.

#include "serve/replay.h"

#include <gtest/gtest.h>

#include <bit>

#include "core/evaluator.h"
#include "sim/experiment.h"
#include "util/hash.h"

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

ReplayOptions small_replay() {
  ReplayOptions options;
  options.hosts = 6;
  options.steps = 25;
  options.seed = 11;
  options.churn_every = 7;
  return options;
}

TEST(FleetReplayTest, HostIdsAreStable) {
  EXPECT_EQ(replay_host_id(0), "host-0000");
  EXPECT_EQ(replay_host_id(42), "host-0042");
  EXPECT_EQ(replay_host_id(12345), "host-12345");
}

TEST(FleetReplayTest, ValidatesOptions) {
  ReplayOptions options = small_replay();
  options.hosts = 0;
  EXPECT_THROW((void)run_fleet_replay(shared_predictor(), options),
               ConfigError);
  options = small_replay();
  options.steps = 0;
  EXPECT_THROW((void)run_fleet_replay(shared_predictor(), options),
               ConfigError);
}

TEST(FleetReplayTest, ReportIsPopulated) {
  const auto report = run_fleet_replay(shared_predictor(), small_replay());
  EXPECT_EQ(report.hosts, 6u);
  EXPECT_EQ(report.steps, 25u);
  EXPECT_EQ(report.events_ingested, 6u * 25u);
  EXPECT_NE(report.forecast_digest, util::kFnv1a64Offset);
  EXPECT_EQ(report.risks.size(), 6u);
  EXPECT_NE(report.metrics_json.find("\"ingest.events\":150"),
            std::string::npos);
  ASSERT_NE(report.engine, nullptr);
  EXPECT_EQ(report.engine->host_count(), 6u);
}

TEST(FleetReplayTest, ByteIdenticalAtAnyShardAndThreadCount) {
  // The tentpole acceptance check: 1, 2 and 8 shards (and varying thread
  // counts) must produce the same forecast digest, the same deterministic
  // metrics JSON, and bitwise-identical hotspot rows.
  struct Setup {
    std::size_t shards;
    std::size_t threads;
  };
  std::vector<ReplayReport> reports;
  for (const Setup& setup : {Setup{1, 1}, Setup{2, 3}, Setup{8, 2}}) {
    ReplayOptions options = small_replay();
    options.engine.shards = setup.shards;
    options.engine.threads = setup.threads;
    reports.push_back(run_fleet_replay(shared_predictor(), options));
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[0].forecast_digest, reports[i].forecast_digest);
    EXPECT_EQ(reports[0].metrics_json, reports[i].metrics_json);
    ASSERT_EQ(reports[0].risks.size(), reports[i].risks.size());
    for (std::size_t r = 0; r < reports[0].risks.size(); ++r) {
      EXPECT_EQ(reports[0].risks[r].host_id, reports[i].risks[r].host_id);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(reports[0].risks[r].forecast_c),
                std::bit_cast<std::uint64_t>(reports[i].risks[r].forecast_c));
      EXPECT_EQ(reports[0].risks[r].at_risk, reports[i].risks[r].at_risk);
    }
  }
}

TEST(FleetReplayTest, ManualDrainMatchesPooledDrain) {
  ReplayOptions pooled = small_replay();
  ReplayOptions manual = small_replay();
  manual.engine.drain = DrainMode::kManual;
  manual.engine.backpressure = BackpressurePolicy::kDropNewest;
  const auto a = run_fleet_replay(shared_predictor(), pooled);
  const auto b = run_fleet_replay(shared_predictor(), manual);
  EXPECT_EQ(a.forecast_digest, b.forecast_digest);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(FleetReplayTest, MatchesSerialMonitorService) {
  // Rebuild the replay's exact event stream (same sampler seed, same
  // traces) and feed it to one bare core tracker per host, begun at the
  // predictor's scalar ψ_stable: every per-step forecast must agree
  // bitwise with the sharded engine's digest. No churn so both sides see
  // pure observes.
  ReplayOptions options = small_replay();
  options.churn_every = 0;
  options.engine.shards = 4;
  const auto report = run_fleet_replay(shared_predictor(), options);

  sim::ScenarioRanges ranges;
  ranges.duration_s =
      static_cast<double>(options.steps) * options.sample_interval_s;
  ranges.sample_interval_s = options.sample_interval_s;
  sim::ScenarioSampler sampler(ranges, options.seed);
  const auto configs = sampler.sample(options.hosts);

  std::vector<core::DynamicTemperaturePredictor> trackers(
      options.hosts, core::DynamicTemperaturePredictor(options.engine.dynamic));
  std::vector<sim::TemperatureTrace> traces;
  for (std::size_t h = 0; h < options.hosts; ++h) {
    traces.push_back(sim::run_experiment(configs[h]).trace);
    trackers[h].begin(traces[h][0].time_s, traces[h][0].cpu_temp_sensed_c,
                      shared_predictor().predict(
                          configs[h].server, configs[h].vms,
                          configs[h].active_fans,
                          configs[h].environment.base_c));
  }

  std::uint64_t digest = util::kFnv1a64Offset;
  for (std::size_t step = 1; step <= options.steps; ++step) {
    for (std::size_t h = 0; h < options.hosts; ++h) {
      const auto index = std::min(step, traces[h].size() - 1);
      trackers[h].observe(traces[h][index].time_s,
                          traces[h][index].cpu_temp_sensed_c);
    }
    for (std::size_t h = 0; h < options.hosts; ++h) {
      digest = util::fnv1a64_mix(
          digest, std::bit_cast<std::uint64_t>(
                      trackers[h].predict_ahead(options.gap_s)));
    }
  }
  EXPECT_EQ(report.forecast_digest, digest);
}

}  // namespace
}  // namespace vmtherm::serve
