// Malformed-input robustness: table-driven corruption of `vmtherm_fleet v3`
// snapshots and ml/model_io files (truncation, field swaps, NaN injection,
// implausible counts, garbage tokens). Every corrupted input must fail with
// a clean vmtherm::Error (IoError/ConfigError/DataError) — never UB, a
// std::length_error from a poisoned vector size, or a silent wrong load.
// The check scripts run this suite under ASan/UBSan as well.

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "ml/model_io.h"
#include "serve/snapshot.h"

namespace vmtherm {
namespace {

// --- helpers ------------------------------------------------------------

/// Replaces the first occurrence of `from`; fails the test when absent so a
/// format change cannot silently turn a corruption case into a no-op.
std::string replace_first(const std::string& text, const std::string& from,
                          const std::string& to) {
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "corruption target not found: " << from;
  if (pos == std::string::npos) return text;
  std::string out = text;
  out.replace(pos, from.size(), to);
  return out;
}

struct Corruption {
  const char* name;
  std::function<std::string(const std::string&)> mutate;
};

// --- fleet snapshot corpus ----------------------------------------------

const core::StableTemperaturePredictor& tiny_predictor() {
  static const core::StableTemperaturePredictor predictor = [] {
    sim::ScenarioRanges ranges;
    ranges.duration_s = 1200.0;
    ranges.sample_interval_s = 10.0;
    core::StableTrainOptions options;
    ml::SvrParams params;
    params.kernel.gamma = 1.0 / 32;
    params.c = 64.0;
    params.epsilon = 0.1;
    options.fixed_params = params;
    return core::StableTemperaturePredictor::train(
        core::generate_corpus(ranges, 10, 7), options);
  }();
  return predictor;
}

serve::FleetEngineOptions manual_options() {
  serve::FleetEngineOptions options;
  options.shards = 2;
  options.drain = serve::DrainMode::kManual;
  options.backpressure = serve::BackpressurePolicy::kDropNewest;
  return options;
}

mgmt::MonitoredConfig host_config(int vms) {
  mgmt::MonitoredConfig config;
  config.server = sim::make_server_spec("medium");
  config.fans = 4;
  sim::VmConfig vm;
  vm.vcpus = 2;
  vm.memory_gb = 4.0;
  vm.task = sim::TaskType::kCpuBurn;
  config.vms.assign(static_cast<std::size_t>(vms), vm);
  config.env_temp_c = 23.0;
  return config;
}

/// A small but fully populated snapshot: three hosts, observations applied,
/// deterministic metrics non-zero.
std::string good_snapshot() {
  static const std::string snapshot = [] {
    serve::FleetEngine engine(tiny_predictor(), manual_options());
    std::vector<serve::HostHandle> handles;
    for (int i = 0; i < 3; ++i) {
      handles.push_back(engine.register_host("host-" + std::to_string(i),
                                             host_config(i + 1), 0.0,
                                             22.0 + i));
    }
    for (int step = 1; step <= 10; ++step) {
      std::vector<serve::TelemetryEvent> batch;
      for (const serve::HostHandle handle : handles) {
        batch.push_back(serve::TelemetryEvent::observe(
            handle, step * 20.0, 26.0 + 0.3 * step));
      }
      engine.ingest_batch(std::move(batch));
    }
    engine.flush();
    std::ostringstream out;
    serve::save_fleet(out, engine);
    return out.str();
  }();
  return snapshot;
}

TEST(SnapshotCorruptionTest, IntactSnapshotLoads) {
  std::istringstream in(good_snapshot());
  const auto engine = serve::load_fleet(in, manual_options());
  EXPECT_EQ(engine->host_count(), 3u);
  EXPECT_TRUE(engine->has_host("host-1"));
}

TEST(SnapshotCorruptionTest, CorruptedSnapshotsFailCleanly) {
  const std::vector<Corruption> corruptions = {
      {"bad-magic",
       [](const std::string& s) {
         return replace_first(s, "vmtherm_fleet v3", "vmtherm_fleet v9");
       }},
      {"truncated-quarter",
       [](const std::string& s) { return s.substr(0, s.size() / 4); }},
      {"truncated-half",
       [](const std::string& s) { return s.substr(0, s.size() / 2); }},
      {"truncated-90-percent",
       [](const std::string& s) { return s.substr(0, s.size() * 9 / 10); }},
      {"missing-end-marker",
       [](const std::string& s) { return replace_first(s, "end", "En"); }},
      {"field-swapped-headers",
       // `drift` tokens where `dynamic` tokens are expected and vice versa.
       [](const std::string& s) {
         return replace_first(replace_first(s, "dynamic ", "@TMP@ "),
                              "drift ", "dynamic ") ;
       }},
      {"nan-injected-learning-rate",
       [](const std::string& s) {
         return replace_first(s, "dynamic 0.", "dynamic nan0.");
       }},
      {"nan-injected-tracker",
       [](const std::string& s) {
         return replace_first(s, "tracker 1 ", "tracker 1 nan ");
       }},
      {"flag-out-of-range",
       [](const std::string& s) {
         return replace_first(s, "tracker 1 ", "tracker 7 ");
       }},
      {"garbage-host-count",
       [](const std::string& s) {
         return replace_first(s, "hosts 3", "hosts banana");
       }},
      {"implausible-vm-count",
       [](const std::string& s) {
         return replace_first(s, "vms 1", "vms 18446744073709551615");
       }},
      {"implausible-histogram-bounds",
       [](const std::string& s) {
         return replace_first(s, "hist calibration.abs_error_c 6",
                              "hist calibration.abs_error_c 999999999999");
       }},
      {"unknown-metric-family",
       [](const std::string& s) {
         return replace_first(s, "counter apply.observe",
                              "banana apply.observe");
       }},
      {"garbage-counter-value",
       [](const std::string& s) {
         return replace_first(s, "counter apply.observe ",
                              "counter apply.observe x");
       }},
  };

  const std::string good = good_snapshot();
  for (const Corruption& corruption : corruptions) {
    SCOPED_TRACE(corruption.name);
    const std::string bad = corruption.mutate(good);
    ASSERT_NE(bad, good) << "corruption was a no-op";
    std::istringstream in(bad);
    EXPECT_THROW(serve::load_fleet(in, manual_options()), Error);
  }
}

// --- model_io corpus ----------------------------------------------------

ml::SvrModel tiny_svr() {
  ml::KernelParams kernel;
  kernel.kind = ml::KernelKind::kRbf;
  kernel.gamma = 0.25;
  return ml::SvrModel(kernel, {{0.1, 0.2}, {0.6, 0.8}}, {1.5, -1.5}, 0.25);
}

std::string good_svr_text() {
  std::ostringstream out;
  ml::save_svr(out, tiny_svr());
  return out.str();
}

std::string good_scaler_text() {
  std::ostringstream out;
  ml::save_scaler(out, ml::MinMaxScaler({0.0, -1.0}, {1.0, 2.0}));
  return out.str();
}

TEST(ModelIoCorruptionTest, IntactFilesLoad) {
  std::istringstream svr_in(good_svr_text());
  const ml::SvrModel model = ml::load_svr(svr_in);
  EXPECT_EQ(model.support_vector_count(), 2u);
  std::istringstream scaler_in(good_scaler_text());
  const ml::MinMaxScaler scaler = ml::load_scaler(scaler_in);
  EXPECT_EQ(scaler.dim(), 2u);
}

TEST(ModelIoCorruptionTest, CorruptedSvrFilesFailCleanly) {
  const std::vector<Corruption> corruptions = {
      {"bad-magic",
       [](const std::string& s) {
         return replace_first(s, "vmtherm_svr v1", "vmtherm_svr v0");
       }},
      {"truncated-half",
       [](const std::string& s) { return s.substr(0, s.size() / 2); }},
      {"field-swapped-kernel",
       [](const std::string& s) {
         return replace_first(s, "gamma", "degree");
       }},
      {"nan-injected-gamma",
       [](const std::string& s) {
         return replace_first(s, "gamma 0.25", "gamma nan");
       }},
      {"negative-dim",
       [](const std::string& s) { return replace_first(s, "dim 2", "dim -2"); }},
      {"implausible-dim",
       [](const std::string& s) {
         return replace_first(s, "dim 2", "dim 8589934592");
       }},
      {"inflated-nsv",
       [](const std::string& s) {
         return replace_first(s, "nsv 2", "nsv 4096");
       }},
  };

  const std::string good = good_svr_text();
  for (const Corruption& corruption : corruptions) {
    SCOPED_TRACE(corruption.name);
    const std::string bad = corruption.mutate(good);
    ASSERT_NE(bad, good) << "corruption was a no-op";
    std::istringstream in(bad);
    EXPECT_THROW(ml::load_svr(in), Error);
  }
}

TEST(ModelIoCorruptionTest, CorruptedScalerFilesFailCleanly) {
  const std::vector<Corruption> corruptions = {
      {"bad-magic",
       [](const std::string& s) {
         return replace_first(s, "vmtherm_scaler v1", "vmtherm_scale v1");
       }},
      {"truncated-after-dim",
       [](const std::string& s) {
         return s.substr(0, s.find("dim 2") + 5);
       }},
      {"implausible-dim",
       [](const std::string& s) {
         return replace_first(s, "dim 2", "dim 281474976710656");
       }},
      {"garbage-range",
       [](const std::string& s) { return replace_first(s, "0 1", "zero one"); }},
  };

  const std::string good = good_scaler_text();
  for (const Corruption& corruption : corruptions) {
    SCOPED_TRACE(corruption.name);
    const std::string bad = corruption.mutate(good);
    ASSERT_NE(bad, good) << "corruption was a no-op";
    std::istringstream in(bad);
    EXPECT_THROW(ml::load_scaler(in), Error);
  }
}

}  // namespace
}  // namespace vmtherm
