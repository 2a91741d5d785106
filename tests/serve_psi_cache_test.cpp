// Tests for serve/psi_cache and its wiring into the Shard hot path: the
// cache keys on the raw Eq. (2) feature vector bitwise, evicts by
// generational clear, and — the contract that matters — memoization must
// leave every forecast and every deterministic metric bitwise identical
// to an uncached engine fed the same event stream.

#include "serve/psi_cache.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "serve/engine.h"

namespace vmtherm::serve {
namespace {

// The cache takes each key's hash from its caller, so that a miss hashes
// once for find() and insert(); these helpers hash per call.
const double* find(const PsiStableCache& cache, std::span<const double> key) {
  return cache.find(key, PsiStableCache::hash(key));
}

void insert(PsiStableCache& cache, std::span<const double> key, double value) {
  cache.insert(key, PsiStableCache::hash(key), value);
}

TEST(PsiStableCacheTest, InsertThenFindReturnsStoredValue) {
  PsiStableCache cache(8);
  const std::vector<double> key{1.0, 2.5, -3.75};
  EXPECT_EQ(find(cache, key), nullptr);
  insert(cache, key, 42.5);
  ASSERT_NE(find(cache, key), nullptr);
  EXPECT_EQ(*find(cache, key), 42.5);
  EXPECT_EQ(cache.size(), 1u);
  // A different key of the same length misses.
  const std::vector<double> other{1.0, 2.5, -3.5};
  EXPECT_EQ(find(cache, other), nullptr);
  // A prefix of the key misses (length is part of equality).
  EXPECT_EQ(find(cache, std::span<const double>(key.data(), 2)), nullptr);
}

TEST(PsiStableCacheTest, DuplicateInsertIsNoOp) {
  PsiStableCache cache(8);
  const std::vector<double> key{7.0};
  insert(cache, key, 1.0);
  insert(cache, key, 999.0);  // first value stays authoritative
  ASSERT_NE(find(cache, key), nullptr);
  EXPECT_EQ(*find(cache, key), 1.0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PsiStableCacheTest, KeysAreBitwiseNotValueEqual) {
  PsiStableCache cache(8);
  const std::vector<double> pos{0.0};
  const std::vector<double> neg{-0.0};
  insert(cache, pos, 10.0);
  ASSERT_NE(find(cache, pos), nullptr);
  // -0.0 == 0.0 by value, but the cache must treat them as distinct keys.
  EXPECT_EQ(find(cache, neg), nullptr);
  insert(cache, neg, 20.0);
  EXPECT_EQ(*find(cache, pos), 10.0);
  EXPECT_EQ(*find(cache, neg), 20.0);

  // A NaN key is consistently findable (bitwise, so NaN != NaN is moot).
  const std::vector<double> nan_key{std::numeric_limits<double>::quiet_NaN()};
  insert(cache, nan_key, 30.0);
  ASSERT_NE(find(cache, nan_key), nullptr);
  EXPECT_EQ(*find(cache, nan_key), 30.0);
}

TEST(PsiStableCacheTest, ClearsGenerationOnReachingBudget) {
  PsiStableCache cache(4);
  EXPECT_EQ(cache.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    insert(cache, std::vector<double>{static_cast<double>(i)}, i * 10.0);
  }
  EXPECT_EQ(cache.size(), 4u);
  // The 5th distinct key trips the generational clear: the old entries
  // vanish, the new one is memoized in the fresh generation.
  const std::vector<double> fresh{99.0};
  insert(cache, fresh, 990.0);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_NE(find(cache, fresh), nullptr);
  EXPECT_EQ(*find(cache, fresh), 990.0);
  const std::vector<double> old_key{0.0};
  EXPECT_EQ(find(cache, old_key), nullptr);
}

TEST(PsiStableCacheTest, ZeroCapacityDisablesMemoization) {
  PsiStableCache cache(0);
  EXPECT_EQ(cache.capacity(), 0u);
  const std::vector<double> key{1.0, 2.0};
  insert(cache, key, 5.0);
  EXPECT_EQ(find(cache, key), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  cache.clear();  // harmless on a disabled cache
}

TEST(PsiStableCacheTest, SurvivesManyInsertsAcrossGenerations) {
  PsiStableCache cache(16);
  for (int i = 0; i < 1000; ++i) {
    const std::vector<double> key{static_cast<double>(i), 0.5};
    insert(cache, key, static_cast<double>(i));
    ASSERT_NE(find(cache, key), nullptr) << "entry " << i;
    EXPECT_EQ(*find(cache, key), static_cast<double>(i));
    EXPECT_LE(cache.size(), 16u);
  }
}

TEST(PsiStableCacheTest, KeysDifferingInOneBitPatternAreDistinct) {
  const double nan_a = std::bit_cast<double>(0x7ff8000000000001ull);
  const double nan_b = std::bit_cast<double>(0x7ff8000000000002ull);
  const std::vector<std::vector<double>> keys = {
      {2.4, 0.0, 24.0},
      {2.4, -0.0, 24.0},                        // signed zero
      {2.4, nan_a, 24.0},
      {2.4, nan_b, 24.0},                       // NaN payload
      {-2.4, 0.0, 24.0},                        // sign bit
      {2.4, 0.0, std::nextafter(24.0, 25.0)},  // lowest mantissa bit
  };
  PsiStableCache cache(16);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    insert(cache, keys[i], static_cast<double>(i));
  }
  EXPECT_EQ(cache.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(find(cache, keys[i]), nullptr) << "key " << i;
    EXPECT_EQ(*find(cache, keys[i]), static_cast<double>(i)) << "key " << i;
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(PsiStableCache::hash(keys[i]), PsiStableCache::hash(keys[j]))
          << "keys " << i << " and " << j;
    }
  }
}

TEST(PsiStableCacheTest, IntegerValuedKeysKeepProbeChainsShort) {
  // Like Eq. (2) vectors: 19 features, mostly small integers (fans, VM
  // counts, vCPU totals, whole-degree temperatures) whose low mantissa
  // bits are all zero, while the slot index uses the hash's low bits.
  PsiStableCache cache(4096);
  std::vector<double> key(19, 0.0);
  key[0] = 2.4;
  key[1] = 8.0;
  key[2] = 32.0;
  for (std::size_t i = 0; i < 4096; ++i) {
    key[3] = 1.0 + static_cast<double>(i & 3);          // fans
    key[4] = 20.0 + static_cast<double>((i >> 2) & 7);  // env temp
    key[5] = 1.0 + static_cast<double>((i >> 5) & 7);   // VM count
    key[6] = 2.0 * key[5] + static_cast<double>((i >> 8) & 15);  // vCPUs
    key[7] = 4.0 * key[5];                              // memory
    insert(cache, key, static_cast<double>(i));
  }
  // Full budget: the next new key would clear the generation.
  ASSERT_EQ(cache.size(), 4096u);
  EXPECT_LE(cache.longest_probe(), 16u);
}

// ---------------------------------------------------------------------
// Engine-level contract: memoization is invisible except in the timing
// metrics. Same stream, cache on vs off → bitwise-identical forecasts
// and byte-identical deterministic metric JSON.
// ---------------------------------------------------------------------

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

mgmt::MonitoredConfig config_variant(int variant) {
  mgmt::MonitoredConfig config;
  config.server = sim::make_server_spec("medium");
  config.fans = 4;
  sim::VmConfig vm;
  vm.vcpus = 2 + variant % 3;
  vm.memory_gb = 4.0;
  vm.task = variant % 2 == 0 ? sim::TaskType::kCpuBurn : sim::TaskType::kIdle;
  config.vms.assign(1 + static_cast<std::size_t>(variant % 2), vm);
  config.env_temp_c = 22.0 + variant % 3;
  return config;
}

FleetEngineOptions cached_options(std::size_t psi_capacity) {
  FleetEngineOptions options;
  options.shards = 2;
  options.drain = DrainMode::kManual;
  options.backpressure = BackpressurePolicy::kDropNewest;
  options.psi_cache_capacity = psi_capacity;
  return options;
}

struct RunResult {
  std::vector<double> forecasts;
  std::string deterministic_metrics;
  std::uint64_t psi_hits = 0;
  std::uint64_t psi_misses = 0;
};

// Registers 12 hosts cycling through 3 config variants, streams observe +
// update_config events (re-applying the same variants, so ψ inputs
// repeat), then forecasts every host at several gaps.
RunResult run_fleet(std::size_t psi_capacity) {
  FleetEngine engine(shared_predictor(), cached_options(psi_capacity));
  std::vector<HostHandle> hosts;
  for (int i = 0; i < 12; ++i) {
    hosts.push_back(engine.register_host("host-" + std::to_string(i),
                                         config_variant(i % 3), 0.0, 23.0));
  }
  for (double t = 15.0; t <= 120.0; t += 15.0) {
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      engine.ingest(TelemetryEvent::observe(
          hosts[i], t, 28.0 + t * 0.05 + static_cast<double>(i)));
    }
  }
  // Config churn over the same small variant set: every re-application
  // re-derives ψ_stable from an already-seen feature vector.
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    engine.ingest(TelemetryEvent::update_config(
        hosts[i], 135.0, 34.0, config_variant(static_cast<int>(i + 1) % 3)));
  }
  engine.flush();

  RunResult result;
  for (const HostHandle h : hosts) {
    for (const double gap : {0.0, 30.0, 300.0}) {
      result.forecasts.push_back(engine.forecast(h, gap));
    }
  }
  result.deterministic_metrics =
      engine.metrics().to_json(/*include_timing=*/false);
  obs::MetricsRegistry& registry = engine.metrics();
  result.psi_hits =
      registry.counter("psi_cache.hits", obs::MetricKind::kTiming).value();
  result.psi_misses =
      registry.counter("psi_cache.misses", obs::MetricKind::kTiming).value();
  return result;
}

TEST(PsiCacheEngineTest, MemoizationHitsWithoutChangingForecasts) {
  const RunResult cached = run_fleet(4096);
  const RunResult uncached = run_fleet(0);

  // The cache saw repeated running conditions and exploited them.
  EXPECT_GT(cached.psi_hits, 0u);
  EXPECT_GT(cached.psi_misses, 0u);
  // A disabled cache counts every lookup as a miss.
  EXPECT_EQ(uncached.psi_hits, 0u);

  // Bitwise-identical forecasts: EXPECT_EQ on doubles, not EXPECT_NEAR.
  ASSERT_EQ(cached.forecasts.size(), uncached.forecasts.size());
  for (std::size_t i = 0; i < cached.forecasts.size(); ++i) {
    EXPECT_EQ(cached.forecasts[i], uncached.forecasts[i]) << "forecast " << i;
  }
  // The deterministic metric subset is byte-identical — cache hit/miss
  // counters are registered as timing metrics precisely so they stay out
  // of this comparison.
  EXPECT_EQ(cached.deterministic_metrics, uncached.deterministic_metrics);
  EXPECT_EQ(cached.deterministic_metrics.find("psi_cache"), std::string::npos);
}

TEST(PsiCacheEngineTest, RepeatedRunsAreFullyDeterministic) {
  const RunResult a = run_fleet(4096);
  const RunResult b = run_fleet(4096);
  ASSERT_EQ(a.forecasts.size(), b.forecasts.size());
  for (std::size_t i = 0; i < a.forecasts.size(); ++i) {
    EXPECT_EQ(a.forecasts[i], b.forecasts[i]);
  }
  EXPECT_EQ(a.deterministic_metrics, b.deterministic_metrics);
  // Same placement, same stream → even the timing-class cache counters
  // agree between identical single-threaded runs.
  EXPECT_EQ(a.psi_hits, b.psi_hits);
  EXPECT_EQ(a.psi_misses, b.psi_misses);
}

}  // namespace
}  // namespace vmtherm::serve
