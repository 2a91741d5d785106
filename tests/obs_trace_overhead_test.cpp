// Gate on the cost of tracing compiled into the serving hot path (see
// obs/trace.h): one *disabled* obs::Span must cost < 1% of the per-event
// serving time of a real FleetEngine. The serving path opens one span per
// applied observation (serve.observe); the drain-chunk and ingest-batch
// spans amortize over 256+ events.
//
// A timing test: it is registered as the plain ctest `TraceSmoke`
// (RUN_SERIAL, label bench-smoke; tests/CMakeLists.txt) so no other test
// process shares the machine while it measures, and it stays out of the
// sanitizer runs.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "obs/trace.h"
#include "serve/engine.h"

namespace vmtherm {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Volatile seed: keeps the payload's start value and coefficients out of
/// reach of constant folding / final-value replacement (with a literal
/// seed GCC folds the whole 2M-iteration loop to its result and the
/// "payload" vanishes from both timing loops).
volatile double g_overhead_seed = 0.0125;

/// Serially-dependent double chain standing in for the per-event serving
/// work a span rides on (residual + Eq. 6 calibration update scale). The
/// loop-carried dependency keeps it non-vectorizable; noinline keeps both
/// timing loops compiled identically.
__attribute__((noinline)) double overhead_payload(std::size_t iters) {
  const double seed = g_overhead_seed;
  const double up = 1.0 + seed * 1e-8;
  const double down = 1.0 - seed * 1e-8;
  double acc = seed;
  for (std::size_t i = 0; i < iters; ++i) {
    acc = acc * up + 1e-9;
    acc = acc * down - 1e-9;
    acc = acc * up + 1e-9;
    acc = acc * down - 1e-9;
  }
  return acc;
}

/// Identical payload with one disabled span per iteration — the shape the
/// serving hot path has (one serve.observe span around each applied
/// event, surrounded by dependent arithmetic).
__attribute__((noinline)) double overhead_payload_with_span(
    std::size_t iters) {
  const double seed = g_overhead_seed;
  const double up = 1.0 + seed * 1e-8;
  const double down = 1.0 - seed * 1e-8;
  double acc = seed;
  for (std::size_t i = 0; i < iters; ++i) {
    // Not elidable: the gate check is a (relaxed) atomic load, which the
    // compiler must perform every iteration.
    obs::Span span("bench.disabled", "bench");
    acc = acc * up + 1e-9;
    acc = acc * down - 1e-9;
    acc = acc * up + 1e-9;
    acc = acc * down - 1e-9;
  }
  return acc;
}

/// Marginal cost of one disabled span, in ns. With the recorder off a span
/// is one inline relaxed atomic load plus a predicted branch, independent
/// of the surrounding computation, so on the real path it executes in the
/// shadow of the serving work's dependency chains. Timing it back-to-back
/// in an empty loop would overstate that cost several-fold; instead this
/// times the dependent-arithmetic payload with and without an embedded
/// span and takes the delta (best-of-5 each, so scheduler noise is
/// filtered from both loops independently).
double disabled_span_ns() {
  constexpr std::size_t kIterations = 2000000;
  volatile double sink = 0.0;
  double best_plain_s = std::numeric_limits<double>::infinity();
  double best_span_s = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 5; ++trial) {
    auto start = Clock::now();
    sink = overhead_payload(kIterations);
    best_plain_s = std::min(best_plain_s, seconds_since(start));

    start = Clock::now();
    sink = overhead_payload_with_span(kIterations);
    best_span_s = std::min(best_span_s, seconds_since(start));
  }
  (void)sink;
  return std::max(0.0, best_span_s - best_plain_s) * 1e9 /
         static_cast<double>(kIterations);
}

mgmt::MonitoredConfig host_config(std::size_t index) {
  mgmt::MonitoredConfig config;
  config.server = sim::make_server_spec(
      index % 3 == 0 ? "small" : (index % 3 == 1 ? "medium" : "large"));
  config.fans = 4;
  sim::VmConfig vm;
  vm.vcpus = 2 + static_cast<int>(index % 4);
  vm.memory_gb = 4.0;
  vm.task = sim::TaskType::kWebServer;
  config.vms.assign(1 + index % 4, vm);
  config.env_temp_c = 23.0;
  return config;
}

/// Fastest per-event serving cost, in ns: ingest + flush() of an
/// observe-only stream (512 hosts x 200 steps) on a manual-drain engine,
/// over 5 trials at each of 1/2/4/8 shards. Every trial runs on a fresh
/// engine (re-ingesting into a stateful one would send time backwards and
/// time the error path instead), and the per-step batches are built
/// outside the timed region, so only routing, enqueue, drain and apply
/// are timed.
double fastest_serving_ns_per_event(
    const core::StableTemperaturePredictor& predictor) {
  constexpr std::size_t kHosts = 512;
  constexpr std::size_t kSteps = 200;
  constexpr std::size_t kEvents = kHosts * kSteps;
  double best_s = std::numeric_limits<double>::infinity();
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    serve::FleetEngineOptions options;
    options.shards = shards;
    options.drain = serve::DrainMode::kManual;
    options.backpressure = serve::BackpressurePolicy::kDropNewest;
    options.queue_capacity = kEvents + 1;  // lossless
    for (int trial = 0; trial < 5; ++trial) {
      serve::FleetEngine engine(predictor, options);
      std::vector<serve::HostHandle> handles;
      handles.reserve(kHosts);
      for (std::size_t h = 0; h < kHosts; ++h) {
        handles.push_back(engine.register_host(
            "host-" + std::to_string(h), host_config(h), 0.0, 25.0));
      }
      std::vector<std::vector<serve::TelemetryEvent>> batches(kSteps);
      for (std::size_t step = 0; step < kSteps; ++step) {
        batches[step].reserve(kHosts);
        for (std::size_t h = 0; h < kHosts; ++h) {
          batches[step].push_back(serve::TelemetryEvent::observe(
              handles[h], 5.0 * static_cast<double>(step + 1),
              30.0 + 0.02 * static_cast<double>(step) +
                  0.1 * static_cast<double>(h % 13)));
        }
      }

      const auto start = Clock::now();
      for (auto& batch : batches) engine.ingest_batch(std::move(batch));
      engine.flush();
      best_s = std::min(best_s, seconds_since(start));

      // The timed region applied every event (none dropped or rejected).
      EXPECT_EQ(engine.metrics().counter("apply.observe").value(), kEvents);
    }
  }
  return best_s * 1e9 / static_cast<double>(kEvents);
}

TEST(TraceOverheadTest, DisabledSpanCostsUnderOnePercentOfServing) {
  obs::global_trace().set_enabled(false);

  sim::ScenarioRanges ranges;
  ranges.duration_s = 900.0;
  ranges.sample_interval_s = 10.0;
  core::StableTrainOptions train_options;
  ml::SvrParams params;
  params.kernel.gamma = 1.0 / 32;
  params.c = 512.0;
  params.epsilon = 0.05;
  train_options.fixed_params = params;
  const auto predictor = core::StableTemperaturePredictor::train(
      core::generate_corpus(ranges, 60, 7), train_options);

  const double per_event_ns = fastest_serving_ns_per_event(predictor);
  const double span_ns = disabled_span_ns();
  const double overhead_percent = 100.0 * span_ns / per_event_ns;
  std::cout << "disabled-span cost: " << span_ns << " ns/span; 1 span over "
            << per_event_ns << " ns/event = " << overhead_percent
            << "% overhead\n";
  EXPECT_LT(overhead_percent, 1.0)
      << "tracing compiled into the serving hot path must cost < 1% of the "
         "per-event serving time while disabled";
}

}  // namespace
}  // namespace vmtherm
