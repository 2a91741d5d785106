// bench/perf_serve.cpp
//
// Fleet-serving throughput bench: the sharded FleetEngine's ingest and
// apply rates at 1/2/4/8 shards, plus batched-forecast latency quantiles.
// Emits machine-readable JSON (BENCH_serve.json) next to the
// human-readable table.
//
// Methodology: per-step event batches are pre-built outside every timed
// region. Engine ingestion is timed in manual-drain mode (producer-visible
// enqueue cost — what a telemetry source waits for), apply cost is timed
// as the matching flush, and end-to-end throughput combines both. Every
// throughput number is best-of `--trials` with a fresh engine per trial,
// so scheduler noise on a shared box doesn't land in the report.
//
// The bench also guards the tracing contract: spans are compiled into the
// serving hot path (see obs/trace.h), so it measures the cost of one
// *disabled* span and fails (exit 1) if the ~2 spans per applied event
// would cost >= 1% of the measured per-event serving time. `--trace PATH`
// additionally runs one traced (untimed) pass and exports it as Chrome
// trace-event JSON.
//
//   perf_serve [--hosts N] [--steps N] [--trials N] [--repeats N]
//              [--out PATH] [--trace PATH]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "obs/chrome_trace.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "util/table.h"

namespace {

using Clock = std::chrono::steady_clock;
namespace serve = vmtherm::serve;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::size_t hosts = 512;  ///< fleet-scale default; batch = one step's scrape
  std::size_t steps = 200;
  std::size_t trials = 5;   ///< best-of trials per throughput number
  std::size_t repeats = 50;  ///< forecast_batch calls for the latency sample
  std::string out = "BENCH_serve.json";
  std::string trace;  ///< Chrome trace output path ("" = no traced pass)
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string name = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << name << "\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (name == "--hosts") {
      args.hosts = std::stoul(next());
    } else if (name == "--steps") {
      args.steps = std::stoul(next());
    } else if (name == "--trials") {
      args.trials = std::stoul(next());
    } else if (name == "--repeats") {
      args.repeats = std::stoul(next());
    } else if (name == "--out") {
      args.out = next();
    } else if (name == "--trace") {
      args.trace = next();
    } else {
      std::cerr << "usage: perf_serve [--hosts N] [--steps N] [--trials N] "
                   "[--repeats N] [--out PATH] [--trace PATH]\n";
      std::exit(name == "--help" ? 0 : 1);
    }
  }
  if (args.trials == 0 || args.repeats == 0) {
    std::cerr << "--trials and --repeats must be >= 1\n";
    std::exit(1);
  }
  return args;
}

vmtherm::mgmt::MonitoredConfig host_config(std::size_t index) {
  vmtherm::mgmt::MonitoredConfig config;
  config.server = vmtherm::sim::make_server_spec(
      index % 3 == 0 ? "small" : (index % 3 == 1 ? "medium" : "large"));
  config.fans = 4;
  vmtherm::sim::VmConfig vm;
  vm.vcpus = 2 + static_cast<int>(index % 4);
  vm.memory_gb = 4.0;
  vm.task = vmtherm::sim::TaskType::kWebServer;
  config.vms.assign(1 + index % 4, vm);
  config.env_temp_c = 23.0;
  return config;
}

/// Synthetic but deterministic measurement stream (the bench measures the
/// serving layer, not the simulator).
double measured_c(std::size_t step, std::size_t host) {
  return 30.0 + 0.02 * static_cast<double>(step) +
         0.1 * static_cast<double>(host % 13);
}

std::string host_name(std::size_t index) {
  return "host-" + std::to_string(index);
}

struct EngineResult {
  std::size_t shards = 0;
  double ingest_events_per_sec = 0.0;    ///< producer-visible enqueue rate
  double apply_events_per_sec = 0.0;     ///< flush (drain + apply) rate
  double end_to_end_events_per_sec = 0.0;
  double forecast_p50_us = 0.0;
  double forecast_p99_us = 0.0;
  std::uint64_t psi_cache_hits = 0;    ///< ψ_stable memoization traffic
  std::uint64_t psi_cache_misses = 0;  ///< (final trial's engine)
  double fleet_rolling_mse = 0.0;  ///< accuracy_report() over the final trial
  double fleet_rolling_mae = 0.0;  ///< (identical at every shard count)
};

double latency_quantile(std::vector<double> sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  std::sort(sorted_us.begin(), sorted_us.end());
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(index, sorted_us.size() - 1)];
}

/// Pre-builds the per-step batches one trial moves into the engine — a real
/// producer builds its batch once and hands it over, so only the hand-over
/// (routing + enqueue) is engine-attributable ingest cost.
std::vector<std::vector<serve::TelemetryEvent>> build_batches(
    const Args& args, const std::vector<serve::HostHandle>& handles) {
  std::vector<std::vector<serve::TelemetryEvent>> batches(args.steps);
  for (std::size_t step = 0; step < args.steps; ++step) {
    batches[step].reserve(args.hosts);
    for (std::size_t h = 0; h < args.hosts; ++h) {
      batches[step].push_back(serve::TelemetryEvent::observe(
          handles[h], 5.0 * static_cast<double>(step + 1),
          measured_c(step, h)));
    }
  }
  return batches;
}

EngineResult bench_engine(const vmtherm::core::StableTemperaturePredictor& predictor,
                          const Args& args, std::size_t shards) {
  serve::FleetEngineOptions options;
  options.shards = shards;
  options.drain = serve::DrainMode::kManual;
  options.backpressure = serve::BackpressurePolicy::kDropNewest;
  options.queue_capacity = args.hosts * args.steps + 1;  // lossless here
  const double total_events =
      static_cast<double>(args.hosts) * static_cast<double>(args.steps);

  double best_ingest_s = 0.0;
  double best_apply_s = 0.0;
  std::uint64_t result_hits = 0;
  std::uint64_t result_misses = 0;
  double result_mse = 0.0;
  double result_mae = 0.0;
  std::vector<double> latencies_us;
  latencies_us.reserve(args.repeats);

  // Best-of trials, each on a fresh engine (re-ingesting into a stateful
  // engine would send time backwards and bench the error path instead).
  for (std::size_t trial = 0; trial < args.trials; ++trial) {
    serve::FleetEngine engine(predictor, options);
    std::vector<serve::HostHandle> handles;
    handles.reserve(args.hosts);
    for (std::size_t h = 0; h < args.hosts; ++h) {
      handles.push_back(
          engine.register_host(host_name(h), host_config(h), 0.0, 25.0));
    }
    auto batches = build_batches(args, handles);

    const auto ingest_start = Clock::now();
    for (auto& batch : batches) engine.ingest_batch(std::move(batch));
    const double ingest_s = seconds_since(ingest_start);

    const auto apply_start = Clock::now();
    engine.flush();
    const double apply_s = seconds_since(apply_start);

    if (trial == 0 || ingest_s < best_ingest_s) best_ingest_s = ingest_s;
    if (trial == 0 || apply_s < best_apply_s) best_apply_s = apply_s;

    if (trial + 1 == args.trials) {
      constexpr auto kTiming = vmtherm::obs::MetricKind::kTiming;
      result_hits = engine.metrics().counter("psi_cache.hits", kTiming).value();
      result_misses =
          engine.metrics().counter("psi_cache.misses", kTiming).value();
      std::vector<serve::ForecastRequest> requests;
      requests.reserve(args.hosts);
      for (const serve::HostHandle h : handles) {
        requests.push_back(serve::ForecastRequest{h, 60.0});
      }
      for (std::size_t r = 0; r < args.repeats; ++r) {
        const auto start = Clock::now();
        const auto forecasts = engine.forecast_batch(requests);
        latencies_us.push_back(seconds_since(start) * 1e6);
        if (forecasts.empty()) std::abort();  // keep the call observable
      }
      const auto accuracy = engine.accuracy_report();
      result_mse = accuracy.rolling_mse;
      result_mae = accuracy.rolling_mae;
    }
  }

  EngineResult result;
  result.shards = shards;
  result.ingest_events_per_sec = total_events / best_ingest_s;
  result.apply_events_per_sec = total_events / best_apply_s;
  result.end_to_end_events_per_sec =
      total_events / (best_ingest_s + best_apply_s);
  result.forecast_p50_us = latency_quantile(latencies_us, 0.5);
  result.forecast_p99_us = latency_quantile(latencies_us, 0.99);
  result.psi_cache_hits = result_hits;
  result.psi_cache_misses = result_misses;
  result.fleet_rolling_mse = result_mse;
  result.fleet_rolling_mae = result_mae;
  return result;
}

struct OverheadResult {
  double disabled_span_ns = 0.0;   ///< marginal cost of one disabled Span
  double per_event_ns = 0.0;       ///< fastest end-to-end serving cost
  double overhead_percent = 0.0;   ///< 1 span/event vs per_event_ns
};

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
    vmtherm::obs::Span span("bench.disabled", "bench");
    acc = acc * up + 1e-9;
    acc = acc * down - 1e-9;
    acc = acc * up + 1e-9;
    acc = acc * down - 1e-9;
  }
  return acc;
}

/// The serving hot path constructs one span per applied observation
/// (serve.observe; drain-chunk and ingest-batch spans amortize over 256+
/// events). With the recorder disabled a span is one inline relaxed
/// atomic load plus a predicted branch — independent of the surrounding
/// computation, so on the real path it executes in the shadow of the
/// serving work's dependency chains. Measuring it back-to-back in an
/// empty loop would overstate that marginal cost several-fold; instead
/// this times a representative dependent-arithmetic payload with and
/// without an embedded span and takes the delta.
OverheadResult measure_disabled_span_overhead(double events_per_sec) {
  vmtherm::obs::TraceRecorder& recorder = vmtherm::obs::global_trace();
  recorder.set_enabled(false);
  constexpr std::size_t kIterations = 2000000;
  volatile double sink = 0.0;
  double best_plain_s = 0.0;
  double best_span_s = 0.0;
  // Best-of-5 each: min() filters scheduler noise from both loops
  // independently, so one quiet pass per variant suffices.
  for (int trial = 0; trial < 5; ++trial) {
    auto start = Clock::now();
    sink = overhead_payload(kIterations);
    const double plain_s = seconds_since(start);
    if (trial == 0 || plain_s < best_plain_s) best_plain_s = plain_s;

    start = Clock::now();
    sink = overhead_payload_with_span(kIterations);
    const double span_s = seconds_since(start);
    if (trial == 0 || span_s < best_span_s) best_span_s = span_s;
  }
  (void)sink;
  OverheadResult result;
  result.disabled_span_ns = std::max(0.0, best_span_s - best_plain_s) * 1e9 /
                            static_cast<double>(kIterations);
  result.per_event_ns = 1e9 / events_per_sec;
  result.overhead_percent =
      100.0 * result.disabled_span_ns / result.per_event_ns;
  return result;
}

/// One untimed pass with the span recorder on, exported as Chrome
/// trace-event JSON (load at chrome://tracing or ui.perfetto.dev).
int write_traced_pass(
    const vmtherm::core::StableTemperaturePredictor& predictor,
    const Args& args) {
  Args traced_args = args;
  traced_args.trials = 1;
  traced_args.repeats = 1;
  vmtherm::obs::TraceRecorder& recorder = vmtherm::obs::global_trace();
  recorder.clear();
  recorder.set_enabled(true);
  (void)bench_engine(predictor, traced_args, 4);
  recorder.set_enabled(false);

  std::ofstream file(args.trace, std::ios::binary | std::ios::trunc);
  if (!file) {
    std::cerr << "cannot create " << args.trace << "\n";
    return 1;
  }
  vmtherm::obs::write_chrome_trace(recorder, file);
  std::cout << "trace (" << recorder.event_count() << " events, "
            << recorder.dropped() << " dropped) written to " << args.trace
            << "\n";
  recorder.clear();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  std::cout << "# perf_serve: fleet ingestion throughput and forecast latency\n"
            << "# hosts=" << args.hosts << " steps=" << args.steps << "\n";

  vmtherm::sim::ScenarioRanges ranges;
  ranges.duration_s = 900.0;
  ranges.sample_interval_s = 10.0;
  vmtherm::core::StableTrainOptions train_options;
  vmtherm::ml::SvrParams params;
  params.kernel.gamma = 1.0 / 32;
  params.c = 512.0;
  params.epsilon = 0.05;
  train_options.fixed_params = params;
  const auto predictor = vmtherm::core::StableTemperaturePredictor::train(
      vmtherm::core::generate_corpus(ranges, 60, 7), train_options);

  std::vector<EngineResult> results;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    results.push_back(bench_engine(predictor, args, shards));
  }

  vmtherm::Table table({"configuration", "ingest_ev_s", "apply_ev_s",
                        "fc_p50_us", "fc_p99_us", "psi_hit", "psi_miss"});
  for (const EngineResult& r : results) {
    table.add_row({"engine x" + std::to_string(r.shards),
                   vmtherm::Table::num(r.ingest_events_per_sec, 0),
                   vmtherm::Table::num(r.apply_events_per_sec, 0),
                   vmtherm::Table::num(r.forecast_p50_us, 1),
                   vmtherm::Table::num(r.forecast_p99_us, 1),
                   vmtherm::Table::num(
                       static_cast<long long>(r.psi_cache_hits)),
                   vmtherm::Table::num(
                       static_cast<long long>(r.psi_cache_misses))});
  }
  table.print(std::cout);

  double best_end_to_end = 0.0;
  for (const EngineResult& r : results) {
    best_end_to_end = std::max(best_end_to_end, r.end_to_end_events_per_sec);
  }
  const OverheadResult overhead =
      measure_disabled_span_overhead(best_end_to_end);
  std::cout << "fleet rolling mse/mae (any shard count): "
            << results.front().fleet_rolling_mse << " / "
            << results.front().fleet_rolling_mae << "\n"
            << "disabled-span cost: " << overhead.disabled_span_ns
            << " ns/span; 1 span over " << overhead.per_event_ns
            << " ns/event = " << overhead.overhead_percent
            << "% overhead\n";

  std::ofstream json(args.out);
  if (!json) {
    std::cerr << "cannot create " << args.out << "\n";
    return 1;
  }
  json.precision(17);
  json << "{\"hosts\":" << args.hosts << ",\"steps\":" << args.steps
       << ",\"events\":" << args.hosts * args.steps
       << ",\"engine\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const EngineResult& r = results[i];
    if (i > 0) json << ",";
    json << "{\"shards\":" << r.shards
         << ",\"ingest_events_per_sec\":" << r.ingest_events_per_sec
         << ",\"apply_events_per_sec\":" << r.apply_events_per_sec
         << ",\"end_to_end_events_per_sec\":" << r.end_to_end_events_per_sec
         << ",\"forecast_p50_us\":" << r.forecast_p50_us
         << ",\"forecast_p99_us\":" << r.forecast_p99_us
         << ",\"psi_cache_hits\":" << r.psi_cache_hits
         << ",\"psi_cache_misses\":" << r.psi_cache_misses
         << ",\"fleet_rolling_mse\":" << r.fleet_rolling_mse
         << ",\"fleet_rolling_mae\":" << r.fleet_rolling_mae << "}";
  }
  json << "],\"trace_overhead\":{\"disabled_span_ns\":"
       << overhead.disabled_span_ns
       << ",\"per_event_ns\":" << overhead.per_event_ns
       << ",\"overhead_percent\":" << overhead.overhead_percent << "}}\n";
  std::cout << "wrote " << args.out << "\n";

  if (!args.trace.empty()) {
    const int rc = write_traced_pass(predictor, args);
    if (rc != 0) return rc;
  }

  // The zero-cost-when-disabled contract, enforced: tracing compiled into
  // the hot path must stay under 1% of the serving budget.
  if (overhead.overhead_percent >= 1.0) {
    std::cerr << "FAIL: disabled-tracer overhead "
              << overhead.overhead_percent << "% >= 1% of per-event cost\n";
    return 1;
  }
  return 0;
}
