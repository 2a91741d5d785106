#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/evaluator.h"
#include "ml/cv.h"
#include "obs/chrome_trace.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "util/hash.h"

namespace perfbench {

namespace {

namespace core = vmtherm::core;
namespace mgmt = vmtherm::mgmt;
namespace ml = vmtherm::ml;
namespace obs = vmtherm::obs;
namespace serve = vmtherm::serve;
namespace sim = vmtherm::sim;
namespace util = vmtherm::util;

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ constants --

constexpr double kSampleIntervalS = 5.0;   ///< scrape period of the fleets
constexpr std::size_t kConditions = 12;    ///< initial running conditions
constexpr std::size_t kBatchEvents = 4096; ///< events per ingest_batch call
constexpr std::size_t kBlockEvents = 1 << 18;  ///< events built per block
constexpr std::size_t kTrainRecords = 400; ///< paper-scale corpus
constexpr std::size_t kFig1aCases = 20;
constexpr double kGapS = 60.0;             ///< forecast gap Δ_gap
constexpr double kHorizonS = 60.0;         ///< hotspot-scan horizon
constexpr double kThresholdC = 75.0;       ///< hotspot threshold
constexpr std::size_t kCheckpointSamples = 5;
constexpr std::size_t kCheckpointMarks = 4;
constexpr std::size_t kSnapshotReserveBytesPerHost = 2048;
/// In-phase checkpoints stop once the saves took this long.
constexpr double kCheckpointBudgetS = 1.5;
constexpr std::size_t kContinueTicks = 3;  ///< ticks run on a restored engine
/// A closed-loop tick ingests whole scrape rounds until it holds at least
/// this many events, then waits for flush(): 1 round of steady, 16 of a
/// 4,096-host fleet. A tick long enough to keep the drain threads busy is
/// what makes the closed loops repeatable on a shared machine.
constexpr std::size_t kTickEvents = 1 << 16;
constexpr std::size_t kDeployTicks = 104;  ///< train: ticks after redeploy
constexpr std::size_t kPsiProbeConfigs = 2048;
/// A traced window stays below the recorder's 65,536 spans per thread
/// even if one drain thread applies every event of the window.
constexpr std::size_t kWindowEvents = 14 * kBatchEvents;
constexpr std::size_t kMaxTracedWindows = 64;
/// Every workload trains on the EXPERIMENTS.md Fig. 1(a) corpus (seed 42,
/// 400 records) and train scores on its 20 test cases (seed 777), so the
/// train output check can compare with the committed reproduction and the
/// training cost does not vary with the run seed. The run seed drives the
/// fleets: running conditions, trace phases, config draws, replacements.
constexpr std::uint64_t kCorpusSeed = 42;
constexpr std::uint64_t kFig1aTestSeed = 777;
constexpr double kReferenceCvMse = 1.89;
constexpr double kReferenceFig1aMse = 1.73;
/// EXPERIMENTS.md prints both MSEs with two decimals.
constexpr double kReferenceTolerance = 0.01;

/// The paper's evaluation space at its testbed scale; the same settings as
/// the figure benches' standard_ranges() (2-12 VMs, vCPU {1,2,4,8},
/// memory {2,4,8,16} GB, 1-6 fans, 18-30 C, 1800 s sampled every 5 s).
sim::ScenarioRanges paper_ranges() {
  sim::ScenarioRanges ranges;
  ranges.duration_s = 1800.0;
  ranges.sample_interval_s = kSampleIntervalS;
  return ranges;
}

/// Hyper-parameters the default grid picks on the reference corpus
/// (EXPERIMENTS.md Fig. 1(a)); the serving fleets train with them directly.
ml::SvrParams serving_params() {
  ml::SvrParams params;
  params.kernel.kind = ml::KernelKind::kRbf;
  params.kernel.gamma = 1.0 / 32.0;
  params.c = 2048.0;
  params.epsilon = 0.2;
  return params;
}

mgmt::MonitoredConfig monitored(const sim::ExperimentConfig& config) {
  mgmt::MonitoredConfig out;
  out.server = config.server;
  out.fans = config.active_fans;
  out.vms = config.vms;
  out.env_temp_c = config.environment.base_c;
  return out;
}

// ----------------------------------------------------------- memory -----

double rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  double size = 0.0;
  double resident = 0.0;
  statm >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------ measurements -----

/// Timing samples keyed by per-layer metric name, plus span durations
/// harvested from the recorder, keyed by span name (nanoseconds).
struct Samples {
  std::map<std::string, std::vector<double>> timed;
  std::map<std::string, std::vector<double>> spans_ns;
  std::uint64_t spans_dropped = 0;
  std::size_t traced_windows = 0;
  /// Wall time of traced serving windows (base of serve.drain_busy_share).
  double traced_serve_s = 0.0;
  bool trace_exported = false;
  std::string snapshot;  ///< in-memory checkpoint sink, reused
};

/// Times one public call into `sink` (seconds x `scale`) and, while the
/// global recorder is on, records a "bench.*" span around it.
class Timed {
 public:
  Timed(const char* span_name, std::vector<double>& sink, double scale)
      : span_(obs::global_trace(), span_name, "bench"),
        sink_(sink),
        scale_(scale),
        start_(Clock::now()) {}
  ~Timed() { sink_.push_back(seconds_between(start_, Clock::now()) * scale_); }

  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  obs::Span span_;
  std::vector<double>& sink_;
  double scale_;
  Clock::time_point start_;
};

constexpr double kToUs = 1e6;
constexpr double kToMs = 1e3;
constexpr double kToS = 1.0;

/// Traced windows: the recorder is switched on around a bounded piece of
/// work, then drained into Samples and cleared, so no per-thread buffer
/// overflows. The first window (with any set-up spans recorded before it)
/// is exported as the run's Chrome trace.
class Tracer {
 public:
  Tracer(bool enabled, std::string path, Samples& samples)
      : enabled_(enabled), path_(std::move(path)), samples_(samples) {}

  bool window_available() const {
    return enabled_ && samples_.traced_windows < kMaxTracedWindows;
  }

  void begin() {
    if (!enabled_) return;
    obs::global_trace().set_enabled(true);
  }

  /// Call with the engine quiesced (flushed): harvests and clears.
  void end() {
    if (!enabled_ || !obs::global_trace().enabled()) return;
    obs::TraceRecorder& recorder = obs::global_trace();
    recorder.set_enabled(false);
    if (!samples_.trace_exported && !path_.empty()) {
      std::ofstream out(path_);
      if (!out) throw std::runtime_error("cannot write trace file " + path_);
      obs::write_chrome_trace(recorder, out);
      samples_.trace_exported = true;
    }
    for (std::size_t b = 0; b < recorder.thread_buffer_count(); ++b) {
      const obs::ThreadBuffer& buffer = recorder.thread_buffer(b);
      const std::size_t n = buffer.published();
      for (std::size_t i = 0; i < n; ++i) {
        const obs::TraceEvent& event = buffer.event(i);
        samples_.spans_ns[event.name].push_back(
            static_cast<double>(event.dur_ns));
      }
    }
    samples_.spans_dropped += recorder.dropped();
    ++samples_.traced_windows;
    recorder.clear();
  }

 private:
  bool enabled_;
  std::string path_;
  Samples& samples_;
};

// ------------------------------------------------------------- inputs ----

/// Fleet size and event mix of one serving workload.
struct FleetShape {
  std::size_t hosts = 0;
  /// 1 event in `config_every` is an update_config to a freshly drawn
  /// running condition (0 = observe-only).
  std::size_t config_every = 0;
  /// Hosts replaced (unregister + register) per scrape round; a tick does
  /// all of its rounds' replacements first, right after the last flush.
  std::size_t replacements_per_round = 0;
};

/// One tick, fully built before the engine sees it: host replacements,
/// then the batches of one or more consecutive scrape rounds.
struct Tick {
  struct Replacement {
    serve::HostHandle old_handle = serve::kInvalidHostHandle;
    serve::HostHandle new_handle = serve::kInvalidHostHandle;  ///< expected
    std::string new_id;
    mgmt::MonitoredConfig config;
    double t0 = 0.0;
    double measured_c = 0.0;
  };
  std::vector<Replacement> replacements;
  std::vector<std::vector<serve::TelemetryEvent>> batches;
  std::size_t events = 0;
};

/// Deterministic event stream of a fleet: host h runs initial condition
/// cond[h] and reports the simulated sensor trace of that condition from a
/// seeded phase offset; scrape round r is stamped 5 (r + 1) s. Copies
/// continue the identical stream, which is how the reference passes
/// replay it (with the same sequence of next_tick calls).
class StreamGenerator {
 public:
  struct Registration {
    std::string id;
    mgmt::MonitoredConfig config;
    double t0 = 0.0;
    double measured_c = 0.0;
  };

  StreamGenerator(const FleetShape& shape, std::uint64_t seed)
      : shape_(shape),
        rng_(seed ^ 0x5eedf1ee7ULL),
        configs_(paper_ranges(), seed ^ 0xc0ff1605ULL) {
    sim::ScenarioSampler sampler(paper_ranges(), seed);
    for (const sim::ExperimentConfig& config : sampler.sample(kConditions)) {
      const sim::TemperatureTrace trace = sim::run_experiment(config).trace;
      std::vector<double> temps;
      temps.reserve(trace.size());
      for (std::size_t i = 0; i < trace.size(); ++i) {
        temps.push_back(trace[i].cpu_temp_sensed_c);
      }
      conditions_.push_back(monitored(config));
      temps_.push_back(std::move(temps));
    }
    cond_.resize(shape.hosts);
    offset_.resize(shape.hosts);
    handle_.resize(shape.hosts);
    generation_.assign(shape.hosts, 0);
    for (std::size_t h = 0; h < shape.hosts; ++h) {
      cond_[h] = static_cast<std::uint32_t>(rng_.next_u64() % kConditions);
      offset_[h] = static_cast<std::uint32_t>(
          rng_.next_u64() % temps_[cond_[h]].size());
      handle_[h] = static_cast<serve::HostHandle>(h);  // registration order
    }
    next_handle_ = static_cast<serve::HostHandle>(shape.hosts);
    config_phase_ = shape.config_every == 0 ? 0 : seed % shape.config_every;
  }

  std::size_t ticks_generated() const { return ticks_; }

  std::string host_id(std::size_t h) const {
    std::string id = "h";
    id += std::to_string(h);
    if (generation_[h] > 0) {
      id += 'g';
      id += std::to_string(generation_[h]);
    }
    return id;
  }

  /// The initial fleet; registering it in order yields handles 0..n-1.
  std::vector<Registration> registrations() const {
    std::vector<Registration> out;
    out.reserve(shape_.hosts);
    for (std::size_t h = 0; h < shape_.hosts; ++h) {
      out.push_back(Registration{host_id(h), conditions_[cond_[h]], 0.0,
                                 temperature(h, 0)});
    }
    return out;
  }

  /// Forecast requests for every live host.
  std::vector<serve::ForecastRequest> forecast_requests() const {
    std::vector<serve::ForecastRequest> out;
    out.reserve(shape_.hosts);
    for (const serve::HostHandle handle : handle_) {
      out.push_back(serve::ForecastRequest{handle, kGapS});
    }
    return out;
  }

  /// Re-resolves handles after the fleet moved to another engine.
  void rebind(const serve::FleetEngine& engine) {
    for (std::size_t h = 0; h < shape_.hosts; ++h) {
      handle_[h] = engine.handle_of(host_id(h));
    }
    next_handle_ = static_cast<serve::HostHandle>(shape_.hosts);
  }

  /// The next `rounds` scrape rounds as one tick.
  void next_tick(std::size_t rounds, Tick& out) {
    ++ticks_;
    const std::size_t first = round_;
    const double first_time_s = kSampleIntervalS * static_cast<double>(first + 1);
    out.replacements.clear();
    for (std::size_t i = 0; i < shape_.replacements_per_round * rounds; ++i) {
      const std::size_t h = rng_.next_u64() % shape_.hosts;
      Tick::Replacement rep;
      rep.old_handle = handle_[h];
      ++generation_[h];
      rep.new_id = host_id(h);
      rep.config = monitored(configs_.next());
      rep.t0 = first_time_s - 0.5 * kSampleIntervalS;
      rep.measured_c = temperature(h, first);
      rep.new_handle = next_handle_++;
      handle_[h] = rep.new_handle;
      out.replacements.push_back(std::move(rep));
    }
    out.batches.clear();
    out.events = 0;
    for (std::size_t k = 0; k < rounds; ++k) {
      const std::size_t r = round_++;
      const double time_s = kSampleIntervalS * static_cast<double>(r + 1);
      for (std::size_t begin = 0; begin < shape_.hosts;
           begin += kBatchEvents) {
        const std::size_t end = std::min(shape_.hosts, begin + kBatchEvents);
        std::vector<serve::TelemetryEvent> batch;
        batch.reserve(end - begin);
        for (std::size_t h = begin; h < end; ++h) {
          const double measured = temperature(h, r + 1);
          if (shape_.config_every != 0 &&
              (h + r) % shape_.config_every == config_phase_) {
            batch.push_back(serve::TelemetryEvent::update_config(
                handle_[h], time_s, measured, monitored(configs_.next())));
          } else {
            batch.push_back(
                serve::TelemetryEvent::observe(handle_[h], time_s, measured));
          }
        }
        out.batches.push_back(std::move(batch));
      }
      out.events += shape_.hosts;
    }
  }

  /// Running conditions drawn exactly like churn's config events.
  std::vector<mgmt::MonitoredConfig> sample_conditions(std::size_t n) {
    std::vector<mgmt::MonitoredConfig> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(monitored(configs_.next()));
    return out;
  }

 private:
  double temperature(std::size_t h, std::size_t step) const {
    const std::vector<double>& temps = temps_[cond_[h]];
    return temps[(offset_[h] + step) % temps.size()];
  }

  FleetShape shape_;
  vmtherm::Rng rng_;
  sim::ScenarioSampler configs_;
  std::vector<mgmt::MonitoredConfig> conditions_;
  std::vector<std::vector<double>> temps_;
  std::vector<std::uint32_t> cond_;
  std::vector<std::uint32_t> offset_;
  std::vector<serve::HostHandle> handle_;
  std::vector<std::uint32_t> generation_;
  serve::HostHandle next_handle_ = 0;
  std::size_t round_ = 0;
  std::size_t ticks_ = 0;
  std::size_t config_phase_ = 0;
};

// ------------------------------------------------------------ engines ----

serve::FleetEngineOptions timed_options(std::size_t nproc) {
  serve::FleetEngineOptions options;
  const std::size_t pool = std::max<std::size_t>(1, nproc - 1);
  options.shards = pool;
  options.threads = pool;
  options.drain = serve::DrainMode::kAuto;
  options.backpressure = serve::BackpressurePolicy::kBlock;
  return options;
}

/// Untimed reference: one shard, drained on the calling thread, a queue
/// large enough that nothing is dropped.
serve::FleetEngineOptions reference_options() {
  serve::FleetEngineOptions options;
  options.shards = 1;
  options.threads = 1;
  options.drain = serve::DrainMode::kManual;
  options.backpressure = serve::BackpressurePolicy::kDropNewest;
  options.queue_capacity = std::size_t{1} << 40;
  return options;
}

std::uint64_t fold_forecasts(std::uint64_t digest,
                             const std::vector<double>& forecasts) {
  for (const double f : forecasts) {
    digest = util::fnv1a64_mix(digest, std::bit_cast<std::uint64_t>(f));
  }
  return digest;
}

std::uint64_t fold_risks(std::uint64_t digest,
                         const std::vector<mgmt::HotspotRisk>& risks) {
  for (const mgmt::HotspotRisk& risk : risks) {
    digest = util::fnv1a64_mix(digest, util::fnv1a64(risk.host_id));
    digest = util::fnv1a64_mix(digest,
                               std::bit_cast<std::uint64_t>(risk.forecast_c));
    digest = util::fnv1a64_mix(digest, risk.at_risk ? 1 : 0);
  }
  return digest;
}

std::uint64_t counter(serve::FleetEngine& engine, const char* name,
                      obs::MetricKind kind = obs::MetricKind::kDeterministic) {
  return engine.metrics().counter(name, kind).value();
}

struct Fleet {
  std::unique_ptr<core::StableTemperaturePredictor> predictor;
  std::unique_ptr<serve::FleetEngine> engine;
  std::size_t support_vectors = 0;
  double rss_before_register = 0.0;
};

/// The serving set-up a user pays on every start: simulate the paper-scale
/// corpus, fit the SVR with fixed parameters, build the engine, register
/// the fleet. Returns with the fleet registered.
Fleet set_up_fleet(const StreamGenerator& gen,
                   const serve::FleetEngineOptions& options, Samples& samples,
                   Tracer& tracer, bool trace_this) {
  const auto start = Clock::now();
  if (trace_this) tracer.begin();
  std::vector<core::Record> corpus;
  {
    Timed t("bench.generate_corpus", samples.timed["sim.corpus_s"], kToS);
    corpus = core::generate_corpus(paper_ranges(), kTrainRecords, kCorpusSeed);
  }
  Fleet fleet;
  core::StableTrainReport report;
  {
    Timed t("bench.train_fixed", samples.timed["ml.final_fit_s"], kToS);
    core::StableTrainOptions train_options;
    train_options.fixed_params = serving_params();
    fleet.predictor = std::make_unique<core::StableTemperaturePredictor>(
        core::StableTemperaturePredictor::train(corpus, train_options,
                                                &report));
  }
  samples.timed["fixed_train_s"].push_back(
      seconds_between(start, Clock::now()));
  // Registration stays untraced: at fleet scale its per-host featurize
  // spans would overflow the recorder. It is timed per call instead.
  if (trace_this) obs::global_trace().set_enabled(false);
  fleet.support_vectors = report.final_fit.support_vector_count;
  fleet.engine = std::make_unique<serve::FleetEngine>(*fleet.predictor, options);
  fleet.rss_before_register = rss_bytes();
  std::vector<double>& register_us = samples.timed["serve.register_us"];
  for (StreamGenerator::Registration& reg : gen.registrations()) {
    const auto t0 = Clock::now();
    fleet.engine->register_host(reg.id, std::move(reg.config), reg.t0,
                                reg.measured_c);
    register_us.push_back(seconds_between(t0, Clock::now()) * kToUs);
  }
  samples.timed["setup_s"].push_back(seconds_between(start, Clock::now()));
  return fleet;
}

/// One more set-up sample whose fleet is dropped at once. setup_s is the
/// median of three set-ups spread over the run: the kept one first, then
/// one after the timed phase and one after the reference pass, each with
/// no other fleet alive. One slow stretch of a shared machine then does not
/// decide it.
void set_up_again(const StreamGenerator& gen,
                  const serve::FleetEngineOptions& options, Samples& samples,
                  Tracer& tracer) {
  Fleet discarded = set_up_fleet(gen, options, samples, tracer, false);
}

/// Per-tick counters of the timed engine.
struct Tally {
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;
  std::uint64_t rejected = 0;  ///< events of batches ingest_batch refused
  /// Events per second of each tick: a closed-loop tick's events over the
  /// time from its first call to the return of its final flush; an ops
  /// tick's scrape over the tick's work (ingest through hotspot_scan).
  std::vector<double> tick_rate;
  /// Traced vs untraced windows of the traced run (events/s or ms).
  std::vector<double> traced_rate;
  std::vector<double> untraced_rate;
};

/// One timed ingest_batch call. A refused batch (invalid handle) counts
/// its events as rejected; the run continues.
void ingest_timed(serve::FleetEngine& engine,
                  std::vector<serve::TelemetryEvent>& batch, Samples& samples,
                  Tally& tally) {
  const std::size_t n = batch.size();
  const auto start = Clock::now();
  try {
    Timed t("bench.ingest_batch", samples.timed["serve.ingest_batch_us"],
            kToUs);
    engine.ingest_batch(std::move(batch));
  } catch (const vmtherm::Error&) {
    tally.rejected += n;
  }
  samples.timed["serve.ingest_ns_per_event"].push_back(
      seconds_between(start, Clock::now()) * 1e9 / static_cast<double>(n));
}

/// Applies one tick to the timed engine, timing every public call. With
/// `split` the tick is flushed after its first kWindowEvents events, and
/// that prefix is the (optionally traced) window whose rate is recorded.
void run_tick(serve::FleetEngine& engine, Tick& tick, Samples& samples,
              Tally& tally, Tracer& tracer, bool split, bool traced) {
  auto& s = samples.timed;
  const auto start = Clock::now();
  for (Tick::Replacement& rep : tick.replacements) {
    {
      Timed t("bench.unregister_host", s["serve.unregister_us"], kToUs);
      engine.unregister_host(rep.old_handle);
    }
    const serve::HostHandle handle = engine.register_host(
        rep.new_id, std::move(rep.config), rep.t0, rep.measured_c);
    if (handle != rep.new_handle) {
      throw std::runtime_error("register_host returned an unexpected handle");
    }
  }
  const std::size_t window_batches =
      split ? std::max<std::size_t>(1, kWindowEvents / kBatchEvents)
            : tick.batches.size();
  std::size_t window_events = 0;
  const auto window_start = Clock::now();
  if (traced) tracer.begin();
  for (std::size_t b = 0; b < tick.batches.size(); ++b) {
    const std::size_t n = tick.batches[b].size();
    ingest_timed(engine, tick.batches[b], samples, tally);
    if (b < window_batches) window_events += n;
    if (b + 1 == window_batches) {
      {
        Timed t("bench.flush", s["serve.flush_wait_ms"], kToMs);
        engine.flush();
      }
      const double window_s = seconds_between(window_start, Clock::now());
      if (traced) {
        tracer.end();
        samples.traced_serve_s += window_s;
      }
      const double rate = static_cast<double>(window_events) / window_s;
      (traced ? tally.traced_rate : tally.untraced_rate).push_back(rate);
    }
  }
  if (window_batches < tick.batches.size()) {
    Timed t("bench.flush", s["serve.flush_wait_ms"], kToMs);
    engine.flush();
  }
  const double elapsed = seconds_between(start, Clock::now());
  s["tick_ms"].push_back(elapsed * kToMs);
  tally.tick_rate.push_back(static_cast<double>(tick.events) / elapsed);
  tally.events += tick.events;
  ++tally.ticks;
}

/// The first scrape, untimed: it touches every host's state once. Returns
/// its tally and the RSS growth per host since just before registration.
struct WarmUp {
  Tally tally;
  double bytes_per_host = 0.0;
};

WarmUp warm_up(Fleet& fleet, StreamGenerator& gen, Samples& samples,
               Tracer& tracer) {
  WarmUp warm;
  Tick tick;
  gen.next_tick(1, tick);
  run_tick(*fleet.engine, tick, samples, warm.tally, tracer, false, false);
  warm.bytes_per_host = (rss_bytes() - fleet.rss_before_register) /
                        static_cast<double>(tick.events);
  for (const char* key :
       {"tick_ms", "serve.ingest_batch_us", "serve.ingest_ns_per_event",
        "serve.flush_wait_ms", "serve.unregister_us"}) {
    samples.timed[key].clear();
  }
  return warm;
}

/// The same tick on the reference engine: same calls, no timing.
void replay_tick(serve::FleetEngine& engine, Tick& tick) {
  for (Tick::Replacement& rep : tick.replacements) {
    engine.unregister_host(rep.old_handle);
    engine.register_host(rep.new_id, std::move(rep.config), rep.t0,
                         rep.measured_c);
  }
  for (std::vector<serve::TelemetryEvent>& batch : tick.batches) {
    engine.ingest_batch(std::move(batch));
  }
  engine.flush();
}

/// Final read of a fleet: every host's forecast and the hotspot scan,
/// folded into `digest`.
std::uint64_t final_read(serve::FleetEngine& engine,
                         const StreamGenerator& gen, std::uint64_t digest,
                         Samples* samples) {
  std::vector<double> forecasts;
  std::vector<mgmt::HotspotRisk> risks;
  const std::vector<serve::ForecastRequest> requests = gen.forecast_requests();
  if (samples != nullptr) {
    {
      Timed t("bench.forecast_batch",
              samples->timed["serve.forecast_batch_ms"], kToMs);
      forecasts = engine.forecast_batch(requests);
    }
    Timed t("bench.hotspot_scan", samples->timed["serve.hotspot_scan_ms"],
            kToMs);
    risks = engine.hotspot_scan(kHorizonS, kThresholdC);
  } else {
    forecasts = engine.forecast_batch(requests);
    risks = engine.hotspot_scan(kHorizonS, kThresholdC);
  }
  return fold_risks(fold_forecasts(digest, forecasts), risks);
}

/// What the output check compares.
struct Observed {
  std::uint64_t digest = 0;
  std::string metrics_json;
};

Observed observe_engine(serve::FleetEngine& engine, std::uint64_t digest) {
  return Observed{digest, engine.metrics().to_json(/*include_timing=*/false)};
}

void compare(const Observed& timed, const Observed& reference,
             const char* what, Outcome& outcome) {
  if (timed.digest != reference.digest) {
    outcome.mismatches.push_back(std::string(what) +
                                 ": forecast/scan digest differs from the "
                                 "1-shard manual-drain reference");
  }
  if (timed.metrics_json != reference.metrics_json) {
    outcome.mismatches.push_back(std::string(what) +
                                 ": deterministic metrics differ from the "
                                 "1-shard manual-drain reference");
  }
  outcome.notes.push_back(std::string("check ") + what + ": digest " +
                          std::to_string(timed.digest) +
                          (timed.digest == reference.digest &&
                                   timed.metrics_json ==
                                       reference.metrics_json
                               ? " == reference"
                               : " != reference"));
}

/// Snapshot of engine counters the report needs after the engine is gone.
struct EngineCounts {
  std::uint64_t observe = 0;
  std::uint64_t config = 0;
  std::uint64_t errors = 0;
  std::uint64_t dropped = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::int64_t high_water = 0;
};

EngineCounts engine_counts(serve::FleetEngine& engine) {
  EngineCounts c;
  c.observe = counter(engine, "apply.observe");
  c.config = counter(engine, "apply.config_update");
  c.errors = counter(engine, "apply.errors");
  c.dropped = counter(engine, "ingest.dropped");
  c.hits = counter(engine, "psi_cache.hits", obs::MetricKind::kTiming);
  c.misses = counter(engine, "psi_cache.misses", obs::MetricKind::kTiming);
  c.high_water =
      engine.metrics().gauge("queue.high_water", obs::MetricKind::kTiming)
          .value();
  return c;
}

/// ψ_stable inference timed by the benchmark: predict_from_features on
/// running conditions drawn like churn's config events.
void probe_psi_predict(const core::StableTemperaturePredictor& predictor,
                       StreamGenerator gen, Samples& samples) {
  std::vector<std::vector<double>> features;
  for (const mgmt::MonitoredConfig& c :
       gen.sample_conditions(kPsiProbeConfigs)) {
    features.emplace_back();
    core::encode_features(
        core::make_record_inputs(c.server, c.vms, c.fans, c.env_temp_c),
        features.back());
  }
  std::vector<double> scaled;
  double sink = 0.0;
  std::vector<double>& out = samples.timed["ml.psi_predict_us"];
  for (const std::vector<double>& f : features) {
    Timed t("bench.predict_from_features", out, kToUs);
    sink += predictor.predict_from_features(f, scaled);
  }
  if (!std::isfinite(sink)) throw std::runtime_error("non-finite ψ_stable");
}

// --------------------------------------------------------- reporting -----

struct Report {
  Outcome& outcome;
  Samples& samples;

  void end_to_end(const char* name, const char* unit, double value) {
    outcome.end_to_end.push_back(Metric{name, unit, value, Summary{1, value}});
  }
  void end_to_end_timed(const char* name, const char* unit,
                        const std::string& key) {
    const Summary s = summarize(samples.timed[key]);
    outcome.end_to_end.push_back(Metric{name, unit, s.median, s});
  }
  void layer(const char* name, const char* unit, double value) {
    outcome.per_layer.push_back(Metric{name, unit, value, Summary{1, value}});
  }
  void layer_timed(const char* name, const char* unit) {
    const Summary s = summarize(samples.timed[name]);
    outcome.per_layer.push_back(Metric{name, unit, s.median, s});
  }
  /// Span durations (ns) converted to `unit` by `scale`.
  void layer_span(const char* name, const char* unit, const char* span,
                  double scale) {
    std::vector<double> v = samples.spans_ns[span];
    for (double& x : v) x *= scale;
    const Summary s = summarize(std::move(v));
    outcome.per_layer.push_back(Metric{name, unit, s.median, s});
  }
};

double median_of(std::vector<double> v) { return summarize(std::move(v)).median; }

/// Per-layer metrics shared by every workload.
void report_layers(Report& r, const EngineCounts& c, std::size_t svs,
                   std::size_t grid_points, std::size_t pool_threads,
                   const Tally& tally, bool ops) {
  Samples& s = r.samples;
  r.layer_timed("sim.corpus_s", "s");
  r.layer_span("ml.grid_search_s", "s", "ml.grid_search", 1e-9);
  r.layer_span("ml.grid_point_ms", "ms", "ml.grid_point", 1e-6);
  r.layer_span("ml.cv_fold_ms", "ms", "ml.cv_fold", 1e-6);
  r.layer("ml.grid_points", "count", static_cast<double>(grid_points));
  r.layer_timed("ml.final_fit_s", "s");
  r.layer("ml.support_vectors", "count", static_cast<double>(svs));
  r.layer_timed("ml.psi_predict_us", "us");
  r.layer("serve.psi_cache.hits", "count", static_cast<double>(c.hits));
  r.layer("serve.psi_cache.misses", "count", static_cast<double>(c.misses));
  const double lookups = static_cast<double>(c.hits + c.misses);
  r.layer("serve.psi_cache.hit_ratio", "ratio",
          lookups > 0 ? static_cast<double>(c.hits) / lookups : 0.0);
  r.layer_span("serve.featurize_us", "us", "serve.featurize", 1e-3);
  r.layer_span("serve.psi_predict_us", "us", "serve.psi_predict", 1e-3);
  r.layer_span("serve.update_config_us", "us", "serve.update_config", 1e-3);
  r.layer_span("serve.observe_ns", "ns", "serve.observe", 1.0);
  r.layer_timed("serve.ingest_batch_us", "us");
  r.layer_timed("serve.ingest_ns_per_event", "ns");
  r.layer_timed("serve.flush_wait_ms", "ms");
  r.layer_span("serve.drain_chunk_us", "us", "serve.drain_chunk", 1e-3);
  r.layer("serve.queue_high_water", "count",
          static_cast<double>(c.high_water));
  double drain_ns = 0.0;
  for (const double d : s.spans_ns["serve.drain_chunk"]) drain_ns += d;
  const double capacity_s =
      s.traced_serve_s * static_cast<double>(pool_threads);
  r.layer("serve.drain_busy_share", "ratio",
          capacity_s > 0 ? drain_ns * 1e-9 / capacity_s : 0.0);
  r.layer_timed("serve.register_us", "us");
  r.layer_timed("serve.unregister_us", "us");
  r.layer_timed("serve.forecast_batch_ms", "ms");
  r.layer_timed("serve.hotspot_scan_ms", "ms");
  r.layer_timed("serve.save_ms", "ms");
  r.layer_timed("serve.load_ms", "ms");
  r.layer("serve.snapshot_bytes", "bytes",
          median_of(s.timed["serve.snapshot_bytes"]));
  r.layer("serve.events_applied", "count",
          static_cast<double>(c.observe + c.config));
  r.layer("serve.config_applied", "count", static_cast<double>(c.config));
  r.layer("serve.apply_errors", "count", static_cast<double>(c.errors));
  r.layer("serve.dropped", "count", static_cast<double>(c.dropped));
  // Tracing overhead: traced vs untraced windows of this run (events/s on
  // closed loops; tick latency on ops, where lower is better).
  const double traced = median_of(tally.traced_rate);
  const double untraced = median_of(tally.untraced_rate);
  double overhead = 0.0;
  if (traced > 0 && untraced > 0) {
    overhead = ops ? (traced / untraced - 1.0) * 100.0
                   : (untraced / traced - 1.0) * 100.0;
  }
  r.layer("obs.trace_overhead_pct", "%", overhead);
  r.layer("obs.spans_dropped", "count",
          static_cast<double>(s.spans_dropped));
  if (s.spans_dropped > 0) {
    r.outcome.notes.push_back(
        "per-layer numbers INCOMPLETE: the recorder dropped " +
        std::to_string(s.spans_dropped) + " spans");
  }
}

void report_end_to_end(Report& r, const Tally& tally, double bytes_per_host,
                       const char* train_key) {
  r.end_to_end_timed("setup_s", "s", "setup_s");
  r.end_to_end("peak_rss_mb", "MB", peak_rss_mb());
  // Median over ticks: robust to the slow stretches of a shared machine,
  // which a total over the run is not.
  const Summary rate = summarize(tally.tick_rate);
  r.outcome.end_to_end.push_back(
      Metric{"events_per_s", "1/s", rate.median, rate});
  r.end_to_end("bytes_per_host", "B", bytes_per_host);
  r.end_to_end_timed("tick_p50_ms", "ms", "tick_ms");
  // Printed, not bounded: between runs on a shared machine these spread
  // wider than any allowed bound (see LAYERS.md).
  const Summary train = summarize(r.samples.timed[train_key]);
  r.outcome.unbounded.push_back(Metric{"train_s", "s", train.median, train});
  std::vector<double> ticks = r.samples.timed["tick_ms"];
  std::sort(ticks.begin(), ticks.end());
  const Summary tick = summarize(ticks);
  r.outcome.unbounded.push_back(Metric{
      "tick_p90_ms", "ms", ticks.empty() ? 0.0 : nearest_rank(ticks, 90.0),
      tick});
  const Summary save = summarize(r.samples.timed["serve.save_ms"]);
  r.outcome.unbounded.push_back(
      Metric{"checkpoint_ms", "ms", save.median, save});
}

/// save_fleet into memory, timed; returns the snapshot text. The sink
/// string keeps its capacity from save to save, so a save is not also
/// charged the first touch of a fresh multi-megabyte buffer. It is
/// reserved up front, well above the ~500 B a host takes: grown by
/// doubling, its peak footprint would jump by half whenever a seed's
/// snapshot crossed a power of two, and only the pages a save writes
/// become resident.
const std::string& checkpoint(serve::FleetEngine& engine, Samples& samples) {
  std::string& text = samples.snapshot;
  text.clear();
  text.reserve(kSnapshotReserveBytesPerHost * engine.host_count());
  std::ostringstream out(std::move(text));
  {
    Timed t("bench.save_fleet", samples.timed["serve.save_ms"], kToMs);
    serve::save_fleet(out, engine);
  }
  text = std::move(out).str();
  samples.timed["serve.snapshot_bytes"].push_back(
      static_cast<double>(text.size()));
  return text;
}

/// Spreads checkpoint samples over a timed phase: one save each time the
/// phase passes another 1/kCheckpointMarks of its length, until the saves
/// have taken kCheckpointBudgetS (the first always runs). Saves sit
/// between ticks, outside the tick timings and the phase clock.
class Checkpointer {
 public:
  void maybe_save(serve::FleetEngine& engine, Samples& samples,
                  double progress) {
    if (progress < next_) return;
    while (next_ <= progress) next_ += 1.0 / kCheckpointMarks;
    if (spent_s_ >= kCheckpointBudgetS) return;
    const auto start = Clock::now();
    checkpoint(engine, samples);
    spent_s_ += seconds_between(start, Clock::now());
  }

  /// Seconds spent saving; the phase clock excludes them.
  double spent_s() const { return spent_s_; }

 private:
  double next_ = 1.0 / kCheckpointMarks;
  double spent_s_ = 0.0;
};

/// Checkpoints until there are kCheckpointSamples saves in all.
void checkpoint_samples(serve::FleetEngine& engine, Samples& samples) {
  while (samples.timed["serve.save_ms"].size() < kCheckpointSamples) {
    checkpoint(engine, samples);
  }
}

// ---------------------------------------------------- serve workloads ----

/// steady / churn: closed-loop ticks for `seconds`.
Outcome run_closed_loop(const RunOptions& run, const FleetShape& shape) {
  Outcome outcome;
  Samples samples;
  Tracer tracer(run.trace, run.trace_path, samples);
  const serve::FleetEngineOptions options = timed_options(run.nproc);
  const StreamGenerator pristine(shape, run.seed);
  StreamGenerator gen = pristine;

  Fleet fleet = set_up_fleet(gen, options, samples, tracer, run.trace);
  serve::FleetEngine& engine = *fleet.engine;
  const WarmUp warm = warm_up(fleet, gen, samples, tracer);

  // Timed phase. The traced run alternates traced and untraced ticks and
  // flushes every tick after its first window in both.
  const std::size_t rounds_per_tick =
      std::max<std::size_t>(1, kTickEvents / shape.hosts);
  const bool split = run.trace && rounds_per_tick * shape.hosts > kWindowEvents;
  Tally tally;
  Checkpointer checkpointer;
  const auto phase_start = Clock::now();
  const auto progress = [&] {
    return (seconds_between(phase_start, Clock::now()) -
            checkpointer.spent_s()) /
           run.seconds;
  };
  // Ticks are built a block at a time so consecutive ticks run back to
  // back, without a generation pause between them.
  std::vector<Tick> built(std::max<std::size_t>(
      1, kBlockEvents / (rounds_per_tick * shape.hosts)));
  std::size_t index = 0;
  while (progress() < 1.0) {
    for (Tick& t : built) gen.next_tick(rounds_per_tick, t);
    for (Tick& t : built) {
      const bool traced =
          run.trace && index % 2 == 1 && tracer.window_available();
      run_tick(engine, t, samples, tally, tracer, split, traced);
      ++index;
    }
    checkpointer.maybe_save(engine, samples, progress());
  }

  // Output reads (untimed for events_per_s).
  const std::uint64_t digest =
      final_read(engine, gen, util::kFnv1a64Offset, &samples);
  const Observed timed = observe_engine(engine, digest);
  const EngineCounts counts = engine_counts(engine);
  if (run.trace) probe_psi_predict(*fleet.predictor, pristine, samples);
  const std::size_t ticks = gen.ticks_generated();
  const std::size_t support_vectors = fleet.support_vectors;
  const core::StableTemperaturePredictor predictor = *fleet.predictor;
  fleet = Fleet{};
  set_up_again(pristine, options, samples, tracer);

  // Reference: the same stream on one manually drained shard.
  {
    serve::FleetEngine reference(predictor, reference_options());
    StreamGenerator ref_gen = pristine;
    for (StreamGenerator::Registration& reg : ref_gen.registrations()) {
      reference.register_host(reg.id, std::move(reg.config), reg.t0,
                              reg.measured_c);
    }
    Tick tick;
    for (std::size_t i = 0; i < ticks; ++i) {
      ref_gen.next_tick(i == 0 ? 1 : rounds_per_tick, tick);  // 0: warm-up
      replay_tick(reference, tick);
    }
    compare(timed,
            observe_engine(reference, final_read(reference, ref_gen,
                                                 util::kFnv1a64Offset,
                                                 nullptr)),
            "serve stream", outcome);
  }
  set_up_again(pristine, options, samples, tracer);

  outcome.attempted = tally.events + warm.tally.events;
  outcome.failed = counts.dropped + counts.errors + tally.rejected +
                   warm.tally.rejected;
  outcome.attempted_base =
      "events ingested (" + std::to_string(ticks - 1) + " ticks of " +
      std::to_string(rounds_per_tick) + " x " + std::to_string(shape.hosts) +
      " hosts after a 1-scrape warm-up)";
  if (outcome.failed != 0) {
    outcome.mismatches.push_back("closed-loop workload reported " +
                                 std::to_string(outcome.failed) +
                                 " failed operations (must be 0)");
  }
  Report report{outcome, samples};
  report_end_to_end(report, tally, warm.bytes_per_host, "fixed_train_s");
  report_layers(report, counts, support_vectors, 0, options.threads, tally,
                false);
  return outcome;
}

/// One ops tick on the timed engine: ingest the scrape, flush, then read
/// the whole fleet (forecast_batch, hotspot_scan), folding every row read
/// into `digest`. The tick's latency runs from its first call to the
/// return of hotspot_scan.
void run_ops_tick(serve::FleetEngine& engine, Tick& tick,
                  const std::vector<serve::ForecastRequest>& requests,
                  Samples& samples, Tally& tally, Tracer& tracer, bool traced,
                  std::uint64_t& digest) {
  auto& s = samples.timed;
  std::vector<double> forecasts;
  std::vector<mgmt::HotspotRisk> risks;
  // Untraced ticks are compared with traced ones only while they alternate.
  const bool compared = tracer.window_available();
  if (traced) tracer.begin();
  const auto start = Clock::now();
  for (std::vector<serve::TelemetryEvent>& batch : tick.batches) {
    ingest_timed(engine, batch, samples, tally);
  }
  {
    Timed t("bench.flush", s["serve.flush_wait_ms"], kToMs);
    engine.flush();
  }
  {
    Timed t("bench.forecast_batch", s["serve.forecast_batch_ms"], kToMs);
    forecasts = engine.forecast_batch(requests);
  }
  {
    Timed t("bench.hotspot_scan", s["serve.hotspot_scan_ms"], kToMs);
    risks = engine.hotspot_scan(kHorizonS, kThresholdC);
  }
  const double elapsed = seconds_between(start, Clock::now());
  if (traced) {
    samples.traced_serve_s += elapsed;
    tracer.end();
  }
  // The scrape's events over the tick's work (ingest through scan).
  tally.tick_rate.push_back(static_cast<double>(tick.events) / elapsed);
  s["tick_ms"].push_back(elapsed * kToMs);
  if (compared) {
    (traced ? tally.traced_rate : tally.untraced_rate)
        .push_back(elapsed * kToMs);
  }
  digest = fold_risks(fold_forecasts(digest, forecasts), risks);
  tally.events += tick.events;
  ++tally.ticks;
}

/// ops: operator ticks back to back, each one scrape followed by reads of
/// the whole fleet. A tick is due when the previous one returns; idle gaps
/// between ticks would make its latency depend on how fast a shared
/// machine wakes idle threads and refills their caches.
Outcome run_ops(const RunOptions& run) {
  Outcome outcome;
  Samples samples;
  Tracer tracer(run.trace, run.trace_path, samples);
  const FleetShape shape{16384, 0, 0};
  const serve::FleetEngineOptions options = timed_options(run.nproc);
  const StreamGenerator pristine(shape, run.seed);
  StreamGenerator gen = pristine;

  Fleet fleet = set_up_fleet(gen, options, samples, tracer, run.trace);
  serve::FleetEngine& engine = *fleet.engine;
  const WarmUp warm = warm_up(fleet, gen, samples, tracer);
  Tick tick;

  auto& s = samples.timed;
  const std::vector<serve::ForecastRequest> requests = gen.forecast_requests();
  std::uint64_t digest = util::kFnv1a64Offset;
  Tally tally;
  Checkpointer checkpointer;
  const auto phase_start = Clock::now();
  const auto progress = [&] {
    return (seconds_between(phase_start, Clock::now()) -
            checkpointer.spent_s()) /
           run.seconds;
  };
  // Ticks are built a block at a time so consecutive ticks run back to
  // back, without a generation pause between them.
  std::vector<Tick> built(kBlockEvents / shape.hosts);
  std::size_t k = 0;
  while (progress() < 1.0) {
    for (Tick& t : built) gen.next_tick(1, t);
    for (Tick& t : built) {
      run_ops_tick(engine, t, requests, samples, tally, tracer,
                   run.trace && k % 2 == 1 && tracer.window_available(),
                   digest);
      ++k;
    }
    checkpointer.maybe_save(engine, samples, progress());
  }

  // More checkpoints for a median, then restore the last one and check
  // that the restored engine continues bitwise like the original.
  checkpoint_samples(engine, samples);
  const std::string& snapshot = checkpoint(engine, samples);
  std::unique_ptr<serve::FleetEngine> restored;
  {
    std::istringstream in(snapshot);
    Timed t("bench.load_fleet", s["serve.load_ms"], kToMs);
    restored = serve::load_fleet(in, options);
  }
  StreamGenerator restored_gen = gen;
  restored_gen.rebind(*restored);
  const std::vector<serve::ForecastRequest> restored_requests =
      restored_gen.forecast_requests();
  bool continued_bitwise = true;
  for (std::size_t c = 0; c < kContinueTicks; ++c) {
    Tick twin;
    gen.next_tick(1, tick);
    restored_gen.next_tick(1, twin);
    replay_tick(engine, tick);
    replay_tick(*restored, twin);
    const std::vector<double> a = engine.forecast_batch(requests);
    const std::vector<double> b = restored->forecast_batch(restored_requests);
    const std::vector<mgmt::HotspotRisk> ra =
        engine.hotspot_scan(kHorizonS, kThresholdC);
    const std::vector<mgmt::HotspotRisk> rb =
        restored->hotspot_scan(kHorizonS, kThresholdC);
    if (fold_risks(fold_forecasts(0, a), ra) !=
        fold_risks(fold_forecasts(0, b), rb)) {
      continued_bitwise = false;
    }
    digest = fold_risks(fold_forecasts(digest, a), ra);
  }
  restored.reset();
  if (!continued_bitwise) {
    outcome.mismatches.push_back(
        "engine restored by load_fleet did not continue bitwise");
  }
  outcome.notes.push_back(std::string("check load_fleet continuation: ") +
                          (continued_bitwise ? "bitwise" : "DIFFERS"));

  const Observed timed = observe_engine(engine, digest);
  const EngineCounts counts = engine_counts(engine);
  if (run.trace) probe_psi_predict(*fleet.predictor, pristine, samples);
  const std::size_t generated = gen.ticks_generated();
  const std::size_t support_vectors = fleet.support_vectors;
  const core::StableTemperaturePredictor predictor = *fleet.predictor;
  fleet = Fleet{};
  set_up_again(pristine, options, samples, tracer);

  {
    serve::FleetEngine reference(predictor, reference_options());
    StreamGenerator ref_gen = pristine;
    for (StreamGenerator::Registration& reg : ref_gen.registrations()) {
      reference.register_host(reg.id, std::move(reg.config), reg.t0,
                              reg.measured_c);
    }
    std::uint64_t ref_digest = util::kFnv1a64Offset;
    for (std::size_t i = 0; i < generated; ++i) {
      ref_gen.next_tick(1, tick);
      replay_tick(reference, tick);
      if (i == 0) continue;  // warm-up scrape: not read
      ref_digest = fold_risks(
          fold_forecasts(ref_digest, reference.forecast_batch(requests)),
          reference.hotspot_scan(kHorizonS, kThresholdC));
    }
    compare(timed, observe_engine(reference, ref_digest), "ops ticks",
            outcome);
  }
  set_up_again(pristine, options, samples, tracer);

  outcome.attempted = tally.events + warm.tally.events + tally.ticks;
  outcome.failed = counts.dropped + counts.errors + tally.rejected +
                   warm.tally.rejected;
  outcome.attempted_base =
      "events ingested + ticks (" + std::to_string(tally.ticks) +
      " ticks of " + std::to_string(shape.hosts) +
      " hosts); failed = dropped + apply errors + rejected";
  if (outcome.failed != 0) {
    outcome.mismatches.push_back("ops reported " +
                                 std::to_string(outcome.failed) +
                                 " failed operations (must be 0)");
  }
  Report report{outcome, samples};
  report_end_to_end(report, tally, warm.bytes_per_host, "fixed_train_s");
  report_layers(report, counts, support_vectors, 0, options.threads, tally,
                true);
  return outcome;
}

/// train: the paper's offline stage at paper scale (simulate the corpus,
/// 70-point RBF grid with 10-fold CV on every thread, final fit), then the
/// retrained model is redeployed onto a running 4,096-host fleet.
Outcome run_train(const RunOptions& run) {
  Outcome outcome;
  Samples samples;
  Tracer tracer(run.trace, run.trace_path, samples);
  const FleetShape shape{4096, 8, 0};
  const serve::FleetEngineOptions options = timed_options(run.nproc);
  const StreamGenerator pristine(shape, run.seed);
  StreamGenerator gen = pristine;

  // The fleet currently served with the fixed-parameter model.
  Fleet fleet = set_up_fleet(gen, options, samples, tracer, run.trace);
  const WarmUp warm = warm_up(fleet, gen, samples, tracer);

  // Timed retraining, repeated while the run lasts (at least once).
  std::vector<core::Record> corpus;
  std::unique_ptr<core::StableTemperaturePredictor> retrained;
  core::StableTrainReport report;
  core::StableTrainOptions train_options;
  train_options.grid.threads = 0;  // every hardware thread
  // Another training starts only if it should end within the run.
  const auto train_start = Clock::now();
  std::size_t iteration = 0;
  double last_s = 0.0;
  do {
    if (run.trace && iteration == 0) tracer.begin();
    const auto start = Clock::now();
    {
      Timed t("bench.generate_corpus", samples.timed["sim.corpus_s"], kToS);
      corpus =
          core::generate_corpus(paper_ranges(), kTrainRecords, kCorpusSeed);
    }
    {
      obs::Span span(obs::global_trace(), "bench.train_grid", "bench");
      retrained = std::make_unique<core::StableTemperaturePredictor>(
          core::StableTemperaturePredictor::train(corpus, train_options,
                                                  &report));
    }
    last_s = seconds_between(start, Clock::now());
    samples.timed["grid_train_s"].push_back(last_s);
    if (run.trace && iteration == 0) tracer.end();
    ++iteration;
  } while (seconds_between(train_start, Clock::now()) + last_s <= run.seconds);

  // Output checks (untimed): the chosen point's CV MSE recomputed through
  // ml::cross_validated_mse, and the Fig. 1(a) 20-case MSE.
  if (run.trace) tracer.begin();
  const ml::Dataset raw = core::records_to_dataset(corpus);
  const ml::Dataset scaled = ml::MinMaxScaler::fit(raw).transform(raw);
  vmtherm::Rng fold_rng(train_options.grid.seed);
  const ml::SvrParams chosen = report.chosen_params;
  util::ThreadPool check_pool(std::max<std::size_t>(1, run.nproc - 1));
  const double cv_mse = ml::cross_validated_mse(
      scaled, train_options.grid.folds, fold_rng,
      [&chosen](const ml::Dataset& train, const ml::Dataset& validation) {
        const ml::SvrModel model = ml::SvrModel::train(train, chosen);
        std::vector<double> out;
        for (const auto& sample : validation.samples()) {
          out.push_back(model.predict(sample.x));
        }
        return out;
      },
      &check_pool);
  if (run.trace) tracer.end();
  const double fig1a_mse =
      core::evaluate_stable(*retrained,
                            core::generate_corpus(paper_ranges(), kFig1aCases,
                                                  kFig1aTestSeed))
          .mse;
  if (std::abs(cv_mse - report.cv_mse) > 1e-9 * std::abs(report.cv_mse)) {
    outcome.mismatches.push_back(
        "grid-search CV MSE " + std::to_string(report.cv_mse) +
        " != recomputed " + std::to_string(cv_mse));
  }
  if (report.grid_points_evaluated != 70) {
    outcome.mismatches.push_back("default grid evaluated " +
                                 std::to_string(report.grid_points_evaluated) +
                                 " points, expected 70");
  }
  if (!(std::abs(report.cv_mse - kReferenceCvMse) <= kReferenceTolerance &&
        std::abs(fig1a_mse - kReferenceFig1aMse) <= kReferenceTolerance)) {
    outcome.mismatches.push_back(
        "training does not reproduce EXPERIMENTS.md Fig. 1(a) (CV MSE 1.89, "
        "20-case MSE 1.73, within 0.01)");
  }
  outcome.notes.push_back("check train: CV MSE " +
                          std::to_string(report.cv_mse) + ", Fig. 1(a) MSE " +
                          std::to_string(fig1a_mse) + ", " +
                          std::to_string(
                              report.final_fit.support_vector_count) +
                          " SVs (C " + std::to_string(chosen.c) + ", gamma " +
                          std::to_string(chosen.kernel.gamma) + ", eps " +
                          std::to_string(chosen.epsilon) + ")");

  // Redeploy: move every host's calibrated state onto an engine serving
  // the retrained model, then serve churn-like ticks with it.
  const std::vector<serve::HostSnapshot> hosts = fleet.engine->export_hosts();
  fleet = Fleet{};
  auto engine = std::make_unique<serve::FleetEngine>(*retrained, options);
  for (const serve::HostSnapshot& host : hosts) engine->import_host(host);
  gen.rebind(*engine);
  const StreamGenerator deploy_gen = gen;
  Tally tally;
  Checkpointer checkpointer;
  const std::size_t rounds_per_tick = kTickEvents / shape.hosts;
  std::vector<Tick> built(kBlockEvents / kTickEvents);
  for (std::size_t i = 0; i < kDeployTicks;) {
    for (Tick& t : built) gen.next_tick(rounds_per_tick, t);
    for (Tick& t : built) {
      const bool traced =
          run.trace && i % 2 == 1 && tracer.window_available();
      run_tick(*engine, t, samples, tally, tracer, run.trace, traced);
      ++i;
    }
    checkpointer.maybe_save(*engine, samples,
                            static_cast<double>(i) / kDeployTicks);
  }
  const std::uint64_t digest =
      final_read(*engine, gen, util::kFnv1a64Offset, &samples);
  const Observed timed = observe_engine(*engine, digest);
  const EngineCounts counts = engine_counts(*engine);
  if (run.trace) probe_psi_predict(*retrained, deploy_gen, samples);
  engine.reset();
  set_up_again(pristine, options, samples, tracer);

  {
    serve::FleetEngine reference(*retrained, reference_options());
    for (const serve::HostSnapshot& host : hosts) reference.import_host(host);
    StreamGenerator ref_gen = deploy_gen;
    Tick tick;
    for (std::size_t i = 0; i < kDeployTicks; ++i) {
      ref_gen.next_tick(rounds_per_tick, tick);
      replay_tick(reference, tick);
    }
    compare(timed,
            observe_engine(reference, final_read(reference, ref_gen,
                                                 util::kFnv1a64Offset,
                                                 nullptr)),
            "redeployed fleet", outcome);
  }
  set_up_again(pristine, options, samples, tracer);

  outcome.attempted = tally.events + warm.tally.events + iteration;
  outcome.failed = counts.dropped + counts.errors + tally.rejected +
                   warm.tally.rejected;
  outcome.attempted_base = "events ingested + trainings (" +
                           std::to_string(iteration) + " trainings, " +
                           std::to_string(kDeployTicks) +
                           " redeployed ticks of 16 x " +
                           std::to_string(shape.hosts) + " hosts)";
  if (outcome.failed != 0) {
    outcome.mismatches.push_back("train workload reported " +
                                 std::to_string(outcome.failed) +
                                 " failed operations (must be 0)");
  }
  Report r{outcome, samples};
  report_end_to_end(r, tally, warm.bytes_per_host, "grid_train_s");
  report_layers(r, counts, report.final_fit.support_vector_count,
                report.grid_points_evaluated, options.threads, tally, false);
  return outcome;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"steady", "churn", "ops",
                                                 "train"};
  return names;
}

Outcome run_workload(const RunOptions& options) {
  if (options.workload == "steady") {
    // 131,072 hosts, observe-only, 12 running conditions: per-host state
    // larger than the last-level cache, ψ cache hits ~100%.
    return run_closed_loop(options, FleetShape{131072, 0, 0});
  }
  if (options.workload == "churn") {
    // 4,096 cache-resident hosts, 1 event in 8 an update_config to a new
    // running condition, one host replaced per round.
    return run_closed_loop(options, FleetShape{4096, 8, 1});
  }
  if (options.workload == "ops") return run_ops(options);
  if (options.workload == "train") return run_train(options);
  throw std::invalid_argument("unknown workload " + options.workload);
}

}  // namespace perfbench
