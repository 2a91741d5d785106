#include "serve/snapshot.h"

#include <charconv>
#include <cmath>
#include <concepts>
#include <fstream>
#include <istream>
#include <ostream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ml/model_io.h"
#include "sim/workload.h"

namespace vmtherm::serve {

namespace {

/// Element-count fields cap out well above any real fleet so a corrupted
/// count fails with IoError instead of driving a std::vector allocation
/// into length_error/bad_alloc.
constexpr std::size_t kMaxVmsPerHost = 1u << 16;
constexpr std::size_t kMaxHistogramBounds = 1u << 16;
constexpr std::size_t kMaxConditions = 1u << 24;

void require_token_safe(std::string_view s, const char* what) {
  if (s.empty() || s.find_first_of(" \t\r\n") != std::string_view::npos) {
    throw IoError(std::string("fleet snapshot: ") + what +
                  " must be non-empty and whitespace-free: '" +
                  std::string(s) + "'");
  }
}

/// Snapshot text out: tokens are formatted with std::to_chars (doubles in
/// their shortest round-trip form) into a reused buffer that goes to the
/// stream in large writes. A non-finite double is refused, because the
/// reader rejects it.
class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {
    buffer_.reserve(kFlushBytes + 4096);
  }

  Writer& word(std::string_view token) {
    buffer_.append(token);
    buffer_ += ' ';
    return *this;
  }

  Writer& number(double v) {
    if (!std::isfinite(v)) {
      throw IoError("fleet snapshot: cannot write a non-finite value");
    }
    return append_chars(v);
  }

  template <std::integral T>
  Writer& number(T v) {
    return append_chars(v);
  }

  Writer& flag(bool v) { return word(v ? "1" : "0"); }

  /// Ends the line (every line has at least one token).
  void end_line() {
    buffer_.back() = '\n';
    if (buffer_.size() >= kFlushBytes) flush();
  }

  void flush() {
    os_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }

 private:
  static constexpr std::size_t kFlushBytes = 1u << 16;

  template <typename T>
  Writer& append_chars(T v) {
    char text[32];
    const auto result = std::to_chars(text, text + sizeof(text), v);
    buffer_.append(text, result.ptr);
    buffer_ += ' ';
    return *this;
  }

  std::ostream& os_;
  std::string buffer_;
};

/// Snapshot text in: one line at a time (std::getline into a reused
/// buffer, so the ml/model_io readers can take the same stream between
/// lines), split on blanks, numbers parsed with std::from_chars. A token
/// must parse whole; doubles must be finite, as std::from_chars accepts
/// "nan" and "inf" where the format never holds them.
class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is) {}

  /// Moves to the next non-blank line, once the current one is used up.
  void line(const char* what) {
    end_of_line();
    while (std::getline(is_, line_)) {
      rest_ = line_;
      skip_blanks();
      if (!rest_.empty()) return;
    }
    throw IoError(std::string("fleet snapshot: unexpected end of input, "
                              "expected ") +
                  what);
  }

  /// Throws IoError unless the current line has no token left.
  void end_of_line() {
    if (!rest_.empty()) {
      throw IoError("fleet snapshot: unexpected token '" +
                    std::string(next_token()) + "'");
    }
  }

  std::string_view token(const char* what) {
    if (rest_.empty()) {
      throw IoError(std::string("fleet snapshot: missing ") + what);
    }
    return next_token();
  }

  void expect(std::string_view keyword) {
    const std::string_view got = rest_.empty() ? "" : next_token();
    if (got != keyword) {
      throw IoError("fleet snapshot: expected token '" +
                    std::string(keyword) + "', got '" + std::string(got) +
                    "'");
    }
  }

  double real(const char* what) {
    const double v = parse<double>(what);
    if (!std::isfinite(v)) bad(what);
    return v;
  }

  template <std::integral T>
  T integer(const char* what) {
    return parse<T>(what);
  }

  bool flag(const char* what) {
    const int v = parse<int>(what);
    if (v != 0 && v != 1) {
      throw IoError(std::string("fleet snapshot: flag ") + what +
                    " must be 0 or 1");
    }
    return v == 1;
  }

  std::size_t count(const char* what, std::size_t cap) {
    const auto v = parse<std::size_t>(what);
    if (v > cap) {
      throw IoError(std::string("fleet snapshot: implausible ") + what +
                    " (" + std::to_string(v) + " > " + std::to_string(cap) +
                    ")");
    }
    return v;
  }

 private:
  [[noreturn]] static void bad(const char* what) {
    throw IoError(std::string("fleet snapshot: bad ") + what);
  }

  template <typename T>
  T parse(const char* what) {
    const std::string_view text = token(what);
    T v{};
    const auto result = std::from_chars(text.data(), text.data() + text.size(), v);
    if (result.ec != std::errc() || result.ptr != text.data() + text.size()) {
      bad(what);
    }
    return v;
  }

  static bool blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

  void skip_blanks() {
    std::size_t i = 0;
    while (i < rest_.size() && blank(rest_[i])) ++i;
    rest_.remove_prefix(i);
  }

  /// The next token of a line that has one.
  std::string_view next_token() {
    std::size_t end = 0;
    while (end < rest_.size() && !blank(rest_[end])) ++end;
    const std::string_view token = rest_.substr(0, end);
    rest_.remove_prefix(end);
    skip_blanks();
    return token;
  }

  std::istream& is_;
  std::string line_;
  std::string_view rest_;  ///< unread part of line_, blanks skipped
};

// --- per-host fields, shared by every version --------------------------

void write_server(Writer& out, const sim::ServerSpec& s) {
  require_token_safe(s.name, "server name");
  out.word(s.name)
      .number(s.physical_cores)
      .number(s.core_ghz)
      .number(s.memory_gb)
      .number(s.fan_slots)
      .number(s.power.idle_watts)
      .number(s.power.max_cpu_watts)
      .number(s.power.cpu_exponent)
      .number(s.power.memory_watts_per_gb)
      .number(s.thermal.die_capacitance_j_per_k)
      .number(s.thermal.sink_capacitance_j_per_k)
      .number(s.thermal.die_to_sink_resistance)
      .number(s.thermal.sink_to_ambient_resistance)
      .number(s.thermal.reference_fans)
      .number(s.thermal.fan_exponent);
}

void read_server(Reader& in, sim::ServerSpec& s) {
  s.name = in.token("server name");
  s.physical_cores = in.integer<int>("physical cores");
  s.core_ghz = in.real("core ghz");
  s.memory_gb = in.real("server memory");
  s.fan_slots = in.integer<int>("fan slots");
  s.power.idle_watts = in.real("idle watts");
  s.power.max_cpu_watts = in.real("max cpu watts");
  s.power.cpu_exponent = in.real("cpu exponent");
  s.power.memory_watts_per_gb = in.real("memory watts");
  s.thermal.die_capacitance_j_per_k = in.real("C_die");
  s.thermal.sink_capacitance_j_per_k = in.real("C_sink");
  s.thermal.die_to_sink_resistance = in.real("R_ds");
  s.thermal.sink_to_ambient_resistance = in.real("R_sa");
  s.thermal.reference_fans = in.integer<int>("reference fans");
  s.thermal.fan_exponent = in.real("fan exponent");
}

sim::VmConfig read_vm(Reader& in) {
  sim::VmConfig vm;
  vm.task = sim::task_type_from_name(std::string(in.token("vm task")));
  vm.vcpus = in.integer<int>("vm vcpus");
  vm.memory_gb = in.real("vm memory");
  return vm;
}

void read_tracker(Reader& in, core::DynamicPredictorState& t) {
  t.started = in.flag("tracker started");
  t.t0 = in.real("tracker t0");
  t.gamma = in.real("tracker gamma");
  t.last_update_s = in.real("tracker last update");
  t.last_observed_s = in.real("tracker last observed");
  t.phi0 = in.real("tracker phi0");
  t.psi_stable = in.real("tracker psi_stable");
}

/// The CUSUM state; the stage sums follow it from v3 on.
void read_cusum(Reader& in, core::ResidualMonitor& r) {
  r.positive = in.real("cusum positive");
  r.negative = in.real("cusum negative");
  r.drifted = in.flag("cusum drifted");
  r.count = in.integer<std::uint64_t>("cusum count");
}

void read_stage_sums(Reader& in, core::ResidualMonitor& r) {
  for (core::StageSums* stage : {&r.transient, &r.stable}) {
    stage->weight = in.real("stage weight");
    stage->sum = in.real("stage sum");
    stage->sum_sq = in.real("stage sum of squares");
    stage->sum_abs = in.real("stage absolute sum");
  }
}

/// The loader rejects non-finite tracker fields and residual states that
/// observe() cannot produce. Readings far outside any physical range can
/// drive a host there (γ overflows to ±inf, then NaN), and one such host
/// would make the whole snapshot unrestorable, so it is refused here.
void check_restorable(const HostSnapshot& host) {
  const core::DynamicPredictorState& t = host.tracker;
  for (const double v : {t.t0, t.gamma, t.last_update_s, t.last_observed_s,
                         t.phi0, t.psi_stable}) {
    if (!std::isfinite(v)) {
      throw IoError("fleet snapshot: host " + host.host_id +
                    " has a non-finite tracker state and cannot be restored");
    }
  }
  try {
    host.residuals.validate();
  } catch (const ConfigError& e) {
    throw IoError("fleet snapshot: host " + host.host_id +
                  " cannot be restored: " + e.what());
  }
}

// --- v4: condition table + one row per host ----------------------------

void write_condition(Writer& out, const mgmt::MonitoredConfig& config) {
  write_server(out, config.server);
  out.number(config.fans).number(config.env_temp_c).number(config.vms.size());
  for (const sim::VmConfig& vm : config.vms) {
    out.word(sim::task_type_name(vm.task)).number(vm.vcpus).number(
        vm.memory_gb);
  }
  out.end_line();
}

mgmt::MonitoredConfig read_condition(Reader& in) {
  mgmt::MonitoredConfig config;
  read_server(in, config.server);
  config.fans = in.integer<int>("fan count");
  config.env_temp_c = in.real("env temperature");
  const std::size_t vm_count = in.count("vm count", kMaxVmsPerHost);
  config.vms.reserve(vm_count);
  for (std::size_t i = 0; i < vm_count; ++i) config.vms.push_back(read_vm(in));
  config.validate();
  return config;
}

void write_host(Writer& out, const HostSnapshot& host, std::uint32_t condition) {
  check_restorable(host);
  const core::DynamicPredictorState& t = host.tracker;
  const core::ResidualMonitor& r = host.residuals;
  out.word(host.host_id)
      .number(condition)
      .flag(t.started)
      .number(t.t0)
      .number(t.gamma)
      .number(t.last_update_s)
      .number(t.last_observed_s)
      .number(t.phi0)
      .number(t.psi_stable)
      .number(r.positive)
      .number(r.negative)
      .flag(r.drifted)
      .number(r.count);
  for (const core::StageSums* stage : {&r.transient, &r.stable}) {
    out.number(stage->weight)
        .number(stage->sum)
        .number(stage->sum_sq)
        .number(stage->sum_abs);
  }
  out.end_line();
}

/// Writes the condition table and the host rows. Conditions are numbered
/// in first use along the host-id order, so the file is the same at any
/// shard count; configs of different shards or config events compare
/// bitwise (mgmt::same_condition).
void write_hosts(Writer& out, const FleetEngine& engine) {
  const std::vector<std::vector<HostSnapshot>> per_shard =
      engine.export_shards();
  const std::vector<const HostSnapshot*> hosts = by_host_id(per_shard);
  std::vector<const mgmt::MonitoredConfig*> conditions;
  std::unordered_multimap<std::uint64_t, std::uint32_t> by_hash;
  std::vector<std::uint32_t> condition_of;
  condition_of.reserve(hosts.size());
  for (const HostSnapshot* host : hosts) {
    const mgmt::MonitoredConfig& config = *host->config;
    const std::uint64_t hash = mgmt::condition_hash(config);
    auto [it, last] = by_hash.equal_range(hash);
    while (it != last && !mgmt::same_condition(*conditions[it->second], config)) {
      ++it;
    }
    if (it == last) {
      it = by_hash.emplace(hash, static_cast<std::uint32_t>(conditions.size()));
      conditions.push_back(&config);
    }
    condition_of.push_back(it->second);
  }
  out.word("conditions").number(conditions.size()).end_line();
  for (const mgmt::MonitoredConfig* config : conditions) {
    write_condition(out, *config);
  }
  out.word("hosts").number(hosts.size()).end_line();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    write_host(out, *hosts[i], condition_of[i]);
  }
}

/// Reads the v4 condition table and host rows into `engine`.
void read_hosts(Reader& in, FleetEngine& engine) {
  in.line("condition table");
  in.expect("conditions");
  const std::size_t condition_count =
      in.count("condition count", kMaxConditions);
  std::vector<std::shared_ptr<const mgmt::MonitoredConfig>> conditions;
  conditions.reserve(condition_count);
  for (std::size_t i = 0; i < condition_count; ++i) {
    in.line("condition");
    conditions.push_back(
        std::make_shared<const mgmt::MonitoredConfig>(read_condition(in)));
  }
  in.line("host count");
  in.expect("hosts");
  const auto host_count = in.integer<std::size_t>("host count");
  HostSnapshot host;
  for (std::size_t i = 0; i < host_count; ++i) {
    in.line("host row");
    host.host_id = in.token("host id");
    const auto condition = in.integer<std::size_t>("condition index");
    if (condition >= conditions.size()) {
      throw IoError("fleet snapshot: host " + host.host_id +
                    " names condition " + std::to_string(condition) +
                    " of " + std::to_string(conditions.size()));
    }
    host.config = conditions[condition];
    read_tracker(in, host.tracker);
    read_cusum(in, host.residuals);
    read_stage_sums(in, host.residuals);
    engine.import_host(host);
  }
}

// --- v1 to v3: one block of lines per host, config inline ---------------

/// A v1 host carries a `resid` line, which is parsed and discarded; v1 and
/// v2 hosts carry a `cusum` line and no stage sums, which start empty.
void read_legacy_hosts(Reader& in, FleetEngine& engine, int version) {
  in.line("host count");
  in.expect("hosts");
  const auto host_count = in.integer<std::size_t>("host count");
  for (std::size_t i = 0; i < host_count; ++i) {
    HostSnapshot host;
    mgmt::MonitoredConfig config;
    in.line("host");
    in.expect("host");
    host.host_id = in.token("host id");
    in.expect("fans");
    config.fans = in.integer<int>("fan count");
    in.expect("env");
    config.env_temp_c = in.real("env temperature");
    in.expect("vms");
    const std::size_t vm_count = in.count("vm count", kMaxVmsPerHost);
    config.vms.reserve(vm_count);
    for (std::size_t v = 0; v < vm_count; ++v) {
      in.line("vm");
      in.expect("vm");
      config.vms.push_back(read_vm(in));
    }
    in.line("server");
    in.expect("server");
    read_server(in, config.server);
    host.config = std::make_shared<const mgmt::MonitoredConfig>(
        std::move(config));
    in.line("tracker");
    in.expect("tracker");
    read_tracker(in, host.tracker);
    if (version == 1) {
      in.line("resid");
      in.expect("resid");
      for (const char* what : {"residual count", "residual mean",
                               "residual m2", "residual min",
                               "residual max"}) {
        (void)in.real(what);
      }
    }
    in.line("residuals");
    in.expect(version < 3 ? "cusum" : "residuals");
    read_cusum(in, host.residuals);
    if (version == 3) read_stage_sums(in, host.residuals);
    engine.import_host(host);
  }
}

void write_metrics(Writer& out, const obs::MetricsRegistry& registry) {
  // Deterministic counters and histograms only: timing metrics are
  // wall-clock artifacts of the saved process, and gauges (fleet size)
  // re-derive from the imported hosts.
  std::size_t metric_count = 0;
  const auto deterministic = [](obs::MetricKind kind) {
    return kind == obs::MetricKind::kDeterministic;
  };
  registry.for_each_counter([&](const std::string&, obs::MetricKind kind,
                                const obs::Counter&) {
    metric_count += deterministic(kind) ? 1 : 0;
  });
  registry.for_each_histogram([&](const std::string&, obs::MetricKind kind,
                                  const obs::Histogram&) {
    metric_count += deterministic(kind) ? 1 : 0;
  });
  out.word("metrics").number(metric_count).end_line();
  registry.for_each_counter([&](const std::string& name, obs::MetricKind kind,
                                const obs::Counter& counter) {
    if (!deterministic(kind)) return;
    require_token_safe(name, "metric name");
    out.word("counter").word(name).number(counter.value()).end_line();
  });
  registry.for_each_histogram([&](const std::string& name,
                                  obs::MetricKind kind,
                                  const obs::Histogram& hist) {
    if (!deterministic(kind)) return;
    require_token_safe(name, "metric name");
    out.word("hist").word(name).number(hist.upper_bounds().size());
    for (const double bound : hist.upper_bounds()) out.number(bound);
    for (std::size_t i = 0; i < hist.bucket_count(); ++i) {
      out.number(hist.count_in_bucket(i));
    }
    out.end_line();
  });
}

void read_metrics(Reader& in, obs::MetricsRegistry& registry) {
  in.line("metrics");
  in.expect("metrics");
  const auto metric_count = in.integer<std::size_t>("metric count");
  for (std::size_t i = 0; i < metric_count; ++i) {
    in.line("metric");
    const std::string_view family = in.token("metric family");
    if (family == "counter") {
      const std::string name(in.token("counter name"));
      registry.counter(name).set(in.integer<std::uint64_t>("counter value"));
    } else if (family == "hist") {
      const std::string name(in.token("histogram name"));
      const std::size_t n_bounds =
          in.count("histogram bounds", kMaxHistogramBounds);
      std::vector<double> bounds(n_bounds);
      for (double& bound : bounds) bound = in.real("histogram bound");
      std::vector<std::uint64_t> counts(n_bounds + 1);
      for (std::uint64_t& count : counts) {
        count = in.integer<std::uint64_t>("histogram count");
      }
      registry.histogram(name, std::move(bounds)).set_counts(counts);
    } else {
      throw IoError("fleet snapshot: unknown metric family '" +
                    std::string(family) + "'");
    }
  }
}

}  // namespace

void save_fleet(std::ostream& os, FleetEngine& engine) {
  engine.flush();
  Writer out(os);
  out.word("vmtherm_fleet").word("v4").end_line();
  const FleetEngineOptions& opt = engine.options();
  out.word("dynamic")
      .number(opt.dynamic.learning_rate)
      .number(opt.dynamic.update_interval_s)
      .number(opt.dynamic.t_break_s)
      .number(opt.dynamic.curvature)
      .flag(opt.dynamic.calibration_enabled)
      .flag(opt.dynamic.retain_calibration_on_retarget)
      .end_line();
  out.word("drift")
      .number(opt.drift_slack_c)
      .number(opt.drift_threshold_c)
      .end_line();
  out.flush();
  ml::save_scaler(os, engine.stable_predictor().scaler());
  ml::save_svr(os, engine.stable_predictor().model());
  write_hosts(out, engine);
  write_metrics(out, engine.metrics());
  out.word("end").end_line();
  out.flush();
  if (!os) throw IoError("fleet snapshot: write failed");
}

std::unique_ptr<FleetEngine> load_fleet(std::istream& is,
                                        FleetEngineOptions options) {
  Reader in(is);
  in.line("format header");
  in.expect("vmtherm_fleet");
  const std::string_view token = in.token("format version");
  const int version =
      token.size() == 2 && token[0] == 'v' ? token[1] - '0' : 0;
  if (version < 1 || version > 4) {
    throw IoError("fleet snapshot: unsupported version '" +
                  std::string(token) + "'");
  }
  in.line("dynamic options");
  in.expect("dynamic");
  options.dynamic.learning_rate = in.real("learning rate");
  options.dynamic.update_interval_s = in.real("update interval");
  options.dynamic.t_break_s = in.real("t_break");
  options.dynamic.curvature = in.real("curvature");
  options.dynamic.calibration_enabled = in.flag("calibration flag");
  options.dynamic.retain_calibration_on_retarget =
      in.flag("retain-calibration flag");
  in.line("drift options");
  in.expect("drift");
  options.drift_slack_c = in.real("drift slack");
  options.drift_threshold_c = in.real("drift threshold");
  in.end_of_line();

  ml::MinMaxScaler scaler = ml::load_scaler(is);
  ml::SvrModel model = ml::load_svr(is);
  auto engine = std::make_unique<FleetEngine>(
      core::StableTemperaturePredictor(std::move(scaler), std::move(model)),
      options);

  // Conditions, import_host and the metrics registry reject invalid
  // configs, residual states, duplicate ids and histogram layouts with
  // ConfigError.
  try {
    if (version == 4) {
      read_hosts(in, *engine);
    } else {
      read_legacy_hosts(in, *engine, version);
    }
    read_metrics(in, engine->metrics());
  } catch (const ConfigError& e) {
    throw IoError(std::string("fleet snapshot: ") + e.what());
  }
  in.line("end marker");
  in.expect("end");
  in.end_of_line();
  return engine;
}

void save_fleet_file(const std::string& path, FleetEngine& engine) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot create fleet snapshot file: " + path);
  save_fleet(out, engine);
}

std::unique_ptr<FleetEngine> load_fleet_file(const std::string& path,
                                             FleetEngineOptions options) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open fleet snapshot file: " + path);
  return load_fleet(in, std::move(options));
}

}  // namespace vmtherm::serve
