#include "serve/snapshot.h"

#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "ml/model_io.h"
#include "sim/workload.h"

namespace vmtherm::serve {

namespace {

void expect(std::istream& is, const std::string& token) {
  std::string got;
  if (!(is >> got) || got != token) {
    throw IoError("fleet snapshot: expected token '" + token + "', got '" +
                  got + "'");
  }
}

template <typename T>
T read_value(std::istream& is, const char* what) {
  T v{};
  if (!(is >> v)) {
    throw IoError(std::string("fleet snapshot: bad ") + what);
  }
  return v;
}

/// Element-count fields cap out well above any real fleet so a corrupted
/// count fails with IoError instead of driving a std::vector allocation
/// into length_error/bad_alloc.
std::size_t read_count_capped(std::istream& is, const char* what,
                              std::size_t cap) {
  const auto v = read_value<std::size_t>(is, what);
  if (v > cap) {
    throw IoError(std::string("fleet snapshot: implausible ") + what + " (" +
                  std::to_string(v) + " > " + std::to_string(cap) + ")");
  }
  return v;
}

constexpr std::size_t kMaxVmsPerHost = 1u << 16;
constexpr std::size_t kMaxHistogramBounds = 1u << 16;

bool read_flag(std::istream& is, const char* what) {
  const int v = read_value<int>(is, what);
  if (v != 0 && v != 1) {
    throw IoError(std::string("fleet snapshot: flag ") + what +
                  " must be 0 or 1");
  }
  return v == 1;
}

std::string read_token(std::istream& is, const char* what) {
  std::string v;
  if (!(is >> v)) {
    throw IoError(std::string("fleet snapshot: bad ") + what);
  }
  return v;
}

void require_token_safe(const std::string& s, const char* what) {
  if (s.empty() || s.find_first_of(" \t\r\n") != std::string::npos) {
    throw IoError(std::string("fleet snapshot: ") + what +
                  " must be non-empty and whitespace-free: '" + s + "'");
  }
}

void save_host(std::ostream& os, const HostSnapshot& host) {
  os << "host " << host.host_id << " fans " << host.config.fans << " env "
     << host.config.env_temp_c << " vms " << host.config.vms.size() << "\n";
  for (const sim::VmConfig& vm : host.config.vms) {
    os << "vm " << sim::task_type_name(vm.task) << " " << vm.vcpus << " "
       << vm.memory_gb << "\n";
  }
  const sim::ServerSpec& s = host.config.server;
  require_token_safe(s.name, "server name");
  os << "server " << s.name << " " << s.physical_cores << " " << s.core_ghz
     << " " << s.memory_gb << " " << s.fan_slots << " " << s.power.idle_watts
     << " " << s.power.max_cpu_watts << " " << s.power.cpu_exponent << " "
     << s.power.memory_watts_per_gb << " "
     << s.thermal.die_capacitance_j_per_k << " "
     << s.thermal.sink_capacitance_j_per_k << " "
     << s.thermal.die_to_sink_resistance << " "
     << s.thermal.sink_to_ambient_resistance << " "
     << s.thermal.reference_fans << " " << s.thermal.fan_exponent << "\n";
  const core::DynamicPredictorState& t = host.tracker;
  os << "tracker " << (t.started ? 1 : 0) << " " << t.t0 << " " << t.gamma
     << " " << t.last_update_s << " " << t.last_observed_s << " " << t.phi0
     << " " << t.psi_stable << "\n";
  os << "cusum " << host.drift_positive << " " << host.drift_negative << " "
     << (host.drifted ? 1 : 0) << " " << host.drift_observations << "\n";
}

/// `v1`: the host carries a `resid` line, which is parsed and discarded.
HostSnapshot load_host(std::istream& is, bool v1) {
  HostSnapshot host;
  expect(is, "host");
  host.host_id = read_token(is, "host id");
  expect(is, "fans");
  host.config.fans = read_value<int>(is, "fan count");
  expect(is, "env");
  host.config.env_temp_c = read_value<double>(is, "env temperature");
  expect(is, "vms");
  const auto vm_count = read_count_capped(is, "vm count", kMaxVmsPerHost);
  host.config.vms.reserve(vm_count);
  for (std::size_t i = 0; i < vm_count; ++i) {
    expect(is, "vm");
    sim::VmConfig vm;
    vm.task = sim::task_type_from_name(read_token(is, "vm task"));
    vm.vcpus = read_value<int>(is, "vm vcpus");
    vm.memory_gb = read_value<double>(is, "vm memory");
    host.config.vms.push_back(vm);
  }
  expect(is, "server");
  sim::ServerSpec& s = host.config.server;
  s.name = read_token(is, "server name");
  s.physical_cores = read_value<int>(is, "physical cores");
  s.core_ghz = read_value<double>(is, "core ghz");
  s.memory_gb = read_value<double>(is, "server memory");
  s.fan_slots = read_value<int>(is, "fan slots");
  s.power.idle_watts = read_value<double>(is, "idle watts");
  s.power.max_cpu_watts = read_value<double>(is, "max cpu watts");
  s.power.cpu_exponent = read_value<double>(is, "cpu exponent");
  s.power.memory_watts_per_gb = read_value<double>(is, "memory watts");
  s.thermal.die_capacitance_j_per_k = read_value<double>(is, "C_die");
  s.thermal.sink_capacitance_j_per_k = read_value<double>(is, "C_sink");
  s.thermal.die_to_sink_resistance = read_value<double>(is, "R_ds");
  s.thermal.sink_to_ambient_resistance = read_value<double>(is, "R_sa");
  s.thermal.reference_fans = read_value<int>(is, "reference fans");
  s.thermal.fan_exponent = read_value<double>(is, "fan exponent");
  expect(is, "tracker");
  host.tracker.started = read_flag(is, "tracker started");
  host.tracker.t0 = read_value<double>(is, "tracker t0");
  host.tracker.gamma = read_value<double>(is, "tracker gamma");
  host.tracker.last_update_s = read_value<double>(is, "tracker last update");
  host.tracker.last_observed_s =
      read_value<double>(is, "tracker last observed");
  host.tracker.phi0 = read_value<double>(is, "tracker phi0");
  host.tracker.psi_stable = read_value<double>(is, "tracker psi_stable");
  if (v1) {
    expect(is, "resid");
    for (const char* what : {"residual count", "residual mean", "residual m2",
                             "residual min", "residual max"}) {
      (void)read_value<double>(is, what);
    }
  }
  expect(is, "cusum");
  host.drift_positive = read_value<double>(is, "cusum positive");
  host.drift_negative = read_value<double>(is, "cusum negative");
  host.drifted = read_flag(is, "cusum drifted");
  host.drift_observations = read_value<std::size_t>(is, "cusum count");
  return host;
}

}  // namespace

void save_fleet(std::ostream& os, FleetEngine& engine) {
  engine.flush();
  os << std::setprecision(17);
  os << "vmtherm_fleet v2\n";
  const FleetEngineOptions& opt = engine.options();
  os << "dynamic " << opt.dynamic.learning_rate << " "
     << opt.dynamic.update_interval_s << " " << opt.dynamic.t_break_s << " "
     << opt.dynamic.curvature << " " << (opt.dynamic.calibration_enabled ? 1 : 0)
     << " " << (opt.dynamic.retain_calibration_on_retarget ? 1 : 0) << "\n";
  os << "drift " << opt.drift_slack_c << " " << opt.drift_threshold_c << "\n";
  ml::save_scaler(os, engine.stable_predictor().scaler());
  ml::save_svr(os, engine.stable_predictor().model());
  os << std::setprecision(17);

  const std::vector<HostSnapshot> hosts = engine.export_hosts();
  os << "hosts " << hosts.size() << "\n";
  for (const HostSnapshot& host : hosts) save_host(os, host);

  // Deterministic counters and histograms only: timing metrics are
  // wall-clock artifacts of the saved process, and gauges (fleet size)
  // re-derive from the imported hosts.
  std::size_t metric_count = 0;
  std::ostringstream metrics;
  metrics << std::setprecision(17);
  engine.metrics().for_each_counter(
      [&](const std::string& name, obs::MetricKind kind,
          const obs::Counter& counter) {
        if (kind != obs::MetricKind::kDeterministic) return;
        require_token_safe(name, "metric name");
        metrics << "counter " << name << " " << counter.value() << "\n";
        ++metric_count;
      });
  engine.metrics().for_each_histogram(
      [&](const std::string& name, obs::MetricKind kind,
          const obs::Histogram& hist) {
        if (kind != obs::MetricKind::kDeterministic) return;
        require_token_safe(name, "metric name");
        metrics << "hist " << name << " " << hist.upper_bounds().size();
        for (const double bound : hist.upper_bounds()) {
          metrics << " " << bound;
        }
        for (std::size_t i = 0; i < hist.bucket_count(); ++i) {
          metrics << " " << hist.count_in_bucket(i);
        }
        metrics << "\n";
        ++metric_count;
      });
  os << "metrics " << metric_count << "\n" << metrics.str();
  os << "end\n";
  if (!os) throw IoError("fleet snapshot: write failed");
}

std::unique_ptr<FleetEngine> load_fleet(std::istream& is,
                                        FleetEngineOptions options) {
  expect(is, "vmtherm_fleet");
  const std::string version = read_token(is, "format version");
  if (version != "v1" && version != "v2") {
    throw IoError("fleet snapshot: unsupported version '" + version + "'");
  }
  expect(is, "dynamic");
  options.dynamic.learning_rate = read_value<double>(is, "learning rate");
  options.dynamic.update_interval_s =
      read_value<double>(is, "update interval");
  options.dynamic.t_break_s = read_value<double>(is, "t_break");
  options.dynamic.curvature = read_value<double>(is, "curvature");
  options.dynamic.calibration_enabled = read_flag(is, "calibration flag");
  options.dynamic.retain_calibration_on_retarget =
      read_flag(is, "retain-calibration flag");
  expect(is, "drift");
  options.drift_slack_c = read_value<double>(is, "drift slack");
  options.drift_threshold_c = read_value<double>(is, "drift threshold");

  ml::MinMaxScaler scaler = ml::load_scaler(is);
  ml::SvrModel model = ml::load_svr(is);
  auto engine = std::make_unique<FleetEngine>(
      core::StableTemperaturePredictor(std::move(scaler), std::move(model)),
      options);

  expect(is, "hosts");
  const auto host_count = read_value<std::size_t>(is, "host count");
  for (std::size_t i = 0; i < host_count; ++i) {
    engine->import_host(load_host(is, version == "v1"));
  }

  expect(is, "metrics");
  const auto metric_count = read_value<std::size_t>(is, "metric count");
  for (std::size_t i = 0; i < metric_count; ++i) {
    const std::string family = read_token(is, "metric family");
    if (family == "counter") {
      const std::string name = read_token(is, "counter name");
      engine->metrics().counter(name).set(
          read_value<std::uint64_t>(is, "counter value"));
    } else if (family == "hist") {
      const std::string name = read_token(is, "histogram name");
      const auto n_bounds =
          read_count_capped(is, "histogram bounds", kMaxHistogramBounds);
      std::vector<double> bounds(n_bounds);
      for (double& bound : bounds) {
        bound = read_value<double>(is, "histogram bound");
      }
      std::vector<std::uint64_t> counts(n_bounds + 1);
      for (std::uint64_t& count : counts) {
        count = read_value<std::uint64_t>(is, "histogram count");
      }
      try {
        engine->metrics().histogram(name, std::move(bounds)).set_counts(counts);
      } catch (const ConfigError& e) {
        throw IoError(std::string("fleet snapshot: ") + e.what());
      }
    } else {
      throw IoError("fleet snapshot: unknown metric family '" + family + "'");
    }
  }
  expect(is, "end");
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
