#include "cli/commands.h"

#include <iostream>
#include <map>
#include <ostream>

#include <iomanip>
#include <sstream>

#include <fstream>

#include "cli/args.h"
#include "core/evaluator.h"
#include "core/record_store.h"
#include "core/tbreak.h"
#include "obs/chrome_trace.h"
#include "obs/trace.h"
#include "serve/replay.h"
#include "serve/snapshot.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/table.h"

namespace vmtherm::cli {

namespace {

CommandSpec simulate_spec() {
  CommandSpec spec("simulate",
                   "run randomized profiling experiments on the simulated "
                   "testbed and write Eq.(2) records as CSV");
  spec.add(make_option("count", "number of experiments to run", true));
  spec.add(make_option("out", "output records CSV path", true));
  spec.add(make_option("seed", "random seed", false, false, false, "42"));
  spec.add(make_option("duration", "experiment duration t_exp in seconds", false, false,
            false, "1800"));
  spec.add(make_option("min-vms", "minimum VMs per experiment", false, false, false, "2"));
  spec.add(make_option("max-vms", "maximum VMs per experiment", false, false, false,
            "12"));
  spec.add(make_option("fans", "pin the fan count (0 = randomize 1..6)", false, false,
            false, "0"));
  return spec;
}

CommandSpec train_spec() {
  CommandSpec spec("train",
                   "train the stable-temperature SVR from a records CSV "
                   "(grid search + 10-fold CV, like the paper)");
  spec.add(make_option("data", "training records CSV", true));
  spec.add(make_option("model", "output model path", true));
  spec.add(make_option("folds", "cross-validation folds", false, false, false, "10"));
  spec.add(make_option("threads",
            "threads for the grid search (0 = all hardware threads); the "
            "result does not depend on this", false, false, false, "1"));
  spec.add(make_option("fast", "skip the grid search (fixed good parameters)", false,
            true));
  return spec;
}

CommandSpec evaluate_spec() {
  CommandSpec spec("evaluate",
                   "score a trained model against labelled records");
  spec.add(make_option("model", "trained model path", true));
  spec.add(make_option("data", "test records CSV", true));
  return spec;
}

CommandSpec predict_spec() {
  CommandSpec spec("predict",
                   "predict the stable CPU temperature of a placement");
  spec.add(make_option("model", "trained model path", true));
  spec.add(make_option("server", "server kind: small | medium | large", true));
  spec.add(make_option("fans", "active fans", true));
  spec.add(make_option("env", "environment temperature in deg C", true));
  spec.add(make_option("vm", "VM spec task:vcpus:memory_gb (e.g. cpu_burn:4:8)", false,
            false, true));
  return spec;
}

CommandSpec tbreak_spec() {
  CommandSpec spec("tbreak",
                   "deduce t_break from settling times of randomized "
                   "experiments");
  spec.add(make_option("count", "number of experiments", false, false, false, "16"));
  spec.add(make_option("seed", "random seed", false, false, false, "7"));
  spec.add(make_option("fans", "pin the fan count (0 = randomize)", false, false, false,
            "4"));
  spec.add(make_option("band", "stability band in deg C", false, false, false, "2.0"));
  spec.add(make_option("quantile", "settling-time quantile to recommend", false, false,
            false, "0.5"));
  return spec;
}

CommandSpec dynamic_spec() {
  CommandSpec spec("dynamic",
                   "evaluate online dynamic prediction (Eqs. 4-8) on a "
                   "randomized VM-churn scenario, with and without "
                   "calibration");
  spec.add(make_option("model", "trained model path", true));
  spec.add(make_option("seed", "scenario seed", false, false, false, "1"));
  spec.add(make_option("gap", "prediction gap in seconds", false, false,
                       false, "60"));
  spec.add(make_option("update", "calibration update interval in seconds",
                       false, false, false, "15"));
  spec.add(make_option("lambda", "calibration learning rate", false, false,
                       false, "0.8"));
  spec.add(make_option("fans", "server fans", false, false, false, "4"));
  return spec;
}

/// Replay knobs shared by serve-replay, trace and serve-stats: one spec
/// helper and one parse helper so the three commands can't drift apart.
/// `default_steps` observations per host at the default 5 s interval:
/// 120 reach t_break (600 s); serve-stats runs 240 so that each host's
/// ψ_stable stage is fed as long as its transient one.
void add_replay_options(CommandSpec& spec, const char* default_steps = "120") {
  spec.add(make_option("model", "trained model path", true));
  spec.add(make_option("hosts", "fleet size", false, false, false, "32"));
  spec.add(make_option("steps", "observe events per host", false, false,
                       false, default_steps));
  spec.add(make_option("interval", "trace sampling interval in seconds",
                       false, false, false, "5"));
  spec.add(make_option("gap", "forecast gap in seconds", false, false, false,
                       "60"));
  spec.add(make_option("horizon", "hotspot-scan horizon in seconds", false,
                       false, false, "60"));
  spec.add(make_option("threshold", "hotspot threshold in deg C", false,
                       false, false, "75"));
  spec.add(make_option("shards", "engine shard count", false, false, false,
                       "4"));
  spec.add(make_option("threads", "engine worker threads (0 = hardware)",
                       false, false, false, "0"));
  spec.add(make_option("queue-capacity", "per-shard queue capacity", false,
                       false, false, "4096"));
  spec.add(make_option("seed", "scenario seed", false, false, false, "1"));
  spec.add(make_option("churn-every",
                       "config-churn period in steps (0 = no churn)", false,
                       false, false, "0"));
}

serve::ReplayOptions replay_options_from(const ParsedArgs& args) {
  serve::ReplayOptions options;
  options.hosts = static_cast<std::size_t>(args.get_long("hosts"));
  options.steps = static_cast<std::size_t>(args.get_long("steps"));
  options.sample_interval_s = args.get_double("interval");
  options.gap_s = args.get_double("gap");
  options.horizon_s = args.get_double("horizon");
  options.threshold_c = args.get_double("threshold");
  options.seed = static_cast<std::uint64_t>(args.get_long("seed"));
  options.churn_every = static_cast<std::size_t>(args.get_long("churn-every"));
  options.engine.shards = static_cast<std::size_t>(args.get_long("shards"));
  options.engine.threads = static_cast<std::size_t>(args.get_long("threads"));
  options.engine.queue_capacity =
      static_cast<std::size_t>(args.get_long("queue-capacity"));
  return options;
}

CommandSpec serve_replay_spec() {
  CommandSpec spec("serve-replay",
                   "pump a simulated fleet's temperature traces through the "
                   "sharded serving engine and report forecasts, hotspots "
                   "and metrics (bitwise-deterministic per seed at any "
                   "shard/thread count)");
  add_replay_options(spec);
  spec.add(make_option("top", "hotspot rows to print", false, false, false,
                       "5"));
  spec.add(make_option("snapshot", "write a fleet snapshot to this path",
                       false));
  spec.add(make_option("json", "print the deterministic metrics JSON", false,
                       true));
  return spec;
}

CommandSpec trace_spec() {
  CommandSpec spec("trace",
                   "run a serve replay with span tracing enabled and export "
                   "a Chrome trace-event JSON (load at chrome://tracing or "
                   "ui.perfetto.dev) plus a per-span latency summary");
  add_replay_options(spec);
  spec.add(make_option("out", "Chrome trace-event JSON output path", false,
                       false, false, "trace.json"));
  return spec;
}

CommandSpec serve_stats_spec() {
  CommandSpec spec("serve-stats",
                   "run a serve replay and report prediction-quality "
                   "telemetry: per-host decayed MSE/MAE of dif = phi - psi "
                   "(about the last 128 observations), split into psi_stable "
                   "bias and transient error, calibration gamma, CUSUM state "
                   "and cache/queue health; the default 240 steps run past "
                   "t_break, so the stable stage is fed");
  add_replay_options(spec, "240");
  spec.add(make_option("top",
                       "host rows to print (sorted by rolling MSE, worst "
                       "first); 0 = all",
                       false, false, false, "10"));
  spec.add(make_option("json", "print the full report as JSON", false, true));
  return spec;
}

const std::vector<CommandSpec>& all_specs() {
  static const std::vector<CommandSpec> specs = {
      simulate_spec(),     train_spec(),  evaluate_spec(), predict_spec(),
      dynamic_spec(),      tbreak_spec(), serve_replay_spec(),
      serve_stats_spec(),  trace_spec()};
  return specs;
}

sim::ScenarioRanges ranges_from(const ParsedArgs& args) {
  sim::ScenarioRanges ranges;
  ranges.duration_s = args.get_double("duration");
  ranges.min_vms = static_cast<int>(args.get_long("min-vms"));
  ranges.max_vms = static_cast<int>(args.get_long("max-vms"));
  const auto fans = static_cast<int>(args.get_long("fans"));
  if (fans > 0) {
    ranges.min_fans = fans;
    ranges.max_fans = fans;
  }
  ranges.validate();
  return ranges;
}

int cmd_simulate(const ParsedArgs& args, std::ostream& out) {
  const auto count = static_cast<std::size_t>(args.get_long("count"));
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed"));
  const auto ranges = ranges_from(args);

  out << "running " << count << " profiling experiments...\n";
  const auto records = core::generate_corpus(ranges, count, seed);
  core::write_records_csv_file(args.get("out"), records);
  out << "wrote " << records.size() << " records to " << args.get("out")
      << "\n";
  return 0;
}

int cmd_train(const ParsedArgs& args, std::ostream& out) {
  const long threads = args.get_long("threads");
  detail::require(threads >= 0, "option --threads must be >= 0");
  const auto records = core::read_records_csv_file(args.get("data"));
  out << "training on " << records.size() << " records";

  core::StableTrainOptions options;
  if (args.get_flag("fast")) {
    out << " (fast mode: fixed parameters)";
    ml::SvrParams params;
    params.kernel.gamma = 1.0 / 32;
    params.c = 512.0;
    params.epsilon = 0.05;
    options.fixed_params = params;
  } else {
    options.grid.folds = static_cast<std::size_t>(args.get_long("folds"));
    options.grid.threads = static_cast<std::size_t>(threads);
  }
  out << "...\n";

  core::StableTrainReport report;
  const auto predictor =
      core::StableTemperaturePredictor::train(records, options, &report);
  predictor.save(args.get("model"));

  print_kv(out, "chosen C", Table::num(report.chosen_params.c, 4));
  print_kv(out, "chosen gamma", Table::num(report.chosen_params.kernel.gamma, 6));
  print_kv(out, "chosen epsilon", Table::num(report.chosen_params.epsilon, 3));
  if (report.grid_points_evaluated > 0) {
    print_kv(out, "cv mse", Table::num(report.cv_mse, 3));
  }
  print_kv(out, "support vectors",
           std::to_string(report.final_fit.support_vector_count));
  out << "model saved to " << args.get("model") << "\n";
  return 0;
}

int cmd_evaluate(const ParsedArgs& args, std::ostream& out) {
  const auto predictor =
      core::StableTemperaturePredictor::load(args.get("model"));
  const auto records = core::read_records_csv_file(args.get("data"));
  const auto result = core::evaluate_stable(predictor, records);

  Table table({"case", "vms", "measured_C", "predicted_C", "abs_err_C"});
  for (const auto& c : result.cases) {
    table.add_row({Table::num(static_cast<long long>(c.case_index + 1)),
                   Table::num(static_cast<long long>(c.vm_count)),
                   Table::num(c.measured_c, 2), Table::num(c.predicted_c, 2),
                   Table::num(std::abs(c.predicted_c - c.measured_c), 2)});
  }
  table.print(out);
  print_kv(out, "mse", Table::num(result.mse, 3));
  print_kv(out, "mae", Table::num(result.mae, 3));
  print_kv(out, "max abs error", Table::num(result.max_abs_error, 3));
  return 0;
}

int cmd_predict(const ParsedArgs& args, std::ostream& out) {
  const auto predictor =
      core::StableTemperaturePredictor::load(args.get("model"));
  const auto server = sim::make_server_spec(args.get("server"));
  const auto fans = static_cast<int>(args.get_long("fans"));
  const double env = args.get_double("env");

  std::vector<sim::VmConfig> vms;
  for (const auto& spec : args.get_all("vm")) {
    const VmSpecParts parts = parse_vm_spec(spec);
    sim::VmConfig vm;
    vm.task = sim::task_type_from_name(parts.task);
    vm.vcpus = parts.vcpus;
    vm.memory_gb = parts.memory_gb;
    vm.validate();
    vms.push_back(vm);
  }

  const double psi = predictor.predict(server, vms, fans, env);
  print_kv(out, "server", server.name);
  print_kv(out, "vms", std::to_string(vms.size()));
  print_kv(out, "fans", std::to_string(fans));
  print_kv(out, "env temp", Table::num(env, 1) + " C");
  print_kv(out, "predicted stable CPU temp", Table::num(psi, 2) + " C");
  return 0;
}

int cmd_dynamic(const ParsedArgs& args, std::ostream& out) {
  const auto predictor =
      core::StableTemperaturePredictor::load(args.get("model"));

  sim::ScenarioRanges ranges;
  ranges.duration_s = 1800.0;
  ranges.sample_interval_s = 5.0;
  const auto scenario = core::make_random_dynamic_scenario(
      ranges, static_cast<int>(args.get_long("fans")),
      static_cast<std::uint64_t>(args.get_long("seed")));

  core::DynamicEvalOptions calibrated;
  calibrated.gap_s = args.get_double("gap");
  calibrated.dynamic.update_interval_s = args.get_double("update");
  calibrated.dynamic.learning_rate = args.get_double("lambda");
  core::DynamicEvalOptions uncalibrated = calibrated;
  uncalibrated.dynamic.calibration_enabled = false;

  const auto with_cal = evaluate_dynamic(predictor, scenario, calibrated);
  const auto without_cal = evaluate_dynamic(predictor, scenario, uncalibrated);

  print_kv(out, "scenario VMs (initial)",
           std::to_string(scenario.base.vms.size()));
  print_kv(out, "scripted events", std::to_string(scenario.events.size()));
  print_kv(out, "prediction gap", Table::num(calibrated.gap_s, 0) + " s");
  print_kv(out, "update interval",
           Table::num(calibrated.dynamic.update_interval_s, 0) + " s");
  print_kv(out, "lambda",
           Table::num(calibrated.dynamic.learning_rate, 2));
  Table table({"predictor", "mse", "mae"});
  table.add_row({"with calibration", Table::num(with_cal.mse, 3),
                 Table::num(with_cal.mae, 3)});
  table.add_row({"without calibration", Table::num(without_cal.mse, 3),
                 Table::num(without_cal.mae, 3)});
  table.print(out);
  print_kv(out, "calibration lowers mse",
           with_cal.mse < without_cal.mse ? "yes" : "no");
  return 0;
}

int cmd_tbreak(const ParsedArgs& args, std::ostream& out) {
  sim::ScenarioRanges ranges;
  ranges.duration_s = 2400.0;
  ranges.sample_interval_s = 10.0;
  ranges.dynamic_env_probability = 0.0;
  const auto fans = static_cast<int>(args.get_long("fans"));
  if (fans > 0) {
    ranges.min_fans = fans;
    ranges.max_fans = fans;
  }
  sim::ScenarioSampler sampler(
      ranges, static_cast<std::uint64_t>(args.get_long("seed")));
  const auto configs =
      sampler.sample(static_cast<std::size_t>(args.get_long("count")));
  const auto study = core::study_t_break(configs, args.get_double("band"),
                                         args.get_double("quantile"));

  print_kv(out, "experiments", std::to_string(study.settling_times_s.size()));
  print_kv(out, "unsettled", std::to_string(study.unsettled_count));
  print_kv(out, "median settling",
           Table::num(quantile(study.settling_times_s, 0.5), 0) + " s");
  print_kv(out, "p90 settling",
           Table::num(quantile(study.settling_times_s, 0.9), 0) + " s");
  print_kv(out, "recommended t_break",
           Table::num(study.recommended_t_break_s, 0) + " s");
  print_kv(out, "paper's choice", "600 s");
  return 0;
}

std::string hex_digest(std::uint64_t digest);

int cmd_serve_replay(const ParsedArgs& args, std::ostream& out) {
  auto predictor = core::StableTemperaturePredictor::load(args.get("model"));
  const serve::ReplayOptions options = replay_options_from(args);

  out << "replaying " << options.hosts << " hosts x " << options.steps
      << " steps across " << options.engine.shards << " shards...\n";
  auto report = serve::run_fleet_replay(std::move(predictor), options);

  print_kv(out, "events ingested", std::to_string(report.events_ingested));
  print_kv(out, "forecast digest", hex_digest(report.forecast_digest));

  const auto top = static_cast<std::size_t>(args.get_long("top"));
  Table table({"host", "forecast_C", "at_risk"});
  for (std::size_t i = 0; i < report.risks.size() && i < top; ++i) {
    const auto& risk = report.risks[i];
    table.add_row({risk.host_id, Table::num(risk.forecast_c, 2),
                   risk.at_risk ? "yes" : "no"});
  }
  table.print(out);

  if (args.get_flag("json")) out << report.metrics_json << "\n";
  if (args.has("snapshot")) {
    serve::save_fleet_file(args.get("snapshot"), *report.engine);
    out << "snapshot saved to " << args.get("snapshot") << "\n";
  }
  return 0;
}

std::string hex_digest(std::uint64_t digest) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << digest;
  return os.str();
}

int cmd_trace(const ParsedArgs& args, std::ostream& out) {
  auto predictor = core::StableTemperaturePredictor::load(args.get("model"));
  const serve::ReplayOptions options = replay_options_from(args);

  // One recorder per process: start from a clean slate so back-to-back
  // invocations (tests drive run_cli repeatedly) don't accumulate spans.
  obs::TraceRecorder& recorder = obs::global_trace();
  recorder.clear();
  recorder.set_enabled(true);

  out << "tracing " << options.hosts << " hosts x " << options.steps
      << " steps across " << options.engine.shards << " shards...\n";
  auto report = serve::run_fleet_replay(std::move(predictor), options);
  recorder.set_enabled(false);

  // Span summaries land in the engine registry as timing-class metrics;
  // the deterministic subset (report.metrics_json) is untouched.
  obs::publish_trace_summary(recorder, report.engine->metrics());

  const std::string path = args.get("out");
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  detail::require(file.good(), "cannot open trace output: " + path);
  obs::write_chrome_trace(recorder, file);
  file.close();
  detail::require(file.good(), "failed writing trace output: " + path);

  print_kv(out, "events ingested", std::to_string(report.events_ingested));
  print_kv(out, "forecast digest", hex_digest(report.forecast_digest));
  print_kv(out, "trace events", std::to_string(recorder.event_count()));
  print_kv(out, "trace threads",
           std::to_string(recorder.thread_buffer_count()));
  print_kv(out, "trace dropped", std::to_string(recorder.dropped()));

  Table table({"span", "count", "total_us", "mean_us", "max_us"});
  for (const auto& row : obs::summarize_spans(recorder)) {
    table.add_row({row.name,
                   Table::num(static_cast<long long>(row.count)),
                   Table::num(row.total_us, 1), Table::num(row.mean_us, 2),
                   Table::num(row.max_us, 1)});
  }
  table.print(out);
  out << "trace written to " << path << "\n";
  recorder.clear();
  return 0;
}

void write_stats_json(std::ostream& os,
                      const serve::FleetAccuracyStats& stats) {
  const auto num = [&os](const char* key, double v) {
    std::ostringstream tmp;
    tmp.precision(17);
    tmp << v;
    os << ",\"" << key << "\":" << tmp.str();
  };
  // rolling_* merge both stages; stable_bias is the ψ_stable stage's mean
  // dif, transient_mse the ψ*(t) + γ stage's mean square.
  const auto residual_fields = [&num](const core::StageSums& transient,
                                      const core::StageSums& stable) {
    const core::StageSums merged = transient + stable;
    num("rolling_mse", merged.mse());
    num("rolling_mae", merged.mae());
    num("rolling_mean_dif", merged.mean());
    num("stable_bias", stable.mean());
    num("stable_weight", stable.weight);
    num("transient_mse", transient.mse());
  };
  os << "{\"fleet\":{\"hosts\":" << stats.hosts.size()
     << ",\"observations\":" << stats.observations;
  residual_fields(stats.transient, stats.stable);
  os << ",\"hosts_drifted\":" << stats.hosts_drifted
     << ",\"psi_cache_hits\":" << stats.psi_cache_hits
     << ",\"psi_cache_misses\":" << stats.psi_cache_misses
     << ",\"queue_high_water\":" << stats.queue_high_water << "},\"hosts\":[";
  bool first = true;
  for (const auto& host : stats.hosts) {
    const core::ResidualMonitor& r = host.residuals;
    if (!first) os << ",";
    first = false;
    os << "{\"host_id\":\"" << util::json_escape(host.host_id)
       << "\",\"observations\":" << r.count;
    residual_fields(r.transient, r.stable);
    num("gamma", host.gamma);
    num("drift_positive", r.positive);
    num("drift_negative", r.negative);
    os << ",\"drifted\":" << (r.drifted ? "true" : "false") << "}";
  }
  os << "]}\n";
}

int cmd_serve_stats(const ParsedArgs& args, std::ostream& out) {
  auto predictor = core::StableTemperaturePredictor::load(args.get("model"));
  auto report =
      serve::run_fleet_replay(std::move(predictor), replay_options_from(args));
  const serve::FleetAccuracyStats stats = report.engine->accuracy_report();

  if (args.get_flag("json")) {
    write_stats_json(out, stats);
    return 0;
  }

  const core::StageSums merged = stats.merged();
  print_kv(out, "hosts", std::to_string(stats.hosts.size()));
  print_kv(out, "observations", std::to_string(stats.observations));
  print_kv(out, "fleet rolling mse", Table::num(merged.mse(), 4));
  print_kv(out, "fleet rolling mae", Table::num(merged.mae(), 4));
  print_kv(out, "fleet mean dif", Table::num(merged.mean(), 4));
  print_kv(out, "fleet stable bias", Table::num(stats.stable.mean(), 4));
  print_kv(out, "fleet transient mse", Table::num(stats.transient.mse(), 4));
  print_kv(out, "hosts drifted", std::to_string(stats.hosts_drifted));
  print_kv(out, "psi cache hits", std::to_string(stats.psi_cache_hits));
  print_kv(out, "psi cache misses", std::to_string(stats.psi_cache_misses));
  print_kv(out, "queue high water", std::to_string(stats.queue_high_water));
  print_kv(out, "forecast digest", hex_digest(report.forecast_digest));

  // Worst predictions first: rolling MSE descending, host id on ties.
  std::vector<serve::HostAccuracyStats> rows = stats.hosts;
  std::sort(rows.begin(), rows.end(),
            [](const serve::HostAccuracyStats& a,
               const serve::HostAccuracyStats& b) {
              const double mse_a = a.residuals.merged().mse();
              const double mse_b = b.residuals.merged().mse();
              if (mse_a != mse_b) return mse_a > mse_b;
              return a.host_id < b.host_id;
            });
  const auto top = static_cast<std::size_t>(args.get_long("top"));
  Table table({"host", "obs", "mse", "mae", "stable_bias", "transient_mse",
               "gamma", "drifted"});
  for (std::size_t i = 0; i < rows.size() && (top == 0 || i < top); ++i) {
    const auto& host = rows[i];
    const core::ResidualMonitor& r = host.residuals;
    table.add_row({host.host_id,
                   Table::num(static_cast<long long>(r.count)),
                   Table::num(r.merged().mse(), 4),
                   Table::num(r.merged().mae(), 4),
                   Table::num(r.stable.mean(), 3),
                   Table::num(r.transient.mse(), 4),
                   Table::num(host.gamma, 3), r.drifted ? "yes" : "no"});
  }
  table.print(out);
  return 0;
}

void print_global_help(std::ostream& out) {
  out << "vmtherm - VM-level temperature profiling and prediction\n\n"
      << "commands:\n";
  for (const auto& spec : all_specs()) {
    out << "  " << spec.name() << "\n      " << spec.summary() << "\n";
  }
  out << "  help [command]\n      show this text, or one command's options\n";
}

}  // namespace

VmSpecParts parse_vm_spec(const std::string& spec) {
  const auto first = spec.find(':');
  const auto second = first == std::string::npos
                          ? std::string::npos
                          : spec.find(':', first + 1);
  detail::require(first != std::string::npos && second != std::string::npos,
                  "vm spec must be task:vcpus:memory_gb, got '" + spec + "'");
  VmSpecParts parts;
  parts.task = spec.substr(0, first);
  try {
    parts.vcpus = std::stoi(spec.substr(first + 1, second - first - 1));
    parts.memory_gb = std::stod(spec.substr(second + 1));
  } catch (const std::exception&) {
    throw ConfigError("vm spec has bad numbers: '" + spec + "'");
  }
  detail::require(parts.vcpus >= 1, "vm spec vcpus must be >= 1");
  detail::require(parts.memory_gb > 0.0, "vm spec memory must be positive");
  return parts;
}

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    if (args.size() >= 2) {
      for (const auto& spec : all_specs()) {
        if (spec.name() == args[1]) {
          out << spec.usage();
          return 0;
        }
      }
      err << "unknown command: " << args[1] << "\n";
      return 1;
    }
    print_global_help(out);
    return args.empty() ? 1 : 0;
  }

  const std::string& command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());

  try {
    for (const auto& spec : all_specs()) {
      if (spec.name() != command) continue;
      const ParsedArgs parsed = spec.parse(rest);
      if (command == "simulate") return cmd_simulate(parsed, out);
      if (command == "train") return cmd_train(parsed, out);
      if (command == "evaluate") return cmd_evaluate(parsed, out);
      if (command == "predict") return cmd_predict(parsed, out);
      if (command == "dynamic") return cmd_dynamic(parsed, out);
      if (command == "tbreak") return cmd_tbreak(parsed, out);
      if (command == "serve-replay") return cmd_serve_replay(parsed, out);
      if (command == "serve-stats") return cmd_serve_stats(parsed, out);
      if (command == "trace") return cmd_trace(parsed, out);
    }
    err << "unknown command: " << command << "\n\n";
    print_global_help(err);
    return 1;
  } catch (const ConfigError& e) {
    err << e.what() << "\n";
    return 1;
  } catch (const Error& e) {
    err << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    err << "internal error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace vmtherm::cli
