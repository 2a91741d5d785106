// Tests for the vmtherm CLI: argument parsing and end-to-end command runs
// (driven through run_cli with temp files, no subprocesses).

#include "cli/commands.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/args.h"

namespace vmtherm::cli {
namespace {

// ------------------------------------------------------------- args ------

CommandSpec demo_spec() {
  CommandSpec spec("demo", "demo command");
  spec.add(make_option("alpha", "a required value", true));
  spec.add(make_option("beta", "an optional value", false, false, false, "7"));
  spec.add(make_option("gamma", "a flag", false, true));
  spec.add(make_option("item", "repeatable", false, false, true));
  return spec;
}

TEST(ArgsTest, ParsesValuesFlagsAndRepeats) {
  const auto parsed = demo_spec().parse(
      {"--alpha", "5", "--gamma", "--item", "a", "--item=b"});
  EXPECT_EQ(parsed.get("alpha"), "5");
  EXPECT_EQ(parsed.get("beta"), "7");  // default
  EXPECT_TRUE(parsed.get_flag("gamma"));
  const auto items = parsed.get_all("item");
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0], "a");
  EXPECT_EQ(items[1], "b");
}

TEST(ArgsTest, EqualsSyntax) {
  const auto parsed = demo_spec().parse({"--alpha=hello"});
  EXPECT_EQ(parsed.get("alpha"), "hello");
}

TEST(ArgsTest, TypedAccessors) {
  const auto parsed = demo_spec().parse({"--alpha", "2.5", "--beta", "42"});
  EXPECT_DOUBLE_EQ(parsed.get_double("alpha"), 2.5);
  EXPECT_EQ(parsed.get_long("beta"), 42);
  EXPECT_FALSE(parsed.get_flag("gamma"));
}

TEST(ArgsTest, TypedAccessorErrors) {
  const auto parsed = demo_spec().parse({"--alpha", "abc"});
  EXPECT_THROW((void)parsed.get_double("alpha"), ConfigError);
  EXPECT_THROW((void)parsed.get_long("alpha"), ConfigError);
}

TEST(ArgsTest, MissingRequiredThrows) {
  EXPECT_THROW((void)demo_spec().parse({}), ConfigError);
}

TEST(ArgsTest, UnknownOptionThrows) {
  EXPECT_THROW((void)demo_spec().parse({"--alpha", "1", "--zeta", "2"}),
               ConfigError);
}

TEST(ArgsTest, MissingValueThrows) {
  EXPECT_THROW((void)demo_spec().parse({"--alpha"}), ConfigError);
}

TEST(ArgsTest, DuplicateNonRepeatableThrows) {
  EXPECT_THROW((void)demo_spec().parse({"--alpha", "1", "--alpha", "2"}),
               ConfigError);
}

TEST(ArgsTest, FlagWithValueThrows) {
  EXPECT_THROW((void)demo_spec().parse({"--alpha", "1", "--gamma=yes"}),
               ConfigError);
}

TEST(ArgsTest, PositionalTokenThrows) {
  EXPECT_THROW((void)demo_spec().parse({"positional"}), ConfigError);
}

TEST(ArgsTest, UndeclaredQueryThrows) {
  const auto parsed = demo_spec().parse({"--alpha", "1"});
  EXPECT_THROW((void)parsed.get("zeta"), ConfigError);
}

TEST(ArgsTest, UsageMentionsEveryOption) {
  const std::string usage = demo_spec().usage();
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("--beta"), std::string::npos);
  EXPECT_NE(usage.find("(required)"), std::string::npos);
  EXPECT_NE(usage.find("default: 7"), std::string::npos);
}

// --------------------------------------------------------- vm specs ------

TEST(VmSpecTest, ParsesWellFormed) {
  const auto parts = parse_vm_spec("cpu_burn:4:8.5");
  EXPECT_EQ(parts.task, "cpu_burn");
  EXPECT_EQ(parts.vcpus, 4);
  EXPECT_DOUBLE_EQ(parts.memory_gb, 8.5);
}

TEST(VmSpecTest, RejectsMalformed) {
  EXPECT_THROW((void)parse_vm_spec("cpu_burn"), ConfigError);
  EXPECT_THROW((void)parse_vm_spec("cpu_burn:4"), ConfigError);
  EXPECT_THROW((void)parse_vm_spec("cpu_burn:x:8"), ConfigError);
  EXPECT_THROW((void)parse_vm_spec("cpu_burn:0:8"), ConfigError);
  EXPECT_THROW((void)parse_vm_spec("cpu_burn:4:-1"), ConfigError);
}

// ----------------------------------------------------------- run_cli -----

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult run(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(RunCliTest, NoArgsPrintsHelpAndFails) {
  const auto result = run({});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.out.find("commands:"), std::string::npos);
}

TEST(RunCliTest, HelpSucceeds) {
  const auto result = run({"help"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("simulate"), std::string::npos);
}

TEST(RunCliTest, HelpForCommand) {
  const auto result = run({"help", "train"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("--data"), std::string::npos);
}

TEST(RunCliTest, HelpForUnknownCommandFails) {
  const auto result = run({"help", "frobnicate"});
  EXPECT_EQ(result.code, 1);
}

TEST(RunCliTest, UnknownCommandFails) {
  const auto result = run({"frobnicate"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(RunCliTest, UserErrorIsReportedNotThrown) {
  const auto result = run({"train", "--model", "x"});  // missing --data
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("--data"), std::string::npos);
}

TEST(RunCliTest, MissingDataFileIsUserError) {
  const auto result = run({"train", "--data", "/nonexistent/r.csv",
                           "--model", temp_path("never.model")});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("cannot open"), std::string::npos);
}

TEST(RunCliTest, FullPipelineSimulateTrainPredictEvaluate) {
  const std::string records = temp_path("vmtherm_cli_test_records.csv");
  const std::string model = temp_path("vmtherm_cli_test_model.txt");

  auto result = run({"simulate", "--count", "25", "--seed", "9", "--out",
                     records, "--duration", "1200"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("wrote 25 records"), std::string::npos);

  result = run({"train", "--data", records, "--model", model, "--fast"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("model saved"), std::string::npos);

  result = run({"predict", "--model", model, "--server", "medium", "--fans",
                "4", "--env", "23", "--vm", "cpu_burn:4:8", "--vm",
                "idle:2:4"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("predicted stable CPU temp"), std::string::npos);

  result = run({"evaluate", "--model", model, "--data", records});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("mse"), std::string::npos);

  std::filesystem::remove(records);
  std::filesystem::remove(model);
}

TEST(RunCliTest, TrainThreadsProducesIdenticalModelAndOutput) {
  // --threads must not change anything observable: same stdout, same model
  // file bytes as the serial run.
  const std::string records = temp_path("vmtherm_cli_test_records_thr.csv");
  const std::string model1 = temp_path("vmtherm_cli_test_model_thr1.txt");
  const std::string model4 = temp_path("vmtherm_cli_test_model_thr4.txt");
  ASSERT_EQ(run({"simulate", "--count", "25", "--seed", "9", "--out", records,
                 "--duration", "1200"})
                .code,
            0);

  const auto serial = run({"train", "--data", records, "--model", model1,
                           "--folds", "2", "--threads", "1"});
  ASSERT_EQ(serial.code, 0) << serial.err;
  const auto threaded = run({"train", "--data", records, "--model", model4,
                             "--folds", "2", "--threads", "4"});
  ASSERT_EQ(threaded.code, 0) << threaded.err;
  // Identical up to the echoed output path on the last line.
  const auto strip_path_line = [](const std::string& s) {
    return s.substr(0, s.find("model saved to "));
  };
  EXPECT_EQ(strip_path_line(serial.out), strip_path_line(threaded.out));
  EXPECT_FALSE(strip_path_line(serial.out).empty());

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
  };
  const std::string bytes1 = slurp(model1);
  ASSERT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, slurp(model4));

  std::filesystem::remove(records);
  std::filesystem::remove(model1);
  std::filesystem::remove(model4);
}

TEST(RunCliTest, TrainRejectsNegativeThreads) {
  const auto result = run({"train", "--data", "r.csv", "--model", "m.txt",
                           "--threads", "-2"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("--threads"), std::string::npos);
}

TEST(RunCliTest, PredictRejectsBadTaskName) {
  const std::string records = temp_path("vmtherm_cli_test_records2.csv");
  const std::string model = temp_path("vmtherm_cli_test_model2.txt");
  ASSERT_EQ(run({"simulate", "--count", "12", "--seed", "2", "--out", records,
                 "--duration", "1200"})
                .code,
            0);
  ASSERT_EQ(run({"train", "--data", records, "--model", model, "--fast"}).code,
            0);
  const auto result = run({"predict", "--model", model, "--server", "medium",
                           "--fans", "4", "--env", "23", "--vm",
                           "quantum_miner:4:8"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("unknown task type"), std::string::npos);
  std::filesystem::remove(records);
  std::filesystem::remove(model);
}

TEST(RunCliTest, TbreakReportsRecommendation) {
  const auto result = run({"tbreak", "--count", "6", "--seed", "3", "--fans",
                           "4"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("recommended t_break"), std::string::npos);
  EXPECT_NE(result.out.find("600 s"), std::string::npos);
}

TEST(RunCliTest, SimulatePinnedFansRespected) {
  const std::string records = temp_path("vmtherm_cli_test_records3.csv");
  ASSERT_EQ(run({"simulate", "--count", "8", "--seed", "4", "--out", records,
                 "--duration", "1200", "--fans", "2"})
                .code,
            0);
  // Read back and confirm every record has fan_count == 2.
  std::ifstream in(records);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("fan_count"), std::string::npos);
  std::filesystem::remove(records);
}


TEST(RunCliTest, DynamicCommandComparesCalibration) {
  const std::string records = temp_path("vmtherm_cli_test_records4.csv");
  const std::string model = temp_path("vmtherm_cli_test_model4.txt");
  ASSERT_EQ(run({"simulate", "--count", "40", "--seed", "6", "--out", records,
                 "--duration", "1200"})
                .code,
            0);
  ASSERT_EQ(run({"train", "--data", records, "--model", model, "--fast"}).code,
            0);
  const auto result = run({"dynamic", "--model", model, "--seed", "3",
                           "--gap", "60", "--update", "15"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("with calibration"), std::string::npos);
  EXPECT_NE(result.out.find("without calibration"), std::string::npos);
  EXPECT_NE(result.out.find("calibration lowers mse"), std::string::npos);
  std::filesystem::remove(records);
  std::filesystem::remove(model);
}

// Pulls the value of one `print_kv` line ("  key:   value") out of a
// command's stdout.
std::string kv_value(const std::string& out, const std::string& key) {
  const auto pos = out.find("  " + key + ":");
  if (pos == std::string::npos) return {};
  const auto eol = out.find('\n', pos);
  std::string line = out.substr(pos, eol - pos);
  line.erase(0, line.find(':') + 1);
  line.erase(0, line.find_first_not_of(' '));
  return line;
}

TEST(RunCliTest, ServeStatsAndTraceAgreeOnTheReplayDigest) {
  const std::string records = temp_path("vmtherm_cli_test_records5.csv");
  const std::string model = temp_path("vmtherm_cli_test_model5.txt");
  const std::string trace_file = temp_path("vmtherm_cli_test_trace.json");
  ASSERT_EQ(run({"simulate", "--count", "25", "--seed", "9", "--out", records,
                 "--duration", "1200"})
                .code,
            0);
  ASSERT_EQ(run({"train", "--data", records, "--model", model, "--fast"}).code,
            0);
  const std::vector<std::string> replay = {"--model", model,   "--hosts", "8",
                                           "--steps", "30",    "--shards", "3",
                                           "--seed",  "11"};
  const auto with_command = [&replay](const std::string& command,
                                      std::vector<std::string> extra) {
    std::vector<std::string> args{command};
    args.insert(args.end(), replay.begin(), replay.end());
    args.insert(args.end(), extra.begin(), extra.end());
    return run(args);
  };

  const auto stats = with_command("serve-stats", {});
  ASSERT_EQ(stats.code, 0) << stats.err;
  EXPECT_NE(stats.out.find("fleet rolling mse"), std::string::npos);
  EXPECT_NE(stats.out.find("fleet stable bias"), std::string::npos);
  EXPECT_NE(stats.out.find("transient_mse"), std::string::npos);
  EXPECT_EQ(kv_value(stats.out, "hosts"), "8");

  // Tracing must not perturb the replay: same forecast digest with the
  // recorder on (trace) and off (serve-stats).
  const auto traced = with_command("trace", {"--out", trace_file});
  ASSERT_EQ(traced.code, 0) << traced.err;
  const std::string digest = kv_value(stats.out, "forecast digest");
  ASSERT_EQ(digest.size(), 16u);
  EXPECT_EQ(kv_value(traced.out, "forecast digest"), digest);
  EXPECT_NE(traced.out.find("serve.observe"), std::string::npos);
  EXPECT_NE(kv_value(traced.out, "trace events"), "0");

  // The exported file is a Chrome trace-event document.
  std::ifstream in(trace_file, std::ios::binary);
  std::ostringstream oss;
  oss << in.rdbuf();
  const std::string trace_json = oss.str();
  EXPECT_EQ(trace_json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace_json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  // JSON mode reports the same fleet in machine-readable form.
  const auto json = with_command("serve-stats", {"--json"});
  ASSERT_EQ(json.code, 0) << json.err;
  EXPECT_EQ(json.out.rfind("{\"fleet\":{\"hosts\":8,", 0), 0u);
  EXPECT_NE(json.out.find("\"rolling_mse\":"), std::string::npos);
  EXPECT_NE(json.out.find("\"host_id\":"), std::string::npos);
  EXPECT_NE(json.out.find("\"stable_bias\":"), std::string::npos);
  EXPECT_NE(json.out.find("\"transient_mse\":"), std::string::npos);
  EXPECT_EQ(json.out.find("window"), std::string::npos);

  std::filesystem::remove(records);
  std::filesystem::remove(model);
  std::filesystem::remove(trace_file);
}

TEST(RunCliTest, ServeStatsDefaultReplayFeedsTheStableStage) {
  // The default replay runs past t_break (600 s), so some host's ψ_stable
  // stage holds more than the one observation at t_break.
  const std::string records = temp_path("vmtherm_cli_test_records6.csv");
  const std::string model = temp_path("vmtherm_cli_test_model6.txt");
  ASSERT_EQ(run({"simulate", "--count", "25", "--seed", "9", "--out", records,
                 "--duration", "1200"})
                .code,
            0);
  ASSERT_EQ(run({"train", "--data", records, "--model", model, "--fast"}).code,
            0);
  const auto json = run({"serve-stats", "--model", model, "--json"});
  ASSERT_EQ(json.code, 0) << json.err;
  const std::string key = "\"stable_weight\":";
  const std::size_t hosts = json.out.find("\"hosts\":[");
  ASSERT_NE(hosts, std::string::npos);
  double most = 0.0;
  for (std::size_t pos = json.out.find(key, hosts); pos != std::string::npos;
       pos = json.out.find(key, pos + 1)) {
    most = std::max(most, std::stod(json.out.substr(pos + key.size())));
  }
  EXPECT_GT(most, 1.0);
  const auto stats = run({"serve-stats", "--model", model});
  ASSERT_EQ(stats.code, 0) << stats.err;
  EXPECT_NE(kv_value(stats.out, "fleet stable bias"), "0.0000");

  std::filesystem::remove(records);
  std::filesystem::remove(model);
}

TEST(RunCliTest, ServeStatsRejectsBadWindow) {
  // The stage sums decay at a fixed rate; there is no window to set.
  const auto result = run({"serve-stats", "--model", "m.txt", "--window", "0"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("--window"), std::string::npos);
}

}  // namespace
}  // namespace vmtherm::cli
