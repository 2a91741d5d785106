// perfbench/main.cpp
//
// vmtherm benchmark binary: runs one workload and prints its metrics.
//
//   vmtherm_perfbench --workload steady|churn|ops|train --seed N
//                     --seconds S --trace 0|1 [--trace-out PATH]
//                     [--commit ID]
//
// Output: a provenance line, a human-readable table of every metric with
// its unit, sample count, median and supported tail percentile, the output
// checks, and as the last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). Exit status 1 on an output mismatch, 2 on a
// usage error or an exception from the program under test.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_INFERENCE_NATIVE
#define PERFBENCH_INFERENCE_NATIVE 0
#endif

namespace {

constexpr std::uint64_t kDefaultSeed = 42;
/// Second seed, kept for validating a change on inputs it was not tuned on.
constexpr std::uint64_t kValidationSeed = 7;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "vmtherm_perfbench: " << why << "\n"
            << "usage: vmtherm_perfbench --workload steady|churn|ops|train "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH] "
               "[--commit ID]\n";
  std::exit(2);
}

std::size_t available_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string fixed(double v, int digits) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(digits);
  out << v;
  return out.str();
}

void print_table(const char* title, const std::vector<perfbench::Metric>& ms) {
  std::cout << "# " << title << "\n";
  std::cout << "#   metric                          value          unit     n"
               "        tail\n";
  for (const perfbench::Metric& m : ms) {
    std::string tail = "-";
    if (m.summary.tail_pct > 0) {
      tail = "p";
      tail += fixed(m.summary.tail_pct, m.summary.tail_pct < 99.5 ? 0 : 1);
      tail += '=';
      tail += fixed(m.summary.tail, 4);
    }
    std::cout << "#   " << m.name
              << std::string(m.name.size() < 32 ? 32 - m.name.size() : 1, ' ')
              << fixed(m.value, 4) << "  " << m.unit << "  n=" << m.summary.n
              << "  " << tail << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.seed = kDefaultSeed;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--trace-out") {
        options.trace_path = value;
      } else if (arg == "--commit") {
        commit = value;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) {
    known = known || w == options.workload;
  }
  if (!known) usage("unknown workload " + options.workload);
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  options.nproc = available_cpus();

  std::cout << "provenance: {\"commit\": " << json_string(commit)
            << ", \"workload\": " << json_string(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"default_seed\": " << kDefaultSeed
            << ", \"validation_seed\": " << kValidationSeed
            << ", \"seconds\": " << number(options.seconds)
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"nproc\": " << options.nproc
            << ", \"engine_threads\": "
            << (options.nproc > 1 ? options.nproc - 1 : 1)
            << ", \"cpu\": " << json_string(cpu_model())
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"VMTHERM_INFERENCE_NATIVE\": " << PERFBENCH_INFERENCE_NATIVE
            << ", \"VMTHERM_TRACE\": " << VMTHERM_TRACE << "}\n";

  perfbench::Outcome outcome;
  try {
    outcome = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "vmtherm_perfbench: " << options.workload
              << " failed: " << e.what() << "\n";
    return 2;
  }

  print_table("end-to-end", outcome.end_to_end);
  print_table("end-to-end, printed only (no bound)", outcome.unbounded);
  print_table("per-layer", outcome.per_layer);
  for (const std::string& note : outcome.notes) std::cout << "# " << note << "\n";
  std::cout << "# attempted " << outcome.attempted << ", failed "
            << outcome.failed << " (base: " << outcome.attempted_base << ")\n";
  for (const std::string& m : outcome.mismatches) {
    std::cout << "# MISMATCH: " << m << "\n";
  }

  const bool correct = outcome.mismatches.empty();
  const std::vector<perfbench::Metric>& reported =
      options.trace ? outcome.per_layer : outcome.end_to_end;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const perfbench::Metric& m = reported[i];
    std::cout << (i == 0 ? "" : ", ") << json_string(m.name)
              << ": {\"value\": " << number(m.value)
              << ", \"unit\": " << json_string(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
