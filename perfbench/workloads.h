// perfbench/workloads.h
//
// The four benchmark workloads (steady, churn, ops, train) and the
// measurements they report. Each workload builds its inputs from the run
// seed before any timed region, drives vmtherm only through its public
// API (sim, ml, core, serve, obs), checks its outputs against an untimed
// reference pass and returns every end-to-end and per-layer metric.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Run-wide settings from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace ("" = do not write).
  std::string trace_path;
  /// Hardware threads available to the process: the engine pool gets
  /// nproc - 1 threads (the producer is the last one); training uses all.
  std::size_t nproc = 1;
};

/// One reported number. `summary` is set for timings built from samples
/// (value = median); counts and ratios carry n = 1.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  Summary summary;
};

struct Outcome {
  /// Output checks; each failed check appends a line to `mismatches`.
  std::vector<std::string> mismatches;
  /// Operations attempted and failed, with what they count.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string attempted_base;
  std::vector<Metric> end_to_end;
  /// End-to-end numbers printed in the report but not in the result JSON,
  /// because they are too noisy between runs to carry a bound.
  std::vector<Metric> unbounded;
  std::vector<Metric> per_layer;
  /// Free-form lines for the human-readable report (checks, notes).
  std::vector<std::string> notes;
};

/// Names accepted by run_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload. Throws on a failure of the program under test that
/// is not an output mismatch (for instance an exception from the engine).
Outcome run_workload(const RunOptions& options);

}  // namespace perfbench
