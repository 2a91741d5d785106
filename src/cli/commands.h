// vmtherm/cli/commands.h
//
// The vmtherm command-line tool, as a library so tests can drive it.
//
//   vmtherm simulate  --count 400 --seed 42 --out records.csv
//   vmtherm train     --data records.csv --model model.txt [--fast]
//   vmtherm evaluate  --model model.txt --data test.csv
//   vmtherm predict   --model model.txt --server medium --fans 4 --env 23
//                     --vm cpu_burn:4:8 --vm web_server:2:4
//   vmtherm tbreak    --count 16 --seed 7 --fans 4
//   vmtherm serve-replay --model model.txt --hosts 64 --steps 120
//                     --shards 4 [--snapshot fleet.txt] [--json]
//   vmtherm serve-stats  --model model.txt --hosts 64 --steps 120
//                     [--top 10] [--json]
//   vmtherm trace     --model model.txt --hosts 64 --steps 120
//                     --out trace.json
//   vmtherm help [command]

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace vmtherm::cli {

/// Runs the CLI. `args` excludes the program name (so {"train", "--data",
/// ...}). Normal output goes to `out`, errors to `err`. Returns the process
/// exit code (0 success, 1 user error, 2 internal error).
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

/// Parses a "--vm task:vcpus:memory_gb" specification, e.g. "cpu_burn:4:8".
/// Exposed for tests. Throws ConfigError on malformed specs.
struct VmSpecParts {
  std::string task;
  int vcpus = 0;
  double memory_gb = 0.0;
};
VmSpecParts parse_vm_spec(const std::string& spec);

}  // namespace vmtherm::cli
