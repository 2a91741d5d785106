// vmtherm/tools/lint/rules.h
//
// The vmtherm-lint rule catalog and the per-file checker. Rules encode the
// invariants the library's determinism and serving guarantees rest on (see
// DESIGN.md §8); each rule carries an id used both in diagnostics
// (`file:line: [rule-id] message`) and in suppression comments:
//
//   timed_section();  // vmtherm-lint: allow(det-clock, hot-string)
//
// A suppression on a line of its own applies to the next line. Naming a
// rule that does not exist in the catalog is itself a violation
// (lint-bad-suppression), so stale suppressions cannot rot silently.
//
// Rule scopes are derived from the *logical* (repo-relative, forward-slash)
// path, so tests can lint fixture content under any claimed path.

#pragma once

#include <string>
#include <vector>

namespace vmtherm::lint {

/// Catalog version — bump when a rule is added, removed or changes
/// meaning, so JSON reports from different tool builds are comparable.
/// v2: hot-path and concurrency scopes grew the src/obs tracer/accuracy
/// files; the serve metrics files rejoined the determinism scope after
/// the registry moved to src/obs.
/// v3: the hot-path scope follows the per-observe residual statistic from
/// src/obs/accuracy to src/core/drift.
inline constexpr int kCatalogVersion = 3;

struct Rule {
  const char* id;
  const char* category;  ///< determinism | hot-path | header | concurrency | meta
  const char* summary;
};

/// The full versioned catalog, in stable (documentation) order.
const std::vector<Rule>& rule_catalog();

/// True when `id` names a catalog rule.
bool is_known_rule(const std::string& id);

struct Violation {
  std::string file;  ///< logical path the content was linted as
  int line = 0;
  std::string rule;
  std::string message;
};

/// Lints one file's `source` under the scopes implied by `logical_path`.
/// Returned violations are sorted by line, then rule id.
std::vector<Violation> lint_source(const std::string& logical_path,
                                   const std::string& source);

/// Scope predicates, exposed for tests and for the scanner's file filter.
/// All take logical repo-relative paths with forward slashes.
bool in_determinism_scope(const std::string& path);
bool is_hot_path_file(const std::string& path);
bool in_header_scope(const std::string& path);
bool in_concurrency_scope(const std::string& path);

}  // namespace vmtherm::lint
