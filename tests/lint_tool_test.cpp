// Tests for tools/lint (vmtherm-lint): each catalog rule fires on known-bad
// fixture input at the expected line, the lexer keeps banned names in
// comments/strings from matching, suppressions are honored (and stale ones
// reported), and the JSON report is well-formed and deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lexer.h"
#include "lint/report.h"
#include "lint/rules.h"

namespace vmtherm::lint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(VMTHERM_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// 1-based line of the first line containing `needle`.
int line_of(const std::string& source, const std::string& needle) {
  std::istringstream in(source);
  std::string line;
  int number = 0;
  while (std::getline(in, line)) {
    ++number;
    if (line.find(needle) != std::string::npos) return number;
  }
  ADD_FAILURE() << "marker not found: " << needle;
  return -1;
}

bool has_violation(const std::vector<Violation>& violations,
                   const std::string& rule, int line) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) {
                       return v.rule == rule && v.line == line;
                     });
}

std::size_t count_rule(const std::vector<Violation>& violations,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(violations.begin(), violations.end(),
                    [&](const Violation& v) { return v.rule == rule; }));
}

// --- lexer --------------------------------------------------------------

TEST(LintLexerTest, SkipsCommentsAndStringsButKeepsThemAsTokens) {
  const std::string src =
      "int a; // rand() in a comment\n"
      "const char* s = \"getenv inside\"; /* steady_clock */\n";
  const LexedFile lexed = lex(src);
  std::size_t comments = 0, strings = 0;
  for (const Token& t : lexed.tokens) {
    if (t.kind == TokenKind::kComment) ++comments;
    if (t.kind == TokenKind::kString) ++strings;
    if (t.kind == TokenKind::kIdentifier) {
      EXPECT_NE(t.text, "rand");
      EXPECT_NE(t.text, "getenv");
      EXPECT_NE(t.text, "steady_clock");
    }
  }
  EXPECT_EQ(comments, 2u);
  EXPECT_EQ(strings, 1u);
}

TEST(LintLexerTest, RawStringsAndEscapesDoNotLeakIdentifiers) {
  const std::string src =
      "auto r = R\"(rand() \" system_clock)\";\n"
      "auto e = \"a \\\" rand\";\n"
      "char c = '\\'';\n"
      "int after = 1;\n";
  const LexedFile lexed = lex(src);
  bool saw_after = false;
  for (const Token& t : lexed.tokens) {
    if (t.kind == TokenKind::kIdentifier) {
      EXPECT_NE(t.text, "rand");
      EXPECT_NE(t.text, "system_clock");
      if (t.text == "after") saw_after = true;
    }
  }
  EXPECT_TRUE(saw_after);
}

TEST(LintLexerTest, TracksLinesAcrossBlockCommentsAndRawStrings) {
  const std::string src = "/* line1\nline2 */\nint x;\n";
  const LexedFile lexed = lex(src);
  const auto it =
      std::find_if(lexed.tokens.begin(), lexed.tokens.end(),
                   [](const Token& t) { return t.text == "x"; });
  ASSERT_NE(it, lexed.tokens.end());
  EXPECT_EQ(it->line, 3);
}

TEST(LintLexerTest, MarksPreprocessorTokens) {
  const std::string src = "#include <mutex>\nstd::mutex m;\n";
  const LexedFile lexed = lex(src);
  bool saw_pp_mutex = false, saw_code_mutex = false;
  for (const Token& t : lexed.tokens) {
    if (t.text == "mutex") {
      (t.in_pp_directive ? saw_pp_mutex : saw_code_mutex) = true;
    }
  }
  EXPECT_TRUE(saw_pp_mutex);
  EXPECT_TRUE(saw_code_mutex);
}

// --- catalog ------------------------------------------------------------

TEST(LintCatalogTest, RuleIdsAreUniqueAndKnown) {
  const auto& catalog = rule_catalog();
  ASSERT_FALSE(catalog.empty());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_TRUE(is_known_rule(catalog[i].id));
    for (std::size_t j = i + 1; j < catalog.size(); ++j) {
      EXPECT_STRNE(catalog[i].id, catalog[j].id);
    }
  }
  EXPECT_FALSE(is_known_rule("no-such-rule"));
}

TEST(LintCatalogTest, ScopesMatchTheDocumentedLayout) {
  EXPECT_TRUE(in_determinism_scope("src/core/online.cpp"));
  EXPECT_TRUE(in_determinism_scope("src/serve/engine.cpp"));
  // The registry moved to src/obs; the serve alias header is back in scope
  // while the observability subsystem (wall-clock business) stays out.
  EXPECT_TRUE(in_determinism_scope("src/serve/metrics.h"));
  EXPECT_FALSE(in_determinism_scope("src/obs/metrics.cpp"));
  EXPECT_FALSE(in_determinism_scope("src/obs/trace.cpp"));
  EXPECT_FALSE(in_determinism_scope("src/util/rng.cpp"));  // seeded RNG home
  EXPECT_FALSE(in_determinism_scope("tests/foo.cpp"));

  EXPECT_TRUE(is_hot_path_file("src/serve/engine.cpp"));
  EXPECT_TRUE(is_hot_path_file("src/serve/shard.cpp"));
  EXPECT_TRUE(is_hot_path_file("src/serve/event.h"));
  EXPECT_TRUE(is_hot_path_file("src/serve/psi_cache.h"));
  EXPECT_TRUE(is_hot_path_file("src/ml/svr_inference.cpp"));
  EXPECT_TRUE(is_hot_path_file("src/ml/svr_inference.h"));
  EXPECT_TRUE(is_hot_path_file("src/obs/trace.h"));
  EXPECT_TRUE(is_hot_path_file("src/obs/trace.cpp"));
  EXPECT_TRUE(is_hot_path_file("src/core/drift.h"));
  EXPECT_TRUE(is_hot_path_file("src/core/drift.cpp"));
  EXPECT_FALSE(is_hot_path_file("src/serve/snapshot.cpp"));
  EXPECT_FALSE(is_hot_path_file("src/obs/chrome_trace.cpp"));  // cold export

  EXPECT_TRUE(in_header_scope("src/mgmt/monitor.h"));
  EXPECT_FALSE(in_header_scope("src/mgmt/monitor.cpp"));
  EXPECT_TRUE(in_concurrency_scope("src/serve/shard.h"));
  EXPECT_TRUE(in_concurrency_scope("src/obs/trace.h"));
  EXPECT_TRUE(in_concurrency_scope("src/obs/metrics.h"));
  EXPECT_FALSE(in_concurrency_scope("src/obs/trace.cpp"));
  EXPECT_FALSE(in_concurrency_scope("src/core/online.h"));
}

// --- determinism rules --------------------------------------------------

TEST(LintRulesTest, DeterminismRulesFireOnFixture) {
  const std::string src = read_fixture("det_bad.cpp");
  const auto violations = lint_source("src/core/fixture.cpp", src);
  EXPECT_TRUE(has_violation(violations, "det-random-device",
                            line_of(src, "std::random_device entropy")));
  EXPECT_TRUE(has_violation(violations, "det-rand",
                            line_of(src, "return rand() % 6")));
  EXPECT_TRUE(has_violation(violations, "det-clock",
                            line_of(src, "system_clock::now")));
  EXPECT_TRUE(has_violation(violations, "det-getenv",
                            line_of(src, "getenv(\"HOME\")")));
  EXPECT_TRUE(has_violation(violations, "det-locale",
                            line_of(src, "std::locale::global")));
}

TEST(LintRulesTest, DeterminismScopeIsPathDependent) {
  const std::string src = read_fixture("det_bad.cpp");
  // util/ and tests/ are outside the deterministic scope: no det-* rules.
  for (const auto& v : lint_source("src/util/fixture.cpp", src)) {
    EXPECT_NE(v.rule.substr(0, 4), "det-") << v.message;
  }
  for (const auto& v : lint_source("tests/fixture.cpp", src)) {
    EXPECT_NE(v.rule.substr(0, 4), "det-") << v.message;
  }
}

TEST(LintRulesTest, CommentsAndStringsNeverFire) {
  const std::string src = read_fixture("det_clean.cpp");
  const auto violations = lint_source("src/core/fixture.cpp", src);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? ""
                             : format_diagnostic(violations.front()));
}

// --- hot-path rules -----------------------------------------------------

TEST(LintRulesTest, HotPathRulesFireOnFixture) {
  const std::string src = read_fixture("hot_bad.cpp");
  const auto violations = lint_source("src/serve/engine.cpp", src);
  EXPECT_TRUE(has_violation(violations, "hot-iostream",
                            line_of(src, "#include <iostream>")));
  EXPECT_TRUE(has_violation(violations, "hot-iostream",
                            line_of(src, "std::cout << id")));
  EXPECT_TRUE(has_violation(violations, "hot-string",
                            line_of(src, "\"host-\" + std::to_string")));
  EXPECT_TRUE(has_violation(violations, "hot-string",
                            line_of(src, "std::string(id)")));
  EXPECT_TRUE(has_violation(violations, "hot-require-string",
                            line_of(src, "require(ok, \"bad host: \" + id)")));
}

TEST(LintRulesTest, HotPathRulesOnlyApplyToHotFiles) {
  const std::string src = read_fixture("hot_bad.cpp");
  for (const auto& v : lint_source("src/serve/snapshot.cpp", src)) {
    EXPECT_NE(v.rule.substr(0, 4), "hot-") << v.message;
  }
}

TEST(LintRulesTest, ReferencesToStringTypesAreNotConstruction) {
  // Parameters, members and npos lookups must not fire — only temporaries.
  const std::string src =
      "void f(const std::string& s);\n"
      "bool g(const std::string& s) {\n"
      "  return s.find(' ') != std::string::npos;\n"
      "}\n";
  const auto violations = lint_source("src/serve/engine.cpp", src);
  EXPECT_EQ(count_rule(violations, "hot-string"), 0u);
}

// --- header rules -------------------------------------------------------

TEST(LintRulesTest, HeaderRulesFireOnFixture) {
  const std::string src = read_fixture("hdr_bad.h");
  const auto violations = lint_source("src/mgmt/fixture.h", src);
  EXPECT_TRUE(has_violation(violations, "hdr-pragma-once",
                            line_of(src, "#include <vector>")));
  EXPECT_TRUE(has_violation(violations, "hdr-using-namespace",
                            line_of(src, "using namespace std")));
}

TEST(LintRulesTest, IncludeGuardsSatisfyPragmaOnceRule) {
  const std::string src = read_fixture("hdr_guarded.h");
  const auto violations = lint_source("src/mgmt/guarded.h", src);
  EXPECT_EQ(count_rule(violations, "hdr-pragma-once"), 0u)
      << format_diagnostic(violations.front());
}

// --- concurrency rules --------------------------------------------------

TEST(LintRulesTest, ConcurrencyAnnotationsRequiredInServeHeaders) {
  const std::string src = read_fixture("conc_bad.h");
  const auto violations = lint_source("src/serve/fixture.h", src);
  EXPECT_TRUE(has_violation(violations, "conc-guard-comment",
                            line_of(src, "std::atomic<int> bare_counter_")));
  EXPECT_TRUE(has_violation(violations, "conc-guard-comment",
                            line_of(src, "std::mutex bare_mutex_")));
  // Annotated members and lock acquisitions never fire.
  EXPECT_EQ(count_rule(violations, "conc-guard-comment"), 2u);
  EXPECT_FALSE(has_violation(violations, "conc-guard-comment",
                             line_of(src, "std::lock_guard")));
  EXPECT_FALSE(has_violation(violations, "conc-guard-comment",
                             line_of(src, "std::mutex ok_mutex_")));
  EXPECT_FALSE(has_violation(violations, "conc-guard-comment",
                             line_of(src, "std::atomic<long> ok_counter_")));
}

TEST(LintRulesTest, ConcurrencyRuleSkipsNonServePaths) {
  const std::string src = read_fixture("conc_bad.h");
  const auto violations = lint_source("src/util/fixture.h", src);
  EXPECT_EQ(count_rule(violations, "conc-guard-comment"), 0u);
}

// --- suppressions -------------------------------------------------------

TEST(LintRulesTest, SuppressionsAreHonoredAndStaleOnesReported) {
  const std::string src = read_fixture("suppressed.cpp");
  const auto violations = lint_source("src/core/fixture.cpp", src);
  EXPECT_EQ(count_rule(violations, "det-clock"), 0u);
  EXPECT_EQ(count_rule(violations, "det-rand"), 0u);
  EXPECT_TRUE(has_violation(violations, "lint-bad-suppression",
                            line_of(src, "allow(no-such-rule)")));
}

TEST(LintRulesTest, SuppressionOnlyCoversItsOwnLine) {
  const std::string src =
      "int a = rand();  // vmtherm-lint: allow(det-rand)\n"
      "int b = rand();\n";
  const auto violations = lint_source("src/core/fixture.cpp", src);
  ASSERT_EQ(count_rule(violations, "det-rand"), 1u);
  EXPECT_TRUE(has_violation(violations, "det-rand", 2));
}

TEST(LintRulesTest, SuppressionListAllowsMultipleRules) {
  const std::string src =
      "// vmtherm-lint: allow(det-rand, det-clock)\n"
      "int a = rand() + std::chrono::steady_clock::now().time_since_epoch()"
      ".count();\n";
  const auto violations = lint_source("src/core/fixture.cpp", src);
  EXPECT_EQ(count_rule(violations, "det-rand"), 0u);
  EXPECT_EQ(count_rule(violations, "det-clock"), 0u);
}

// --- report -------------------------------------------------------------

TEST(LintReportTest, DiagnosticFormatIsGccStyle) {
  Violation v;
  v.file = "src/core/online.cpp";
  v.line = 42;
  v.rule = "det-rand";
  v.message = "no";
  EXPECT_EQ(format_diagnostic(v), "src/core/online.cpp:42: [det-rand] no");
}

TEST(LintReportTest, JsonReportIsWellFormedAndDeterministic) {
  Violation v;
  v.file = "src/a.cpp";
  v.line = 7;
  v.rule = "det-rand";
  v.message = "quote \" and \\ backslash\nnewline";
  const std::string a = to_json({v}, 3);
  const std::string b = to_json({v}, 3);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"catalog_version\": 3"), std::string::npos);
  EXPECT_NE(a.find("\"files_scanned\": 3"), std::string::npos);
  EXPECT_NE(a.find("\"violation_count\": 1"), std::string::npos);
  EXPECT_NE(a.find("\\\" and \\\\ backslash\\nnewline"), std::string::npos);
  // Every catalog rule is documented in the report.
  for (const auto& rule : rule_catalog()) {
    std::string quoted = "\"";
    quoted += rule.id;
    quoted += "\"";
    EXPECT_NE(a.find(quoted), std::string::npos);
  }
}

TEST(LintReportTest, EmptyViolationListSerializes) {
  const std::string json = to_json({}, 0);
  EXPECT_NE(json.find("\"violation_count\": 0"), std::string::npos);
}

}  // namespace
}  // namespace vmtherm::lint
