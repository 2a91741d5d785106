#include "lint/rules.h"

#include <algorithm>
#include <map>
#include <set>

#include "lint/lexer.h"

namespace vmtherm::lint {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::string suf(suffix);
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

const std::set<std::string>& det_rand_idents() {
  static const std::set<std::string> kIdents{
      "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48",
      "random_shuffle"};
  return kIdents;
}

const std::set<std::string>& det_clock_idents() {
  static const std::set<std::string> kIdents{
      "system_clock",   "steady_clock", "high_resolution_clock",
      "clock_gettime",  "gettimeofday", "timespec_get"};
  return kIdents;
}

const std::set<std::string>& det_env_idents() {
  static const std::set<std::string> kIdents{"getenv", "secure_getenv",
                                             "setenv", "putenv"};
  return kIdents;
}

const std::set<std::string>& det_locale_idents() {
  static const std::set<std::string> kIdents{"setlocale", "localeconv",
                                             "imbue"};
  return kIdents;
}

const std::set<std::string>& conc_member_idents() {
  static const std::set<std::string> kIdents{
      "mutex",          "shared_mutex",
      "recursive_mutex", "timed_mutex",
      "condition_variable", "condition_variable_any",
      "atomic",         "atomic_flag"};
  return kIdents;
}

const std::set<std::string>& conc_lock_idents() {
  static const std::set<std::string> kIdents{
      "unique_lock", "shared_lock", "lock_guard", "scoped_lock",
      "memory_order"};
  return kIdents;
}

const std::set<std::string>& iostream_idents() {
  static const std::set<std::string> kIdents{"cout", "cerr", "clog", "endl"};
  return kIdents;
}

/// Per-file derived state shared by every check.
struct FileContext {
  std::vector<Token> code;  ///< non-comment tokens, in order
  /// Rules suppressed on a given line by a vmtherm-lint allow() comment.
  std::map<int, std::set<std::string>> suppressions;
  /// Concatenated comment text per line the comment covers (guard scans).
  std::map<int, std::string> comment_text;
  std::vector<Violation> bad_suppressions;
};

int comment_end_line(const Token& comment) {
  int line = comment.line;
  for (const char c : comment.text) {
    if (c == '\n') ++line;
  }
  return line;
}

/// Parses every vmtherm-lint allow() clause in `text` into its rule ids.
std::vector<std::string> parse_allow_ids(const std::string& text) {
  std::vector<std::string> ids;
  const std::string marker = "vmtherm-lint:";
  std::size_t pos = text.find(marker);
  while (pos != std::string::npos) {
    const std::size_t open = text.find("allow(", pos);
    if (open == std::string::npos) break;
    const std::size_t close = text.find(')', open);
    if (close == std::string::npos) break;
    std::string id;
    for (std::size_t i = open + 6; i < close; ++i) {
      const char c = text[i];
      if (c == ',' ) {
        if (!id.empty()) ids.push_back(id);
        id.clear();
      } else if (c != ' ' && c != '\t') {
        id.push_back(c);
      }
    }
    if (!id.empty()) ids.push_back(id);
    pos = text.find(marker, close);
  }
  return ids;
}

FileContext build_context(const std::string& path, const LexedFile& lexed) {
  FileContext ctx;
  std::set<int> code_lines;
  for (const Token& token : lexed.tokens) {
    if (token.kind != TokenKind::kComment) {
      ctx.code.push_back(token);
      code_lines.insert(token.line);
    }
  }
  for (const Token& token : lexed.tokens) {
    if (token.kind != TokenKind::kComment) continue;
    const int end_line = comment_end_line(token);
    for (int line = token.line; line <= end_line; ++line) {
      ctx.comment_text[line] += token.text;
    }
    const std::vector<std::string> ids = parse_allow_ids(token.text);
    if (ids.empty()) continue;
    // A suppression on a code line covers that line; a comment-only line
    // covers the line below it (annotation-above style).
    const bool on_code_line = code_lines.count(token.line) != 0;
    const int target = on_code_line ? token.line : end_line + 1;
    for (const std::string& id : ids) {
      if (!is_known_rule(id)) {
        Violation v;
        v.file = path;
        v.line = token.line;
        v.rule = "lint-bad-suppression";
        v.message = "suppression names unknown rule '" + id +
                    "' (catalog v" + std::to_string(kCatalogVersion) + ")";
        ctx.bad_suppressions.push_back(std::move(v));
        continue;
      }
      ctx.suppressions[target].insert(id);
      if (!on_code_line) ctx.suppressions[token.line].insert(id);
    }
  }
  return ctx;
}

class Checker {
 public:
  Checker(const std::string& path, const FileContext& ctx)
      : path_(path), ctx_(ctx) {}

  void add(int line, const char* rule, std::string message) {
    const auto it = ctx_.suppressions.find(line);
    if (it != ctx_.suppressions.end() && it->second.count(rule) != 0) return;
    Violation v;
    v.file = path_;
    v.line = line;
    v.rule = rule;
    v.message = std::move(message);
    out_.push_back(std::move(v));
  }

  const Token* prev(std::size_t i, std::size_t back) const {
    return i >= back ? &ctx_.code[i - back] : nullptr;
  }

  const Token* next(std::size_t i, std::size_t ahead) const {
    return i + ahead < ctx_.code.size() ? &ctx_.code[i + ahead] : nullptr;
  }

  // --- determinism -------------------------------------------------------

  void check_determinism() {
    for (std::size_t i = 0; i < ctx_.code.size(); ++i) {
      const Token& t = ctx_.code[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (t.text == "random_device") {
        add(t.line, "det-random-device",
            "std::random_device is nondeterministic across runs; "
            "deterministic paths must use an explicitly seeded util::Rng");
      } else if (det_rand_idents().count(t.text) != 0) {
        add(t.line, "det-rand",
            "'" + t.text +
                "' draws from hidden global RNG state; use a seeded "
                "util::Rng so results are reproducible");
      } else if (det_clock_idents().count(t.text) != 0) {
        add(t.line, "det-clock",
            "wall-clock read ('" + t.text +
                "') in deterministic code; simulated time must come from "
                "the event stream (timing metrics: suppress with "
                "allow(det-clock) at the kTiming call site)");
      } else if (det_env_idents().count(t.text) != 0) {
        add(t.line, "det-getenv",
            "'" + t.text +
                "' makes results depend on the process environment; thread "
                "configuration through options structs instead");
      } else if (det_locale_idents().count(t.text) != 0 ||
                 (t.text == "locale" && is_std_qualified(i))) {
        add(t.line, "det-locale",
            "locale-dependent formatting ('" + t.text +
                "') can change numeric output between machines; vmtherm "
                "formats numbers locale-independently");
      }
    }
  }

  // --- hot path ----------------------------------------------------------

  void check_hot_path() {
    compute_require_spans();
    for (std::size_t i = 0; i < ctx_.code.size(); ++i) {
      const Token& t = ctx_.code[i];
      if (t.kind == TokenKind::kIdentifier) {
        if (t.text == "to_string") {
          add_hot_string(i, t.line,
                         "std::to_string allocates on every call");
        } else if (t.text == "string" && is_std_qualified(i) &&
                   next_is_call_or_brace(i)) {
          add_hot_string(i, t.line,
                         "std::string temporary constructed on a hot path");
        } else if (iostream_idents().count(t.text) != 0) {
          add(t.line, "hot-iostream",
              "iostream use ('" + t.text +
                  "') on a hot-path file; stream formatting locks and "
                  "allocates — emit through metrics or return data instead");
        }
        continue;
      }
      if (t.kind == TokenKind::kPunct && t.text == "+") {
        const Token* p = prev(i, 1);
        const Token* n1 = next(i, 1);
        const Token* n2 = next(i, 2);
        const bool concat =
            (p != nullptr && p->kind == TokenKind::kString) ||
            (n1 != nullptr && n1->kind == TokenKind::kString) ||
            (n1 != nullptr && n1->text == "=" && n2 != nullptr &&
             n2->kind == TokenKind::kString);
        if (concat) {
          add_hot_string(i, t.line,
                         "string-literal concatenation builds a "
                         "std::string temporary");
        }
      }
      if (t.in_pp_directive && t.kind == TokenKind::kPunct &&
          t.text == "<") {
        const Token* inc = prev(i, 1);
        const Token* hdr = next(i, 1);
        if (inc != nullptr && inc->text == "include" && hdr != nullptr &&
            (hdr->text == "iostream" || hdr->text == "sstream")) {
          add(t.line, "hot-iostream",
              "<" + hdr->text +
                  "> included from a hot-path file; use <iosfwd> in "
                  "headers and keep formatting off the data plane");
        }
      }
    }
  }

  // --- headers -----------------------------------------------------------

  void check_header_discipline() {
    check_pragma_once();
    for (std::size_t i = 0; i + 1 < ctx_.code.size(); ++i) {
      const Token& t = ctx_.code[i];
      if (t.kind == TokenKind::kIdentifier && t.text == "using" &&
          ctx_.code[i + 1].kind == TokenKind::kIdentifier &&
          ctx_.code[i + 1].text == "namespace") {
        add(t.line, "hdr-using-namespace",
            "'using namespace' in a header leaks into every includer; "
            "qualify names or restrict the using-declaration");
      }
    }
  }

  // --- concurrency -------------------------------------------------------

  void check_concurrency_annotations() {
    std::map<int, std::vector<const Token*>> by_line;
    for (const Token& t : ctx_.code) {
      if (t.kind == TokenKind::kIdentifier && !t.in_pp_directive) {
        by_line[t.line].push_back(&t);
      }
    }
    for (const auto& [line, idents] : by_line) {
      bool has_member_type = false;
      bool has_lock_use = false;
      for (const Token* t : idents) {
        if (conc_member_idents().count(t->text) != 0) has_member_type = true;
        if (conc_lock_idents().count(t->text) != 0) has_lock_use = true;
      }
      if (!has_member_type || has_lock_use) continue;
      if (has_guard_comment(line)) continue;
      add(line, "conc-guard-comment",
          "mutex/atomic declaration without a '// guards:' or '// sync:' "
          "comment naming the state it protects (DESIGN.md §6 external-"
          "synchronization rule)");
    }
  }

  std::vector<Violation> take() { return std::move(out_); }

 private:
  bool is_std_qualified(std::size_t i) const {
    const Token* colons = prev(i, 1);
    const Token* ns = prev(i, 2);
    return colons != nullptr && colons->text == "::" && ns != nullptr &&
           ns->text == "std";
  }

  bool next_is_call_or_brace(std::size_t i) const {
    const Token* n = next(i, 1);
    return n != nullptr && n->kind == TokenKind::kPunct &&
           (n->text == "(" || n->text == "{");
  }

  void compute_require_spans() {
    require_spans_.clear();
    for (std::size_t i = 0; i + 1 < ctx_.code.size(); ++i) {
      const Token& t = ctx_.code[i];
      if (t.kind != TokenKind::kIdentifier ||
          (t.text != "require" && t.text != "require_data")) {
        continue;
      }
      if (ctx_.code[i + 1].text != "(") continue;
      int depth = 0;
      for (std::size_t j = i + 1; j < ctx_.code.size(); ++j) {
        const std::string& p = ctx_.code[j].text;
        if (ctx_.code[j].kind != TokenKind::kPunct) continue;
        if (p == "(") ++depth;
        if (p == ")" && --depth == 0) {
          require_spans_.emplace_back(i + 1, j);
          break;
        }
      }
    }
  }

  bool in_require_span(std::size_t i) const {
    for (const auto& [begin, end] : require_spans_) {
      if (i > begin && i < end) return true;
    }
    return false;
  }

  void add_hot_string(std::size_t i, int line, const std::string& detail) {
    if (in_require_span(i)) {
      add(line, "hot-require-string",
          detail + "; use the require(bool, const char*) overload so the "
                   "check costs a branch, not an allocation");
    } else {
      add(line, "hot-string", detail + " (hot-path file)");
    }
  }

  void check_pragma_once() {
    if (ctx_.code.empty()) return;
    const std::vector<Token>& c = ctx_.code;
    const bool pragma_once = c.size() >= 3 && c[0].text == "#" &&
                             c[1].text == "pragma" && c[2].text == "once";
    bool include_guard = false;
    if (c.size() >= 6 && c[0].text == "#" && c[1].text == "ifndef" &&
        c[3].text == "#" && c[4].text == "define" &&
        c[2].text == c[5].text) {
      include_guard = true;
    }
    if (!pragma_once && !include_guard) {
      add(c[0].line, "hdr-pragma-once",
          "header must start with '#pragma once' or a matching "
          "#ifndef/#define include guard (before any other code)");
    }
  }

  bool has_guard_comment(int line) const {
    for (int l = line; l >= line - 3 && l >= 1; --l) {
      const auto it = ctx_.comment_text.find(l);
      if (it == ctx_.comment_text.end()) continue;
      if (it->second.find("guards:") != std::string::npos ||
          it->second.find("sync:") != std::string::npos) {
        return true;
      }
    }
    return false;
  }

  const std::string& path_;
  const FileContext& ctx_;
  std::vector<std::pair<std::size_t, std::size_t>> require_spans_;
  std::vector<Violation> out_;
};

}  // namespace

const std::vector<Rule>& rule_catalog() {
  static const std::vector<Rule> kCatalog{
      {"det-random-device", "determinism",
       "std::random_device banned in deterministic code"},
      {"det-rand", "determinism",
       "global-state RNG (rand/srand/drand48/...) banned in deterministic "
       "code"},
      {"det-clock", "determinism",
       "wall-clock reads (system_clock/steady_clock/...) banned in "
       "deterministic code"},
      {"det-getenv", "determinism",
       "environment lookups banned in deterministic code"},
      {"det-locale", "determinism",
       "locale-dependent formatting banned in deterministic code"},
      {"hot-string", "hot-path",
       "std::string construction banned in hot-path files"},
      {"hot-require-string", "hot-path",
       "require() calls in hot-path files must use const char* messages"},
      {"hot-iostream", "hot-path",
       "iostream formatting banned in hot-path files"},
      {"hdr-pragma-once", "header",
       "headers must begin with #pragma once or an include guard"},
      {"hdr-using-namespace", "header",
       "'using namespace' banned in headers"},
      {"conc-guard-comment", "concurrency",
       "mutex/atomic members need a guards:/sync: comment"},
      {"lint-bad-suppression", "meta",
       "allow() suppression names a rule that is not in the catalog"},
  };
  return kCatalog;
}

bool is_known_rule(const std::string& id) {
  for (const Rule& rule : rule_catalog()) {
    if (id == rule.id) return true;
  }
  return false;
}

bool in_determinism_scope(const std::string& path) {
  // src/obs is intentionally NOT here: observability is wall-clock business
  // (span timestamps, latency summaries) and everything it publishes is
  // timing-class, outside the deterministic metrics subset. All of
  // src/serve is in scope: its metrics registry lives in src/obs.
  return starts_with(path, "src/core/") || starts_with(path, "src/ml/") ||
         starts_with(path, "src/sim/") || starts_with(path, "src/serve/");
}

bool is_hot_path_file(const std::string& path) {
  return path == "src/serve/engine.cpp" || path == "src/serve/shard.cpp" ||
         path == "src/serve/event.h" || path == "src/serve/psi_cache.h" ||
         path == "src/ml/svr_inference.cpp" ||
         path == "src/ml/svr_inference.h" || path == "src/obs/trace.h" ||
         path == "src/obs/trace.cpp" || path == "src/core/drift.h" ||
         path == "src/core/drift.cpp";
}

bool in_header_scope(const std::string& path) {
  return (ends_with(path, ".h") || ends_with(path, ".hpp")) &&
         (starts_with(path, "src/") || starts_with(path, "tools/"));
}

bool in_concurrency_scope(const std::string& path) {
  return (starts_with(path, "src/serve/") || starts_with(path, "src/obs/")) &&
         (ends_with(path, ".h") || ends_with(path, ".hpp"));
}

std::vector<Violation> lint_source(const std::string& logical_path,
                                   const std::string& source) {
  const LexedFile lexed = lex(source);
  FileContext ctx = build_context(logical_path, lexed);
  Checker checker(logical_path, ctx);
  if (in_determinism_scope(logical_path)) checker.check_determinism();
  if (is_hot_path_file(logical_path)) checker.check_hot_path();
  if (in_header_scope(logical_path)) checker.check_header_discipline();
  if (in_concurrency_scope(logical_path)) {
    checker.check_concurrency_annotations();
  }
  std::vector<Violation> out = checker.take();
  for (Violation& v : ctx.bad_suppressions) out.push_back(std::move(v));
  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) {
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  // One diagnostic per (line, rule): a single expression can trip the same
  // rule several times (e.g. "a" + x + "b") without adding information.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Violation& a, const Violation& b) {
                          return a.line == b.line && a.rule == b.rule;
                        }),
            out.end());
  return out;
}

}  // namespace vmtherm::lint
