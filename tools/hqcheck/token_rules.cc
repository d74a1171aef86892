#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "hqcheck.h"
#include "internal.h"

/// \file token_rules.cc
/// The source rules that need tokens but no scope model: naked-mutex,
/// new-delete, include-hygiene, per-row-alloc and unbounded-retry, plus the
/// stale-allow audit over every rule's markers. Comments and literals never
/// match because the lexer has already turned them into marker sets and
/// string tokens. blocking-under-lock lives in hqcheck.cc's AnalyzeBody,
/// which tracks the live locks it needs.

namespace hqcheck::internal {

namespace {

bool Is(const Token& t, const char* text) { return t.kind == TokKind::kIdent && t.text == text; }

/// `std::<name>(` for `name`, the shape of a call or a temporary.
bool StdCall(const std::vector<Token>& t, size_t i, const char* name) {
  return Is(t[i], "std") && t[i + 1].text == "::" && Is(t[i + 2], name) && t[i + 3].text == "(";
}

/// True when the `new` at `i` is the argument of a smart-pointer
/// construction (`shared_ptr<T>(new T)`, `unique_ptr<T> p(new T)`) or of
/// `.reset(new T)`: the owner takes the pointer at the allocation site.
bool SmartPointerFactory(const std::vector<Token>& t, size_t i) {
  int depth = 0;
  size_t j = i;
  while (j > 0) {  // the innermost unclosed bracket around `new`
    const std::string& x = t[--j].text;
    if (t[j].kind != TokKind::kPunct) continue;
    if (x == ")" || x == "]" || x == "}") ++depth;
    if ((x == "(" || x == "[" || x == "{") && depth-- == 0) break;
    if (x == ";" && depth == 0) return false;
  }
  if (j < 2 || t[j].text != "(") return false;
  size_t k = j - 1;
  if (Is(t[k], "reset")) return true;
  if (t[k].kind == TokKind::kIdent) --k;  // declarator name
  for (int angle = 0; k > 0; --k) {       // back over the template arguments
    if (t[k].text == ">") ++angle;
    if (t[k].text == "<" && --angle == 0) break;
    if (angle == 0) return false;
  }
  return k > 0 && (Is(t[k - 1], "unique_ptr") || Is(t[k - 1], "shared_ptr"));
}

/// True when a for/while loop whose body opens at `open` both sleeps and
/// makes an I/O-shaped member call without going through RetryPolicy.
/// Scans from `from` so the loop condition counts too.
bool HandRolledRetry(const std::vector<Token>& t, size_t from, size_t open) {
  static const std::set<std::string> io = {"Put",      "PutBatch", "Get",   "Execute", "ExecuteSql",
                                           "CopyInto", "Append",   "Write", "Read"};
  bool sleeps = false;
  bool calls_io = false;
  for (size_t k = from, close = MatchingClose(t, open); k <= close; ++k) {
    if (t[k].kind != TokKind::kIdent) continue;
    const std::string& x = t[k].text;
    if (x.find("RetryPolicy") != std::string::npos || x.find("RetryAttempt") != std::string::npos ||
        x.find("BackoffMicros") != std::string::npos) {
      return false;
    }
    sleeps = sleeps || IsSleep(x);
    calls_io = calls_io || (MemberCall(t, k) && io.count(x) != 0);
  }
  return sleeps && calls_io;
}

/// 0 when the first line that is neither blank nor comment is
/// `#pragma once`, else that line's 1-based number.
int FirstCodeLine(const std::string& content) {
  std::istringstream in(content);
  std::string line;
  bool in_block = false;
  for (int n = 1; std::getline(in, line); ++n) {
    size_t b = line.find_first_not_of(" \t\r");
    if (in_block) {
      in_block = line.find("*/") == std::string::npos;
    } else if (b != std::string::npos && line.compare(b, 2, "/*") == 0) {
      in_block = line.find("*/", b + 2) == std::string::npos;
    } else if (b != std::string::npos && line.compare(b, 2, "//") != 0) {
      return line.compare(b, 12, "#pragma once") == 0 ? 0 : n;
    }
  }
  return 0;
}

}  // namespace

bool MemberCall(const std::vector<Token>& t, size_t i) {
  return i > 0 && t[i].kind == TokKind::kIdent && (t[i - 1].text == "." || t[i - 1].text == "->") &&
         t[i + 1].text == "(";
}

bool IsSleep(const std::string& name) {
  return name == "sleep_for" || name == "sleep_until" || name == "usleep" || name == "nanosleep";
}

void CheckTokenRules(const LexedFile& f, const std::string& content,
                     std::vector<Diagnostic>* diags) {
  const std::vector<Token>& t = f.tokens;
  auto report = [&](int line, const char* rule, const std::string& message) {
    if (!f.Allowed(line, rule)) diags->push_back({f.path, line, rule, message});
  };
  static const std::set<std::string> std_sync = {
      "mutex",      "recursive_mutex", "timed_mutex", "shared_mutex",
      "shared_timed_mutex", "lock_guard", "unique_lock", "scoped_lock",
      "condition_variable", "condition_variable_any"};
  const bool sync_layer = EndsWith(f.path, "common/sync.h");  // the one sanctioned user
  const bool retry_layer =  // implements the backoff loop itself
      EndsWith(f.path, "common/retry.h") || EndsWith(f.path, "common/retry.cc");
  const bool header = EndsWith(f.path, ".h") || EndsWith(f.path, ".hpp");
  if (header) {
    if (int line = FirstCodeLine(content); line != 0) {
      report(line, "include-hygiene", "header must open with #pragma once before any other code");
    }
  }
  int naked_line = 0;
  int alloc_line = 0;
  for (size_t i = 0; i + 3 < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind != TokKind::kIdent) continue;
    const bool after_operator = i > 0 && Is(t[i - 1], "operator");
    if (!sync_layer && tok.text == "std" && t[i + 1].text == "::" &&
        std_sync.count(t[i + 2].text) != 0 && tok.line != naked_line) {
      naked_line = tok.line;  // one finding per line
      report(tok.line, "naked-mutex",
             "use common::Mutex/MutexLock/CondVar from common/sync.h instead of std::" +
                 t[i + 2].text);
    } else if (tok.text == "new" && !after_operator && !SmartPointerFactory(t, i)) {
      report(tok.line, "new-delete",
             "raw `new` outside a smart-pointer factory; wrap the result in "
             "unique_ptr/shared_ptr at the allocation site");
    } else if (tok.text == "delete" && !after_operator && i > 0 && t[i - 1].text != "=") {
      report(tok.line, "new-delete", "raw `delete`; ownership must live in unique_ptr/shared_ptr");
    } else if (header && tok.text == "using" && Is(t[i + 1], "namespace")) {
      report(tok.line, "include-hygiene",
             "`using namespace` in a header leaks into every includer");
    } else if (f.hotpath && tok.line != alloc_line &&
               (StdCall(t, i, "to_string") || StdCall(t, i, "string"))) {
      alloc_line = tok.line;  // one finding per line
      report(tok.line, "per-row-alloc",
             t[i + 2].text == "to_string"
                 ? "`std::to_string` allocates per call in a hotpath file; format into stack "
                   "scratch with std::to_chars"
                 : "`std::string` temporary in a hotpath file; use std::string_view or stack "
                   "scratch");
    } else if (!retry_layer && (tok.text == "for" || tok.text == "while") &&
               t[i + 1].text == "(") {
      size_t open = MatchingClose(t, i + 1) + 1;
      if (t[open].text == "{" && HandRolledRetry(t, i + 1, open)) {
        report(tok.line, "unbounded-retry",
               "hand-rolled retry loop (sleep + I/O call) with no attempt bound; use "
               "common::RetryPolicy (common/retry.h) for bounded backoff with jitter and stats");
      }
    }
  }
}

void CheckStaleAllows(const LexedFile& f, std::vector<Diagnostic>* diags) {
  for (size_t l = 0; l < f.allows.size(); ++l) {
    for (const std::string& rule : f.allows[l]) {
      if (rule == "stale-allow" || rule == "may-acquire" || rule == "taint") continue;
      if (f.used[l].count(rule) != 0) continue;
      const int line = static_cast<int>(l) + 1;
      if (f.Allowed(line, "stale-allow")) continue;
      diags->push_back({f.path, line, "stale-allow",
                        "suppression `hqcheck:allow(" + rule +
                            ")` matches no finding on this or the next line; remove the dead "
                            "marker (or fix the rule name)"});
    }
  }
}

}  // namespace hqcheck::internal
