#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "hqcheck.h"

/// \file internal.h
/// Shared plumbing between hqcheck's analysis passes. The source rules
/// (hqcheck.cc, token_rules.cc), the interprocedural lock pass
/// (interlock.cc) and the taint pass (taint.cc) all walk the same lexed
/// token streams and share the same declaration model; this header is the
/// seam between them. Nothing here is part of the tool's public contract
/// (that is hqcheck.h) — tests may reach in, production code must not.

namespace hqcheck::internal {

// ---------------------------------------------------------------------------
// Lock ranks (mirror of common/sync.h LockRank; hqcheck is standalone)
// ---------------------------------------------------------------------------

inline constexpr int kNumLockRanks = 10;

/// Index of `name` ("kLogging".."kLifecycle") in the hierarchy; -1 unknown.
int LockRankIndex(const std::string& name);
/// Rank name for index 0..9; "k?" out of range.
const char* LockRankNameAt(int index);

// ---------------------------------------------------------------------------
// Declarations (pass 1 model, merged across files)
// ---------------------------------------------------------------------------

struct EnumInfo {
  std::string name;
  std::vector<std::string> enumerators;
  std::string path;
  int line = 0;
};

struct MutexSite {
  std::string scope;  // owning class, or "" at namespace/function scope
  std::string var;
  std::string rank;   // "" when the construction names no LockRank
  std::string label;  // "" when the construction names no string
  std::string path;
  int line = 0;
};

/// Everything pass 1 learns about the linted set, merged across files.
struct Declarations {
  // class -> field -> guard mutex (last identifier of the annotation arg).
  std::map<std::string, std::map<std::string, std::string>> guarded;
  // class -> method -> set of mutexes the method requires.
  std::map<std::string, std::map<std::string, std::set<std::string>>> requires_;
  // class -> mutex member -> rank name; "" class for namespace-scope mutexes.
  std::map<std::string, std::map<std::string, std::string>> mutex_ranks;
  // mutex variable name -> rank, when every declaration of that name agrees
  // (used to resolve lock-nesting when the owning class is not in view).
  std::map<std::string, std::string> var_ranks;
  std::set<std::string> var_rank_conflicts;
  std::map<std::string, EnumInfo> enums;
  std::set<std::string> ambiguous_enums;  // same name, different enumerators
  // enumerator -> enum names it appears in (for unqualified case labels).
  std::map<std::string, std::set<std::string>> enumerator_owners;
  std::vector<MutexSite> mutex_sites;
  // every class/struct name with a definition in the analysed set.
  std::set<std::string> class_names;
  // base class -> directly derived classes (from inheritance clauses).
  // Virtual calls through a base pointer resolve to every override.
  std::map<std::string, std::set<std::string>> derived;
};

// ---------------------------------------------------------------------------
// Token-walk helpers
// ---------------------------------------------------------------------------

const std::set<std::string>& ControlKeywords();

/// Token index of the matching closer for the opener at `i` ("(", "{", "[",
/// all tracked together), or the kEnd index when unbalanced.
size_t MatchingClose(const std::vector<Token>& t, size_t i);

/// Last identifier token text in [begin, end) — the resolved name of a
/// guard expression like `&job->mu_` or `this->mu_`.
std::string LastIdent(const std::vector<Token>& t, size_t begin, size_t end);

void CollectDeclarations(const LexedFile& f, Declarations* decls);

/// Second declaration sweep, run once class_names is complete: maps variable
/// (member, local, parameter) names to the repo class they are declared as,
/// resolving `Foo f`, `Foo* f`, `const Foo& f`, and `smart_ptr<Foo> f`
/// spellings. A name declared as several classes maps to the union.
void CollectVarTypes(const LexedFile& f, const std::set<std::string>& class_names,
                     std::map<std::string, std::set<std::string>>* var_types);

/// Parses the Mutex declaration whose `Mutex` token is at `i`: fills the
/// site's var, rank, label and line, sets `*end` to the last token consumed
/// and returns true; false when `i` starts no declaration.
bool ParseMutexDecl(const std::vector<Token>& t, size_t i, MutexSite* site, size_t* end);

/// A ranked mutex declared inside one function body.
struct LocalMutex {
  size_t token = 0;  ///< index of its `Mutex` token
  std::string var;
  std::string rank;
};

/// The ranked Mutex declarations in the body [open, close], in token order.
/// CollectDeclarations keeps them out of the repo-wide maps, so two
/// functions' same-named locals cannot borrow each other's rank.
std::vector<LocalMutex> LocalMutexes(const std::vector<Token>& t, size_t open, size_t close);

/// Declared rank of `guard` as seen from class `cls` at token `at` ("" when
/// unknown): the body's last local declaration of `guard` before `at` wins
/// over the class and repo-wide maps.
std::string ResolveRank(const Declarations& d, const std::string& cls, const std::string& guard,
                        const std::vector<LocalMutex>& locals = {}, size_t at = 0);

bool EndsWith(const std::string& s, const std::string& suffix);

/// Invokes `fn(cls, method, ctor_dtor, open, close)` for every function body
/// in the file; `open`/`close` are token indexes of the body braces. `cls`
/// resolves `X::Name` qualifiers over the enclosing scope.
using BodyCallback = std::function<void(const std::string& cls, const std::string& method,
                                        bool ctor_dtor, size_t open, size_t close)>;
void ForEachFunctionBody(const LexedFile& f, const BodyCallback& fn);

// ---------------------------------------------------------------------------
// Token-pattern rules (defined in token_rules.cc)
// ---------------------------------------------------------------------------

/// True when t[i] is the name of a member call: `recv.Name(` / `recv->Name(`.
bool MemberCall(const std::vector<Token>& t, size_t i);

/// sleep_for / sleep_until / usleep / nanosleep.
bool IsSleep(const std::string& name);

/// naked-mutex, new-delete, include-hygiene, per-row-alloc and
/// unbounded-retry over one file. `content` is the raw text: Lex drops
/// preprocessor lines, and include-hygiene needs the `#pragma once`.
void CheckTokenRules(const LexedFile& f, const std::string& content,
                     std::vector<Diagnostic>* diags);

/// stale-allow: every allow marker no rule consumed. Run after all source
/// rules. may-acquire markers are left to the interlock pass and taint
/// markers to the taint pass, which audit their own.
void CheckStaleAllows(const LexedFile& f, std::vector<Diagnostic>* diags);

// ---------------------------------------------------------------------------
// Binary call graph (objdump -dr relocation edges; defined in symbol_proof.cc)
// ---------------------------------------------------------------------------

struct BinCallGraph {
  // mangled symbol -> callees (first-seen order, deduplicated).
  std::map<std::string, std::vector<std::string>> edges;
  // symbol -> object file it is defined in.
  std::map<std::string, std::string> object_of;
  std::vector<std::string> definition_order;
};

/// Parses concatenated `objdump -dr` output into the relocation call graph.
BinCallGraph ParseDisasmCallGraph(const std::string& disasm);

/// Demangles a (possibly clone-suffixed) symbol; returns the input when the
/// demangler declines.
std::string DemangleSymbol(const std::string& sym);

// ---------------------------------------------------------------------------
// Source digests (hotpath stamp guard; defined in cli.cc helpers)
// ---------------------------------------------------------------------------

/// FNV-1a 64 over the bytes, rendered as 16 lowercase hex digits.
std::string Fnv64Hex(const std::string& bytes);

}  // namespace hqcheck::internal
