// Every check intox_analyze runs. Where a file sits in the tree
// (classify()) decides which checks see it.
//
// Per-file checks, over one file's tokens:
//
//   determinism  (src/, bench/) Trial results must be a pure function
//                of the seed. Flags the entropy and clock sources of
//                banned_source(), and in src/ a literal-seeded Rng
//                (seeds must be forked or plumbed from config so
//                `--threads` cannot perturb them).
//   invariant    INTOX_INVARIANT conditions compile out under
//                -DINTOX_INVARIANTS_DISABLED, so a side effect in the
//                condition changes behavior between configurations.
//                Flags assignment, ++/--, and known-mutating calls.
//   header       #pragma once in every header, no `using namespace` at
//                header scope, no <iostream> in src/ headers.
//   metrics      (src/, bench/) Metric names registered from C++ must
//                match the dotted `family.name` grammar and be unique
//                per registration site. Reads the index's registry.
//   pragma       Suppressions are themselves checked: an allow() with
//                no `-- justification` trailer, an unknown check name,
//                or a named check that suppresses nothing on its line.
//
// Whole-program checks, over the call graph of the indexed files
// (src/, bench/, tools/). Each appends findings; when `explain` is
// non-null it also prints the evidence it ran on (reachable-function
// lists, lock-order edges, atomic pairing tables).
#pragma once

#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "callgraph.hpp"
#include "lexer.hpp"

namespace intox::analyze {

struct Finding {
  std::string path;  // repo-relative, '/'-separated
  int line = 0;
  std::string check;
  std::string message;
};

/// Where a file sits in the tree decides which checks apply to it.
struct FileClass {
  bool in_src = false;
  bool in_bench = false;
  bool is_header = false;
  /// Part of the whole-program index. tests/ stays out: calls resolve
  /// by name, so test helpers named like production functions would
  /// join every reachable set.
  bool indexed = false;
};

FileClass classify(const std::string& rel_path);

/// Names accepted by `--check`, `--explain` and allow() pragmas.
const std::vector<std::string>& check_names();

/// The entropy and wall-clock sources `determinism` and `taint` ban.
/// kType names are banned wherever they appear; kFunction names
/// wherever they appear or are called; kCallOnly names only as a free
/// or std:: call, because they are also common member and variable
/// names (`sched.time()`, `Duration clock`).
enum class Banned { kNone, kType, kFunction, kCallOnly };
Banned banned_source(std::string_view name);

/// One call of a function that no indexed function answers and that is
/// not a method on a value: a call out of the program. `name` is the
/// call's chain without a leading `::` or `std::`.
struct ExternalCall {
  const CallSite* site;
  std::string name;
};

/// The external calls of `fn` (an index into the graph's functions).
/// sigsafe and taint judge these by name.
std::vector<ExternalCall> external_calls(const CallGraph& graph, int fn);

/// Every function reachable from `roots` (functions named by
/// `root_names`). When `explain` is non-null, also prints the roots and
/// each reachable function with its location under `check`'s name.
std::vector<int> explain_reachable(const CallGraph& graph,
                                   const std::set<int>& roots,
                                   const std::vector<std::string>& root_names,
                                   const char* check, std::ostream* explain);

/// determinism, invariant and header over one file's tokens.
void check_file(const std::string& rel_path, const FileClass& fc,
                const TokenStream& toks, std::vector<Finding>& out);

/// metrics over every registration the index recorded.
void check_metrics(const Index& index, std::vector<Finding>& out);

/// Functions reachable from fatal-signal handlers (auto-detected
/// `sa_handler =` / `signal(SIG, fn)` registrations plus the
/// flightrec_dump entry points) may only call a POSIX async-signal-safe
/// allowlist or functions proven safe by recursion. Allocation, throw,
/// iostreams, std::string and lock acquisition are flagged.
void check_sigsafe(const CallGraph& graph, std::vector<Finding>& out,
                   std::ostream* explain);

/// Nothing reachable from a scenario run function (INTOX_REGISTER_SCENARIO)
/// may use a banned_source() or iterate an unordered container in a way
/// that can feed output bytes. Sanctioned randomness flows through
/// sim::Rng, which is seeded explicitly and never hits these sources.
void check_taint(const CallGraph& graph, std::vector<Finding>& out,
                 std::ostream* explain);

/// Builds the lock-acquisition order graph (mutexes and flock regions,
/// interprocedural via may-acquire sets) and reports cycles and
/// recursive self-acquisition.
void check_lockorder(const CallGraph& graph, std::vector<Finding>& out,
                     std::ostream* explain);

/// In functions marked `// intox-analyze: hot-lane`, atomics must be
/// relaxed or participate in a properly paired release/acquire protocol;
/// seq_cst (explicit or defaulted) is always flagged. Pairing is checked
/// program-wide per receiver: a release store with no acquire-side load
/// anywhere (or vice versa) publishes nothing and is flagged.
void check_atomics(const CallGraph& graph, std::vector<Finding>& out,
                   std::ostream* explain);

}  // namespace intox::analyze
