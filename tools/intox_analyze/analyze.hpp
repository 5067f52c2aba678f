// Driver: one file walk, one read and tokenization per file, the
// per-file checks, the whole-program index and checks, and one
// suppression pass over every finding.
//
// Suppression syntax: an "intox-analyze:" comment holding an
// allow(check[, check...]) clause followed by a `-- justification`
// trailer, on the finding's line or the line directly above it. A
// pragma without the trailer or naming an unknown check is itself a
// finding, and so is each named check that suppresses nothing on that
// line (stale). (The syntax is spelled indirectly here so the analyzer
// does not parse this header comment as a pragma.)
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "index.hpp"

namespace intox::analyze {

struct Options {
  std::string root = ".";
  /// Optional compile_commands.json; when set, translation units come
  /// from it (validating that the build actually exports them) and only
  /// headers are discovered by directory walk.
  std::string compdb_path;
  /// Files or subtrees (relative to root) to analyze; default src/,
  /// bench/, tests/ and tools/.
  std::vector<std::string> paths;
  std::vector<std::string> only_checks;
  /// When non-empty, print that check's evidence (reachable sets, lock
  /// edges, pairing tables) to stdout before the findings.
  std::string explain_check;
};

struct RunResult {
  std::vector<Finding> findings;  // fail the run
  int files_scanned = 0;
  int suppressed = 0;
};

/// Builds the index over the configured file set (no checks run). Used
/// by --dump-metric-names.
Index build_index(const Options& opts);

/// Throws std::runtime_error on unusable input (missing root or path,
/// unreadable file or compile database).
RunResult run_analyze(const Options& opts, std::ostream& explain_out);

void print_findings(std::ostream& out, const std::vector<Finding>& findings);

}  // namespace intox::analyze
