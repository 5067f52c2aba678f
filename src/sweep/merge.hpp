// Merged sweep report: one deterministic document per completed sweep.
//
// The orchestrator concatenates the per-point records — in point order,
// verbatim — under an intox.sweep_report.v1.1 envelope, and folds
// cross-point aggregates (count/min/max/mean per metric, across every
// point whose record carries a parseable metrics section) after the
// records array. Every field is a pure function of (binary, scenario,
// knob vector), so a sweep that was interrupted and resumed produces a
// report byte-identical to an uninterrupted run; cache-hit accounting
// deliberately lives in the obs registry / stderr summary instead,
// where it belongs.
//
// v1 -> v1.1: added the "aggregates" object (minor bump — consumers of
// v1 fields are unaffected apart from the schema string).
#pragma once

#include <string>
#include <vector>

#include "sweep/point.hpp"

namespace intox::sweep {

inline constexpr const char* kSweepReportSchema = "intox.sweep_report.v1.1";

struct MergeInput {
  std::string scenario;
  std::string family;
  std::vector<SweepAxis> axes;
  /// Committed record file paths, in point order (position == index).
  std::vector<std::string> record_paths;
};

struct MergedReport {
  /// The report document, with a trailing newline; empty on failure.
  std::string doc;
  /// Worst top-level "exit" across the records. A record without an
  /// integer one counts as 1.
  int worst_exit = 0;
};

/// Reads and parses every record once and renders the merged report.
/// On failure `doc` is empty and *error is set.
MergedReport render_merged_report(const MergeInput& in, std::string* error);

/// Writes `doc` to `path` via write-temp-then-rename, or to stdout when
/// `path` is empty. Returns empty on success, else the diagnostic.
std::string commit_report(const std::string& path, const std::string& doc);

}  // namespace intox::sweep
