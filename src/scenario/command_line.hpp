// The command line `intox run` and `intox sweep` share:
//
//   intox run|sweep <scenario> [--set k=v]... [--sweep k=a:b:step]...
//       [--config FILE]... [--threads N] [--metrics-out FILE]
//       [--trace-out FILE] [--flightrec-out FILE] [command flags]
//
// parse_command_line resolves the scenario, applies --config and --set
// to its declared knobs in flag order, parses the sweep axes, and
// stores --threads and the three sink paths without acting on them: the
// command opens its obs::BenchSession once parsing is done, which is
// when the trace clock starts. Flags only one command takes — run's
// --point/--point-record, sweep's --workers/--cache-dir/--out — come
// from the table the command passes in.
//
// Every error comes back as one diagnostic, which the command hands to
// fail(): `intox: <diagnostic>` on stderr, exit status 2. Nothing here
// exits.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/report.hpp"
#include "scenario/knob.hpp"
#include "scenario/scenario.hpp"
#include "sweep/point.hpp"

namespace intox::scenario {

struct CommandLine {
  const Scenario* scenario = nullptr;
  KnobSet knobs;                       // declared defaults, --config, --set
  std::vector<sweep::SweepAxis> axes;  // in flag order; product is nonzero
  obs::SessionOptions session;         // --threads and the sink paths
  bool threads_given = false;
  /// The --set/--sweep/--config/--threads flags with their values,
  /// verbatim and in order: what `intox sweep` forwards to its workers.
  std::vector<std::string> shared_flags;
};

/// A flag one command adds to the shared grammar. Each takes one value;
/// when it is missing the diagnostic is "<name> requires <value_name>".
struct CommandFlag {
  std::string_view name;
  std::string_view value_name;
  /// Consumes the value; returns empty, or the diagnostic.
  std::function<std::string(const char* value)> apply;
};

/// The registered scenario called `name`, or nullptr with *error set to
/// the diagnostic.
const Scenario* find_scenario(const char* name, std::string* error);

/// A CommandFlag action that stores the value in *dst.
std::function<std::string(const char* value)> store_value(std::string* dst);

/// Parses `intox <argv[1]> <scenario> [flags]`. `help` names the usage
/// command an unknown argument points at. Returns empty on success.
[[nodiscard]] std::string parse_command_line(
    int argc, char** argv, std::span<const CommandFlag> command_flags,
    std::string_view help, CommandLine* out);

/// Prints `intox: <diagnostic>` on stderr and returns exit status 2:
/// how every intox command reports a CLI error.
int fail(const std::string& diagnostic);

/// Strictly parses a non-negative decimal integer (digits only, no
/// sign, no blanks) into *out. Returns empty, or the diagnostic
/// "<flag> expects a non-negative integer, got '<text>'".
[[nodiscard]] std::string parse_non_negative(std::string_view flag,
                                             std::string_view text,
                                             std::size_t* out);

}  // namespace intox::scenario
