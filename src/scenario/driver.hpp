// The `intox` driver: one strict command line over every registered
// scenario.
//
//   intox list                      enumerate scenarios
//   intox knobs <scenario>          show a scenario's declared knobs
//   intox run <scenario> [opts]     run one scenario
//   intox validate [scenario...]    throw-mode invariant sweep, quiet
//   intox forensics <dump>          render a flight-recorder dump
//   intox help                      usage
//
// `run` parses the grammar it shares with `intox sweep` through
// scenario/command_line.hpp. driver_main returns the process exit code
// instead of exiting, on every CLI error too (status 2), so tests can
// call it in-process.
#pragma once

namespace intox::scenario {

int driver_main(int argc, char** argv);

}  // namespace intox::scenario
