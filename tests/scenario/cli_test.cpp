// The intox CLI contract: every malformed input dies with one one-line
// stderr diagnostic and exit status 2 — never a silent default.
// `intox run` and `intox sweep` share one grammar, so every row of that
// grammar runs against both commands. Each death test forks, so the
// commands' printf output stays out of the test's own stdout.
#include "scenario/driver.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <initializer_list>
#include <string_view>
#include <vector>

#include "sweep/orchestrator.hpp"

namespace intox::scenario {
namespace {

/// Dispatches like the intox binary's main().
int intox(std::vector<const char*> args) {
  std::vector<char*> argv;
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  argv.push_back(nullptr);
  const int argc = static_cast<int>(args.size());
  if (argc >= 2 && std::string_view(args[1]) == "sweep") {
    return sweep::sweep_main(argc, argv.data());
  }
  return driver_main(argc, argv.data());
}

int run(std::initializer_list<const char*> args) { return intox(args); }

/// One row of the shared grammar: `intox run <args>` and
/// `intox sweep <args>` both exit 2 with `message` on stderr.
void expect_shared_error(std::initializer_list<const char*> args,
                         const char* message) {
  for (const char* command : {"run", "sweep"}) {
    std::vector<const char*> argv{"intox", command};
    argv.insert(argv.end(), args);
    EXPECT_EXIT(std::exit(intox(argv)), ::testing::ExitedWithCode(2),
                message)
        << "intox " << command;
  }
}

using CliDeathTest = ::testing::Test;

TEST(CliDeathTest, UnknownScenarioExitsTwo) {
  expect_shared_error({"no.such"}, "intox: unknown scenario 'no.such'");
}

TEST(CliDeathTest, MissingScenarioNameExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run"})), ::testing::ExitedWithCode(2),
              "intox: run: missing scenario name");
  EXPECT_EXIT(std::exit(run({"intox", "sweep"})),
              ::testing::ExitedWithCode(2),
              "intox: sweep: missing scenario name");
}

TEST(CliDeathTest, UnknownCommandExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "frobnicate"})),
              ::testing::ExitedWithCode(2),
              "intox: unknown command 'frobnicate'");
}

TEST(CliDeathTest, NoArgumentsPrintsUsageAndExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox"})), ::testing::ExitedWithCode(2),
              "usage: intox");
}

TEST(CliDeathTest, MalformedSetExitsTwo) {
  expect_shared_error({"blink.fig2", "--set", "runs"},
                      "intox: --set expects key=value");
}

TEST(CliDeathTest, DanglingSetExitsTwo) {
  expect_shared_error({"blink.fig2", "--set"},
                      "intox: --set requires key=value");
}

TEST(CliDeathTest, UnknownKnobExitsTwo) {
  expect_shared_error({"blink.fig2", "--set", "nope=3"},
                      "intox: unknown knob 'nope'");
}

TEST(CliDeathTest, NonNumericKnobValueExitsTwo) {
  expect_shared_error({"blink.fig2", "--set", "runs=abc"},
                      "intox: knob 'runs' expects an unsigned integer");
}

TEST(CliDeathTest, OutOfRangeKnobExitsTwo) {
  expect_shared_error({"blink.fig2", "--set", "runs=0"},
                      "intox: knob 'runs' out of range");
}

TEST(CliDeathTest, MalformedSweepExitsTwo) {
  expect_shared_error({"blink.fig2", "--sweep", "runs=1:4"},
                      "intox: --sweep expects key=a:b:step");
}

TEST(CliDeathTest, NonNumericSweepExitsTwo) {
  expect_shared_error({"blink.fig2", "--sweep", "runs=1:x:1"},
                      "is not a number");
}

TEST(CliDeathTest, EmptySweepRangeExitsTwo) {
  expect_shared_error({"blink.fig2", "--sweep", "runs=4:1:1"},
                      "intox: --sweep: empty range");
}

TEST(CliDeathTest, SweepOnBoolKnobExitsTwo) {
  expect_shared_error({"pcc.mitm", "--sweep", "attack=0:1:1"},
                      "only u64/double knobs sweep");
}

TEST(CliDeathTest, UnknownArgumentExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--bogus"})),
              ::testing::ExitedWithCode(2),
              "intox: unknown argument '--bogus' \\(try 'intox help'\\)");
  EXPECT_EXIT(std::exit(run({"intox", "sweep", "blink.fig2", "--bogus"})),
              ::testing::ExitedWithCode(2),
              "intox: unknown argument '--bogus' "
              "\\(try 'intox sweep --help'\\)");
}

// Each command's own flags stay its own: the shared parser hands them
// to the command's table, and the other command does not know them.
TEST(CliDeathTest, CommandFlagsStayWithTheirCommand) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--workers",
                             "2"})),
              ::testing::ExitedWithCode(2),
              "intox: unknown argument '--workers'");
  EXPECT_EXIT(std::exit(run({"intox", "sweep", "blink.fig2", "--point",
                             "0"})),
              ::testing::ExitedWithCode(2),
              "intox: unknown argument '--point'");
}

TEST(CliDeathTest, MissingConfigFileExitsTwo) {
  expect_shared_error({"blink.fig2", "--config", "/no/such/file.cfg"},
                      "intox: --config: cannot open");
}

// A typo'd thread count must never fall through to the default and
// taint a perf comparison: both commands reject it with one diagnostic.
TEST(CliDeathTest, MalformedThreadsExitsTwo) {
  expect_shared_error({"blink.fig2", "--threads", "lots"},
                      "intox: --threads expects a non-negative integer, "
                      "got 'lots'");
}

TEST(CliDeathTest, ThreadsRejectsMalformed) {
  expect_shared_error({"blink.fig2", "--threads", "banana"},
                      "intox: --threads expects a non-negative integer, "
                      "got 'banana'");
}

TEST(CliDeathTest, ThreadsRejectsNegative) {
  expect_shared_error({"blink.fig2", "--threads", "-2"},
                      "intox: --threads expects a non-negative integer, "
                      "got '-2'");
}

TEST(CliDeathTest, ThreadsRejectsTrailingGarbage) {
  expect_shared_error({"blink.fig2", "--threads", "4x"},
                      "intox: --threads expects a non-negative integer, "
                      "got '4x'");
}

TEST(CliDeathTest, ThreadsRejectsMissingValue) {
  expect_shared_error({"blink.fig2", "--threads"},
                      "intox: --threads requires a value");
}

TEST(CliDeathTest, ValidateUnknownScenarioExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "validate", "no.such"})),
              ::testing::ExitedWithCode(2),
              "intox: unknown scenario 'no.such'");
}

TEST(CliDeathTest, KnobsUnknownScenarioExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "knobs", "no.such"})),
              ::testing::ExitedWithCode(2),
              "intox: unknown scenario 'no.such'");
}

// --set and --sweep fighting over one knob used to resolve silently in
// favor of the sweep; now it is a config error, in either flag order.
TEST(CliDeathTest, SetThenSweepSameKnobExitsTwo) {
  expect_shared_error({"blink.fig2", "--set", "runs=4", "--sweep",
                       "runs=1:2:1"},
                      "intox: --set and --sweep both name knob 'runs'");
}

TEST(CliDeathTest, SweepThenSetSameKnobExitsTwo) {
  expect_shared_error({"blink.fig2", "--sweep", "runs=1:2:1", "--set",
                       "runs=4"},
                      "intox: --set and --sweep both name knob 'runs'");
}

TEST(CliDeathTest, DuplicateSweepKnobExitsTwo) {
  expect_shared_error({"blink.fig2", "--sweep", "runs=1:2:1", "--sweep",
                       "runs=3:4:1"},
                      "intox: --sweep: knob 'runs' swept twice");
}

TEST(CliDeathTest, PointOutOfRangeExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--sweep",
                             "runs=1:4:1", "--point", "4"})),
              ::testing::ExitedWithCode(2),
              "intox: --point 4 out of range \\(sweep has 4 points\\)");
}

TEST(CliDeathTest, PointWithoutSweepOnlyAllowsZero) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--point",
                             "1"})),
              ::testing::ExitedWithCode(2),
              "intox: --point 1 out of range \\(sweep has 1 point\\)");
}

TEST(CliDeathTest, MalformedPointExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--point",
                             "two"})),
              ::testing::ExitedWithCode(2),
              "intox: --point expects a non-negative integer");
}

TEST(CliDeathTest, PointRecordWithoutPointExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2",
                             "--point-record", "/tmp/r.json"})),
              ::testing::ExitedWithCode(2),
              "intox: --point-record requires --point");
}

TEST(CliDeathTest, MalformedWorkersExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "sweep", "blink.fig2", "--workers",
                             "-1"})),
              ::testing::ExitedWithCode(2),
              "intox: --workers expects a non-negative integer, got '-1'");
}

TEST(CliDeathTest, HelpExitsZero) {
  EXPECT_EXIT(std::exit(run({"intox", "help"})),
              ::testing::ExitedWithCode(0), "");
}

TEST(CliDeathTest, SweepHelpExitsZero) {
  EXPECT_EXIT(std::exit(run({"intox", "sweep", "--help"})),
              ::testing::ExitedWithCode(0), "");
}

TEST(CliDeathTest, ListExitsZero) {
  EXPECT_EXIT(std::exit(run({"intox", "list"})),
              ::testing::ExitedWithCode(0), "");
}

TEST(CliDeathTest, KnobsExitsZero) {
  EXPECT_EXIT(std::exit(run({"intox", "knobs", "blink.fig2"})),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace intox::scenario
