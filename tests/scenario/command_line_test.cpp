// The command line `intox run` and `intox sweep` share: what the parser
// hands back, and the --config reader both commands use.
#include "scenario/command_line.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace intox::scenario {
namespace {

std::string parse(std::initializer_list<const char*> args,
                  std::span<const CommandFlag> command_flags,
                  CommandLine* out) {
  std::vector<char*> argv;
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  argv.push_back(nullptr);
  return parse_command_line(static_cast<int>(args.size()), argv.data(),
                            command_flags, "intox help", out);
}

std::vector<std::pair<std::string, std::string>> rendered(
    const KnobSet& knobs) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Knob& k : knobs.all()) out.emplace_back(k.name, render_value(k));
  return out;
}

// A config file means the same knob vector to both commands, whatever
// its line endings, trailing blanks, comments or line lengths: a sweep
// worker must resolve the knobs its orchestrator hashed. The CRLF line
// with a trailing blank and the line over 4 KiB are the two cases a
// separate sweep-side reader once got wrong.
TEST(CommandLine, ConfigFileGivesTheSameKnobsToRunAndSweep) {
  const std::string path = ::testing::TempDir() + "/intox_crlf.cfg";
  const std::string crash(5000, 'x');
  {
    std::ofstream f{path, std::ios::binary};
    f << "# debug.crash, written on another OS\r\n"
      << "\r\n"
      << "events=2000\r \n"
      << "  seed=7\t\r\n"
      << "crash=" << crash << "  \r\n";
  }
  std::vector<std::pair<std::string, std::string>> knobs[2];
  const char* commands[] = {"run", "sweep"};
  for (int i = 0; i < 2; ++i) {
    CommandLine cl;
    ASSERT_EQ(parse({"intox", commands[i], "debug.crash", "--config",
                     path.c_str()},
                    {}, &cl),
              "")
        << commands[i];
    EXPECT_EQ(cl.knobs.u("events"), 2000u);
    EXPECT_EQ(cl.knobs.u("seed"), 7u);
    EXPECT_EQ(cl.knobs.s("crash"), crash);
    knobs[i] = rendered(cl.knobs);
  }
  EXPECT_EQ(knobs[0], knobs[1]);
  std::remove(path.c_str());
}

TEST(CommandLine, ConfigErrorsNameTheLine) {
  const std::string path = ::testing::TempDir() + "/intox_bad.cfg";
  {
    std::ofstream f{path};
    f << "# fine\nevents=2000\nevents\n";
  }
  CommandLine cl;
  EXPECT_EQ(parse({"intox", "run", "debug.crash", "--config", path.c_str()},
                  {}, &cl),
            path + ":3: expected key=value, got 'events'");
  std::remove(path.c_str());
}

TEST(CommandLine, ParsesThreadsAndSinks) {
  CommandLine defaults;
  ASSERT_EQ(parse({"intox", "run", "blink.fig2"}, {}, &defaults), "");
  EXPECT_EQ(defaults.scenario->name, "blink.fig2");
  EXPECT_EQ(defaults.session.threads, 0u);
  EXPECT_FALSE(defaults.threads_given);
  EXPECT_TRUE(defaults.session.metrics_out.empty());
  EXPECT_TRUE(defaults.shared_flags.empty());

  CommandLine cl;
  ASSERT_EQ(parse({"intox", "run", "blink.fig2", "--threads", "04",
                   "--set", "runs=3", "--metrics-out", "m.json",
                   "--trace-out", "t.json", "--flightrec-out", "f.json",
                   "--sweep", "bots=50:100:50"},
                  {}, &cl),
            "");
  EXPECT_EQ(cl.session.threads, 4u);
  EXPECT_TRUE(cl.threads_given);
  EXPECT_EQ(cl.session.metrics_out, "m.json");
  EXPECT_EQ(cl.session.trace_out, "t.json");
  EXPECT_EQ(cl.session.flightrec_out, "f.json");
  EXPECT_EQ(cl.knobs.u("runs"), 3u);
  ASSERT_EQ(cl.axes.size(), 1u);
  EXPECT_EQ(cl.axes[0].key, "bots");
  // Workers get the shared flags as typed, sinks excluded.
  const std::vector<std::string> forwarded{
      "--threads", "04", "--set", "runs=3", "--sweep",
      "bots=50:100:50"};
  EXPECT_EQ(cl.shared_flags, forwarded);

  CommandLine zero;
  ASSERT_EQ(parse({"intox", "run", "blink.fig2", "--threads", "0"}, {},
                  &zero),
            "");
  EXPECT_EQ(zero.session.threads, 0u);
  EXPECT_TRUE(zero.threads_given);
}

TEST(CommandLine, HandsCommandFlagsToTheCommandTable) {
  std::string seen;
  const CommandFlag flags[] = {{"--out", "a file path", store_value(&seen)}};
  CommandLine cl;
  ASSERT_EQ(parse({"intox", "sweep", "blink.fig2", "--out", "r.json"}, flags,
                  &cl),
            "");
  EXPECT_EQ(seen, "r.json");
  EXPECT_TRUE(cl.shared_flags.empty());

  CommandLine dangling;
  EXPECT_EQ(parse({"intox", "sweep", "blink.fig2", "--out"}, flags,
                  &dangling),
            "--out requires a file path");
}

TEST(CommandLine, NonNegativeIsDigitsOnly) {
  std::size_t n = 99;
  EXPECT_EQ(parse_non_negative("--n", "0", &n), "");
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(parse_non_negative("--n", "17", &n), "");
  EXPECT_EQ(n, 17u);
  for (const char* bad : {"", "+3", " 3", "3 ", "-0", "0x10", "1e3",
                          "99999999999999999999999"}) {
    EXPECT_EQ(parse_non_negative("--n", bad, &n),
              std::string("--n expects a non-negative integer, got '") + bad +
                  "'");
    EXPECT_EQ(n, 17u) << "a rejected value must leave *out alone";
  }
}

}  // namespace
}  // namespace intox::scenario
