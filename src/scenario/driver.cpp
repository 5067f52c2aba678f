#include "scenario/driver.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flightrec.hpp"
#include "obs/forensics.hpp"
#include "obs/report.hpp"
#include "scenario/command_line.hpp"
#include "scenario/console.hpp"
#include "scenario/knob.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "sim/runner.hpp"
#include "sweep/point.hpp"
#include "validate/invariant.hpp"

namespace intox::scenario {
namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: intox <command> [args]\n"
               "  list                       enumerate registered scenarios\n"
               "  knobs <scenario>           show a scenario's knobs\n"
               "  run <scenario> [options]   run one scenario\n"
               "      --set key=value        override a knob\n"
               "      --sweep key=a:b:step   sweep a numeric knob "
               "(cross-product)\n"
               "      --config FILE          key=value lines, '#' comments\n"
               "      --threads N            worker threads (0 = auto)\n"
               "      --metrics-out FILE     write the BENCH_<family>.json "
               "report here\n"
               "      --trace-out FILE       write trace spans here\n"
               "      --flightrec-out FILE   write the flight-recorder "
               "crash dump here\n"
               "      --point N              run only point N of the sweep "
               "cross-product\n"
               "      --point-record FILE    with --point: write a point "
               "record instead of stdout\n"
               "  sweep <scenario> [options] run a sweep across worker "
               "processes\n"
               "      (run + --workers N, --cache-dir DIR, --out FILE; see "
               "'intox sweep --help')\n"
               "  forensics <dump> [--trace-out FILE]\n"
               "                             render a flight-recorder crash "
               "dump as a timeline\n"
               "                             (and optionally a Chrome-trace "
               "file)\n"
               "  validate [scenario...]     rerun with throw-mode "
               "invariants, console off\n"
               "  help                       this text\n");
}

int cmd_list() {
  for (const Scenario* sc : Registry::instance().all()) {
    std::printf("%-22s %-12s %s\n", sc->name.c_str(), sc->family.c_str(),
                sc->description.c_str());
  }
  return 0;
}

int cmd_knobs(int argc, char** argv) {
  if (argc < 3) return fail("knobs: missing scenario name");
  std::string error;
  const Scenario* sc = find_scenario(argv[2], &error);
  if (sc == nullptr) return fail(error);
  KnobSet knobs;
  if (sc->declare_knobs != nullptr) sc->declare_knobs(knobs);
  std::printf("%s (%s) — %s\n", sc->name.c_str(), sc->family.c_str(),
              sc->description.c_str());
  for (const Knob& k : knobs.all()) {
    std::string spec = std::string(to_string(k.kind)) + "=" + k.default_text;
    if (k.has_range) {
      char range[64];
      std::snprintf(range, sizeof range, " in [%g, %g]", k.min_value,
                    k.max_value);
      spec += range;
    }
    std::printf("  %-18s %-28s %s\n", k.name.c_str(), spec.c_str(),
                k.help.c_str());
  }
  return 0;
}

/// Redirects fd 1 into a tmpfile between begin() and end(), so a
/// `--point-record` worker can embed the scenario's table output in its
/// record instead of interleaving it with the orchestrator's own
/// stdout. Scenarios print through stdio, so an fd-level swap catches
/// everything, including child-library printf.
class StdoutCapture {
 public:
  ~StdoutCapture() {
    if (active_) end();
  }

  bool begin() {
    std::fflush(stdout);
    saved_fd_ = ::dup(1);
    tmp_ = std::tmpfile();
    if (saved_fd_ < 0 || tmp_ == nullptr ||
        ::dup2(::fileno(tmp_), 1) < 0) {
      if (saved_fd_ >= 0) ::close(saved_fd_);
      if (tmp_ != nullptr) std::fclose(tmp_);
      saved_fd_ = -1;
      tmp_ = nullptr;
      return false;
    }
    active_ = true;
    return true;
  }

  std::string end() {
    if (!active_) return "";
    std::fflush(stdout);
    ::dup2(saved_fd_, 1);
    ::close(saved_fd_);
    active_ = false;
    std::string text;
    std::rewind(tmp_);
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, tmp_)) > 0) {
      text.append(buf, n);
    }
    std::fclose(tmp_);
    tmp_ = nullptr;
    return text;
  }

 private:
  int saved_fd_ = -1;
  std::FILE* tmp_ = nullptr;
  bool active_ = false;
};

int cmd_run(int argc, char** argv) {
  std::optional<std::size_t> point;
  std::string point_record_path;
  const CommandFlag run_flags[] = {
      {"--point", "an index",
       [&](const char* value) {
         std::size_t index = 0;
         std::string err = parse_non_negative("--point", value, &index);
         if (err.empty()) point = index;
         return err;
       }},
      {"--point-record", "a file path", store_value(&point_record_path)},
  };
  CommandLine cl;
  {
    std::string err =
        parse_command_line(argc, argv, run_flags, "intox help", &cl);
    if (!err.empty()) return fail(err);
  }
  const Scenario& sc = *cl.scenario;
  KnobSet& knobs = cl.knobs;
  const std::vector<sweep::SweepAxis>& axes = cl.axes;

  if (!point_record_path.empty() && !point.has_value()) {
    return fail("--point-record requires --point");
  }
  const std::size_t total = sweep::point_count(axes);
  if (point.has_value() && *point >= total) {
    return fail("--point " + std::to_string(*point) +
                " out of range (sweep has " + std::to_string(total) +
                (total == 1 ? " point)" : " points)"));
  }

  obs::flightrec_set_scenario(sc.name.c_str());
  obs::BenchSession session{sc.family, cl.session};
  if (point.has_value()) session.apply_point_suffix(*point);
  sim::ParallelRunner runner{session.threads()};
  Console console;

  // `--point N` runs point N alone (a sweep worker); otherwise every
  // point runs in flag order, the first --sweep varying slowest. With
  // --point-record, stdout goes into the record file instead of the
  // terminal — the orchestrator merges records in point order, so the
  // concatenated output is byte-identical to the serial sweep.
  StdoutCapture capture;
  const bool recording = !point_record_path.empty();
  if (recording && !capture.begin()) {
    return fail("--point-record: cannot capture stdout");
  }
  const std::size_t first = point.value_or(0);
  const std::size_t last = point.has_value() ? first + 1 : total;
  sweep::Point pt;
  int exit_code = 0;
  for (std::size_t i = first; i < last; ++i) {
    pt = sweep::point_at(axes, i);
    std::string err = sweep::apply_point(pt, &knobs);
    if (!err.empty()) return fail(err);
    if (!axes.empty()) {
      std::printf("[sweep] %s\n", sweep::point_banner(pt).c_str());
    }
    Ctx ctx{knobs, console, runner};
    exit_code = std::max(exit_code, sc.run(ctx));
  }
  if (recording) {
    obs::PointRecord record;
    record.scenario = sc.name;
    record.family = sc.family;
    for (const Knob& k : knobs.all()) {
      record.knobs.emplace_back(k.name, render_value(k));
    }
    record.banner = sweep::point_banner(pt);
    record.exit_code = exit_code;
    record.stdout_text = capture.end();
    if (!obs::write_point_record(point_record_path, record)) return 1;
  }
  return exit_code;
}

int cmd_validate(int argc, char** argv) {
  std::vector<const Scenario*> targets;
  if (argc > 2) {
    for (int i = 2; i < argc; ++i) {
      std::string error;
      const Scenario* sc = find_scenario(argv[i], &error);
      if (sc == nullptr) return fail(error);
      targets.push_back(sc);
    }
  } else {
    targets = Registry::instance().all();
  }

  int failures = 0;
  for (const Scenario* sc : targets) {
    KnobSet knobs;
    if (sc->declare_knobs != nullptr) sc->declare_knobs(knobs);
    obs::flightrec_set_scenario(sc->name.c_str());
    obs::BenchSession session{sc->family};
    sim::ParallelRunner runner{session.threads()};
    Console console;
    console.set_quiet(true);
    validate::ScopedInvariantMode mode{validate::InvariantMode::kThrow};
    std::string verdict = "OK";
    try {
      Ctx ctx{knobs, console, runner};
      const int exit_code = sc->run(ctx);
      if (exit_code != 0) {
        verdict = "FAIL (exit " + std::to_string(exit_code) + ")";
        ++failures;
      }
    } catch (const validate::InvariantError& e) {
      verdict = std::string("FAIL (") + e.what() + ")";
      ++failures;
    }
    std::printf("validate %-22s %s\n", sc->name.c_str(), verdict.c_str());
    std::fflush(stdout);
  }
  return failures > 0 ? 1 : 0;
}

int cmd_forensics(int argc, char** argv) {
  std::string dump_path;
  std::string trace_out;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--trace-out") {
      if (i + 1 >= argc) return fail("--trace-out requires a value");
      trace_out = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return fail("forensics: unknown argument '" + std::string(arg) +
                  "' (usage: intox forensics <dump> [--trace-out FILE])");
    } else if (dump_path.empty()) {
      dump_path = arg;
    } else {
      return fail("forensics: multiple dump paths given");
    }
  }
  if (dump_path.empty()) return fail("forensics: missing dump path");

  obs::FlightrecDump dump;
  std::string error;
  if (!obs::load_flightrec_dump(dump_path, &dump, &error)) {
    return fail("forensics: " + error);
  }
  const std::string timeline = obs::render_flightrec_timeline(dump);
  std::fwrite(timeline.data(), 1, timeline.size(), stdout);
  if (!trace_out.empty()) {
    const std::string doc = obs::render_flightrec_chrome_trace(dump);
    std::FILE* f = std::fopen(trace_out.c_str(), "w");
    if (f == nullptr) {
      return fail("forensics: cannot write " + trace_out);
    }
    const bool ok =
        std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    std::fclose(f);
    if (!ok) return fail("forensics: short write to " + trace_out);
    std::fprintf(stderr, "forensics: wrote Chrome trace to %s\n",
                 trace_out.c_str());
  }
  return 0;
}

}  // namespace

int driver_main(int argc, char** argv) {
  // Crash plumbing first: any command (and any scenario body it runs)
  // dumps the flight recorder on a fatal invariant or signal. The
  // pid-suffixed default keeps concurrent drivers from clobbering one
  // another; --flightrec-out / INTOX_FLIGHTREC_DUMP override it.
  obs::flightrec_init();
  if (obs::flightrec_dump_path().empty()) {
    obs::set_flightrec_dump_path(
        "intox.flightrec." + std::to_string(static_cast<long>(::getpid())) +
        ".json");
  }
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string_view command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    usage(stdout);
    return 0;
  }
  if (command == "list") return cmd_list();
  if (command == "knobs") return cmd_knobs(argc, argv);
  if (command == "run") return cmd_run(argc, argv);
  if (command == "validate") return cmd_validate(argc, argv);
  if (command == "forensics") return cmd_forensics(argc, argv);
  return fail("unknown command '" + std::string(command) +
              "' (try 'intox help')");
}

}  // namespace intox::scenario
