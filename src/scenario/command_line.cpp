#include "scenario/command_line.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "scenario/registry.hpp"

namespace intox::scenario {

int fail(const std::string& diagnostic) {
  std::fprintf(stderr, "intox: %s\n", diagnostic.c_str());
  return 2;
}

std::string parse_non_negative(std::string_view flag, std::string_view text,
                               std::size_t* out) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [last, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || last != end) {
    return std::string(flag) + " expects a non-negative integer, got '" +
           std::string(text) + "'";
  }
  *out = value;
  return "";
}

const Scenario* find_scenario(const char* name, std::string* error) {
  const Scenario* sc = Registry::instance().find(name);
  if (sc == nullptr) {
    *error = std::string("unknown scenario '") + name +
             "' (run 'intox list' to enumerate)";
  }
  return sc;
}

std::function<std::string(const char* value)> store_value(std::string* dst) {
  return [dst](const char* value) {
    *dst = value;
    return std::string();
  };
}

std::string parse_command_line(int argc, char** argv,
                               std::span<const CommandFlag> command_flags,
                               std::string_view help, CommandLine* out) {
  if (argc < 3) return std::string(argv[1]) + ": missing scenario name";
  std::string error;
  out->scenario = find_scenario(argv[2], &error);
  if (out->scenario == nullptr) return error;
  if (out->scenario->declare_knobs != nullptr) {
    out->scenario->declare_knobs(out->knobs);
  }

  std::vector<std::string> set_keys;
  const auto swept = [&](std::string_view key) {
    return std::any_of(out->axes.begin(), out->axes.end(),
                       [&](const sweep::SweepAxis& a) { return a.key == key; });
  };
  const auto conflict = [](const std::string& key) {
    return "--set and --sweep both name knob '" + key +
           "' (a sweep decides that knob's value)";
  };
  const auto forward = [&](const char* flag, const char* value) {
    out->shared_flags.insert(out->shared_flags.end(), {flag, value});
  };
  const CommandFlag grammar[] = {
      {"--set", "key=value",
       [&](const char* value) -> std::string {
         const std::string kv = value;
         const auto eq = kv.find('=');
         if (eq == std::string::npos || eq == 0) {
           return "--set expects key=value, got '" + kv + "'";
         }
         std::string key = kv.substr(0, eq);
         if (swept(key)) return conflict(key);
         std::string err = out->knobs.set(key, kv.substr(eq + 1));
         if (!err.empty()) return err;
         set_keys.push_back(std::move(key));
         forward("--set", value);
         return "";
       }},
      {"--sweep", "key=a:b:step",
       [&](const char* value) -> std::string {
         sweep::SweepAxis axis;
         std::string err = sweep::parse_sweep_axis(value, out->knobs, &axis);
         if (!err.empty()) return err;
         if (std::find(set_keys.begin(), set_keys.end(), axis.key) !=
             set_keys.end()) {
           return conflict(axis.key);
         }
         if (swept(axis.key)) {
           return "--sweep: knob '" + axis.key + "' swept twice";
         }
         out->axes.push_back(std::move(axis));
         forward("--sweep", value);
         return "";
       }},
      {"--config", "a file path",
       [&](const char* value) {
         std::string err = out->knobs.set_from_file(value);
         if (err.empty()) forward("--config", value);
         return err;
       }},
      {"--threads", "a value",
       [&](const char* value) {
         std::string err =
             parse_non_negative("--threads", value, &out->session.threads);
         if (!err.empty()) return err;
         forward("--threads", value);
         out->threads_given = true;
         return err;
       }},
      {"--metrics-out", "a value", store_value(&out->session.metrics_out)},
      {"--trace-out", "a value", store_value(&out->session.trace_out)},
      {"--flightrec-out", "a value", store_value(&out->session.flightrec_out)},
  };

  for (int i = 3; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const CommandFlag* flag = nullptr;
    for (auto table : {std::span<const CommandFlag>(grammar), command_flags}) {
      for (const CommandFlag& f : table) {
        if (f.name == arg) flag = &f;
      }
    }
    if (flag == nullptr) {
      return "unknown argument '" + std::string(arg) + "' (try '" +
             std::string(help) + "')";
    }
    if (i + 1 >= argc) {
      return std::string(arg) + " requires " + std::string(flag->value_name);
    }
    std::string err = flag->apply(argv[++i]);
    if (!err.empty()) return err;
  }
  if (sweep::point_count(out->axes) == 0) {
    return "--sweep cross product exceeds " +
           std::to_string(sweep::kMaxSweepPoints) + " points";
  }
  return "";
}

}  // namespace intox::scenario
