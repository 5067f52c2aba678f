#include <algorithm>
#include <array>
#include <set>

#include "checks.hpp"

namespace intox::analyze {
namespace {

// POSIX async-signal-safe functions (subset the codebase could plausibly
// reach), the mem*/str* helpers POSIX.1-2016 added to the safe list, and
// a few allocation-free pure std helpers (move/min/max/to_chars).
const std::set<std::string>& sigsafe_allowlist() {
  static const std::set<std::string> kAllow = {
      "move",       "min",        "max",         "clamp",      "abs",
      "isfinite",   "isnan",      "to_chars",    "from_chars", "forward",
      "abort",      "access",     "alarm",       "chdir",      "chmod",
      "close",      "clock_gettime",             "creat",      "dup",
      "dup2",       "_exit",      "_Exit",       "faccessat",  "fchmod",
      "fcntl",      "fdatasync",  "fstat",       "fsync",      "ftruncate",
      "getegid",    "geteuid",    "getgid",      "getpgrp",    "getpid",
      "getppid",    "gettid",     "getuid",      "kill",       "link",
      "lseek",      "lstat",      "memchr",      "memcmp",     "memcpy",
      "memmove",    "memset",     "mkdir",       "open",       "openat",
      "pause",      "pipe",       "poll",        "pread",      "pwrite",
      "raise",      "read",       "readlink",    "rename",     "rmdir",
      "sigaction",  "sigaddset",  "sigdelset",   "sigemptyset",
      "sigfillset", "signal",     "sigprocmask", "stat",       "strcat",
      "strchr",     "strcmp",     "strcpy",      "strlen",     "strncat",
      "strncmp",    "strncpy",    "strrchr",     "strstr",     "symlink",
      "time",       "umask",      "uname",       "unlink",     "write"};
  return kAllow;
}

// DangerEvents fatal on the signal path. Clock mentions are excluded —
// they are a determinism concern (check_taint), not a safety one.
bool danger_is_signal_unsafe(const std::string& what) {
  static const std::array<const char*, 9> kUnsafe = {
      "new-expression",     "throw",
      "std::string",        "std::cout",
      "std::cerr",          "std::clog",
      "std::ostringstream", "std::stringstream",
      "std::istringstream"};
  return std::find_if(kUnsafe.begin(), kUnsafe.end(), [&](const char* k) {
           return what == k;
         }) != kUnsafe.end();
}

}  // namespace

void check_sigsafe(const CallGraph& graph, std::vector<Finding>& out,
                   std::ostream* explain) {
  const Index& index = graph.index();

  // Roots: every registered handler plus the crash-dump entry points,
  // which are documented to be callable from a fatal-signal context.
  std::set<int> root_set;
  std::vector<std::string> root_names;
  for (const SignalHandlerReg& reg : index.signal_handlers) {
    for (int f : graph.find_functions(reg.handler)) root_set.insert(f);
    root_names.push_back(reg.handler);
  }
  for (const char* builtin : {"flightrec_dump", "flightrec_dump_on_crash"}) {
    const std::vector<int> fns = graph.find_functions(builtin);
    if (!fns.empty()) root_names.push_back(builtin);
    for (int f : fns) root_set.insert(f);
  }

  for (int f : explain_reachable(graph, root_set, root_names, "sigsafe",
                                 explain)) {
    const FunctionDef& fn = index.functions[f];
    for (const ExternalCall& c : external_calls(graph, f)) {
      if (sigsafe_allowlist().count(c.name)) continue;
      out.push_back({fn.file, c.site->line, "sigsafe",
                     "'" + fn.qname +
                         "' is on the fatal-signal path but calls '" +
                         c.site->name + "', which is not async-signal-safe"});
    }
    for (const DangerEvent& d : fn.dangers) {
      if (!danger_is_signal_unsafe(d.what)) continue;
      out.push_back({fn.file, d.line, "sigsafe",
                     "'" + fn.qname + "' is on the fatal-signal path but uses " +
                         d.what + " (may allocate or throw)"});
    }
    for (const LockEvent& e : fn.lock_events) {
      if (e.kind != LockEvent::kScopedAcquire && e.kind != LockEvent::kAcquire)
        continue;
      out.push_back({fn.file, e.line, "sigsafe",
                     "'" + fn.qname +
                         "' is on the fatal-signal path but acquires lock '" +
                         e.node + "' (deadlocks if the interrupted thread "
                         "holds it)"});
    }
  }
}

}  // namespace intox::analyze
