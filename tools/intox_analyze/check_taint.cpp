#include <set>

#include "checks.hpp"

namespace intox::analyze {
namespace {

std::string strip_qualifiers(const std::string& chain) {
  std::string s = chain;
  if (s.rfind("::", 0) == 0) s = s.substr(2);
  if (s.rfind("std::", 0) == 0) s = s.substr(5);
  return s;
}

}  // namespace

void check_taint(const CallGraph& graph, std::vector<Finding>& out,
                 std::ostream* explain) {
  const Index& index = graph.index();

  std::set<int> root_set;
  std::vector<std::string> root_names;
  for (const ScenarioReg& reg : index.scenarios) {
    for (int f : graph.find_functions(reg.run_fn)) root_set.insert(f);
    root_names.push_back(reg.run_fn);
  }

  const std::vector<int> reach =
      graph.reachable({root_set.begin(), root_set.end()});

  if (explain != nullptr) {
    *explain << "taint roots (" << root_names.size() << "):";
    for (const std::string& r : root_names) *explain << " " << r;
    *explain << "\ntaint reachable (" << reach.size() << "):\n";
    for (int f : reach) {
      const FunctionDef& fn = index.functions[f];
      *explain << "  " << fn.qname << "  (" << fn.file << ":" << fn.line
               << ")\n";
    }
  }

  for (int f : reach) {
    const FunctionDef& fn = index.functions[f];
    for (const CallSite& c : fn.calls) {
      if (!graph.resolve_call(f, c).empty()) continue;
      if (!c.receiver.empty()) continue;
      const Banned banned = banned_source(strip_qualifiers(c.name));
      if (banned != Banned::kFunction && banned != Banned::kCallOnly) continue;
      out.push_back({fn.file, c.line, "taint",
                     "'" + fn.qname +
                         "' is reachable from a scenario run function but "
                         "calls '" + c.name +
                         "' (nondeterministic source; use sim::Rng / the "
                         "simulated clock)"});
    }
    for (const DangerEvent& d : fn.dangers) {
      // "std::chrono::steady_clock" -> "steady_clock".
      const std::string name = d.what.substr(d.what.rfind(':') + 1);
      if (banned_source(name) != Banned::kType) continue;
      out.push_back({fn.file, d.line, "taint",
                     "'" + fn.qname +
                         "' is reachable from a scenario run function but "
                         "uses " + d.what +
                         " (nondeterministic source; use sim::Rng / the "
                         "simulated clock)"});
    }
    for (const UnorderedIter& it : fn.unordered_iters) {
      out.push_back({fn.file, it.line, "taint",
                     "'" + fn.qname +
                         "' is reachable from a scenario run function but "
                         "iterates unordered container '" + it.container +
                         "' (iteration order is hash/address-dependent; sort "
                         "before emitting)"});
    }
  }
}

}  // namespace intox::analyze
