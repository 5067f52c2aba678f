#include <set>

#include "checks.hpp"

namespace intox::analyze {

void check_taint(const CallGraph& graph, std::vector<Finding>& out,
                 std::ostream* explain) {
  const Index& index = graph.index();

  std::set<int> root_set;
  std::vector<std::string> root_names;
  for (const ScenarioReg& reg : index.scenarios) {
    for (int f : graph.find_functions(reg.run_fn)) root_set.insert(f);
    root_names.push_back(reg.run_fn);
  }

  for (int f : explain_reachable(graph, root_set, root_names, "taint",
                                 explain)) {
    const FunctionDef& fn = index.functions[f];
    for (const ExternalCall& c : external_calls(graph, f)) {
      const Banned banned = banned_source(c.name);
      if (banned != Banned::kFunction && banned != Banned::kCallOnly) continue;
      out.push_back({fn.file, c.site->line, "taint",
                     "'" + fn.qname +
                         "' is reachable from a scenario run function but "
                         "calls '" + c.site->name +
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
