#include "analyze.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <utility>

#include "compdb.hpp"

namespace fs = std::filesystem;

namespace intox::analyze {
namespace {

const std::vector<std::string> kDefaultPaths = {"src", "bench", "tests",
                                                "tools"};

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in)
    throw std::runtime_error("intox_analyze: cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> collect_files(const Options& opts) {
  const fs::path root(opts.root);
  if (!fs::is_directory(root)) {
    throw std::runtime_error("intox_analyze: root is not a directory: " +
                             opts.root);
  }
  // A missing default directory is fine (a fixture mini-repo may only
  // have src/); a path the user named must exist.
  for (const std::string& p : opts.paths) {
    if (!fs::exists(root / p)) {
      throw std::runtime_error("intox_analyze: no such file or directory: " +
                               (root / p).string());
    }
  }
  const std::vector<std::string>& subtrees =
      opts.paths.empty() ? kDefaultPaths : opts.paths;
  std::vector<std::string> files = walk_files(opts.root, subtrees);
  if (!opts.compdb_path.empty()) {
    // The compile DB is authoritative for translation units: keep its
    // TU set (validating the export), plus all walked headers.
    const std::vector<std::string> v =
        compdb_files(opts.compdb_path, opts.root, subtrees);
    const std::set<std::string> tus(v.begin(), v.end());
    std::erase_if(files, [&](const std::string& f) {
      return !classify(f).is_header && !tus.count(f);
    });
  }
  return files;
}

// (line, check) named by a pragma -> whether it suppressed a finding.
using Allowances = std::map<std::pair<int, std::string>, bool>;

Allowances parse_pragmas(const std::string& source, const std::string& path,
                         std::vector<Finding>& malformed) {
  static const std::regex re(R"(intox-analyze:\s*allow\(([^)]*)\))");
  static const std::regex why_re(R"(^\s*--\s*\S)");
  Allowances out;
  std::istringstream in(source);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::smatch m;
    if (!std::regex_search(line, m, re)) continue;
    // Unexplained pragmas rot: nobody can tell later whether they are
    // still needed or were ever sound.
    if (!std::regex_search(m.suffix().str(), why_re)) {
      malformed.push_back(
          {path, lineno, "pragma",
           "suppression has no justification; write allow(" + m[1].str() +
               ")  -- why this is safe here"});
      continue;
    }
    std::istringstream list(m[1].str());
    std::string check;
    while (std::getline(list, check, ',')) {
      check.erase(0, check.find_first_not_of(" \t"));
      check.erase(check.find_last_not_of(" \t") + 1);
      const auto& known = check_names();
      if (std::find(known.begin(), known.end(), check) == known.end()) {
        malformed.push_back({path, lineno, "pragma",
                             "unknown check '" + check +
                                 "' in pragma (see --list-checks)"});
        continue;
      }
      out[{lineno, check}] = false;
    }
  }
  return out;
}

// Everything one pass over the file set produces.
struct Scan {
  Index index;
  std::map<std::string, Allowances> allowances;  // by path
  std::vector<Finding> findings;  // per-file checks and malformed pragmas
  int files = 0;
};

Scan scan(const Options& opts) {
  Scan s;
  for (const std::string& rel : collect_files(opts)) {
    const std::string source = read_file(fs::path(opts.root) / rel);
    const TokenStream toks = tokenize(source);
    const FileClass fc = classify(rel);
    s.allowances[rel] = parse_pragmas(source, rel, s.findings);
    check_file(rel, fc, toks, s.findings);
    if (fc.indexed) index_file(rel, source, toks, s.index);
    ++s.files;
  }
  finalize_index(s.index);
  return s;
}

}  // namespace

Index build_index(const Options& opts) { return scan(opts).index; }

std::vector<ExternalCall> external_calls(const CallGraph& graph, int fn) {
  std::vector<ExternalCall> out;
  for (const CallSite& c : graph.index().functions[fn].calls) {
    // A resolved call is judged through its callee, and a method on a
    // value of unknown type cannot be named.
    if (!graph.resolve_call(fn, c).empty() || !c.receiver.empty()) continue;
    std::string_view name = c.name;
    if (name.starts_with("::")) name.remove_prefix(2);
    if (name.starts_with("std::")) name.remove_prefix(5);
    out.push_back({&c, std::string(name)});
  }
  return out;
}

std::vector<int> explain_reachable(const CallGraph& graph,
                                   const std::set<int>& roots,
                                   const std::vector<std::string>& root_names,
                                   const char* check, std::ostream* explain) {
  std::vector<int> reach = graph.reachable({roots.begin(), roots.end()});
  if (explain != nullptr) {
    *explain << check << " roots (" << root_names.size() << "):";
    for (const std::string& r : root_names) *explain << " " << r;
    *explain << "\n" << check << " reachable (" << reach.size() << "):\n";
    for (int f : reach) {
      const FunctionDef& fn = graph.index().functions[f];
      *explain << "  " << fn.qname << "  (" << fn.file << ":" << fn.line
               << ")\n";
    }
  }
  return reach;
}

RunResult run_analyze(const Options& opts, std::ostream& explain_out) {
  Scan s = scan(opts);
  std::vector<Finding>& raw = s.findings;

  auto enabled = [&](const std::string& check) {
    return opts.only_checks.empty() ||
           std::find(opts.only_checks.begin(), opts.only_checks.end(),
                     check) != opts.only_checks.end();
  };
  auto explain_for = [&](const std::string& check) -> std::ostream* {
    return opts.explain_check == check ? &explain_out : nullptr;
  };
  auto runs = [&](const std::string& check) {
    return enabled(check) || opts.explain_check == check;
  };

  check_metrics(s.index, raw);
  const CallGraph graph(s.index);
  if (runs("sigsafe")) check_sigsafe(graph, raw, explain_for("sigsafe"));
  if (runs("taint")) check_taint(graph, raw, explain_for("taint"));
  if (runs("lockorder"))
    check_lockorder(graph, raw, explain_for("lockorder"));
  if (runs("atomics")) check_atomics(graph, raw, explain_for("atomics"));

  RunResult result;
  result.files_scanned = s.files;
  for (Finding& f : raw) {
    if (!enabled(f.check)) continue;
    if (f.check != "pragma") {
      // Same line or the line directly above.
      Allowances& allow = s.allowances[f.path];
      auto it = allow.find({f.line, f.check});
      if (it == allow.end()) it = allow.find({f.line - 1, f.check});
      if (it != allow.end()) {
        it->second = true;
        ++result.suppressed;
        continue;
      }
    }
    result.findings.push_back(std::move(f));
  }

  // A named check that suppressed nothing is stale; only checks that
  // ran can tell.
  if (enabled("pragma")) {
    for (const auto& [path, allow] : s.allowances) {
      for (const auto& [key, used] : allow) {
        if (used || !enabled(key.second)) continue;
        result.findings.push_back(
            {path, key.first, "pragma",
             "suppression for '" + key.second +
                 "' matches no finding; remove it from the pragma"});
      }
    }
  }

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.check, a.message) <
                     std::tie(b.path, b.line, b.check, b.message);
            });
  return result;
}

void print_findings(std::ostream& out, const std::vector<Finding>& findings) {
  for (const Finding& f : findings) {
    out << f.path << ":" << f.line << ": [" << f.check << "] " << f.message
        << "\n";
  }
}

}  // namespace intox::analyze
