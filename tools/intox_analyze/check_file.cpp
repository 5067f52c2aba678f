#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <regex>

#include "checks.hpp"

namespace intox::analyze {
namespace {

template <typename Arr>
bool contains(const Arr& arr, std::string_view s) {
  return std::find(arr.begin(), arr.end(), s) != arr.end();
}

// ---------------------------------------------------------------------------
// determinism

// Keywords the lexer emits as identifiers but that can never be a
// scope qualifier or declaration specifier before a banned call
// (`return ::time(0)` is a global-scope libc call, not `X::time`).
constexpr std::array<std::string_view, 12> kNonQualifierKeywords = {
    "return", "if",    "while", "for",    "do",  "else",
    "case",   "throw", "new",   "delete", "and", "or"};

bool is_integer_literal(const Token& t) {
  if (t.kind != TokenKind::kNumber) return false;
  const std::string& s = t.text;
  if (s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) return true;
  return s.find('.') == std::string::npos &&
         s.find('e') == std::string::npos && s.find('E') == std::string::npos;
}

// True when toks[i] (a kCallOnly name) is called as a free or std::
// function rather than declared or called as a member.
bool is_free_call(const TokenStream& toks, std::size_t i) {
  if (i + 1 >= toks.size() || toks[i + 1].text != "(") return false;
  if (i == 0) return true;
  const Token& prev = toks[i - 1];
  // Member call on a project object (`sched.time(...)`) is fine.
  if (prev.text == "." || prev.text == "->") return false;
  // A declaration (`Duration time(...)`) is fine — but a keyword before
  // the name (`return time(0)`) is still a call.
  if ((prev.kind == TokenKind::kIdentifier &&
       !contains(kNonQualifierKeywords, prev.text)) ||
      prev.text == ">" || prev.text == "*" || prev.text == "&" ||
      prev.text == "~")
    return false;
  // Qualified call: `std::time(` and `::time(` are the libc functions;
  // `OtherScope::time(` is not.
  if (prev.text == "::" && i >= 2) {
    const Token& qual = toks[i - 2];
    if (qual.kind == TokenKind::kIdentifier && qual.text != "std" &&
        !contains(kNonQualifierKeywords, qual.text))
      return false;
  }
  return true;
}

void check_determinism(const std::string& path, const FileClass& fc,
                       const TokenStream& toks, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;

    const Banned banned = banned_source(t.text);
    if (banned == Banned::kType || banned == Banned::kFunction) {
      out.push_back({path, t.line, "determinism",
                     "'" + t.text +
                         "' reads entropy or a clock; trial results must be "
                         "a pure function of the seed (use sim::Rng / "
                         "sim::Time)"});
      continue;
    }
    if (banned == Banned::kCallOnly) {
      if (is_free_call(toks, i)) {
        out.push_back({path, t.line, "determinism",
                       "call to '" + t.text +
                           "()' reads the wall clock or libc PRNG; derive all "
                           "randomness and time from the simulation"});
      }
      continue;
    }

    // Literal-seeded Rng in src/: `Rng(42)`, `Rng{42}`, `Rng rng(42)`.
    if (fc.in_src && t.text == "Rng") {
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].kind == TokenKind::kIdentifier)
        ++j;  // declared variable name
      if (j + 2 < toks.size() &&
          (toks[j].text == "(" || toks[j].text == "{") &&
          is_integer_literal(toks[j + 1]) &&
          (toks[j + 2].text == ")" || toks[j + 2].text == "}")) {
        out.push_back({path, toks[j + 1].line, "determinism",
                       "Rng seeded with literal " + toks[j + 1].text +
                           " in src/; seeds must arrive via Rng::fork or an "
                           "explicit config so sharding stays reproducible"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// invariant

constexpr std::array<std::string_view, 11> kAssignmentOps = {
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};

// Methods that mutate their receiver; calling one inside an
// INTOX_INVARIANT condition makes behavior depend on whether the
// invariant is compiled in.
constexpr std::array<std::string_view, 26> kMutatingMethods = {
    "push",         "push_back",  "push_front", "pop",
    "pop_back",     "pop_front",  "insert",     "erase",
    "clear",        "reset",      "emplace",    "emplace_back",
    "emplace_front", "resize",    "assign",     "swap",
    "store",        "fetch_add",  "fetch_sub",  "exchange",
    "compare_exchange_weak", "compare_exchange_strong",
    "advance",      "consume",    "shuffle",    "merge",
};

void check_invariants(const std::string& path, const TokenStream& toks,
                      std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier ||
        toks[i].text != "INTOX_INVARIANT" || toks[i + 1].text != "(")
      continue;
    // Walk the first macro argument (the condition): everything up to
    // the first top-level comma or the closing paren.
    int depth = 1;
    for (std::size_t j = i + 2; j < toks.size() && depth > 0; ++j) {
      const Token& t = toks[j];
      if (t.kind != TokenKind::kPunct) continue;
      if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
      if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
      if (depth == 0 || (depth == 1 && t.text == ",")) break;

      if (t.text == "++" || t.text == "--") {
        out.push_back(
            {path, t.line, "invariant",
             "'" + t.text +
                 "' inside an INTOX_INVARIANT condition; the condition "
                 "vanishes under -DINTOX_INVARIANTS_DISABLED, so it must "
                 "be side-effect-free"});
      } else if (contains(kAssignmentOps, t.text)) {
        out.push_back(
            {path, t.line, "invariant",
             "assignment ('" + t.text +
                 "') inside an INTOX_INVARIANT condition; did you mean a "
                 "comparison? The condition compiles out when invariants "
                 "are disabled"});
      } else if ((t.text == "." || t.text == "->") && j + 2 < toks.size() &&
                 toks[j + 1].kind == TokenKind::kIdentifier &&
                 contains(kMutatingMethods, toks[j + 1].text) &&
                 toks[j + 2].text == "(") {
        out.push_back(
            {path, toks[j + 1].line, "invariant",
             "call to mutating method '" + toks[j + 1].text +
                 "()' inside an INTOX_INVARIANT condition; hoist the call "
                 "out so disabled builds behave identically"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// header

std::string strip_spaces(const std::string& s) {
  std::string out;
  for (char c : s)
    if (!std::isspace(static_cast<unsigned char>(c))) out += c;
  return out;
}

void check_header(const std::string& path, const FileClass& fc,
                  const TokenStream& toks, std::vector<Finding>& out) {
  bool has_pragma_once = false;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::kPreprocessor) {
      const std::string flat = strip_spaces(t.text);
      if (flat == "#pragmaonce") has_pragma_once = true;
      if (fc.in_src && flat.find("#include<iostream>") == 0) {
        out.push_back(
            {path, t.line, "header",
             "<iostream> included from a src/ header; hot-path translation "
             "units must not inherit stream globals — include it in the .cpp "
             "that actually prints"});
      }
    } else if (t.kind == TokenKind::kIdentifier && t.text == "using" &&
               i + 1 < toks.size() &&
               toks[i + 1].kind == TokenKind::kIdentifier &&
               toks[i + 1].text == "namespace") {
      out.push_back({path, t.line, "header",
                     "'using namespace' in a header leaks into every "
                     "includer; qualify names or alias them instead"});
    }
  }
  if (!has_pragma_once) {
    out.push_back({path, 1, "header", "header is missing #pragma once"});
  }
}

}  // namespace

FileClass classify(const std::string& rel_path) {
  auto starts_with = [&](std::string_view prefix) {
    return rel_path.rfind(prefix, 0) == 0;
  };
  auto ends_with = [&](std::string_view suffix) {
    return rel_path.size() >= suffix.size() &&
           rel_path.compare(rel_path.size() - suffix.size(), suffix.size(),
                            suffix) == 0;
  };
  FileClass fc;
  fc.in_src = starts_with("src/");
  fc.in_bench = starts_with("bench/");
  fc.is_header = ends_with(".hpp") || ends_with(".h");
  fc.indexed = fc.in_src || fc.in_bench || starts_with("tools/");
  return fc;
}

const std::vector<std::string>& check_names() {
  static const std::vector<std::string> names = {
      "determinism", "invariant", "metrics", "header",   "pragma",
      "sigsafe",     "taint",     "lockorder", "atomics"};
  return names;
}

Banned banned_source(std::string_view name) {
  static const std::map<std::string_view, Banned> kBanned = {
      {"random_device", Banned::kType},
      {"system_clock", Banned::kType},
      {"steady_clock", Banned::kType},
      {"high_resolution_clock", Banned::kType},
      {"srand", Banned::kFunction},
      {"rand_r", Banned::kFunction},
      {"srandom", Banned::kFunction},
      {"drand48", Banned::kFunction},
      {"lrand48", Banned::kFunction},
      {"mrand48", Banned::kFunction},
      {"getrandom", Banned::kFunction},
      {"getentropy", Banned::kFunction},
      {"gettimeofday", Banned::kFunction},
      {"clock_gettime", Banned::kFunction},
      {"timespec_get", Banned::kFunction},
      {"rand", Banned::kCallOnly},
      {"random", Banned::kCallOnly},
      {"time", Banned::kCallOnly},
      {"clock", Banned::kCallOnly},
      {"localtime", Banned::kCallOnly},
      {"gmtime", Banned::kCallOnly},
  };
  const auto it = kBanned.find(name);
  return it == kBanned.end() ? Banned::kNone : it->second;
}

void check_file(const std::string& rel_path, const FileClass& fc,
                const TokenStream& toks, std::vector<Finding>& out) {
  if (fc.in_src || fc.in_bench) check_determinism(rel_path, fc, toks, out);
  // The invariant macro's own definition (and its doc examples) live in
  // src/validate/invariant.hpp; every other check still applies there.
  if (rel_path != "src/validate/invariant.hpp")
    check_invariants(rel_path, toks, out);
  if (fc.is_header) check_header(rel_path, fc, toks, out);
}

void check_metrics(const Index& index, std::vector<Finding>& out) {
  // family.name[.more]: lowercase dotted components, digits and
  // underscores allowed after the leading letter.
  static const std::regex kGrammar(R"(^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$)");
  std::map<std::string, const MetricReg*> first_site;
  for (const MetricReg& m : index.metric_regs) {
    const FileClass fc = classify(m.file);
    if (!fc.in_src && !fc.in_bench) continue;
    if (!std::regex_match(m.name, kGrammar)) {
      out.push_back({m.file, m.line, "metrics",
                     "metric name \"" + m.name +
                         "\" does not match the family.name grammar "
                         "(lowercase dotted components: ^[a-z][a-z0-9_]*(\\.["
                         "a-z][a-z0-9_]*)+$)"});
    }
    const auto [it, fresh] = first_site.emplace(m.name, &m);
    if (fresh) continue;
    out.push_back({m.file, m.line, "metrics",
                   "metric \"" + m.name + "\" is already registered at " +
                       it->second->file + ":" +
                       std::to_string(it->second->line) +
                       "; registration sites must be unique (suppress with a "
                       "justified pragma if the metrics are intentionally "
                       "shared)"});
  }
}

}  // namespace intox::analyze
