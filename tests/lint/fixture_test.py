#!/usr/bin/env python3
"""Fixture tests for intox_analyze.

Two corpora, each a mini-repo so the path-scoped rules behave exactly
as on the real tree:

  tests/lint/fixtures/          per-file checks (determinism, invariant,
                                metrics, header, pragma): for every check
                                a known-bad snippet that must fire, a
                                known-good twin that must not, and a
                                pragma-suppressed case
  tests/lint/analyze/fixtures/  whole-program checks (sigsafe, taint,
                                lockorder, atomics): one bad file per
                                check, plus allow pragmas on
                                whole-program findings

Each corpus must produce its exact findings and nothing else. The real
tree must come out clean, and the sigsafe --explain output must show
the real flightrec dump entry points in the reachable set.

Usage: fixture_test.py <path-to-intox_analyze> <repo-root> [part]

where part is one of
  file           the per-file corpus, a seeded mini-repo and the CLI
  whole-program  the whole-program corpus
  tree           the real tree: clean, and the sigsafe proof's coverage
and no part runs all three.
"""

import re
import subprocess
import sys
import tempfile
from pathlib import Path

FINDING_RE = re.compile(
    r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<check>[a-z-]+)\] (?P<msg>.+)$")

CHECKS = ["determinism", "invariant", "metrics", "header", "pragma",
          "sigsafe", "taint", "lockorder", "atomics"]

# (path, line, check) triples each corpus must produce. Lines are
# load-bearing: a finding that fires on the wrong line is a bug.
EXPECTED_FILE_CHECKS = {
    ("bench/bench_clock_bad.cpp", 9, "determinism"),
    ("bench/bench_clock_bad.cpp", 10, "determinism"),
    ("src/net/header_bad.hpp", 1, "header"),       # missing #pragma once
    ("src/net/header_bad.hpp", 4, "header"),       # <iostream>
    ("src/net/header_bad.hpp", 7, "header"),       # using namespace
    ("src/obs/metrics_bad.cpp", 9, "metrics"),
    ("src/obs/metrics_bad.cpp", 10, "metrics"),
    ("src/obs/metrics_bad.cpp", 11, "metrics"),
    ("src/obs/metrics_bad.cpp", 12, "metrics"),
    ("src/obs/metrics_bad.cpp", 13, "metrics"),
    ("src/obs/metrics_bad.cpp", 19, "metrics"),    # duplicate site
    ("src/obs/metrics_static_bad.cpp", 8, "metrics"),   # namespace scope
    ("src/obs/metrics_static_bad.cpp", 12, "metrics"),  # member initializer
    ("src/sim/determinism_bad.cpp", 12, "determinism"),  # random_device
    ("src/sim/determinism_bad.cpp", 17, "determinism"),  # srand
    ("src/sim/determinism_bad.cpp", 18, "determinism"),  # rand()
    ("src/sim/determinism_bad.cpp", 22, "determinism"),  # system_clock
    ("src/sim/determinism_bad.cpp", 29, "determinism"),  # ::time()
    ("src/sim/determinism_bad.cpp", 33, "determinism"),  # Rng(42)
    ("src/sim/pragma_stale_bad.cpp", 7, "pragma"),   # stale suppression
    ("src/sim/pragma_stale_bad.cpp", 11, "pragma"),  # unknown check name
    ("src/sim/pragma_bare_bad.cpp", 9, "pragma"),    # no -- justification
    ("src/sim/pragma_bare_bad.cpp", 10, "determinism"),  # not suppressed
    ("src/validate/invariant_bad.cpp", 10, "invariant"),  # ++
    ("src/validate/invariant_bad.cpp", 15, "invariant"),  # --
    ("src/validate/invariant_bad.cpp", 20, "invariant"),  # =
    ("src/validate/invariant_bad.cpp", 24, "invariant"),  # +=
    ("src/validate/invariant_bad.cpp", 28, "invariant"),  # .erase()
    ("tests/determinism_exempt.cpp", 21, "invariant"),
}

EXPECTED_WHOLE_PROGRAM = {
    ("src/atomic_bad.cpp", 13, "atomics"),   # implicit seq_cst in hot lane
    ("src/lock_bad.cpp", 17, "lockorder"),   # AB/BA cycle, closing edge
    ("src/pragma_bad.cpp", 16, "determinism"),  # allow(taint) keeps it
    ("src/pragma_bad.cpp", 22, "pragma"),    # stale taint half
    ("src/pragma_bad.cpp", 28, "pragma"),    # stale allow(lockorder)
    ("src/sig_bad.cpp", 14, "sigsafe"),      # std::string on handler path
    ("src/sig_bad.cpp", 15, "sigsafe"),      # fprintf
    ("src/sig_bad.cpp", 16, "sigsafe"),      # lock acquire
    ("src/sig_bad.cpp", 17, "sigsafe"),      # free
    ("src/taint_bad.cpp", 10, "determinism"),  # std::random_device
    ("src/taint_bad.cpp", 10, "taint"),
    ("src/taint_bad.cpp", 11, "determinism"),  # std::rand
    ("src/taint_bad.cpp", 11, "taint"),
    ("src/taint_bad.cpp", 18, "taint"),      # unordered iteration
}

failures = []


def check(cond, what):
    if cond:
        print(f"ok   {what}")
    else:
        print(f"FAIL {what}")
        failures.append(what)


def run(binary, *args):
    return subprocess.run([binary, *map(str, args)], capture_output=True,
                          text=True)


def scan(binary, root, expected, suppressed):
    """Full corpus run: exit 1, well-formed lines, the exact finding set
    and the exact suppression count. Returns the findings."""
    proc = run(binary, "--root", root)
    check(proc.returncode == 1, f"{root}: scan exits 1 (findings present)")
    got = set()
    lines = {}
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        check(m is not None, f"output line is file:line: [check] msg: {line!r}")
        if m:
            triple = (m["path"], int(m["line"]), m["check"])
            got.add(triple)
            lines.setdefault(triple, []).append(m["msg"])
    for triple in sorted(expected):
        check(triple in got, f"expected finding fired: {triple}")
    for triple in sorted(got - expected):
        check(False, f"unexpected finding: {triple}")
    check(f", {suppressed} suppressed" in proc.stderr,
          f"{root}: {suppressed} findings suppressed ({proc.stderr.strip()})")
    return lines


def file_checks(binary, fixtures):
    scan(binary, fixtures, EXPECTED_FILE_CHECKS, 5)

    # Good twins and suppressed cases must be silent.
    proc = run(binary, "--root", fixtures)
    noisy = {l.split(":")[0] for l in proc.stdout.splitlines()}
    for quiet in [
        "src/sim/determinism_good.cpp",
        "src/sim/determinism_suppressed.cpp",
        "src/validate/invariant_good.cpp",
        "src/validate/invariant_suppressed.cpp",
        "src/obs/metrics_good.cpp",
        "src/obs/metrics_suppressed.cpp",
        "src/net/header_good.hpp",
        "src/net/header_suppressed.hpp",
    ]:
        assert (fixtures / quiet).is_file(), f"fixture missing: {quiet}"
        check(quiet not in noisy, f"no findings in {quiet}")

    # A good-only subset exits 0.
    proc = run(
        binary, "--root", fixtures,
        "src/sim/determinism_good.cpp", "src/validate/invariant_good.cpp",
        "src/obs/metrics_good.cpp", "src/net/header_good.hpp",
    )
    check(proc.returncode == 0, "good-only subset exits 0")
    check(proc.stdout == "", "good-only subset prints no findings")

    proc = run(binary, "--root", fixtures, "--check", "header")
    lines = [l for l in proc.stdout.splitlines() if l]
    check(lines and all("[header]" in l for l in lines),
          "--check header restricts the run to one check")

    proc = run(binary, "--root", fixtures, "src/does-not-exist.cpp")
    check(proc.returncode == 2, "a named path that does not exist exits 2")


def whole_program_checks(binary, fixtures):
    msgs = scan(binary, fixtures, EXPECTED_WHOLE_PROGRAM, 2)
    check(("src/pragma_bad.cpp", 16, "taint") not in msgs,
          "allow(taint) silences the scenario-reachable rand()")
    check(any("'taint'" in m
              for m in msgs.get(("src/pragma_bad.cpp", 22, "pragma"), [])),
          "allow(determinism, taint) reports only the taint half stale")
    check(any("'lockorder'" in m
              for m in msgs.get(("src/pragma_bad.cpp", 28, "pragma"), [])),
          "a stale allow(lockorder) is reported")

    # Per-check isolation: each bad file trips only its own check.
    for check_name, path in [
        ("sigsafe", "src/sig_bad.cpp"),
        ("taint", "src/taint_bad.cpp"),
        ("lockorder", "src/lock_bad.cpp"),
        ("atomics", "src/atomic_bad.cpp"),
    ]:
        proc = run(binary, "--root", fixtures, "--check", check_name)
        lines = [l for l in proc.stdout.splitlines() if l]
        check(lines and all(f"[{check_name}]" in l for l in lines),
              f"--check {check_name} restricts the run")
        check(all(l.startswith(path) for l in lines),
              f"all {check_name} findings come from {path}")

    proc = run(binary, "--root", fixtures, "--check", "sigsafe",
               "--explain", "sigsafe")
    check("crash_handler" in proc.stdout,
          "--explain sigsafe lists the fixture handler as reachable")


def seeded_mini_repo(binary):
    # Clean tree -> 0, then one std::random_device in src/sim/ -> 1 with
    # file:line. The retired `intox-lint:` spelling is no pragma.
    with tempfile.TemporaryDirectory() as tmp:
        simdir = Path(tmp) / "src" / "sim"
        simdir.mkdir(parents=True)
        (simdir / "clean.cpp").write_text(
            "namespace x { inline int f() { return 1; } }\n")
        proc = run(binary, "--root", tmp)
        check(proc.returncode == 0, "seeded mini-repo starts clean")

        (simdir / "dirty.cpp").write_text(
            "#include <random>\n"
            "namespace x { inline unsigned f() {\n"
            "  std::random_device rd;  /* injected */\n"
            "  return rd(); } }\n"
        )
        proc = run(binary, "--root", tmp)
        check(proc.returncode == 1, "injected random_device flips exit to 1")
        check("src/sim/dirty.cpp:3" in proc.stdout,
              "injected finding reported with file:line")

        (simdir / "dirty.cpp").write_text(
            "#include <random>\n"
            "namespace x { inline unsigned f() {\n"
            "  // intox-lint: allow(determinism)  -- old spelling\n"
            "  std::random_device rd;\n"
            "  return rd(); } }\n"
        )
        proc = run(binary, "--root", tmp)
        check("src/sim/dirty.cpp:4: [determinism]" in proc.stdout,
              "the intox-lint spelling suppresses nothing")


def real_tree(binary, repo):
    proc = run(binary, "--root", repo)
    check(proc.returncode == 0 and proc.stdout == "",
          f"real tree is clean (stdout: {proc.stdout.strip()!r})")

    proc = run(binary, "--root", repo, "--check", "sigsafe",
               "--explain", "sigsafe")
    for fn in ["flightrec_dump", "flightrec_dump_on_crash", "crash_handler"]:
        check(fn in proc.stdout,
              f"--explain sigsafe covers real dump path: {fn}")


def cli(binary, repo):
    proc = run(binary, "--list-checks")
    check(proc.returncode == 0 and proc.stdout.split() == CHECKS,
          f"--list-checks lists the {len(CHECKS)} checks")

    proc = run(binary, "--root", repo / "does-not-exist")
    check(proc.returncode == 2, "bad --root exits 2")

    proc = run(binary, "--baseline", "x")
    check(proc.returncode == 2, "--baseline is not an option")


def file_part(binary, repo):
    file_checks(binary, repo / "tests" / "lint" / "fixtures")
    seeded_mini_repo(binary)
    cli(binary, repo)


def whole_program_part(binary, repo):
    whole_program_checks(binary, repo / "tests" / "lint" / "analyze" /
                         "fixtures")


PARTS = {"file": file_part, "whole-program": whole_program_part,
         "tree": real_tree}


def main():
    if len(sys.argv) not in (3, 4) or (len(sys.argv) == 4 and
                                       sys.argv[3] not in PARTS):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary, repo = sys.argv[1], Path(sys.argv[2])
    for part in sys.argv[3:] or PARTS:
        PARTS[part](binary, repo)
    print(f"\n{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
