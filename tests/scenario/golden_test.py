#!/usr/bin/env python3
"""Committed-stdout goldens for `intox run`.

Usage:
  golden_test.py INTOX GOLDEN SCENARIO [driver args...]
  golden_test.py --coverage INTOX GOLDEN_DIR

The first form runs `INTOX run SCENARIO driver-args...` with every
INTOX_* variable removed from the environment, requires exit status 0
and compares stdout byte for byte against the committed file GOLDEN.
Stderr is ignored: it carries wall-clock perf records. On a mismatch it
prints the first diverging line and the command that regenerates GOLDEN.

The second form fails when a scenario in `INTOX list` other than
debug.crash has no golden under GOLDEN_DIR/<scenario>/, or when a
golden holds a [CHECK] line: a failing paper claim must never be pinned
as correct.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

# The crash-forensics harness reproduces no paper result.
UNPINNED = {"debug.crash"}


def clean_env():
    return {k: v for k, v in os.environ.items()
            if not k.startswith("INTOX_")}


def check_golden(intox, golden, scenario, args):
    cmd = [intox, "run", scenario] + args
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, env=clean_env())
    unset = [arg for k in sorted(os.environ) if k.startswith("INTOX_")
             for arg in ("-u", k)]
    regen = (f"{shlex.join((['env'] + unset if unset else []) + cmd)} "
             f"2>/dev/null > {shlex.quote(golden)}")
    if proc.returncode != 0:
        sys.exit(f"{shlex.join(cmd)} exited {proc.returncode}")
    want = Path(golden).read_bytes()
    got = proc.stdout
    if got == want:
        print(f"golden ok: {golden}, {len(got)} bytes")
        return
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for lineno, (a, b) in enumerate(zip(want_lines, got_lines), 1):
        if a != b:
            where = (f"stdout diverges at line {lineno}:\n"
                     f"  golden: {a!r}\n  got:    {b!r}")
            break
    else:
        lineno = min(len(want_lines), len(got_lines)) + 1
        where = (f"stdout diverges at line {lineno}: golden has "
                 f"{len(want_lines)} lines ({len(want)} bytes), got "
                 f"{len(got_lines)} lines ({len(got)} bytes)")
    sys.exit(f"{where}\nregenerate with:\n  {regen}")


def check_coverage(intox, golden_dir):
    listing = subprocess.run([intox, "list"], stdout=subprocess.PIPE,
                             env=clean_env(), check=True, text=True)
    listed = {line.split()[0] for line in listing.stdout.splitlines()
              if line.strip()}
    root = Path(golden_dir)
    goldens = sorted(root.glob("*/*.txt"))
    pinned = {g.parent.name for g in goldens}
    errors = []
    for name in sorted(listed - UNPINNED - pinned):
        errors.append(f"scenario {name} has no golden under {root / name}/")
    for golden in goldens:
        for lineno, line in enumerate(golden.read_text().splitlines(), 1):
            if "[CHECK]" in line:
                errors.append(f"{golden}:{lineno}: pins a failing claim: "
                              f"{line.strip()}")
    if errors:
        sys.exit("\n".join(errors))
    print(f"coverage ok: {len(listed - UNPINNED)} scenarios pinned by "
          f"{len(goldens)} goldens")


def main():
    argv = sys.argv[1:]
    if len(argv) == 3 and argv[0] == "--coverage":
        check_coverage(argv[1], argv[2])
    elif len(argv) >= 3 and not argv[0].startswith("-"):
        check_golden(argv[0], argv[1], argv[2], argv[3:])
    else:
        sys.exit(__doc__.strip())


if __name__ == "__main__":
    main()
