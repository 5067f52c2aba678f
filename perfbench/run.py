#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the intox scenarios.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare OLD.json NEW.json

Run from anywhere inside a source checkout. The first run builds the
`intox` binary (Release) into .bench_build/; later runs rebuild only what
changed. With --trace 0 the workload's scenario is launched repeatedly,
untraced, for S seconds and the end-to-end metrics are the medians over
the launches that passed every check; untraced launches 1, 4, 7, ...
are each followed by a traced one, whose trace dates the start of the
first simulated work (setup_s). With --trace 1 the scenario is
launched untraced, traced and with the flight recorder off, and the
per-layer timer (perfbench/layers) times calls into each layer. The
last stdout line is the result as one JSON object; the full record,
with the build type, compiler and nproc, goes to
.perfbench/<workload>.seed<N>.trace<T>/result.json. `compare` prints two
such records side by side and refuses records of different builds.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tty
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = ROOT / ".perfbench"
BUILD_TYPE = "Release"

MIN_LAUNCHES = 3       # untraced launches per run, however long they take
SETUP_EVERY = 3        # a traced launch after untraced launch 1, 4, 7, ...
LAUNCH_TIMEOUT_S = 150

# Counters that measure the work a run does. They must repeat exactly
# for a given build and seed; perfbench/counters.json records them.
WORK_COUNTERS = (
    "sim.scheduler.events_processed",
    "sim.link.tx_packets",
    "blink.retx_detections",
    "pcc.monitor_intervals",
    "pytheas.reports",
)


@dataclass(frozen=True)
class Workload:
    scenario: str
    threads: int                  # --threads, capped at nproc
    knobs: dict = field(default_factory=dict)       # fixed --set overrides
    seed_knobs: dict = field(default_factory=dict)  # knob -> value at seed 0

    def knob_values(self, seed):
        values = dict(self.knobs)
        for knob, base in self.seed_knobs.items():
            values[knob] = str(base + seed)
        return values


WORKLOADS = {
    # Trials are seeded by index only; runs=2 (of 12) fits a run length.
    "fig2": Workload("blink.fig2", 2, {"runs": "2"}),
    "pcc-fleet": Workload("pcc.fleet", 2),
    "defense-guards": Workload("defense.guards", 1, seed_knobs={
        "blink_seed": 21, "blink_failure_seed": 22,
        "sweep_seed": 31, "sweep_failure_seed": 32}),
    "e2e-hijack": Workload("blink.e2e", 1),
}


def log(message):
    print(f"perfbench: {message}", flush=True)


def die(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


# ------------------------------------------------------------------ build

def cmake(args, build_log):
    with open(build_log, "ab") as out:
        done = subprocess.run(["cmake", *args], stdout=out, stderr=out,
                              stdin=subprocess.DEVNULL, cwd=ROOT)
    if done.returncode != 0:
        tail = Path(build_log).read_text(errors="replace")[-3000:]
        die(f"cmake {' '.join(args[:2])} failed:\n{tail}")


def configure(source, build, extra, build_log):
    if (build / "CMakeCache.txt").exists():
        return
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    cmake(["-S", str(source), "-B", str(build), *generator,
           f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", *extra], build_log)


def build_info(build):
    """Build type and compiler of a configured tree, from CMake's files."""
    cache = (build / "CMakeCache.txt").read_text(errors="replace")
    match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    compiler = "unknown"
    for path in sorted(build.glob("CMakeFiles/*/CMakeCXXCompiler.cmake")):
        text = path.read_text(errors="replace")
        cid = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
        ver = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
        if cid and ver:
            compiler = f"{cid.group(1)}-{ver.group(1)}"
    return {"type": match.group(1) if match else "", "compiler": compiler}


def build(with_layers):
    """Builds intox (and the layer timer); returns their paths and info."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no intox source tree at {ROOT}")
    WORK_DIR.mkdir(exist_ok=True)
    build_log = WORK_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    intox_build = BUILD_DIR / "intox"
    configure(ROOT, intox_build, [], build_log)
    cmake(["--build", str(intox_build), "--target", "intox", "-j", jobs],
          build_log)
    intox = intox_build / "intox"
    if not intox.is_file():
        die(f"the build produced no {intox}")
    layers = None
    if with_layers:
        layers_build = BUILD_DIR / "layers"
        configure(BENCH_DIR / "layers", layers_build,
                  [f"-DINTOX_SOURCE_DIR={ROOT}",
                   f"-DINTOX_BUILD_DIR={intox_build}"], build_log)
        cmake(["--build", str(layers_build), "-j", jobs], build_log)
        layers = layers_build / "perfbench_layers"
    return intox, layers, build_info(intox_build)


# ---------------------------------------------------------------- launch

@dataclass
class Launch:
    returncode: int = 0
    timed_out: bool = False
    wall_s: float = 0.0
    cpu_s: float = 0.0
    first_output_s: float = 0.0  # launch -> first stdout byte
    setup_s: float = 0.0         # launch -> first simulated work (traced)
    peak_rss_mb: float = 0.0
    minor_faults: int = 0
    invol_ctx_switches: int = 0
    stdout: bytes = b""
    report: dict = None
    failure: str = ""

    def counters(self):
        return (self.report or {}).get("metrics", {}).get("counters", {})

    def gauges(self):
        return (self.report or {}).get("metrics", {}).get("gauges", {})


def clean_env(extra=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("INTOX_")}
    env.update(extra or {})
    return env


def launch(argv, cwd, env):
    """Runs argv with stdout on a pseudo-terminal, so the program's stdio
    is line-buffered and its first line is seen when printed; times the
    process from launch to its first stdout byte and to its exit."""
    master, slave = os.openpty()
    tty.setraw(slave)  # pass bytes through unchanged
    result = Launch()
    with open(Path(cwd) / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv],
                                stdin=subprocess.DEVNULL,
                                stdout=slave, stderr=err, cwd=cwd, env=env)
    os.close(slave)
    chunks = []
    deadline = start + LAUNCH_TIMEOUT_S
    while True:
        ready, _, _ = select.select([master], [], [],
                                    max(0.0, deadline - time.perf_counter()))
        if not ready:
            os.kill(proc.pid, signal.SIGKILL)
            result.timed_out = True
            deadline = float("inf")
            continue
        try:
            data = os.read(master, 1 << 16)
        except OSError:  # EIO: the child closed its end
            data = b""
        if not data:
            break
        if not chunks:
            result.first_output_s = time.perf_counter() - start
        chunks.append(data)
    _, status, usage = os.wait4(proc.pid, 0)
    result.wall_s = time.perf_counter() - start
    proc.returncode = result.returncode = os.waitstatus_to_exitcode(status)
    os.close(master)
    result.stdout = b"".join(chunks)
    result.cpu_s = usage.ru_utime + usage.ru_stime
    result.peak_rss_mb = usage.ru_maxrss / 1024.0
    result.minor_faults = usage.ru_minflt
    result.invol_ctx_switches = usage.ru_nivcsw
    return result


CLAIM = re.compile(rb"^\s*\[([A-Z]+)\] ", re.M)


def check(run, reference):
    """Returns why a scenario launch failed, or "" if it passed: a non-zero
    exit, a claim other than [PASS], an invariant violation, or stdout
    or exact counters that differ from the reference launch."""
    if run.timed_out:
        return f"timed out after {LAUNCH_TIMEOUT_S} s"
    if run.returncode != 0:
        return f"exit status {run.returncode}"
    verdicts = CLAIM.findall(run.stdout)
    if not verdicts:
        return "printed no claims"
    bad = sorted({v.decode() for v in verdicts if v != b"PASS"})
    if bad:
        return "claim printed " + ", ".join(f"[{v}]" for v in bad)
    if run.report is None:
        return "wrote no metrics report"
    violations = max(run.report.get("invariants", {}).get("violations", 0),
                     run.counters().get("validate.invariant_violations", 0))
    if violations != 0:
        return f"{violations} invariant violation(s)"
    if reference is not None:
        if run.stdout != reference.stdout:
            return "stdout differs from the run's first launch"
        if run.counters() != reference.counters():
            return "exact counters differ from the run's first launch"
    return ""


class Bench:
    """The launches of one benchmark run and their pass/fail record."""

    def __init__(self, name, workload, seed, intox, run_dir):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.intox = intox
        self.run_dir = run_dir
        self.threads = max(1, min(workload.threads, os.cpu_count() or 1))
        self.reference = None
        self.launches = []
        self.layer_timer_failed = False

    def argv(self, report=None, trace=None):
        argv = [self.intox, "run", self.workload.scenario,
                "--threads", str(self.threads)]
        for knob, value in self.workload.knob_values(self.seed).items():
            argv += ["--set", f"{knob}={value}"]
        if report:
            argv += ["--metrics-out", report]
        if trace:
            argv += ["--trace-out", trace]
        return argv

    def run_scenario(self, traced=False, env=None):
        report = self.run_dir / "report.json"
        trace = self.run_dir / "trace.json" if traced else None
        for path in (report, trace):
            if path is not None and path.exists():
                path.unlink()
        run = launch(self.argv(report, trace), self.run_dir, clean_env(env))
        try:
            run.report = json.loads(report.read_text())
        except (OSError, ValueError):
            run.report = None
        run.failure = check(run, self.reference)
        if traced and not run.failure:
            sim_start_us = first_sim_span_us(trace)
            if sim_start_us is None:
                run.failure = "trace has no scheduler span"
            else:
                run.setup_s = run.first_output_s + sim_start_us / 1e6
        if not run.failure and self.reference is None:
            self.reference = run
        self.launches.append(run)
        mark = "ok" if not run.failure else f"FAILED ({run.failure})"
        setup = f" setup={run.setup_s:.4f}s" if run.setup_s else ""
        log(f"launch {len(self.launches)}{' (traced)' if traced else ''}: "
            f"{mark} wall={run.wall_s:.4f}s cpu={run.cpu_s:.4f}s{setup} "
            f"rss={run.peak_rss_mb:.1f}MB")
        return run


def trace_events(trace_path):
    try:
        return json.loads(Path(trace_path).read_text())["traceEvents"]
    except (OSError, ValueError, KeyError):
        return []


def first_sim_span_us(trace_path):
    """Start of the first scheduler drain span (category "sim") in a
    launch's trace, in microseconds after the trace clock's epoch. The
    epoch is taken when --trace-out is parsed, just before the scenario
    prints its header, so the launch's first stdout byte plus this start
    is the time from launch to the first simulated event."""
    starts = [e["ts"] for e in trace_events(trace_path)
              if e.get("cat") == "sim" and e.get("ph") == "X"]
    return min(starts) if starts else None


# --------------------------------------------------------------- metrics

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(bench, seconds):
    # Untraced launches give every metric but setup_s. The traced ones,
    # spread over the run as the host's load changes, give setup_s; the
    # first follows a launch that has warmed the page cache.
    plain, traced = [], []
    start = time.perf_counter()
    while (len(plain) < MIN_LAUNCHES
           or time.perf_counter() - start < seconds):
        plain.append(bench.run_scenario())
        if len(plain) % SETUP_EVERY == 1 and (
                not traced or time.perf_counter() - start < seconds):
            traced.append(bench.run_scenario(traced=True))
    good = [r for r in plain if not r.failure]
    setups = [r.setup_s for r in traced if not r.failure]
    if not good or not setups:
        return {}
    med = statistics.median
    return {
        "wall_s": metric(med(r.wall_s for r in good), "s"),
        "cpu_s": metric(med(r.cpu_s for r in good), "s"),
        "events_per_cpu_s": metric(med(
            r.counters().get("sim.scheduler.events_processed", 0) / r.cpu_s
            for r in good), "1/s"),
        "peak_rss_mb": metric(med(r.peak_rss_mb for r in good), "MB"),
        "setup_s": metric(med(setups), "s"),
    }


def runner_busy_frac(trace_path):
    """Share of the runner's dispatch windows its worker shards were busy,
    from the runner.dispatch / runner.shard spans of a traced launch. A
    workload that never dispatches to more than one worker has one
    worker that is always busy."""
    events = trace_events(trace_path)
    dispatch = [e for e in events if e.get("name") == "runner.dispatch"]
    shards = [e for e in events if e.get("name") == "runner.shard"]
    capacity = sum(e.get("dur", 0.0) * e.get("args", {}).get("workers", 1)
                   for e in dispatch)
    if not shards or capacity <= 0:
        return 1.0
    return sum(e.get("dur", 0.0) for e in shards) / capacity


def run_layer_timer(bench, layers, report):
    spans = bench.run_dir / "layer_spans.json"
    argv = [str(layers), "--workload", bench.name,
            "--seed", str(bench.seed),
            "--depth", str(int(report.gauges().get(
                "sim.scheduler.queue_depth_hwm", 4096))),
            "--trials", str(int(report.counters().get(
                "sim.runner.trials", 1))),
            "--spans-out", str(spans)]
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, stdin=subprocess.DEVNULL,
                              capture_output=True, cwd=bench.run_dir,
                              env=clean_env(), timeout=LAUNCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    log(f"layer timer: exit {done.returncode} in "
        f"{time.perf_counter() - start:.2f}s")
    try:
        out = json.loads(done.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        out = {}
    if done.returncode != 0 or not out.get("ok"):
        sys.stderr.write(done.stderr.decode(errors="replace"))
        return None
    return out


def frac(num, den):
    return num / den if den else 0.0


def per_layer(bench, seconds, layers):
    # Untraced, traced and flight-recorder-off launches, repeated while
    # half the run length remains; the overheads are medians of ratios.
    trace_overhead, flightrec_overhead = [], []
    traced = plain = None
    start = time.perf_counter()
    while not trace_overhead or time.perf_counter() - start < seconds / 2:
        plain = bench.run_scenario()
        traced = bench.run_scenario(traced=True)
        no_fr = bench.run_scenario(env={"INTOX_FLIGHTREC": "0"})
        if plain.failure or traced.failure or no_fr.failure:
            return {}
        trace_overhead.append(traced.cpu_s / plain.cpu_s - 1.0)
        flightrec_overhead.append(plain.cpu_s / no_fr.cpu_s - 1.0)

    layer = run_layer_timer(bench, layers, traced)
    if layer is None:
        bench.layer_timer_failed = True
        return {}
    timed = layer["metrics"]
    c = traced.counters()
    g = traced.gauges()
    # A workload whose runner does not dispatch trials runs as one trial:
    # its simulation, from the first simulated event to exit.
    trials = layer["trial_s"] or [traced.wall_s - traced.setup_s]
    med = statistics.median
    pcc_experiments = (c.get("pcc.inconclusive_experiments", 0)
                       + c.get("pcc.decisions", 0))
    return {
        "sim.scheduler.events": metric(
            c.get("sim.scheduler.events_processed", 0), "count"),
        "sim.scheduler.queue_depth_hwm": metric(
            g.get("sim.scheduler.queue_depth_hwm", 0), "count"),
        "sim.scheduler.ns_per_event": metric(
            timed["sim.scheduler.ns_per_event"], "ns"),
        "sim.rng.fork_ns": metric(timed["sim.rng.fork_ns"], "ns"),
        "sim.rng.draw_ns": metric(timed["sim.rng.draw_ns"], "ns"),
        "sim.link.tx_packets": metric(c.get("sim.link.tx_packets", 0),
                                      "count"),
        "sim.link.delivered_frac": metric(frac(
            c.get("sim.link.delivered_packets", 0),
            c.get("sim.link.tx_packets", 0)), "frac"),
        "sim.link.ns_per_packet": metric(timed["sim.link.ns_per_packet"],
                                         "ns"),
        "sim.runner.shard_imbalance": metric(
            g.get("sim.runner.shard_imbalance_hwm", 1.0), "ratio"),
        "sim.runner.trial_s.p50": metric(med(trials), "s"),
        "sim.runner.trial_s.max": metric(max(trials), "s"),
        "sim.runner.busy_frac": metric(
            runner_busy_frac(bench.run_dir / "trace.json"), "frac"),
        "trafficgen.synthesize_trace_ms": metric(
            timed["trafficgen.synthesize_trace_ms"], "ms"),
        "blink.retx_detections": metric(c.get("blink.retx_detections", 0),
                                        "count"),
        "blink.reroutes": metric(c.get("blink.reroutes", 0), "count"),
        "blink.observe_ns": metric(timed["blink.observe_ns"], "ns"),
        "blink.run_fig2_experiment_s": metric(
            timed["blink.run_fig2_experiment_s"], "s"),
        "dataplane.switch_ns_per_packet": metric(
            timed["dataplane.switch_ns_per_packet"], "ns"),
        "pcc.monitor_intervals": metric(c.get("pcc.monitor_intervals", 0),
                                        "count"),
        "pcc.inconclusive_frac": metric(frac(
            c.get("pcc.inconclusive_experiments", 0), pcc_experiments),
            "frac"),
        "pcc.utility_ns": metric(timed["pcc.utility_ns"], "ns"),
        "pcc.loss_for_target_utility_ns": metric(
            timed["pcc.loss_for_target_utility_ns"], "ns"),
        "pcc.run_pcc_experiment_s": metric(
            timed["pcc.run_pcc_experiment_s"], "s"),
        "pytheas.reports": metric(c.get("pytheas.reports", 0), "count"),
        "pytheas.filtered_frac": metric(frac(
            c.get("pytheas.filtered_reports", 0),
            c.get("pytheas.reports", 0)), "frac"),
        "pytheas.run_poisoning_experiment_s": metric(
            timed["pytheas.run_poisoning_experiment_s"], "s"),
        "supervisor.pytheas_guard.admit_ns": metric(
            timed["supervisor.pytheas_guard.admit_ns"], "ns"),
        "blink.vetoed_reroutes": metric(c.get("blink.vetoed_reroutes", 0),
                                        "count"),
        "obs.flightrec_record_ns": metric(timed["obs.flightrec_record_ns"],
                                          "ns"),
        "obs.flightrec_overhead_frac": metric(med(flightrec_overhead),
                                              "frac"),
        "obs.trace_overhead_frac": metric(med(trace_overhead), "frac"),
        "proc.minor_faults": metric(plain.minor_faults, "count"),
        "proc.invol_ctx_switches": metric(plain.invol_ctx_switches, "count"),
    }


# ---------------------------------------------------------------- record

def recorded_counters(name, workload, seed):
    """The counters.json record for this workload, if it applies: the
    record holds the counters at seed 0."""
    try:
        record = json.loads((BENCH_DIR / "counters.json").read_text())[name]
    except (OSError, ValueError, KeyError):
        return None
    if workload.knob_values(seed) != workload.knob_values(record["seed"]):
        return None
    return record["counters"]


def work_counters(run):
    return {k: run.counters().get(k, 0) for k in WORK_COUNTERS}


def measure(name, workload, seed, seconds, trace, intox, layers, info):
    run_dir = WORK_DIR / f"{name}.seed{seed}.trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = Bench(name, workload, seed, intox, run_dir)
    log(f"workload={name} scenario={workload.scenario} "
        f"threads={bench.threads} seed={seed} build={info['type']} "
        f"compiler={info['compiler']} nproc={os.cpu_count()}")
    if trace:
        metrics = per_layer(bench, seconds, layers)
    else:
        metrics = end_to_end(bench, seconds)
    attempted = len(bench.launches)
    failed = sum(1 for r in bench.launches if r.failure)

    counters = work_counters(bench.reference) if bench.reference else {}
    record = recorded_counters(name, workload, seed)
    work_changed = None
    if record is not None and counters:
        work_changed = {k: [record.get(k), v] for k, v in counters.items()
                        if record.get(k) != v}
        if work_changed:
            log("work changed from counters.json: " + ", ".join(
                f"{k} {old} -> {new}" for k, (old, new)
                in work_changed.items()))
        else:
            log("exact work counters match counters.json")

    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    full = {
        "schema": "perfbench.result.v1",
        "workload": name,
        "scenario": workload.scenario,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "threads": bench.threads,
        "knobs": workload.knob_values(seed),
        "build": info,
        "nproc": os.cpu_count(),
        "fail_frac": failed / attempted if attempted else 1.0,
        "failures": [r.failure for r in bench.launches if r.failure],
        "layer_timer_failed": bench.layer_timer_failed,
        "work_counters": counters,
        "work_changed": work_changed,
        "launches": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s,
                      "first_output_s": r.first_output_s,
                      "setup_s": r.setup_s, "peak_rss_mb": r.peak_rss_mb,
                      "failure": r.failure} for r in bench.launches],
        **result,
    }
    (run_dir / "result.json").write_text(json.dumps(full, indent=1) + "\n")
    log(f"fail_frac={full['fail_frac']:.4f} ({failed}/{attempted}); "
        f"record in {run_dir.relative_to(ROOT)}/result.json")
    return result


# --------------------------------------------------------------- compare

def compare(old_path, new_path):
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    for key in ("type", "compiler"):
        if old["build"][key] != new["build"][key]:
            die(f"refusing to compare: build {key} differs "
                f"({old['build'][key]} vs {new['build'][key]})")
    if (old["workload"], old["trace"]) != (new["workload"], new["trace"]):
        die("refusing to compare results of different workloads or modes")
    print(f"workload {new['workload']}  build {new['build']['type']} "
          f"{new['build']['compiler']}  nproc {old['nproc']} -> "
          f"{new['nproc']}")
    for name, now in new["metrics"].items():
        was = old["metrics"].get(name)
        if was is None:
            continue
        ratio = now["value"] / was["value"] if was["value"] else float("nan")
        print(f"  {name:40s} {was['value']:>14.6g} -> {now['value']:>14.6g}"
              f" {now['unit']:6s} x{ratio:.4f}")
    changed = {k: (old["work_counters"].get(k), v)
               for k, v in new["work_counters"].items()
               if old["work_counters"].get(k) != v}
    if old["seed"] != new["seed"]:
        print("  different seeds: work counters are not comparable")
    elif changed:
        for k, (a, b) in changed.items():
            print(f"  work changed: {k} {a} -> {b}")
    else:
        print("  exact work counters identical")


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            die("usage: run.py compare OLD.json NEW.json")
        compare(argv[1], argv[2])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        die("--seed must be non-negative")
    intox, layers, info = build(with_layers=bool(args.trace))
    result = measure(args.workload, WORKLOADS[args.workload], args.seed,
                     args.seconds, args.trace, intox, layers, info)
    print(json.dumps(result), flush=True)
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
