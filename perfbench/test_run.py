#!/usr/bin/env python3
"""Tests of the benchmark's own checks and metrics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The check tests drive run.py against a stand-in `intox` (a script that
prints a scenario header, claims, a metrics report and, when traced, a
trace with one scheduler span). The last test builds the real `intox`
and the layer timer if needed (Release, into .bench_build/) and runs the
fig2 workload with one trial in both modes.
"""

import json
import os
import shutil
import sys
import tempfile
import textwrap
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

FAKE_INTOX = textwrap.dedent("""\
    #!/usr/bin/env python3
    # Stands in for `intox run`: FAKE_MODE picks good, check, violation,
    # drift (stdout changes on every launch) or nospan (a trace with no
    # scheduler span).
    import json, os, sys
    mode = os.environ.get("FAKE_MODE", "good")
    state = os.path.join(os.environ["FAKE_STATE"], "launches")
    n = int(open(state).read()) + 1 if os.path.exists(state) else 1
    open(state, "w").write(str(n))
    print("\\n====\\nFAKE — stand-in scenario\\n====", flush=True)
    print("  [PASS] the stand-in ran")
    if mode == "check":
        print("  [CHECK] a paper claim stopped reproducing")
    if mode == "drift" and n > 1:
        print("launch", n)
    violations = 1 if mode == "violation" else 0
    report = sys.argv[sys.argv.index("--metrics-out") + 1]
    with open(report, "w") as f:
        json.dump({"invariants": {"violations": violations},
                   "metrics": {"counters": {
                       "sim.scheduler.events_processed": 1000,
                       "validate.invariant_violations": violations},
                       "gauges": {}}}, f)
    if "--trace-out" in sys.argv:
        trace = sys.argv[sys.argv.index("--trace-out") + 1]
        with open(trace, "w") as f:
            span = {"name": "scheduler.drain_until", "cat": "sim",
                    "ph": "X", "ts": 1500.0, "dur": 10.0}
            json.dump({"traceEvents": [] if mode == "nospan" else [span]}, f)
    """)


class FakeIntoxTest(unittest.TestCase):
    def setUp(self):
        run.WORK_DIR.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
        self.intox = self.tmp / "intox"
        self.intox.write_text(FAKE_INTOX)
        self.intox.chmod(0o755)
        self.workload = run.Workload("fake.scenario", 1)
        self.saved_env = dict(os.environ)
        os.environ["FAKE_STATE"] = str(self.tmp)

    def tearDown(self):
        os.environ.clear()
        os.environ.update(self.saved_env)
        shutil.rmtree(self.tmp, ignore_errors=True)

    def measure(self, mode):
        os.environ["FAKE_MODE"] = mode
        return run.measure("test-" + mode, self.workload, 0, 0.0, 0,
                           self.intox, None, {"type": "test",
                                              "compiler": "test"})

    def test_good_stand_in_passes_and_reports_every_metric(self):
        result = self.measure("good")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], run.MIN_LAUNCHES)
        self.assertEqual(set(result["metrics"]), end_to_end_names())
        # setup_s runs to the scheduler span, 1.5 ms after the header.
        self.assertGreater(result["metrics"]["setup_s"]["value"], 1.5e-3)

    def test_check_claim_is_a_failure(self):
        result = self.measure("check")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_invariant_violation_is_a_failure(self):
        result = self.measure("violation")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_trace_without_scheduler_span_is_a_failure(self):
        # setup_s cannot be dated, so the traced launches fail.
        result = self.measure("nospan")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_stdout_that_differs_between_launches_is_a_failure(self):
        result = self.measure("drift")
        self.assertFalse(result["correct"])
        # The first launch is the reference; every later one differs.
        self.assertEqual(result["failed"], result["attempted"] - 1)


class CheckTest(unittest.TestCase):
    def launch(self, stdout, violations=0, counters=None):
        launch = run.Launch(stdout=stdout)
        launch.report = {"invariants": {"violations": violations},
                         "metrics": {"counters": counters or {}}}
        return launch

    def test_only_pass_claims_pass(self):
        self.assertEqual(run.check(self.launch(b"  [PASS] a\n"), None), "")
        self.assertIn("[CHECK]", run.check(
            self.launch(b"  [PASS] a\n  [CHECK] b\n"), None))
        self.assertEqual(run.check(self.launch(b"no claims\n"), None),
                         "printed no claims")

    def test_nonzero_exit_fails(self):
        launch = self.launch(b"  [PASS] a\n")
        launch.returncode = 3
        self.assertEqual(run.check(launch, None), "exit status 3")

    def test_counter_drift_fails(self):
        ref = self.launch(b"  [PASS] a\n", counters={"x": 1})
        self.assertIn("counters", run.check(
            self.launch(b"  [PASS] a\n", counters={"x": 2}), ref))


class CompareTest(unittest.TestCase):
    def test_refuses_results_of_different_compilers(self):
        run.WORK_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
            paths = []
            for compiler in ("GNU-12.2.0", "Clang-16.0.0"):
                path = Path(tmp) / f"{compiler}.json"
                path.write_text(json.dumps({
                    "workload": "fig2", "trace": 0, "seed": 0, "nproc": 4,
                    "build": {"type": "Release", "compiler": compiler},
                    "metrics": {}, "work_counters": {}}))
                paths.append(str(path))
            with self.assertRaises(SystemExit):
                run.compare(*paths)


def end_to_end_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["end_to_end"]}


class RealBuildTest(unittest.TestCase):
    """fig2 with one trial (the tiny knob setting) on the real build."""

    def test_tiny_fig2_reports_every_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        intox, layers, info = run.build(with_layers=True)
        self.assertEqual(info["type"], run.BUILD_TYPE)
        tiny = run.Workload("blink.fig2", 2, {"runs": "1"})
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run.measure("fig2", tiny, 0, 0.0, trace, intox,
                                 layers, info)
            self.assertTrue(result["correct"], result)
            units = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, units)


if __name__ == "__main__":
    unittest.main()
