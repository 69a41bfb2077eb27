"""Smoke test of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The reduction tests are pure Python. The run tests build the harness (once,
into .bench_build/) and run every workload at its real size with a short
--seconds, untraced and traced, checking the result line and the span
trace. The harness always makes a few iterations however short --seconds is,
so these take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

SPEC = run.load_spec()


def it(ok=True, failure="", fired=100, delivered=100, **kw):
    rec = {"kind": "iter", "arm": "full", "ok": ok, "failure": failure,
           "fired": fired, "delivered": delivered if ok else 0}
    for m in SPEC["end_to_end"]:
        rec.setdefault(m["name"], 1.0)
    rec.update(kw)
    return rec


class SpecTest(unittest.TestCase):
    def test_spec_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class ReduceTest(unittest.TestCase):
    def test_failed_iteration_counts_as_lost_and_failed(self):
        records = [it(app_s=1.0), it(app_s=3.0),
                   it(ok=False, failure="quarantined at attach: bad magic", fired=100)]
        metrics, _ = run.reduce_end_to_end(records, SPEC)
        self.assertAlmostEqual(metrics["delivered_frac"]["value"], 200 / 300)
        self.assertEqual(metrics["app_s"]["value"], 1.0)  # fastest passing iteration
        self.assertEqual(run.verdict(records), {"correct": True, "attempted": 3, "failed": 1})

    def test_failed_attach_loses_every_expected_event(self):
        # As the harness prints an iteration whose tool attach failed: no
        # callback reached the tool, so fired is the expected callback count.
        failed = it(ok=False, failure="tool attach failed", fired=1400, delivered=0)
        records = [it(fired=1400, delivered=1400), failed]
        metrics, _ = run.reduce_end_to_end(records, SPEC)
        self.assertAlmostEqual(metrics["delivered_frac"]["value"], 0.5)
        self.assertEqual(run.classify(failed), "failed")
        self.assertEqual(run.verdict(records), {"correct": True, "attempted": 2, "failed": 1})

    def test_wrong_profile_is_incorrect(self):
        records = [it(), it(ok=False, failure="books open: produced != read + lost")]
        self.assertEqual(run.verdict(records)["correct"], False)
        self.assertEqual(run.verdict(records)["failed"], 1)

    def test_warmup_is_checked_not_measured(self):
        records = [it(setup_s=50.0, region_p50_us=1.0, warmup=True, fired=100, delivered=0),
                   it(setup_s=1.0, region_p50_us=7.0, peak_rss_mb=30.0),
                   it(setup_s=2.0, region_p50_us=9.0, peak_rss_mb=32.0),
                   it(setup_s=3.0, region_p50_us=900.0, peak_rss_mb=31.0)]
        metrics, samples = run.reduce_end_to_end(records, SPEC)
        self.assertEqual(metrics["setup_s"]["value"], 2.0)
        self.assertEqual(metrics["peak_rss_mb"]["value"], 31.0)
        self.assertEqual(metrics["delivered_frac"]["value"], 1.0)
        # Fastest measured iteration's p50: the faster warm-up does not
        # count, and one stalled iteration does not move it.
        self.assertEqual(metrics["region_p50_us"]["value"], 7.0)
        self.assertEqual(len(samples["setup_s"]), 3)
        self.assertEqual(run.verdict(records)["attempted"], 4)
        bad_warmup = [it(ok=False, failure="checksum changed", warmup=True)] + records[1:]
        self.assertFalse(run.verdict(bad_warmup)["correct"])

    def test_no_passing_iteration_gives_no_metrics(self):
        metrics, _ = run.reduce_end_to_end([it(ok=False, failure="x")], SPEC)
        self.assertIsNone(metrics)

    def test_layers_need_every_name(self):
        layers = [{"kind": "layer", "name": m["name"], "value": 1.0, "unit": "",
                   "samples": 1, "note": ""} for m in SPEC["per_layer"]]
        metrics, _ = run.reduce_layers(layers, SPEC)
        self.assertEqual(list(metrics), [m["name"] for m in SPEC["per_layer"]])
        self.assertIsNone(run.reduce_layers(layers[1:], SPEC)[0])

    def test_reaps_only_dead_owners(self):
        shm = tempfile.mkdtemp(dir=os.path.dirname(run.build_dir()))
        try:
            dead = "orcabench-1-1.%d.0" % 0x3ffffff0
            live = "orcabench-1-1.%d.0" % os.getpid()
            for name in (dead, live, "other.1.0"):
                open(os.path.join(shm, name), "w").close()
            old, run.SHM_DIR = run.SHM_DIR, shm
            try:
                self.assertEqual(run.reap_stale_segments(), 1)
            finally:
                run.SHM_DIR = old
            self.assertEqual(sorted(os.listdir(shm)), sorted([live, "other.1.0"]))
        finally:
            shutil.rmtree(shm)


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + list(args),
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


class RunTest(unittest.TestCase):
    def run_short(self, workload, trace):
        out = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                    "--trace", str(trace))
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stdout[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        want = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in want])
        self.assertIn("host: ", out.stdout)
        return result

    def test_workloads_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.run_short(workload, 0)["metrics"]
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_workloads_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.run_short(workload, 1)
                spans = os.path.join(os.path.dirname(run.build_dir()), "work", workload,
                                     "spans_%s.json" % workload)
                with open(spans) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(any(e["name"] == "setup" for e in events))

    def test_refuses_without_sources(self):
        bare = tempfile.mkdtemp(dir=os.path.dirname(run.build_dir()))
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            out = bench("--workload", "luhp-tool", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=bare, env=env)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
