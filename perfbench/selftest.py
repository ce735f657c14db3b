"""Tests of the benchmark itself.

    python3 perfbench/selftest.py          (about two minutes)

The file name keeps it out of the package's pytest collection; it runs each
workload once at minimal length, end to end and traced, so it is slow.
"""

from __future__ import annotations

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

import run  # noqa: E402  (pins BLAS threads before numpy loads)

run.pin_blas_threads()

from spans import Patches, Recorder, self_times  # noqa: E402
from workloads import WORKLOADS, load_odecontrol, rel_diff_ok  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def bench_run(workload: str, trace: int, seed: int = 7, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            # sid, parent, name, start, end
            (0, -1, "a", 0.0, 10.0),
            (1, 0, "b", 1.0, 4.0),
            (2, 1, "e", 2.0, 3.0),
            (3, 0, "c", 3.0, 6.0),   # overlaps b: the union [1, 6] is covered once
            (4, 0, "d", 8.0, 12.0),  # runs past its parent: clipped to [8, 10]
            (5, -1, "b", 20.0, 20.5),
        ]
        got = self_times(spans)
        self.assertEqual(set(got), {"a", "b", "c", "d", "e"})
        self.assertAlmostEqual(got["a"], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(got["b"], (3.0 - 1.0) + 0.5)
        self.assertAlmostEqual(got["c"], 3.0)
        self.assertAlmostEqual(got["d"], 4.0)
        self.assertAlmostEqual(got["e"], 1.0)

    def test_recorder_links_parents_and_jobs(self):
        rec = Recorder()
        inner = rec.wrap("inner", lambda x: x + 1)
        outer = rec.wrap("outer", lambda x: inner(x) * inner(x))
        rec.job_id = 4
        self.assertEqual(outer(1), 4)
        spans = rec.spans()
        by_name = {}
        for sid, parent, name, start, end in spans:
            by_name.setdefault(name, []).append((sid, parent))
        (outer_sid, outer_parent), = by_name["outer"]
        self.assertEqual(outer_parent, -1)
        self.assertEqual([p for _, p in by_name["inner"]], [outer_sid, outer_sid])
        self.assertEqual(set(rec.job), {4})
        selfs = self_times(spans)
        self.assertGreaterEqual(min(selfs.values()), 0.0)


class Patching(unittest.TestCase):
    def test_every_binding_is_patched_and_restored(self):
        oc = load_odecontrol(run.SRC)
        orig = oc.gradients.bptt_grad
        self.assertIs(oc.training.bptt_grad, orig)
        with Patches() as p:
            p.function(oc.gradients, "bptt_grad", lambda fn: "wrapped")
            self.assertEqual(oc.gradients.bptt_grad, "wrapped")
            self.assertEqual(oc.training.bptt_grad, "wrapped")
        self.assertIs(oc.gradients.bptt_grad, orig)
        self.assertIs(oc.training.bptt_grad, orig)


class RelDiff(unittest.TestCase):
    def test_rule(self):
        self.assertTrue(rel_diff_ok([1.0, 0.0, float("nan")], [1.0 + 1e-13, 0.0, float("nan")]))
        self.assertFalse(rel_diff_ok([1.0], [1.0 + 1e-11]))
        self.assertFalse(rel_diff_ok([float("nan")], [1.0]))
        self.assertFalse(rel_diff_ok([1.0, 2.0], [1.0]))


class Smoke(unittest.TestCase):
    """One minimal run of each workload; every named metric with its unit."""

    def check_result(self, proc, specs):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], proc.stdout)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 2)
        self.assertEqual(list(res["metrics"]), [s["name"] for s in specs])
        for s in specs:
            m = res["metrics"][s["name"]]
            self.assertEqual(m["unit"], s["unit"], s["name"])
            self.assertIsInstance(m["value"], (int, float))
        return {k: m["value"] for k, m in res["metrics"].items()}

    def test_end_to_end(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                values = self.check_result(bench_run(name, 0), BENCH["end_to_end"])
                self.assertTrue(all(v > 0 for v in values.values()), values)

    def test_traced(self):
        seen = {}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                seen[name] = self.check_result(bench_run(name, 1), BENCH["per_layer"])
        self.assertEqual(seen["train_bptt"]["gradients.vjps_per_epoch"], 100)
        self.assertEqual(seen["train_tbptt"]["gradients.vjps_per_epoch"], 1)
        self.assertEqual(seen["train_bptt"]["nets.rows_per_call"], 1.0)
        # a metric no workload ever moves off zero is misnamed or uncomputed;
        # no run diverges, so diverged_runs is the one that stays 0
        for spec in BENCH["per_layer"]:
            if spec["name"] != "training.diverged_runs":
                self.assertTrue(any(v[spec["name"]] for v in seen.values()), spec["name"])

    def test_fails_without_the_package(self):
        os.makedirs(run.OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench_run("train_bptt", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
