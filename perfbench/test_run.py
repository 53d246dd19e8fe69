#!/usr/bin/env python3
"""Tests of the pipeline benchmark at a tiny input scale.

Run from the root of a checkout (the first run builds the driver):

    python3 -m unittest perfbench/test_run.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ["powerlaw-refine", "powerlaw-parallel", "sparse-outofcore"]
SCALE = "0.01"


def bench(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, RUN, "--seed", "3", "--seconds",
                          "0", "--scale", SCALE] + list(args), cwd=cwd,
                         capture_output=True, text=True, timeout=600)
    return out


def result(*args):
    out = bench(*args)
    if out.returncode != 0:
        raise AssertionError("run.py failed:\n" + out.stderr)
    return json.loads(out.stdout.strip().splitlines()[-1])


class Schema(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, res, section):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        expected = {m["name"]: m["unit"] for m in self.spec[section]}
        self.assertEqual(set(res["metrics"]), set(expected))
        for name, metric in res["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics_of_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res = result("--workload", workload, "--trace", "0")
                self.check(res, "end_to_end")
                for name in ("edges_per_s", "setup_s", "partition_s", "rf",
                             "balance", "peak_rss_mb"):
                    self.assertGreater(res["metrics"][name]["value"], 0, name)
                self.assertEqual(res["metrics"]["ok_frac"]["value"], 1.0)

    def test_per_layer_metrics_of_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res = result("--workload", workload, "--trace", "1")
                self.check(res, "per_layer")
                m = {k: v["value"] for k, v in res["metrics"].items()}
                self.assertGreater(m["graph.ingest_s"], 0)
                self.assertGreater(m["core.grow_s"], 0)
                self.assertGreater(m["host.probe_s"], 0)
                self.assertLess(m["trace.remainder_frac"], 0.05)
                if workload == "powerlaw-refine":
                    self.assertGreater(m["refine.refine_s"], 0)
                    self.assertGreater(m["refine.passes"], 0)
                if workload in ("powerlaw-refine", "powerlaw-parallel"):
                    self.assertGreater(m["core.bsp_grow_s"], 0)
                    self.assertGreater(m["core.super_steps"], 0)
                    self.assertGreater(m["util.speedup_vs_1t"], 0)
                if workload == "sparse-outofcore":
                    self.assertGreater(m["graph.spill_runs"], 1)
                    self.assertGreater(m["graph.mapped_mb"], 0)
                trace = os.path.join(ROOT, ".bench_out",
                                     "trace-%s.json" % workload)
                with open(trace) as f:
                    events = json.load(f)["traceEvents"]
                names = {e["name"] for e in events if e["ph"] == "X"}
                self.assertIn("pipeline", names)
                self.assertIn("core.grow", names)


class Checks(unittest.TestCase):
    def assert_counted(self, res):
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        if "ok_frac" in res["metrics"]:
            self.assertLess(res["metrics"]["ok_frac"]["value"], 1.0)

    def test_bad_partition_fails_validation(self):
        self.assert_counted(result("--workload", "powerlaw-refine",
                                   "--inject", "unassigned"))

    def test_corrupt_file_fails_read_back(self):
        self.assert_counted(result("--workload", "sparse-outofcore",
                                   "--inject", "readback"))

    def test_diverging_reference_fails_identity(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res = result("--workload", workload, "--trace", "1",
                             "--inject", "divergent")
                self.assert_counted(res)
                self.assertEqual(res["failed"], 1)


class Isolation(unittest.TestCase):
    def test_without_library_sources_exits_nonzero(self):
        lonely = os.path.join(ROOT, ".bench_out", "lonely")
        shutil.rmtree(lonely, ignore_errors=True)
        os.makedirs(lonely)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(lonely, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "powerlaw-refine", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=lonely, capture_output=True, text=True,
            timeout=180)
        shutil.rmtree(lonely, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
