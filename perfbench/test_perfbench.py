#!/usr/bin/env python3
"""Tests of the repo benchmark itself (not of the system it measures).

Run from the repo root:  python3 -m unittest perfbench/test_perfbench.py

- every workload, untraced and traced, at a tiny scale: the run is
  correct and prints every metric BENCHMARK.json names, with its unit,
  both in the table and in the final JSON line;
- a flipped score bit (the --corrupt hook) is caught: failed > 0, the run
  is not correct and ok_ratio drops below 1;
- in a directory holding only BENCHMARK.json and perfbench/, the command
  fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
TINY = ["--sf", "0.001", "--seconds", "2"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


class WorkloadSmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc, result = bench("--workload", workload, "--seed", "11",
                             "--trace", str(trace), *TINY)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        self.assertIsNotNone(result, proc.stdout[-3000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stdout[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        table = proc.stdout.splitlines()[:-1]
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"])
            self.assertIsInstance(metric["value"], float)
            self.assertTrue(
                any(line.split()[:1] == [spec["name"]] and
                    line.split()[-1] == spec["unit"] for line in table),
                spec["name"])

    def test_monthly_batch(self):
        self.check("monthly_batch", 0)
        self.check("monthly_batch", 1)

    def test_retrain(self):
        self.check("retrain", 0)
        self.check("retrain", 1)

    def test_serve_open_loop(self):
        self.check("serve_open_loop", 0)
        self.check("serve_open_loop", 1)


class CorruptionTest(unittest.TestCase):
    def check(self, workload):
        proc, result = bench("--workload", workload, "--seed", "12",
                             "--trace", "0", "--corrupt", *TINY)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        self.assertIsNotNone(result)
        self.assertGreater(result["failed"], 0)
        self.assertFalse(result["correct"])
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)

    def test_batch_score_bit_flip_is_caught(self):
        self.check("monthly_batch")

    def test_served_score_bit_flip_is_caught(self):
        self.check("serve_open_loop")


class IsolatedDirectoryTest(unittest.TestCase):
    def test_fails_without_the_sources(self):
        iso = os.path.join(ROOT, ".bench_work", "isolated")
        shutil.rmtree(iso, ignore_errors=True)
        os.makedirs(iso)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(iso, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, result = bench("--workload", "monthly_batch", "--seed", "1",
                                 "--seconds", "1", "--trace", "0", cwd=iso)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(iso, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
