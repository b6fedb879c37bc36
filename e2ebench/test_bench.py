#!/usr/bin/env python3
"""Short self-test of the end-to-end benchmark.

    python3 e2ebench/test_bench.py

Runs every workload briefly (--quick), untraced and traced, and checks that
the result line carries every metric BENCHMARK.json names, with its unit,
that no operation failed, and that every determinism self-check passed.
Takes about a minute once the benchmark is built.
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, lines, json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    def check(self, workload, trace, metrics):
        proc, lines, result = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stdout + proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        got = result["metrics"]
        self.assertEqual(set(got), {m["name"] for m in metrics})
        for m in metrics:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))
        return lines

    def test_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                lines = self.check(w["name"], 0, SPEC["end_to_end"])
                self.assertTrue(any("failed_op_share" in l for l in lines))

    def test_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                lines = self.check(w["name"], 1, SPEC["per_layer"])
                checks = [l for l in lines if "determinism" in l]
                self.assertEqual(len(checks), 5, lines)
                for l in checks:
                    self.assertTrue(l.rstrip().endswith("ok"), l)

    def test_rejects_unknown_workload(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", "nope", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
