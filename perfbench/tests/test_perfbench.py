"""Self-test of the repo benchmark.

Runs every workload in the short mode, untraced and traced: the gated
ones of BENCHMARK.json and the two that run by name without a bound. It
checks that the result line parses and carries every declared metric
with its declared unit. Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests

It builds the benchmark on first use, like perfbench/run.py.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# Gated workloads, and those that run by name without a bound (README.md).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["pathload-v1", "bulk-tcp"]


def run_bench(workload, trace, cwd=ROOT, extra=("--short",)):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class BenchmarkOutput(unittest.TestCase):
    def check_result(self, workload, trace, declared):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return proc.stdout, metrics

    def test_end_to_end_metrics(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                out, metrics = self.check_result(name, 0, SPEC["end_to_end"])
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)
                self.assertIn("samples:", out)
                self.assertIn("digest:", out)

    def test_per_layer_metrics(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                out, metrics = self.check_result(name, 1, SPEC["per_layer"])
                self.assertIn("traced == untraced bytes: yes; counts repeat: yes", out)
                self.assertGreater(metrics["trace.measurements"]["value"], 0)
                # The spans cover each measurement: only instance teardown
                # and the span bookkeeping are left unattributed.
                self.assertGreaterEqual(metrics["trace.unattributed_frac"]["value"], 0)
                self.assertLess(metrics["trace.unattributed_frac"]["value"], 0.1)

    def test_fails_without_sources(self):
        # A directory holding only the benchmark files has nothing to build.
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=tmp, extra=())
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
