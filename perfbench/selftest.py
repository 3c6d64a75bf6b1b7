"""Self-test of the benchmark: `python3 perfbench/selftest.py` from the repo root.

Runs every workload at minimal size (--smoke), traced and untraced, and
checks that the result line carries exactly the metric names and units that
BENCHMARK.json declares; checks that a deliberately wrong reference makes
ops fail; checks that a failure known at the defining commit is classed as
known only inside the region where it was found; and checks that a directory holding only the benchmark files
makes the benchmark exit non-zero without a result line.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import worker  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


class BenchmarkSelfTest(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_metric_names_and_units(self):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            declared = {m["name"]: m["unit"] for m in self.spec[section]}
            for w in self.spec["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    proc = bench("--workload", w["name"], "--seed", "3", "--seconds", "1",
                                 "--trace", trace, "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, declared)

    def test_wrong_reference_fails_ops(self):
        wl = workloads.Divergence()
        ops = [op for op in wl.build(3, 1.0, smoke=True) if op.inputs["width"]["family"] == "laplace"]
        right = worker.run_ops(wl, ops)
        self.assertTrue(all(r["ok"] for r in right if r["kind"] == "cs"))
        original = workloads.dcs_laplace_bits
        workloads.dcs_laplace_bits = lambda b: original(b) + 1e-6
        try:
            wrong = worker.run_ops(wl, ops)
        finally:
            workloads.dcs_laplace_bits = original
        failed = [r for r in wrong if not r["ok"]]
        self.assertGreater(len(failed) / len(wrong), 0.0)
        self.assertTrue(all(r["known"] is None for r in failed))

    def test_known_failures_stay_in_their_region(self):
        wl = workloads.Divergence()
        miss = workloads.Outcome(False, "representation sides differ by 2.000e-06 > tol 1e-06", gap=2e-6)
        overflow = workloads.Outcome(False, "raised OverflowError: math range error")
        bar = workloads.Outcome(False, "error 5.000e-08 exceeds bar 7.000e-10", bar_miss=True, gap=5e-8)
        cases = [
            ("repr", {"family": "laplace", "b": 0.95}, miss, True),
            ("repr", {"family": "laplace", "b": 0.5}, miss, False),
            ("repr", {"family": "gaussian", "mu": 0.3, "sigma": 0.6, "d": 1}, miss, True),
            ("repr", {"family": "gaussian", "mu": 0.3, "sigma": 0.6, "d": 2}, miss, False),
            ("kl", {"family": "gaussian", "mu": 1.45, "sigma": 0.89, "d": 250}, overflow, True),
            ("kl", {"family": "gaussian", "mu": 0.5, "sigma": 0.6, "d": 64}, overflow, False),
            ("acs", {"family": "optimal_acs", "alpha": 1.9}, bar, True),
            ("acs", {"family": "optimal_acs", "alpha": 3.0}, bar, False),
        ]
        for kind, desc, outcome, known in cases:
            with self.subTest(kind=kind, width=desc):
                got = wl.known_failure(workloads.Op(kind, {"width": desc}), outcome)
                self.assertEqual(got is not None, known)
        big = workloads.Outcome(False, miss.reason, gap=0.5)
        self.assertIsNone(wl.known_failure(workloads.Op("repr", {"width": {"family": "laplace", "b": 0.95}}), big))

    def test_bare_directory_exits_nonzero(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
