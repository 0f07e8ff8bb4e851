"""Smoke test of the perfbench benchmark at test scale (seconds long).

    python3 -m unittest perfbench/test_perfbench.py     # from the repo root

Runs every workload of BENCHMARK.json at workloads::Scale::Test, untraced
and traced, and checks that every metric BENCHMARK.json names is printed
by name with its unit, that the result line carries exactly those
metrics, and that no check failed (failed_frac is 0).  Also checks that
the benchmark refuses to run, without printing a result, in a directory
that holds the benchmark but no simulator sources.
"""
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root, workload, trace):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", "test"],
        cwd=root, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def test_every_workload_prints_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr[-2000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertRegex(proc.stdout,
                                     r"(?m)^\s+failed_frac\s+0\s+ratio\b")
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in SPEC[kind]})
                    for m in SPEC["end_to_end"] + SPEC[kind]:
                        self.assertRegex(
                            proc.stdout,
                            rf"(?m)^\s+{re.escape(m['name'])}\s+\S+\s+"
                            rf"{re.escape(m['unit'])}(\s|$)")
                    for m in SPEC[kind]:
                        self.assertEqual(result["metrics"][m["name"]]["unit"],
                                         m["unit"])

    def test_refuses_to_run_without_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run(bare, SPEC["workloads"][0]["name"], 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
