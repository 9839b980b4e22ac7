#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Runs every workload in smoke mode (tiny sizes, one pass) with tracing off and on,
and checks that:
  * each run is correct and prints exactly the metrics BENCHMARK.json names, each
    with its unit;
  * the correctness gate trips on a deliberately wrong expected digest;
  * without the repository sources the benchmark exits non-zero and prints no result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_build" / "selftest"


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    out = subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                         text=True, timeout=600)
    return out


def last_json(out):
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace):
        out = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace",
                    str(trace), "--smoke")
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        res = last_json(out)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], out.stderr[-2000:])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        want = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(res["metrics"]), [m["name"] for m in want])
        for m in want:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], float, m["name"])
        if not trace:
            for name in ("wall_s", "setup_s", "cold_job_p50_ms"):
                self.assertGreater(res["metrics"][name]["value"], 0, name)

    def test_workloads_untraced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 0)

    def test_workloads_traced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 1)


class Gate(unittest.TestCase):
    def test_wrong_digest_trips_the_gate(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        expected = json.loads(run.EXPECTED.read_text())
        for section in ("exhaust-lea-smoke", "lint-certify-smoke"):
            expected[section] = {k: "0" * 64 for k in expected[section]}
        bad = SCRATCH / "expected-wrong.json"
        bad.write_text(json.dumps(expected))
        for w in ("exhaust-lea", "lint-certify"):
            with self.subTest(workload=w):
                out = bench("--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0",
                            "--smoke", "--expected", str(bad))
                self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                res = last_json(out)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                self.assertIn("CHECK FAILED", out.stderr)


class MissingSources(unittest.TestCase):
    def test_fails_without_repository_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        out = bench("--workload", "exhaust-lea", "--seed", "1", "--seconds", "1", "--trace",
                    "0", cwd=bare, script=bare / "perfbench" / "run.py")
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
