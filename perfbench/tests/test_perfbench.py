#!/usr/bin/env python3
"""Seconds-scale tests of the end-to-end benchmark.

Runs every workload at a small size through perfbench/run.py, untraced and
traced, and checks that every metric BENCHMARK.json names is emitted,
finite and in its unit, that the correctness checks pass, and that the
traced spans plus `unattributed` add up to the repetition's wall time.
Also validates BENCHMARK.json against the benchmark contract.

    python3 perfbench/tests/test_perfbench.py
"""

import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RESULTS = ROOT / ".bench_build" / "perfbench" / "results"

# Small sizes: fewer homes, one scenario, each workload's own days.
SMALL = {
    "paper_lstm": ["--homes", "2"],
    "mesh_exchange": ["--homes", "8"],
    "faults_snapshots": ["--homes", "3"],
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=5):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scenarios", "1", *SMALL[workload]]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkJsonTest(unittest.TestCase):
    def test_contract_shape(self):
        b = load_benchmark()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()), 64 * 1024)
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertTrue(isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        names = set()
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.add(w["name"])
        self.assertEqual(names, set(SMALL))
        seen = set()
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in b["end_to_end"]))


class WorkloadTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            self.assertGreaterEqual(got["value"], 0.0, m["name"])

    def check_workload(self, workload):
        b = load_benchmark()
        e2e = run(workload, trace=0)
        self.check_metrics(e2e, b["end_to_end"])
        for m in b["end_to_end"]:
            self.assertGreater(e2e["metrics"][m["name"]]["value"], 0.0, m["name"])

        traced = run(workload, trace=1)
        self.check_metrics(traced, b["per_layer"])
        self.assertEqual(traced["attempted"], 3)  # 2 repetitions + 1-worker rerun

        # Span rows plus `unattributed` add up to the wall time of every
        # repetition, and `unattributed` stays a small share of it.
        record = json.loads((RESULTS / f"{workload}-seed5-trace1.json").read_text())
        for rep in record["reps"]:
            spans = sum(s["wall_s"] for s in rep["spans"].values())
            self.assertLessEqual(spans, rep["rep_wall_s"])
            self.assertLessEqual(rep["rep_wall_s"] - spans, 0.05 * rep["rep_wall_s"])
        self.assertEqual(record["rerun_1w"]["param_hash"], record["reps"][0]["param_hash"])
        self.assertTrue((RESULTS / f"{workload}-seed5-trace1.registry.json").is_file())
        for key in ("nproc", "cpu_model", "build_type", "compile_flags", "x86_64_v3",
                    "libmvec", "git_sha", "pool_workers", "shards"):
            self.assertIn(key, record["stamp"])
        return e2e, record

    def test_paper_lstm(self):
        e2e, _ = self.check_workload("paper_lstm")
        self.assertEqual(e2e["metrics"]["contrib_accept_frac"]["value"], 1.0)

    def test_mesh_exchange(self):
        e2e, record = self.check_workload("mesh_exchange")
        self.assertEqual(e2e["metrics"]["contrib_accept_frac"]["value"], 1.0)
        self.assertGreater(record["metrics"]["wire.raw_bytes"]["value"], 0)

    def test_faults_snapshots(self):
        e2e, record = self.check_workload("faults_snapshots")
        # Drops and late messages cost contributions.
        self.assertLess(e2e["metrics"]["contrib_accept_frac"]["value"], 1.0)
        metrics = record["metrics"]
        self.assertGreaterEqual(metrics["sim.home_restarts"]["value"], 1)
        self.assertGreater(metrics["sim.snapshot_save.wall_s"]["value"], 0)
        self.assertGreater(metrics["fault.drops"]["value"], 0)
        for rep in record["reps"]:
            self.assertEqual(rep["saved_hash"], rep["restored_hash"])
        # Snapshot files live in a per-run temp dir that is removed.
        self.assertEqual(list((ROOT / ".bench_build" / "perfbench" / "tmp").glob("run-*")), [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
