#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny inputs (about 15 s in all):

    python3 perfbench/test_perfbench.py

Every workload must print every metric BENCHMARK.json names, with its
unit; the deterministic counts must repeat exactly; a wrong reference
objective must fail the correctness check.
"""
import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=0, extra=()):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


class BenchmarkTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, line, text = run(workload, trace)
                    self.assertEqual(code, 0, text)
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(line["correct"])
                    self.assertGreaterEqual(line["attempted"], 1)
                    self.assertEqual(line["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in line["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in line["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                        # Printed by name, with its unit, before the result line.
                        self.assertRegex(text, rf"{name}\s+\S+\s+{m['unit']}")
                    if key == "end_to_end":
                        for name, m in line["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_counts_repeat_exactly(self):
        counts = []
        for _ in range(2):
            code, line, _ = run("replan-rolling", 1, seed=3)
            self.assertEqual(code, 0)
            counts.append({k: v["value"] for k, v in line["metrics"].items()
                           if v["unit"] == "count" and k != "trace.spans"})
        self.assertEqual(counts[0], counts[1])

    def test_wrong_reference_objective_fails(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                refs = json.loads((HERE / "references.json").read_text())
                refs["tiny"][workload]["0"]["objectives"][-1] *= 1.01
                bad = ROOT / ".bench_build" / "references_wrong.json"
                bad.parent.mkdir(exist_ok=True)
                bad.write_text(json.dumps(refs))
                code, line, text = run(workload, 0, extra=("--references", str(bad)))
                self.assertNotEqual(code, 0)
                self.assertFalse(line["correct"])
                self.assertEqual(line["failed"], 1)
                last = len(refs["tiny"][workload]["0"]["objectives"]) - 1
                self.assertIn(f"CHECK FAILED: objective {last} matches reference", text)

    def test_wrong_reference_count_fails(self):
        refs = json.loads((HERE / "references.json").read_text())
        refs["tiny"]["assign-hot-path"]["0"]["gated"]["pass.shed"] += 1
        bad = ROOT / ".bench_build" / "references_wrong_count.json"
        bad.parent.mkdir(exist_ok=True)
        bad.write_text(json.dumps(refs))
        code, line, _ = run("assign-hot-path", 0, extra=("--references", str(bad)))
        self.assertNotEqual(code, 0)
        self.assertFalse(line["correct"])


if __name__ == "__main__":
    unittest.main()
