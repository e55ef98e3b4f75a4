"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root. The smoke tests drive the one command at 1/128
scale; after the first build (into `.bench_build`) each run takes seconds.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

TINY = ["--scale", "0.0078125", "--seconds", "0.5"]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=900,
    )


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PaperGap(unittest.TestCase):
    def test_pinned_to_the_measured_ratios(self):
        measured = {
            "fig10.speedup_gtx980": 1.33,
            "fig10.speedup_tx1": 1.52,
            "fig9.energy_x_gtx980": 4.75,
            "fig9.energy_x_tx1": 2.33,
        }
        self.assertAlmostEqual(run.paper_gap(measured), 0.276, places=3)

    def test_zero_at_the_paper(self):
        self.assertEqual(run.paper_gap(run.PAPER), 0.0)


class Smoke(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def assert_metrics(self, result, kind):
        want = {m["name"]: m["unit"] for m in self.spec[kind]}
        self.assertEqual(sorted(result["metrics"]), sorted(want))
        for name, unit in want.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(result["metrics"][name]["value"], (int, float), name)

    def assert_spans(self, proc):
        """The traced run's spans: every field present, and the record's self
        times equal to duration minus the children's durations."""
        record_path = ROOT / re.search(r"record (\S+\.json)", proc.stdout).group(1)
        record = json.loads(record_path.read_text())
        spans = json.loads(record_path.with_suffix(".spans.json").read_text())
        self.assertTrue(spans)
        child_ns = defaultdict(int)
        for span in spans:
            self.assertEqual(sorted(span), ["cell", "end_ns", "id", "name", "parent", "start_ns"])
            self.assertLessEqual(span["start_ns"], span["end_ns"])
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                self.assertEqual(parent["cell"], span["cell"])
                self.assertLessEqual(parent["start_ns"], span["start_ns"])
                self.assertLessEqual(span["end_ns"], parent["end_ns"])
                child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
        self_s = defaultdict(float)
        for span in spans:
            self_s[span["name"]] += (span["end_ns"] - span["start_ns"] - child_ns[span["id"]]) / 1e9
        for name, totals in record["spans"].items():
            self.assertAlmostEqual(totals["self_s"], self_s[name], places=6, msg=name)

    def test_every_workload_prints_every_metric_with_its_unit(self):
        listed = {w["name"] for w in self.spec["workloads"]}
        self.assertLessEqual(listed, set(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--trace", str(trace), *TINY)
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr[-2000:])
                    result = result_line(proc)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], run.MIN_REQUESTS)
                    self.assert_metrics(result, kind)
                    if trace:
                        self.assert_spans(proc)

    def test_forged_fingerprint_trips_the_gate(self):
        proc = bench("--workload", "cc-mesh", "--forge-fingerprint", *TINY)
        self.assertEqual(proc.returncode, 1, proc.stderr[-2000:])
        self.assertFalse(result_line(proc)["correct"])
        self.assertIn("differs from the host reference", proc.stdout)

    def test_no_result_without_a_repository(self):
        bare = ROOT / ".bench_runs" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "target"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = bench("--workload", "cc-mesh", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class HostRecord(unittest.TestCase):
    def write(self, name, host):
        path = ROOT / ".bench_runs" / "test-records" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": "cc-mesh",
            "seed": 42,
            "host": host,
            "metrics": {"wall_s": {"value": 18.0, "unit": "s"}},
        }
        path.write_text(json.dumps(record))
        return path

    def test_same_host_compares(self):
        host = run.host_fingerprint()
        self.assertEqual(run.compare(self.write("a.json", host), self.write("b.json", host)), 0)

    def test_forged_host_is_flagged(self):
        host = run.host_fingerprint()
        forged = dict(host, cpu_model=host["cpu_model"] + " (forged)", nproc=host["nproc"] + 6)
        self.assertEqual(run.compare(self.write("a.json", host), self.write("c.json", forged)), 3)

    def test_fingerprint_names_the_host(self):
        host = run.host_fingerprint()
        self.assertEqual(sorted(host), ["cpu_model", "kernel", "nproc", "rustc"])
        self.assertEqual(host["nproc"], len(os.sched_getaffinity(0)))


if __name__ == "__main__":
    unittest.main()
