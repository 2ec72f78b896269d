"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

    python3 -m unittest perfbench/test_smoke.py

Covers every workload run.py knows, including `cloud`, which BENCHMARK.json
does not list.  Checks that each run prints every metric named in
BENCHMARK.json with its unit, that no operation fails, that outputs repeat
byte for byte, that the traced run records a span for each wrapped layer
function, and that the benchmark refuses to run without the flowtopo
sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def run_bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT,
              script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(out: subprocess.CompletedProcess) -> tuple[dict, dict]:
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


# Span names each workload must produce.
EXPECTED_SPANS = {
    "day": set(tracer.SPAN_NAMES),
    "widescan": set(tracer.SPAN_NAMES),
    "cloud": {"persistence.rips", "persistence.barcode"},
}


class BenchmarkSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.runs = {}
        for name in run.WORKLOADS:
            for trace in (0, 1):
                out = run_bench(name, trace)
                if out.returncode != 0:
                    raise AssertionError(f"{name} trace={trace} failed:\n{out.stderr}")
                cls.runs[name, trace] = parse(out)

    def test_benchmark_lists_known_workloads(self):
        self.assertLessEqual({w["name"] for w in self.spec["workloads"]}, set(run.WORKLOADS))

    def check_metrics(self, declared, printed):
        self.assertEqual(set(printed), {m["name"] for m in declared})
        for m in declared:
            value = printed[m["name"]]
            self.assertEqual(value["unit"], m["unit"], m["name"])
            self.assertIsInstance(value["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(value["value"]), m["name"])

    def test_result_line(self):
        for (name, trace), (info, result) in self.runs.items():
            with self.subTest(workload=name, trace=trace):
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(info["error_rate"], 0.0)

    def test_end_to_end_metrics(self):
        for name in run.WORKLOADS:
            _, result = self.runs[name, 0]
            with self.subTest(workload=name):
                self.check_metrics(self.spec["end_to_end"], result["metrics"])
                for value in result["metrics"].values():
                    self.assertGreater(value["value"], 0)

    def test_per_layer_metrics(self):
        for name in run.WORKLOADS:
            _, result = self.runs[name, 1]
            with self.subTest(workload=name):
                self.check_metrics(self.spec["per_layer"], result["metrics"])

    def test_traced_run_spans_each_layer_function(self):
        for name in run.WORKLOADS:
            info, _ = self.runs[name, 1]
            spans = [json.loads(line) for line in
                     (ROOT / info["trace_file"]).read_text().splitlines()]
            with self.subTest(workload=name):
                self.assertEqual({s["name"] for s in spans}, EXPECTED_SPANS[name])
                for s in spans:
                    self.assertLessEqual(s["start"], s["end"])

    def test_outputs_repeat_and_follow_the_seed(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                again, _ = parse(run_bench(name, 0))
                first, _ = self.runs[name, 0]
                self.assertEqual(again["digests"], first["digests"])
                other, _ = parse(run_bench(name, 0, seed=6))
                self.assertNotEqual(other["digests"]["input"], first["digests"]["input"])

    def test_untraced_run_reports_unscaled_times(self):
        for name in run.WORKLOADS:
            info, _ = self.runs[name, 0]
            with self.subTest(workload=name):
                self.assertEqual(set(info["unscaled"]),
                                 {"setup_s", "run_s", "window_p50_ms", "window_p95_ms"})
                self.assertTrue(all(v > 0 for v in info["unscaled"].values()))

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            out = run_bench("day", 0, cwd=Path(tmp), script=Path(tmp) / "perfbench" / "run.py")
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


class HostSpeedTest(unittest.TestCase):
    def test_probe_times_the_kernel(self):
        self.assertGreater(hostspeed.probe(), 0.0)
        self.assertEqual(hostspeed.kernel(), hostspeed.kernel())

    def test_scale_is_one_at_nominal_speed(self):
        nominal = hostspeed.NOMINAL_S
        self.assertAlmostEqual(hostspeed.scale([nominal, nominal]), 1.0)
        self.assertAlmostEqual(hostspeed.scale([nominal, 2 * nominal, 3 * nominal]), 0.5)

    def test_timed_call_excludes_probes_taken_during_it(self):
        def busy(seconds):
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                pass
            return "done"

        out, seconds, probes = hostspeed.timed(busy, 0.3)
        self.assertEqual(out, "done")
        self.assertGreaterEqual(len(probes), 3)
        self.assertAlmostEqual(seconds, 0.3 - sum(probes), delta=0.05)


if __name__ == "__main__":
    unittest.main()
