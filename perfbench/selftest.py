"""Self-test of the benchmark, at tiny input sizes.

Run from the repository root:  python3 perfbench/selftest.py

Checks that each workload emits every metric of BENCHMARK.json with its
unit, that the computed counts repeat exactly across two traced runs, that
self times fit inside the traced pass, that a corrupted reference makes an
operation fail, and that the benchmark fails cleanly without sources.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "selftest"
sys.path[:0] = [str(HERE), str(ROOT / "src")]
from workloads import CliCold, CoreAudit, SweepGrid  # noqa: E402

WORKLOADS = ("sweep-grid", "core-audit", "cli-cold")
EXACT_UNITS = ("count", "computed_count", "bytes", "classes/row")


def run(workload, trace, *extra, cwd=ROOT):
    """Run the benchmark at the tiny scale; return (exit code, detail, result)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def one_pass(workload):
    """Set up a workload in-process, run one untraced pass and check it."""
    workload.setup()
    workload.build_references()
    result = workload.run_pass(None)
    workload.check(result)
    return result


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        OUT.mkdir(parents=True, exist_ok=True)

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, detail, result = run(workload, 0)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(detail["error_rate"], 0)
                self.assertEqual(units(result), declared("end_to_end"))
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
                for key in ("nproc", "python", "platform", "loadavg", "seed"):
                    self.assertIn(key, detail["context"])

    def test_per_layer_metrics_and_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [run(workload, 1) for _ in range(2)]
                counts = []
                for code, detail, result in runs:
                    self.assertEqual(code, 0)
                    self.assertEqual(units(result), declared("per_layer"))
                    trace = detail["trace"]
                    self.assertLessEqual(trace["self_s_sum"], trace["traced_wall_s"])
                    counts.append({name: m["value"] for name, m in result["metrics"].items()
                                   if m["unit"] in EXACT_UNITS})
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(runs[0][2]["metrics"]["stability.in_core.calls"]["value"], 0)

    def test_corrupted_reference_counts_as_error(self):
        references = json.loads((HERE / "references.json").read_text())
        references["sweep-grid"]["8"]["fig3"] = "0" * 64
        references["cli-cold"]["value"]["stdout_sha256"] = "0" * 64
        for workload in (SweepGrid, CliCold):
            with self.subTest(workload=workload.name):
                self.assertEqual(len(one_pass(workload(ROOT, 7, True, references)).failures), 1)

    def test_corrupted_core_reference_counts_as_error(self):
        audit = CoreAudit(ROOT, 7, True, {})
        self.assertEqual(one_pass(audit).failures, [])
        member, blocking, probability = audit.expected[0]
        audit.expected[0] = (not member, blocking, probability)
        corrupted = audit.run_pass(None)
        audit.check(corrupted)
        self.assertEqual(len(corrupted.failures), 1)

    def test_fails_without_sources(self):
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, detail, result = run("sweep-grid", 0, cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
