"""The benchmark's own tests, at tiny sizes (survey n <= 8, nmax 6, 5 samples).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They run every workload untraced and traced through run.py, and show that
wrong output or a wrong reference digest is counted as a failure.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(workloads.SIZES)
TIME_UNITS = ("s", "ms", "us")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(workload: str, trace: int) -> dict:
    return result_of(bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace),
                           "--size", "smoke"))


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_benchmark_json_matches_the_code(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], WORKLOADS)
        layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["metrics"]
        self.assertEqual(self.spec["per_layer"], [{k: m[k] for k in ("name", "unit", "better")} for m in layers])
        for m in layers:
            self.assertTrue(set(m["on"]) <= set(WORKLOADS), m)

    def test_every_workload_untraced(self):
        names = {m["name"] for m in self.spec["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = smoke(workload, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]), names)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_counts_repeat_exactly(self):
        names = {m["name"] for m in self.spec["per_layer"]}
        # Counts and ratios of counts must repeat; times and process statistics need not.
        counts = [m["name"] for m in self.spec["per_layer"]
                  if m["unit"] not in TIME_UNITS and not m["name"].startswith("proc.")]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = smoke(workload, 1), smoke(workload, 1)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(set(first["metrics"]), names)
                self.assertEqual({n: first["metrics"][n] for n in counts}, {n: second["metrics"][n] for n in counts})
                self.assertGreater(first["metrics"]["graphs.graph_init.calls"]["value"], 0)

    def test_wrong_reference_digest_is_a_failure(self):
        reference = workloads.load_reference()
        for workload, key in (("falsify-exhaustive", None), ("falsify-random", "B1")):
            with self.subTest(workload=workload):
                self.assertTrue(smoke(workload, 0)["correct"])
                workdir = ROOT / ".perfbench" / "work" / workload
                errors = [None] * len(workloads.calls(workload, "smoke", 0, workdir))
                ok = workloads.Checker(workload, "smoke", 0, reference).check(workdir, errors)
                self.assertEqual(ok[1], 0, ok[3])
                wrong = copy.deepcopy(reference)
                entry = wrong[workload]["smoke"]
                if key is None:
                    entry["sha256"] = "0" * 64
                else:
                    entry["sha256"][key] = "0" * 64
                attempted, failed, _, problems = workloads.Checker(workload, "smoke", 0, wrong).check(workdir, errors)
                self.assertEqual(failed, attempted if key is None else 1, problems)

    def test_wrong_survey_value_is_a_failure(self):
        self.assertTrue(smoke("extremal-survey", 0)["correct"])
        workdir = ROOT / ".perfbench" / "work" / "extremal-survey"
        out = workdir / "stdout.txt"
        out.write_text(out.read_text().replace("\n8,23,252,", "\n8,23,253,"))
        checker = workloads.Checker("extremal-survey", "smoke", 0, workloads.load_reference())
        _, failed, _, problems = checker.check(workdir, [None])
        self.assertEqual(failed, 1, problems)

    def test_scaling_takes_out_the_probes_and_follows_speed(self):
        with speed.Sampler() as sampler:
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                pass
        self.assertGreater(len(sampler.samples), 5)
        factor = speed.speed(sampler.samples)
        self.assertAlmostEqual(sampler.scale(0.2), (0.2 - sum(sampler.samples)) * factor)
        self.assertEqual(speed.speed([speed.REFERENCE_S / 2] * 3), 2.0)

    def test_fails_without_the_program(self):
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
