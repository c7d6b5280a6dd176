"""Tests of the benchmark itself (about three minutes).

    python3 perfbench/selftest.py

A short run of each workload, untraced and traced, must print every metric
``BENCHMARK.json`` names, with its unit, and pass its checks at the default
seed.  A corrupted reference answer must make a run fail its checks.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import unittest

import answers
import checkout

BENCHMARK = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())


def run_short(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(answers.DEFAULT_SEED), "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=checkout.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsTest(unittest.TestCase):
    def check(self, trace: int, listed: list) -> None:
        expected = {m["name"]: m["unit"] for m in listed}
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                result = run_short(workload, trace)
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"}
                )
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, expected)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)

    def test_untraced_run_emits_every_end_to_end_metric(self):
        self.check(0, BENCHMARK["end_to_end"])

    def test_traced_run_emits_every_per_layer_metric(self):
        self.check(1, BENCHMARK["per_layer"])


class ReferenceTest(unittest.TestCase):
    def test_corrupted_reference_value_fails_the_run(self):
        checkout.import_repro()
        import run

        reference = answers.load_reference("dynamic_sweep", answers.DEFAULT_SEED)
        corrupted = copy.deepcopy(reference)
        first = corrupted[sorted(corrupted)[0]]
        first["measured"] = first["measured"] * (1 + 2**-40)
        result = run.run_benchmark(
            "dynamic_sweep", answers.DEFAULT_SEED, 0.1, False,
            answers.AnswerBook(corrupted), out=lambda line: None,
        )
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["failed"] / result["attempted"], 0.0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
