#!/usr/bin/env python3
"""Self-test of the benchmark driver.

    python3 perfbench/test_perfbench.py

For every workload the driver defines, a short version (two rounds per
network) runs twice with one seed in separate processes: both runs must pass
their correctness checks and report identical virtual results. A traced run
must reproduce the untraced virtual results and print every per-layer metric.
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 11
ROUNDS = 2


def short_run(workload, trace):
    code, lines = run.run_driver(["--workload", workload, "--seed", str(SEED),
                                  "--seconds", "0", "--rounds", str(ROUNDS),
                                  "--trace", str(trace)])
    detail, result = run.parse_output(lines)
    return code, detail, result


class ShortWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_spec_workloads_exist(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))

    def test_same_seed_same_virtual_results(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = short_run(workload, 0)
                second = short_run(workload, 0)
                for code, detail, result in (first, second):
                    self.assertEqual(code, 0, detail["failures"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertTrue(detail["host_independent"])
                self.assertEqual(first[1]["virtual"], second[1]["virtual"])
                # With two rounds too few samples lie beyond p99 to report it.
                printed = set(first[2]["metrics"]) | {"lat_p99_ms"}
                self.assertEqual(printed, {m["name"] for m in SPEC["end_to_end"]})
                for name, metric in first[2]["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_run_matches_and_reports_every_layer(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, detail, result = short_run(workload, 1)
                self.assertEqual(code, 0, detail["failures"])
                self.assertTrue(result["correct"])
                self.assertTrue(detail["host_independent"])
                untraced = short_run(workload, 0)[1]
                self.assertEqual(detail["virtual"], untraced["virtual"])
                self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["per_layer"]})
                for name, metric in result["metrics"].items():
                    spec_unit = next(m["unit"] for m in SPEC["per_layer"] if m["name"] == name)
                    self.assertEqual(metric["unit"], spec_unit, name)


if __name__ == "__main__":
    unittest.main()
