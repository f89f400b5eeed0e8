#!/usr/bin/env python3
"""Tests for scripts/bench_diff.py: one-sided keys are named and counted
apart from the noise floor, and a regression still fails the gate.

Run: python3 scripts/test_bench_diff.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

BENCH_DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_diff.py")


def batched_doc(records):
    """A minimal BENCH_batched.json: {simulator: (interactions/sec, seconds)}."""
    return {
        "bench": "bench_batched",
        "executor_threads": 1,
        "results": [
            {"simulator": sim, "n": 1000, "interactions_per_sec": rate, "seconds": secs}
            for sim, (rate, secs) in records.items()
        ],
    }


class BenchDiffTest(unittest.TestCase):
    def run_diff(self, base_records, new_records):
        with tempfile.TemporaryDirectory() as tmp:
            for side, records in (("base", base_records), ("new", new_records)):
                os.mkdir(os.path.join(tmp, side))
                with open(os.path.join(tmp, side, "BENCH_batched.json"), "w") as f:
                    json.dump(batched_doc(records), f)
            return subprocess.run(
                [sys.executable, BENCH_DIFF,
                 "--baseline-dir", os.path.join(tmp, "base"),
                 "--new-dir", os.path.join(tmp, "new")],
                capture_output=True, text=True)

    def test_names_one_sided_keys_and_fails_on_regression(self):
        result = self.run_diff(
            {"steady": (1e8, 1.0), "slowed": (1e8, 1.0), "dropped": (1e8, 1.0),
             "tiny": (1e8, 0.001)},
            {"steady": (1e8, 1.0), "slowed": (1e7, 1.0), "tiny": (1e8, 0.001)})
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("ONE-SIDED  BENCH_batched.json: interactions_per_sec dropped 1000 1: "
                      "only in the baseline", result.stdout)
        self.assertIn("REGRESSION  BENCH_batched.json: interactions_per_sec slowed",
                      result.stdout)
        self.assertIn("2 keys compared, 1 present on one side only, "
                      "1 below the noise floor, 1 regression(s)", result.stdout)

    def test_one_sided_key_alone_passes(self):
        result = self.run_diff({"steady": (1e8, 1.0)},
                               {"steady": (1e8, 1.0), "added": (1e8, 1.0)})
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("interactions_per_sec added 1000 1: only in the new run",
                      result.stdout)


if __name__ == "__main__":
    unittest.main()
