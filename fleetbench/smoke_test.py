#!/usr/bin/env python3
"""Smoke test of the fleet benchmark itself.

    python3 fleetbench/smoke_test.py

Runs every workload named in BENCHMARK.json for a few ticks, untraced and
traced, and asserts that each result line carries every metric
BENCHMARK.json lists for that mode with its unit, that the attempted and
failed operation counts are present, that no operation failed, that no
end-to-end metric reads 0, and that the traced run's spans account for its
ticks. Takes about a minute.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
# 70 ticks cover three cut cadences (every 32 ticks) and one failover
# cadence (every 50 ticks).
SMOKE_TICKS = 70


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--ticks", str(SMOKE_TICKS),
           "--setups", "1", "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    return res


class SmokeTest(unittest.TestCase):
    bench = load_benchmark()

    def check(self, workload, trace):
        res = run(workload, trace)
        self.assertEqual(res.returncode, 0, res.stderr[-2000:])
        lines = res.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, res.stdout[-3000:])
        self.assertTrue(result["correct"], res.stdout[-3000:])
        listed = self.bench["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for m in listed:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertNotEqual(got["value"], 0, m["name"])
        if trace:
            accounting = [l for l in lines if l.startswith("span accounting:")]
            self.assertEqual(len(accounting), 1)
            within, total = map(int, re.search(r"(\d+) of (\d+)",
                                               accounting[0]).groups())
            self.assertGreater(total, 0)
            self.assertGreaterEqual(within, 0.9 * total, accounting[0])
            self.assertTrue(any(l.startswith("tracing overhead:")
                                for l in lines))

    def test_every_workload(self):
        for w in self.bench["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)


if __name__ == "__main__":
    unittest.main()
