#!/usr/bin/env python3
"""Tests of the benchmark's own contract.

    python3 perfbench/test_perfbench.py

Each test runs perfbench/run.py on the shortest workload (san_bulk, one
second) and checks what it prints and how it exits: every metric named
in BENCHMARK.json comes out with its unit, a failed correctness check
exits non-zero and counts every op as failed, and a directory without
the padico sources gives no result at all.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "tests")


def run(*extra, cwd=ROOT, script=os.path.join(HERE, "run.py"), trace="0"):
    cmd = [sys.executable, script, "--workload", "san_bulk", "--seed", "1",
           "--seconds", "1", "--trace", trace, *extra]
    done = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=900, check=False)
    return done.returncode, done.stdout.decode().splitlines()


def last_json(lines):
    return json.loads(lines[-1])


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        os.makedirs(SCRATCH, exist_ok=True)

    def check_metrics(self, trace, section):
        code, lines = run(trace=trace)
        self.assertEqual(code, 0, "\n".join(lines))
        result = last_json(lines)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.bench[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            # The human-readable table names the metric and its unit too.
            self.assertTrue(any(l.split()[1:2] == [name] and l.split()[-1] == m["unit"]
                                for l in lines if l.startswith("#  ")), name)

    def test_end_to_end_metrics_print_with_units(self):
        self.check_metrics("0", "end_to_end")

    def test_per_layer_metrics_print_with_units(self):
        self.check_metrics("1", "per_layer")

    def failing_expected(self, mutate):
        with open(os.path.join(HERE, "expected.json")) as f:
            expected = json.load(f)
        mutate(expected)
        path = os.path.join(SCRATCH, "expected-broken.json")
        with open(path, "w") as f:
            json.dump(expected, f)
        return path

    def assert_fails(self, expected_path):
        code, lines = run("--expected", expected_path)
        self.assertNotEqual(code, 0)
        result = last_json(lines)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any("FAILED" in l for l in lines))

    def test_wrong_digest_exits_nonzero(self):
        self.assert_fails(self.failing_expected(
            lambda e: e["digests"].__setitem__("san_bulk/1", "0000000000000000")))

    def test_wrong_paper_cell_exits_nonzero(self):
        def bump(e):
            e["cells"]["table1.Circuit.latency_us"] *= 1.01
        self.assert_fails(self.failing_expected(bump))

    def test_no_sources_no_result(self):
        with tempfile.TemporaryDirectory(dir=SCRATCH) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run(cwd=d, script=os.path.join(d, "perfbench", "run.py"))
        self.assertNotEqual(code, 0)
        self.assertFalse(any(l.startswith("{") for l in lines), lines)


if __name__ == "__main__":
    unittest.main()
