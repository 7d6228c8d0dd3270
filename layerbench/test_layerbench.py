#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 layerbench/test_layerbench.py

Builds the benchmark through run.py (as the benchmark's users do), then
checks the seeded op list, the printed metric names and units against
BENCHMARK.json, and that a failing op is counted rather than fatal.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run as runner  # noqa: E402

BINARY = None
SCRATCH = os.path.join(runner.BUILD, "tmp")


def bench(*args):
    """Run the benchmark binary; return (exit code, stdout lines)."""
    done = subprocess.run([BINARY, "--scratch", SCRATCH] + list(args),
                          capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout.strip().splitlines()


def result(*args):
    code, lines = bench(*args)
    assert code == 0, "benchmark exited %d" % code
    return json.loads(lines[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class OpList(unittest.TestCase):
    def ops(self, workload, seed):
        code, lines = bench("--workload", workload, "--seed", str(seed),
                            "--list-ops", "50")
        self.assertEqual(code, 0)
        self.assertEqual(len(lines), 50)
        return lines

    def test_same_seed_same_list_other_seed_other_list(self):
        for w in spec()["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                first = self.ops(name, 7)
                self.assertEqual(first, self.ops(name, 7))
                self.assertNotEqual(first, self.ops(name, 8))

    def test_every_pass_holds_each_class_once(self):
        code, lines = bench("--workload", "reorder-4k", "--seed", "3",
                            "--list-ops", "40")
        self.assertEqual(code, 0)
        for p in range(2):
            classes = sorted(int(l.split()[1].split("=")[1])
                             for l in lines[20 * p:20 * (p + 1)])
            self.assertEqual(classes, list(range(20)))


class Output(unittest.TestCase):
    # churn-1k is the quickest workload; the metric list is shared code.
    def check_names(self, trace, key):
        out = result("--workload", "churn-1k", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace))
        want = {m["name"]: m["unit"] for m in spec()[key]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        self.assertEqual(got, want)
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        # The untraced run times at least 100 ops; the traced run needs one
        # untraced and one traced pass.
        self.assertGreaterEqual(out["attempted"], 8 if trace else 100)

    def test_end_to_end_names_and_units_match(self):
        self.check_names(0, "end_to_end")

    def test_per_layer_names_and_units_match(self):
        self.check_names(1, "per_layer")

    def test_forced_failing_op_is_counted_not_fatal(self):
        out = result("--workload", "churn-1k", "--seed", "1", "--seconds", "0",
                     "--trace", "0", "--fail-op", "3")
        self.assertEqual(out["failed"], 1)
        self.assertFalse(out["correct"])
        self.assertGreaterEqual(out["attempted"], 100)

    def test_quality_guards_repeat_for_a_seed(self):
        def guards():
            m = result("--workload", "churn-1k", "--seed", "5", "--seconds", "0",
                       "--trace", "0")["metrics"]
            return [m[k]["value"] for k in ("mapping_cost_ratio",
                                            "improvement_pct_mean",
                                            "sim_latency_geomean_us")]
        self.assertEqual(guards(), guards())

    def test_unknown_workload_is_a_usage_error(self):
        code, _ = bench("--workload", "nope", "--seed", "1")
        self.assertEqual(code, 2)


if __name__ == "__main__":
    BINARY = runner.build()
    os.makedirs(SCRATCH, exist_ok=True)
    unittest.main()
