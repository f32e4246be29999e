"""Tests of run.py's statistics and verdict, and of BENCHMARK.json's
agreement with the metric lists run.py prints.

    python3 -m unittest discover -s perfbench/tests
"""

import importlib.util
import json
import os
import statistics
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(PERFBENCH, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def report(digest="d1", ok=True, attempted=10, failed=0):
    return {"digest": digest, "attempted": attempted, "failed": failed,
            "checks": [{"name": "c", "ok": ok, "detail": "x"}]}


class SpreadTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
        med, q1, q3, rel = run.spread(values)
        self.assertEqual(med, 5.5)
        # statistics.quantiles(n=4), "exclusive" method, on 1..10.
        self.assertEqual((q1, q3), (2.75, 8.25))
        self.assertAlmostEqual(rel, (8.25 - 2.75) / 5.5)
        self.assertEqual(statistics.quantiles(values, n=4)[0], q1)

    def test_single_value_has_no_spread(self):
        self.assertEqual(run.spread([2.0]), (2.0, 2.0, 2.0, 0.0))

    def test_two_values(self):
        med, q1, q3, _ = run.spread([1.0, 3.0])
        self.assertEqual(med, 2.0)
        self.assertLessEqual(q1, med)
        self.assertGreaterEqual(q3, med)


class VerdictTest(unittest.TestCase):
    def test_all_good(self):
        ok, attempted, failed, problems = run.verdict([report(), report()])
        self.assertTrue(ok)
        self.assertEqual((attempted, failed, problems), (20, 0, []))

    def test_failed_check_is_incorrect(self):
        ok, _, failed, problems = run.verdict(
            [report(), report(ok=False, failed=1)])
        self.assertFalse(ok)
        self.assertEqual(failed, 1)
        self.assertIn("check c failed", problems[0])

    def test_digest_mismatch_is_incorrect(self):
        ok, _, _, problems = run.verdict([report("d1"), report("d2")])
        self.assertFalse(ok)
        self.assertIn("digests d1, d2", problems[0])

    def test_failed_operations_alone_are_not_incorrect(self):
        # serve_zipf_kill: unacknowledged puts under a kill are counted,
        # but only a lost *acknowledged* write fails a check.
        ok, _, failed, _ = run.verdict([report(failed=3)])
        self.assertTrue(ok)
        self.assertEqual(failed, 3)


class RepeatTest(unittest.TestCase):
    def test_runs_at_least_once(self):
        self.assertEqual(run.repeat(0, lambda: 1), [1])


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_metric_lists_match(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in self.bench["per_layer"]],
                         run.PER_LAYER)

    def test_workloads_are_the_gated_ones(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         run.GATED_WORKLOADS)
        self.assertNotIn("himeno_16k", run.GATED_WORKLOADS)

    def test_command_records_the_default_seed(self):
        # The driver appends its own --seed; argparse keeps the last one.
        command = self.bench["command"]
        self.assertEqual(command[:2], ["python3", "perfbench/run.py"])
        self.assertEqual(run.parse_args(command[2:] + ["--workload", "dht_lock_1k"]).seed,
                         1)
        self.assertEqual(run.parse_args(command[2:] + ["--workload", "dht_lock_1k",
                                                       "--seed", "7"]).seed, 7)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
