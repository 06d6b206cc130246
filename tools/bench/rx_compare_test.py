#!/usr/bin/env python3
"""Unit tests for rx_compare.py on canned rxbench result lines.

Run: python3 tools/bench/rx_compare_test.py
"""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import rx_compare  # noqa: E402

BENCHMARK = {
    "end_to_end": [
        {"name": "rx_frames_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "net.allocs_per_frame", "better": "lower"},
    ],
}


def run_lines(workload, metrics, correct=True):
    """The two lines one rxbench run prints last."""
    detail = {"rxbench": {"workload": workload, "seed": 1}}
    result = {"correct": correct, "attempted": 10, "failed": 0,
              "metrics": {k: {"value": v, "unit": "u"}
                          for k, v in metrics.items()}}
    return json.dumps(detail) + "\n" + json.dumps(result) + "\n"


class CompareTest(unittest.TestCase):
    def test_quartiles(self):
        self.assertEqual(rx_compare.quartiles([5.0]), (5.0, 5.0, 5.0))
        q1, med, q3 = rx_compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((q1, med, q3), (2.0, 3.0, 4.0))

    def test_clear_gain(self):
        parent = [100.0 + i for i in range(10)]
        change = [200.0 + i for i in range(10)]
        s = rx_compare.compare(parent, change, "higher", 0.25)
        self.assertEqual(s["wins"], 10)
        self.assertEqual(s["verdict"], "GAIN")

    def test_gain_needs_ten_pairs(self):
        s = rx_compare.compare([100.0, 101.0], [200.0, 201.0], "higher", 0.25)
        self.assertEqual(s["verdict"], "GAIN?")

    def test_gain_needs_nine_in_ten_wins(self):
        parent = [100.0] * 10
        change = [150.0] * 8 + [90.0] * 2
        s = rx_compare.compare(parent, change, "higher", 0.25)
        self.assertEqual(s["wins"], 8)
        self.assertNotEqual(s["verdict"], "GAIN")

    def test_ties_count_for_neither(self):
        s = rx_compare.compare([1.0] * 10, [1.0] * 10, "higher", 0.25)
        self.assertEqual(s["wins"], 0)
        self.assertEqual(s["verdict"], "OK")

    def test_gain_must_exceed_parent_spread(self):
        parent = [100.0, 150.0, 200.0, 250.0, 300.0] * 2
        change = [p + 1.0 for p in parent]
        s = rx_compare.compare(parent, change, "higher", None)
        self.assertEqual(s["wins"], 10)
        self.assertEqual(s["verdict"], "-")

    def test_regression_beyond_bound(self):
        s = rx_compare.compare([10.0] * 10, [11.5] * 10, "lower", 0.1)
        self.assertEqual(s["verdict"], "REGRESSION")

    def test_worse_within_bound_is_ok(self):
        s = rx_compare.compare([10.0] * 10, [10.5] * 10, "lower", 0.1)
        self.assertEqual(s["verdict"], "OK")

    def test_wide_spread_is_unresolved(self):
        parent = [40.0, 100.0, 160.0, 100.0]
        change = [60.0, 100.0, 140.0, 95.0]
        s = rx_compare.compare(parent, change, "higher", 0.25)
        self.assertEqual(s["verdict"], "UNRESOLVED")

    def test_wide_spread_but_every_change_run_better_is_ok(self):
        parent = [10.0, 100.0, 190.0, 100.0, 10.0, 190.0]
        change = [191.0, 195.0, 192.0, 193.0, 194.0, 196.0]
        s = rx_compare.compare(parent, change, "higher", 0.25)
        self.assertEqual(s["verdict"], "OK")


class ReportTest(unittest.TestCase):
    def write(self, text):
        f = tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False)
        f.write(text)
        f.close()
        self.addCleanup(os.remove, f.name)
        return f.name

    def test_runs_pair_by_workload_and_order(self):
        text = ("rxbench: build chatter\n" +
                run_lines("tpca_2k", {"rx_frames_per_s": 1.0}) +
                run_lines("churn_200k", {"rx_frames_per_s": 5.0}) +
                run_lines("tpca_2k", {"rx_frames_per_s": 2.0}))
        runs = rx_compare.read_runs([self.write(text)])
        self.assertEqual(sorted(runs), ["churn_200k", "tpca_2k"])
        self.assertEqual(
            [r["metrics"]["rx_frames_per_s"]["value"] for r in runs["tpca_2k"]],
            [1.0, 2.0])

    def test_result_without_detail_line_is_an_error(self):
        path = self.write(json.dumps({"correct": True, "metrics": {}}) + "\n")
        with self.assertRaises(ValueError):
            rx_compare.read_runs([path])

    def test_report_counts_regressions_and_incorrect_runs(self):
        parent = "".join(run_lines("tpca_2m", {"rx_frames_per_s": 100.0,
                                               "peak_rss_mb": 500.0})
                         for _ in range(10))
        change = "".join(run_lines("tpca_2m", {"rx_frames_per_s": 200.0,
                                               "peak_rss_mb": 600.0})
                         for _ in range(10))
        out = io.StringIO()
        failures = rx_compare.report(
            rx_compare.read_runs([self.write(parent)]),
            rx_compare.read_runs([self.write(change)]), BENCHMARK, out)
        text = out.getvalue()
        self.assertEqual(failures, 1)
        self.assertRegex(text, r"rx_frames_per_s .* 10/10\s+GAIN")
        self.assertRegex(text, r"peak_rss_mb .*REGRESSION")

        wrong = run_lines("tpca_2m", {"rx_frames_per_s": 100.0}, correct=False)
        out = io.StringIO()
        failures = rx_compare.report(
            rx_compare.read_runs([self.write(wrong)]),
            rx_compare.read_runs([self.write(wrong)]), BENCHMARK, out)
        self.assertEqual(failures, 2)

    def test_per_layer_metrics_have_no_bound(self):
        parent = "".join(run_lines("tpca_2k", {"net.allocs_per_frame": 1.5})
                         for _ in range(10))
        change = "".join(run_lines("tpca_2k", {"net.allocs_per_frame": 0.0})
                         for _ in range(10))
        out = io.StringIO()
        rx_compare.report(rx_compare.read_runs([self.write(parent)]),
                          rx_compare.read_runs([self.write(change)]),
                          BENCHMARK, out)
        self.assertRegex(out.getvalue(), r"net.allocs_per_frame .*GAIN")


if __name__ == "__main__":
    unittest.main()
