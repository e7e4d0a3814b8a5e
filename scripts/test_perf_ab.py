#!/usr/bin/env python3
"""Tests of scripts/perf_ab.py (run from anywhere):

  python3 scripts/test_perf_ab.py

The label tests feed canned per-pair values to the verdict rules; the last
test runs the script end to end as an A/A, with this tree on both sides,
and checks its exit code and JSON report, not its verdict.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import perf_ab  # noqa: E402

HIGHER = {"name": "events_per_s", "better": "higher", "bound": 0.24}
LOWER = {"name": "latency_p50_us", "better": "lower", "bound": 0.24}
# Ten base runs with a quartile spread of 4.5 / 104.5 = 0.043.
BASE = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def label(metric, base, change):
    return perf_ab.label_metric(metric, base, change)["label"]


def scaled(factor):
    return [v * factor for v in BASE]


def result_line(correct=True, failed=0, value=1.0):
    return json.dumps({"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": {"events_per_s": {"value": value}}})


class LabelTest(unittest.TestCase):
    def test_identical_runs_are_the_same(self):
        for metric in (HIGHER, LOWER):
            got = perf_ab.label_metric(metric, BASE, BASE)
            self.assertEqual(got["label"], "same")
            self.assertEqual(got["won"], 0)
            self.assertEqual(got["ratio"]["median"], 1.0)

    def test_higher_better_metric_on_each_side_of_the_bound(self):
        self.assertEqual(label(HIGHER, BASE, scaled(0.77)), "same")
        self.assertEqual(label(HIGHER, BASE, scaled(0.75)), "worse")
        self.assertEqual(label(HIGHER, BASE, scaled(0.5)), "worse")
        self.assertEqual(label(HIGHER, BASE, scaled(1.3)), "better")

    def test_lower_better_metric_on_each_side_of_the_bound(self):
        self.assertEqual(label(LOWER, BASE, scaled(1.23)), "same")
        self.assertEqual(label(LOWER, BASE, scaled(1.25)), "worse")
        self.assertEqual(label(LOWER, BASE, scaled(2.0)), "worse")
        self.assertEqual(label(LOWER, BASE, scaled(0.7)), "better")

    def test_a_wide_base_spread_is_unresolved(self):
        wide = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0,
                150.0]
        self.assertEqual(label(LOWER, wide, [v * 1.1 for v in wide]),
                         "unresolved")
        # Worse is checked first, and a change whose every run beats every
        # base run is resolved whatever the spread.
        self.assertEqual(label(LOWER, wide, [v * 2.0 for v in wide]), "worse")
        self.assertEqual(label(LOWER, wide, [50.0] * 10), "better")
        self.assertEqual(label(HIGHER, wide, [160.0] * 10), "better")

    def test_better_needs_nine_of_ten_pairs(self):
        # The change wins the first nine pairs by half and loses the last.
        nine = [v * 0.5 for v in BASE[:9]] + [BASE[9] * 1.2]
        got = perf_ab.label_metric(LOWER, BASE, nine)
        self.assertEqual((got["won"], got["label"]), (9, "better"))
        eight = nine[:8] + [BASE[8] * 1.2, BASE[9] * 1.2]
        got = perf_ab.label_metric(LOWER, BASE, eight)
        self.assertEqual((got["won"], got["label"]), (8, "same"))

    def test_a_tie_is_no_win(self):
        tied = [BASE[0]] + [v * 0.5 for v in BASE[1:9]] + [BASE[9] * 1.2]
        got = perf_ab.label_metric(LOWER, BASE, tied)
        self.assertEqual((got["won"], got["label"]), (8, "same"))
        tied_high = [BASE[0]] + [v * 2.0 for v in BASE[1:9]] + [BASE[9] * 0.8]
        got = perf_ab.label_metric(HIGHER, BASE, tied_high)
        self.assertEqual((got["won"], got["label"]), (8, "same"))

    def test_better_needs_medians_apart_by_the_base_spread(self):
        # Ten wins by 1% each: the medians differ by 1.045 < q3 - q1 = 4.5.
        self.assertEqual(label(LOWER, BASE, scaled(0.99)), "same")

    def test_a_rise_in_the_failed_share_is_worse(self):
        clean = [{"failed": 0, "attempted": 100}] * 2
        one = [{"failed": 1, "attempted": 100}, {"failed": 0,
                                                  "attempted": 100}]
        self.assertEqual(perf_ab.label_failed(clean, clean)["label"], "same")
        self.assertEqual(perf_ab.label_failed(one, clean)["label"], "same")
        got = perf_ab.label_failed(clean, one)
        self.assertEqual(got["label"], "worse")
        self.assertEqual(got["change"], [1, 200])


class DigestTest(unittest.TestCase):
    @staticmethod
    def runs(*facts):
        return [{"facts": f} for f in facts]

    def test_equal_digests_per_seed_are_the_same(self):
        seed1 = {"digest.final": "0x1", "latency_samples": 10}
        seed2 = {"digest.final": "0x2", "latency_samples": 20}
        # Sample counts differ between sides; only digests are compared.
        change2 = {"digest.final": "0x2", "latency_samples": 25}
        self.assertEqual(perf_ab.label_digests(self.runs(seed1, seed2),
                                               self.runs(seed1, change2)),
                         "same")

    def test_one_differing_seed_is_changed(self):
        base = self.runs({"digest.final": "0x1", "digest.epochs": "0xa"},
                         {"digest.final": "0x2", "digest.epochs": "0xb"})
        change = self.runs({"digest.final": "0x1", "digest.epochs": "0xa"},
                           {"digest.final": "0x2", "digest.epochs": "0xc"})
        self.assertEqual(perf_ab.label_digests(base, change), "changed")

    def test_a_digest_only_one_side_prints_is_changed(self):
        self.assertEqual(perf_ab.label_digests(
            self.runs({"digest.final": "0x1"}),
            self.runs({"digest.final": "0x1", "digest.epochs": "0xa"})),
            "changed")

    def test_a_workload_without_digests_reads_none(self):
        self.assertEqual(perf_ab.label_digests(
            self.runs({"latency_samples": 1}),
            self.runs({"latency_samples": 2})), "none")


class RunTest(unittest.TestCase):
    def parse(self, code, stdout):
        return perf_ab.parse_run("change", "replay_dmix", 3, code, stdout,
                                 ["events_per_s"])

    def test_a_good_run_parses(self):
        got = self.parse(0, "events_per_s 5 1/s\n" + result_line(value=5.0))
        self.assertEqual(got["metrics"]["events_per_s"]["value"], 5.0)

    def test_a_failed_run_names_side_workload_pair_and_exit_code(self):
        cases = [(0, result_line(correct=False, failed=1), '"correct": false'),
                 (1, result_line(), "exited 1"),
                 (0, "events_per_s 5 1/s", "no usable result line"),
                 (0, "", "no usable result line"),
                 (0, json.dumps({"correct": True, "attempted": 1,
                                 "failed": 0, "metrics": {}}),
                  "no usable result line")]
        for code, stdout, says in cases:
            with self.subTest(says=says, code=code):
                with self.assertRaises(perf_ab.RunFailed) as raised:
                    self.parse(code, stdout)
                message = str(raised.exception)
                self.assertIn(says, message)
                self.assertIn("change run of replay_dmix, pair 3, exited "
                              f"{code}", message)

    def test_a_run_keeps_its_sample_count_and_digests(self):
        stdout = ("events_per_s                         5 1/s\n"
                  "byte_hops                            123\n"
                  "latency_samples                      2097153\n"
                  "digest.final                         0x74e916db97ed248d\n"
                  "events_per_s.passes                  5,6\n"
                  + result_line(value=5.0))
        self.assertEqual(self.parse(0, stdout)["facts"],
                         {"latency_samples": 2097153,
                          "digest.final": "0x74e916db97ed248d"})

    def test_a_metric_only_one_tree_names_is_skipped(self):
        base = {"end_to_end": [{"name": "events_per_s"}, {"name": "old"}]}
        change = {"end_to_end": [{"name": "new"}, {"name": "events_per_s"}]}
        shared, skipped = perf_ab.common(base, change, "end_to_end")
        self.assertEqual([m["name"] for m in shared], ["events_per_s"])
        self.assertEqual(skipped, ["new", "old"])


class EndToEndTest(unittest.TestCase):
    def run_script(self, *args):
        return subprocess.run(
            [sys.executable, "-B", os.path.join(HERE, "perf_ab.py"), *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=600)

    def test_a_base_without_a_benchmark_is_a_usage_error(self):
        self.assertEqual(self.run_script(HERE).returncode, 2)
        self.assertEqual(self.run_script(perf_ab.ROOT, "--pairs", "0")
                         .returncode, 2)

    def test_an_a_a_run_ends_in_one_json_line(self):
        # Only the plumbing is pinned here: the labels of runs this short
        # are noise (the verdict rules are pinned by LabelTest), so the
        # verdict may read either way, but it must agree with the exit
        # code and name every workload and metric. Two pairs run both
        # orders, base first and change first. One tree on both sides
        # prints the same digests for a seed, a workload that prints none
        # reads "none", and every run counts its latency samples.
        proc = self.run_script(perf_ab.ROOT, "--pairs", "2",
                               "--seconds", "0.3")
        self.assertIn(proc.returncode, (0, 1), proc.stdout + proc.stderr)
        report = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(report["verdict"],
                         "ok" if proc.returncode == 0 else "worse")
        spec = perf_ab.load_spec(perf_ab.ROOT)
        self.assertEqual(list(report["workloads"]),
                         [w["name"] for w in spec["workloads"]])
        for w in report["workloads"].values():
            self.assertEqual(list(w["metrics"]),
                             [m["name"] for m in spec["end_to_end"]])
            for m in w["metrics"].values():
                self.assertEqual(m["pairs"], 2)
                self.assertIn(m["label"],
                              ("worse", "unresolved", "better", "same"))
            self.assertIn(w["failed"]["label"], ("worse", "same"))
            printed = any(name.startswith("digest.")
                          for runs in w["facts"].values()
                          for facts in runs for name in facts)
            self.assertEqual(w["digests"], "same" if printed else "none")
            for side in ("base", "change"):
                self.assertEqual(len(w["facts"][side]), 2)
                for facts in w["facts"][side]:
                    self.assertIsInstance(facts["latency_samples"], int)


if __name__ == "__main__":
    unittest.main()
