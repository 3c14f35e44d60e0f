#!/usr/bin/env python3
"""The A/B verdict of tools/ab_perfbench.py on synthetic pairs.

Usage:

    ab_perfbench_check.py

Feeds made-up (parent, change) values to the tool's row classifier and
checks each label: `gain`, `regression` at the bounds BENCHMARK.json
declares, `unresolved`, and the sign of higher-is-better metrics.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import ab_perfbench  # noqa: E402


def parent_runs(median, spread):
    """Ten values around `median`, `spread` apart (relative)."""
    return [median * (1 + spread * (i - 4.5)) for i in range(10)]


def scaled(parent, factor):
    """Pairs whose change is each parent value times `factor`."""
    return [(p, p * factor) for p in parent]


class VerdictTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        _, metrics = ab_perfbench.load_benchmark()
        cls.bound = {name: bound for name, _, bound in metrics}

    def label(self, pairs, better="lower", metric="cpu_s"):
        return ab_perfbench.classify(pairs, better, self.bound[metric])

    def test_gain_needs_nine_tenths_of_the_pairs(self):
        parent = parent_runs(1.0, 0.001)
        self.assertEqual(self.label(scaled(parent, 0.9)), "gain")
        # The same gap, but the change wins only 8 of 10 pairs.
        eight = [(p, c if i < 8 else p * 1.1)
                 for i, (p, c) in enumerate(scaled(parent, 0.9))]
        self.assertEqual(self.label(eight), "-")

    def test_gain_needs_a_gap_beyond_the_parent_iqr(self):
        parent = parent_runs(1.0, 0.01)  # IQR of about 5%.
        self.assertEqual(self.label(scaled(parent, 0.97)), "-")

    def test_regression_just_past_the_bound(self):
        for metric in ("cpu_s", "peak_rss_mb"):
            bound = self.bound[metric]
            parent = parent_runs(2.0, 0.001)
            self.assertEqual(
                self.label(scaled(parent, 1 + bound + 0.002),
                           metric=metric), "regression", metric)
            self.assertEqual(
                self.label(scaled(parent, 1 + bound - 0.002),
                           metric=metric), "-", metric)

    def test_peak_rss_bound_is_tighter_than_cpu(self):
        parent = parent_runs(10.0, 0.001)
        pairs = scaled(parent, 1.1)
        self.assertEqual(self.label(pairs, metric="peak_rss_mb"),
                         "regression")
        self.assertEqual(self.label(pairs, metric="cpu_s"), "-")

    def test_wide_parent_spread_is_unresolved(self):
        bound = self.bound["cpu_s"]
        parent = parent_runs(1.0, bound / 2)  # IQR of about 2.25 bound.
        self.assertEqual(self.label(scaled(parent, 1.0)), "unresolved")
        self.assertEqual(self.label(scaled(parent, 1 + bound / 2)),
                         "unresolved")
        # A regression or a gain is still named as such.
        self.assertEqual(self.label(scaled(parent, 1 + 2 * bound)),
                         "regression")
        self.assertEqual(self.label(scaled(parent, 0.2)), "gain")

    def test_higher_is_better(self):
        parent = parent_runs(1.0, 0.001)
        up, down = scaled(parent, 1.3), scaled(parent, 0.7)
        self.assertEqual(self.label(up, better="higher"), "gain")
        self.assertEqual(self.label(down, better="higher"), "regression")
        self.assertEqual(self.label(up, better="lower"), "regression")
        self.assertEqual(self.label(down, better="lower"), "gain")


if __name__ == "__main__":
    unittest.main()
