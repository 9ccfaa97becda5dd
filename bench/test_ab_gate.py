#!/usr/bin/env python3
"""Unit tests for the perf gate's decision (bench/ab_gate.py).

    python3 bench/test_ab_gate.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_gate import decide  # noqa: E402

# The end-to-end metrics as BENCHMARK.json declares them.
METRICS = {
    "ops_per_s": {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    "alloc_words_per_op": {"name": "alloc_words_per_op", "better": "lower", "bound": 0.05},
    "peak_heap_mb": {"name": "peak_heap_mb", "better": "lower", "bound": 0.25},
    "setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25},
}


def result(ops, alloc=100.0, heap=2.0, setup=0.001, attempted=1000, failed=0):
    return {"attempted": attempted, "failed": failed,
            "metrics": {"ops_per_s": ops, "alloc_words_per_op": alloc,
                        "peak_heap_mb": heap, "setup_s": setup}}


def pairs(head_ops, base_ops, **head):
    return [(result(h, **head), result(b)) for h, b in zip(head_ops, base_ops)]


def pairs_of(name, heads, bases):
    """Pairs equal in every metric but [name], which takes these values."""
    return [(result(100, **{name: h}), result(100, **{name: b}))
            for h, b in zip(heads, bases)]


class Decide(unittest.TestCase):
    def test_identical_passes(self):
        self.assertEqual(decide(pairs([100] * 5, [100] * 5), METRICS), [])

    def test_noise_within_bound_passes(self):
        # Loses every pair, but the median ratio (0.8) is inside the bound.
        self.assertEqual(decide(pairs([80] * 5, [100] * 5), METRICS), [])

    def test_slow_and_consistent_fails(self):
        reasons = decide(pairs([50, 50, 50, 50, 120], [100] * 5), METRICS)
        self.assertEqual(len(reasons), 1)
        self.assertTrue(reasons[0].startswith("ops_per_s: lost 4 of 5"))

    def test_slow_median_but_too_few_losses_passes(self):
        # A noisy phase can sink the median; three losses of five is not
        # consistent enough to fail.
        self.assertEqual(decide(pairs([10, 10, 10, 200, 200], [100] * 5), METRICS), [])

    def test_ties_are_not_losses(self):
        self.assertEqual(decide(pairs([70, 70, 70, 100, 100], [100] * 5), METRICS), [])

    def test_alloc_regression_fails_alone(self):
        reasons = decide(pairs([100] * 5, [100] * 5, alloc=106.0), METRICS)
        self.assertEqual(len(reasons), 1)
        self.assertTrue(reasons[0].startswith("alloc_words_per_op"))

    def test_alloc_within_bound_passes(self):
        self.assertEqual(decide(pairs([100] * 5, [100] * 5, alloc=104.0), METRICS), [])

    def test_fewer_allocations_pass(self):
        self.assertEqual(decide(pairs([100] * 5, [100] * 5, alloc=10.0), METRICS), [])

    def test_more_failures_fail(self):
        reasons = decide(pairs([100] * 5, [100] * 5, failed=1), METRICS)
        self.assertEqual(len(reasons), 1)
        self.assertTrue(reasons[0].startswith("failed share"))

    def test_failures_at_base_too_pass(self):
        both = [(result(100, failed=2), result(100, failed=2)) for _ in range(5)]
        self.assertEqual(decide(both, METRICS), [])

    def test_heap_regression_fails(self):
        reasons = decide(pairs_of("heap", [3.0] * 5, [2.0] * 5), METRICS)
        self.assertEqual(len(reasons), 1)
        self.assertTrue(reasons[0].startswith("peak_heap_mb: lost 5 of 5"))

    def test_heap_within_bound_passes(self):
        self.assertEqual(decide(pairs_of("heap", [2.4] * 5, [2.0] * 5), METRICS), [])

    def test_setup_regression_fails(self):
        reasons = decide(pairs_of("setup", [0.002, 0.002, 0.002, 0.002, 0.0005],
                                  [0.001] * 5), METRICS)
        self.assertEqual(len(reasons), 1)
        self.assertTrue(reasons[0].startswith("setup_s: lost 4 of 5"))

    def test_setup_spikes_in_too_few_pairs_pass(self):
        # A minor collection landing inside set-up in three runs of five
        # sinks the median but is not a consistent loss.
        self.assertEqual(decide(pairs_of("setup", [0.004, 0.004, 0.004, 0.001, 0.001],
                                         [0.001] * 5), METRICS), [])

    def test_zero_base_is_not_a_division(self):
        self.assertEqual(decide(pairs_of("setup", [0.0] * 5, [0.0] * 5), METRICS), [])
        reasons = decide(pairs_of("setup", [0.001] * 5, [0.0] * 5), METRICS)
        self.assertTrue(reasons[0].startswith("setup_s: lost 5 of 5"))

    def test_every_declared_metric_is_judged(self):
        # A metric added to BENCHMARK.json is judged without a gate edit.
        metrics = dict(METRICS, events_s={"better": "higher", "bound": 0.1})
        both = pairs([100] * 5, [100] * 5)
        for head, base in both:
            head["metrics"]["events_s"] = 50
            base["metrics"]["events_s"] = 100
        reasons = decide(both, metrics)
        self.assertEqual(len(reasons), 1)
        self.assertTrue(reasons[0].startswith("events_s: lost 5 of 5"))

    def test_reasons_accumulate(self):
        reasons = decide(pairs([10] * 5, [100] * 5, alloc=500.0, failed=3), METRICS)
        self.assertEqual(len(reasons), 3)

    def test_reasons_accumulate_over_all_metrics(self):
        reasons = decide(pairs([10] * 5, [100] * 5, alloc=500.0, heap=9.0,
                               setup=1.0, failed=3), METRICS)
        self.assertEqual(len(reasons), 5)


if __name__ == "__main__":
    unittest.main()
