"""Self-test of the benchmark's own arithmetic, on synthetic spans and outcomes.

    python3 perfbench/selftest.py

The benchmark runs these checks before it measures anything, so an error in
the harness cannot be read as a change in morsekit.
"""

import io
import math
import unittest

from harness import (
    OK,
    RAISED,
    REFUSED,
    WRONG,
    Check,
    Outcome,
    Span,
    classify,
    latency_metrics,
    self_time_by_name,
    self_times,
    tail_latency,
    tally,
)


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, op=0, k=None)


class SelfTime(unittest.TestCase):
    def test_leaf_keeps_its_whole_duration(self):
        self.assertEqual(self_times([_span("a", 1.0, 3.5)]), [2.5])

    def test_children_are_subtracted_once_when_they_overlap(self):
        spans = [
            _span("op", 0.0, 10.0),
            _span("a", 1.0, 4.0, parent=0),
            _span("b", 3.0, 5.0, parent=0),  # overlaps a by 1 s
            _span("c", 7.0, 8.0, parent=0),
        ]
        self.assertEqual(self_times(spans), [10.0 - 5.0, 3.0, 2.0, 1.0])

    def test_grandchildren_only_reduce_their_own_parent(self):
        spans = [
            _span("op", 0.0, 10.0),
            _span("mid", 2.0, 8.0, parent=0),
            _span("leaf", 3.0, 6.0, parent=1),
        ]
        self.assertEqual(self_times(spans), [4.0, 3.0, 3.0])

    def test_child_sticking_out_is_clipped_to_the_parent(self):
        spans = [_span("op", 0.0, 2.0), _span("late", 1.5, 4.0, parent=0)]
        self.assertEqual(self_times(spans)[0], 1.5)

    def test_totals_by_name(self):
        spans = [
            _span("op", 0.0, 4.0),
            _span("x", 0.0, 1.0, parent=0),
            _span("op", 5.0, 9.0),
            _span("x", 5.0, 7.0, parent=2),
        ]
        self.assertEqual(self_time_by_name(spans), {"op": 5.0, "x": 3.0})


class TailRule(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_tail(self):
        lat = [float(i) for i in range(1, 31)]  # 1 .. 30
        value, pct = tail_latency(lat)
        self.assertEqual(value, 20.0)
        self.assertEqual(sum(x > value for x in lat), 10)
        self.assertAlmostEqual(pct, 100.0 * 20 / 30)

    def test_order_of_samples_does_not_matter(self):
        self.assertEqual(tail_latency([5.0, 1.0, 4.0, 2.0, 3.0] * 3)[0],
                         tail_latency(sorted([5.0, 1.0, 4.0, 2.0, 3.0] * 3))[0])

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(tail_latency([1.0] * 10))
        self.assertEqual(tail_latency([1.0] * 11), (1.0, 100.0 / 11))


class FailAccounting(unittest.TestCase):
    def _trace(self):
        return [
            classify(Outcome(0, "a", OK, 1.0, [Check("level_count", 0, None)])),
            classify(Outcome(1, "b", OK, 2.0, [Check("gram_identity", 5e-7, 1e-7)])),
            Outcome(2, "c", RAISED, 0.5, detail="QuadratureAccuracyError"),
            Outcome(3, "d", REFUSED, 9.0, detail="over budget"),
            classify(Outcome(4, "e", OK, 3.0, [Check("moments_reference", 1e-12, 1e-7)])),
        ]

    def test_every_kind_of_failure_counts_against_attempts(self):
        tal = tally(self._trace(), known_wrong={"gram_identity"})
        self.assertEqual(tal.attempted, 5)
        self.assertEqual(tal.failed, 3)
        self.assertEqual(tal.by_kind, {OK: 2, WRONG: 1, RAISED: 1, REFUSED: 1})
        self.assertAlmostEqual(tal.fail_ratio, 0.6)
        self.assertTrue(tal.correct)

    def test_failed_operations_have_no_latency_sample(self):
        tal = tally(self._trace(), known_wrong=set())
        self.assertEqual(sorted(tal.ok_latencies), [1.0, 3.0])
        metrics = latency_metrics(tal, timed_seconds=15.5)
        self.assertAlmostEqual(metrics["ops_per_s"], 2 / 15.5)
        self.assertEqual(metrics["op_p50_s"], 2.0)

    def test_latency_stand_ins_when_too_few_operations_completed(self):
        few = latency_metrics(tally(self._trace(), known_wrong=set()), timed_seconds=15.5)
        self.assertEqual((few["op_tail_s"], few["op_tail_percentile"]), (3.0, 100.0))
        none = latency_metrics(tally([Outcome(0, "a", RAISED, 2.0)], set()), timed_seconds=2.0)
        self.assertEqual((none["ops_per_s"], none["op_p50_s"], none["op_tail_s"]), (0.0, 2.0, 2.0))

    def test_unlisted_wrong_output_or_crash_makes_the_run_incorrect(self):
        self.assertFalse(tally(self._trace(), known_wrong=set()).correct)
        crash = Outcome(5, "f", RAISED, 0.1, detail="TypeError", documented=False)
        self.assertFalse(tally(self._trace() + [crash], known_wrong={"gram_identity"}).correct)

    def test_refused_operation_keeps_the_checks_of_what_it_computed(self):
        refused = Outcome(5, "f", REFUSED, 9.0, [Check("gram_identity", 5e-7, 1e-7)])
        tal = tally([refused], known_wrong={"gram_identity"})
        self.assertEqual((tal.failed, tal.by_kind), (1, {REFUSED: 1}))
        self.assertTrue(tal.correct)
        self.assertAlmostEqual(tal.margin, math.log10(1e-7 / 5e-7))
        self.assertFalse(tally([refused], known_wrong=set()).correct)

    def test_margin_is_the_worst_numeric_check(self):
        tal = tally(self._trace(), known_wrong=set())
        self.assertAlmostEqual(tal.margin, math.log10(1e-7 / 5e-7))
        self.assertEqual(Check("exact", 0.0, 1e-7).margin, 16.0)
        self.assertIsNone(Check("exact", 0, None).margin)


def passes() -> bool:
    suite = unittest.defaultTestLoader.loadTestsFromModule(__import__(__name__))
    return unittest.TextTestRunner(stream=io.StringIO(), verbosity=0).run(suite).wasSuccessful()


if __name__ == "__main__":
    unittest.main()
