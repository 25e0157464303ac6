"""Tests for the benchmark's percentile and span self-time helpers.

Run: python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import metrics  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = [10, 20, 30, 40]
        self.assertEqual(metrics.percentile(xs, 0), 10)
        self.assertEqual(metrics.percentile(xs, 100), 40)
        self.assertAlmostEqual(metrics.percentile(xs, 50), 25)
        self.assertAlmostEqual(metrics.percentile(xs, 90), 37)

    def test_order_does_not_matter(self):
        self.assertEqual(metrics.percentile([3, 1, 2], 50), 2)

    def test_single_value(self):
        self.assertEqual(metrics.percentile([7.5], 99), 7.5)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(metrics.tail_percentile(39))
        self.assertEqual(metrics.tail_percentile(40), 75.0)
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(199), 90.0)
        self.assertEqual(metrics.tail_percentile(200), 95.0)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(10000), 99.9)

    def test_timing_reports_p50_tail_and_count(self):
        t = metrics.timing([i / 1000 for i in range(1, 101)], scale=1e3)
        self.assertEqual(t["n"], 100)
        self.assertAlmostEqual(t["p50"], 50.5)
        self.assertEqual(t["tail_pct"], 90.0)
        self.assertAlmostEqual(t["tail"], 90.1)
        self.assertNotIn("tail", metrics.timing([1.0, 2.0]))

    def test_ratio_keeps_counts(self):
        self.assertEqual(metrics.ratio(3, 4), {"value": 0.75, "num": 3, "den": 4})
        self.assertEqual(metrics.ratio(5, 0)["value"], 0.0)

    def test_log2_histogram_interpolates_in_bucket(self):
        # 10 values in (2, 4], 10 in (4, 8].
        buckets = [0, 0, 10, 10] + [0] * 12
        self.assertAlmostEqual(metrics.log2_histogram_percentile(buckets, 0, 50), 4.0)
        self.assertAlmostEqual(metrics.log2_histogram_percentile(buckets, 0, 25), 3.0)
        self.assertAlmostEqual(metrics.log2_histogram_percentile(buckets, 0, 75), 6.0)
        self.assertEqual(metrics.log2_histogram_percentile([0] * 16, 0, 50), 0.0)


def span(i, parent, begin, end, name="x", **extra):
    return dict(id=i, parent=parent, begin=begin, end=end, name=name, **extra)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(metrics.self_times([span(1, 0, 0, 10)]), {1: 10})

    def test_nested_children_are_subtracted_once(self):
        spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 50),
            span(3, 2, 20, 30),  # grandchild: counts against 2, not 1
        ]
        self.assertEqual(metrics.self_times(spans), {1: 60, 2: 30, 3: 10})

    def test_overlapping_children_count_their_union(self):
        spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),  # overlaps 2 by 10
            span(4, 1, 80, 90),
        ]
        self.assertEqual(metrics.self_times(spans)[1], 100 - 50 - 10)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 10, 20), span(2, 1, 5, 15)]
        self.assertEqual(metrics.self_times(spans)[1], 5)

    def test_untracked_coverage_is_subtracted(self):
        spans = [span(1, 0, 0, 100, covered=30.0), span(2, 1, 60, 80)]
        self.assertEqual(metrics.self_times(spans)[1], 100 - 20 - 30)

    def test_self_time_never_negative(self):
        spans = [span(1, 0, 0, 10, covered=50.0)]
        self.assertEqual(metrics.self_times(spans)[1], 0.0)

    def test_trace_breakdown_attributes_engine_windows(self):
        doc = {
            "spans": [
                [1, 0, "measure", 0, 100, 0],
                [2, 1, "op", 0, 100, 0],
                [3, 2, "sim.run_until", 10, 90, 0],
            ],
            # kind, begin, end, busy (sum of shard slices), union, events
            "engine_spans": [["window", 20, 60, 50, 30, 100]],
        }
        b = metrics.trace_breakdown(doc)
        self.assertEqual(b["measured_us"], 100)
        self.assertEqual(b["unattributed_us"], 20)
        self.assertEqual(b["self_us"]["sim.run_until"], 40)
        self.assertEqual(b["self_us"]["sim.engine.window"], 10)
        self.assertEqual(b["self_us"]["sim.engine.shard"], 30)
        self.assertEqual(b["engine_span_us"], [40])


class ReferenceTimeTest(unittest.TestCase):
    def doc(self, cal_s):
        return {
            "ops": {"wall_s": [0.01, 0.01, 0.01, 0.01], "frames": [100] * 4},
            "cal_s": cal_s,
            "setups": [{"total_s": 0.5}],
            "peak_rss_bytes": 1e6,
            "attempted": 4,
            "failed": 0,
        }

    def test_calibration_at_reference_speed_keeps_wall_time(self):
        e = metrics.end_to_end(self.doc([metrics.CAL_REF_S] * 3))
        self.assertAlmostEqual(e["frames_per_s"]["value"], 10000)
        self.assertAlmostEqual(e["op_ms_mean"]["value"], 10)

    def test_slow_calibration_scales_times_down(self):
        cal = [metrics.CAL_REF_S * 1.5, metrics.CAL_REF_S * 2.5]  # mean 2x
        e = metrics.end_to_end(self.doc(cal))
        self.assertAlmostEqual(e["frames_per_s"]["value"], 20000)
        self.assertAlmostEqual(e["frames_per_s"]["wall_frames_per_s"], 10000)
        self.assertAlmostEqual(e["op_ms_mean"]["value"], 5)
        self.assertAlmostEqual(e["setup_s"]["value"], 0.5)


if __name__ == "__main__":
    unittest.main()
