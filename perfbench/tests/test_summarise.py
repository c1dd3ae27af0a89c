"""Tests of the span summariser: self time on synthetic nested spans.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
import summarise  # noqa: E402


def span(number, parent, name, start, end, thread=0, ident=0):
    return {"span": number, "parent": parent, "thread": thread, "name": name,
            "id": ident, "start_ns": start, "end_ns": end}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        spans = [span(0, -1, "engine.evaluate", 100, 350)]
        self.assertEqual(summarise.self_times(spans), {0: 250})

    def test_parent_excludes_children(self):
        # service.serialize [0, 1000) with two engine children covering
        # [100, 300) and [500, 900): self = 1000 - 200 - 400.
        spans = [
            span(0, -1, "service.serialize", 0, 1000),
            span(1, 0, "engine.evaluate", 100, 300),
            span(2, 0, "engine.evaluate", 500, 900),
        ]
        own = summarise.self_times(spans)
        self.assertEqual(own, {0: 400, 1: 200, 2: 400})

    def test_three_levels_only_subtract_direct_children(self):
        spans = [
            span(0, -1, "bench.frontier", 0, 1000),
            span(1, 0, "service.roundtrip", 100, 900),
            span(2, 1, "engine.evaluate", 200, 400),
        ]
        own = summarise.self_times(spans)
        self.assertEqual(own[0], 200)  # 1000 - 800
        self.assertEqual(own[1], 600)  # 800 - 200
        self.assertEqual(own[2], 200)
        # Self times partition the root interval.
        self.assertEqual(sum(own.values()), 1000)

    def test_overlapping_children_are_counted_once(self):
        spans = [
            span(0, -1, "explore.optimize", 0, 100),
            span(1, 0, "engine.a", 10, 60),
            span(2, 0, "engine.b", 40, 80),
            span(3, 0, "engine.c", 90, 150),  # clipped to the parent's end
        ]
        # Covered: [10, 80) + [90, 100) = 80.
        self.assertEqual(summarise.self_times(spans)[0], 20)

    def test_layers_sum_self_time_across_threads(self):
        spans = [
            span(0, -1, "service.roundtrip", 0, 2_000_000, thread=0),
            span(1, -1, "service.roundtrip", 0, 3_000_000, thread=1),
            span(2, 1, "engine.evaluate", 0, 1_000_000, thread=1),
        ]
        summary = summarise.summarise(spans)
        self.assertAlmostEqual(summary["layers_self_ms"]["service"], 4.0)
        self.assertAlmostEqual(summary["layers_self_ms"]["engine"], 1.0)
        self.assertEqual(summary["names"]["service.roundtrip"]["spans"], 2)
        self.assertEqual(summary["spans"], 3)

    def test_load_spans_reads_json_lines(self):
        spans = [span(0, -1, "sim.lane_case", 5, 9)]
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                         delete=False) as handle:
            for entry in spans:
                handle.write(json.dumps(entry) + "\n")
            handle.write("\n")
            path = handle.name
        try:
            self.assertEqual(summarise.load_spans(path), spans)
        finally:
            os.unlink(path)


if __name__ == "__main__":
    unittest.main()
