#!/usr/bin/env python3
"""Turns a benchmark trace into per-layer self time.

A trace is the JSON-lines file sealpaa_perfbench writes with --trace 1:
one span per line with "span", "parent", "thread", "name", "id",
"start_ns" and "end_ns".  A span's layer is the part of its name before
the first dot ("service", "engine", "analysis", "sim", "explore", and
"bench" for the benchmark's own glue).  A span's self time is its
duration minus the part of that interval its child spans cover; a
layer's self time is the sum over its spans.

Usage:
    python3 perfbench/summarise.py TRACE.jsonl [--report REPORT.json]

With --report (the JSON line sealpaa_perfbench printed), the tracing
overhead it measured is printed beside the estimate from span count x
span cost.
"""

import argparse
import json
import sys
from collections import defaultdict

LAYERS = ("service", "engine", "analysis", "sim", "explore")


def load_spans(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def covered_ns(intervals, start, end):
    """Length of the union of `intervals`, clipped to [start, end]."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Maps span number -> self time in ns."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append((span["start_ns"], span["end_ns"]))
    out = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        out[span["span"]] = (end - start) - covered_ns(
            children.get(span["span"], ()), start, end
        )
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def summarise(spans):
    """Per-layer and per-name self time (ms) and span counts."""
    own = self_times(spans)
    layers = defaultdict(float)
    names = defaultdict(lambda: [0, 0.0])
    for span in spans:
        ms = own[span["span"]] / 1e6
        layers[layer_of(span["name"])] += ms
        entry = names[span["name"]]
        entry[0] += 1
        entry[1] += ms
    return {
        "layers_self_ms": dict(layers),
        "names": {name: {"spans": c, "self_ms": ms} for name, (c, ms) in names.items()},
        "spans": len(spans),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace")
    parser.add_argument("--report")
    args = parser.parse_args(argv)
    summary = summarise(load_spans(args.trace))
    print(f"{summary['spans']} spans")
    print(f"{'layer':<10} {'self ms':>12}")
    for layer, ms in sorted(summary["layers_self_ms"].items()):
        print(f"{layer:<10} {ms:>12.3f}")
    print(f"\n{'span':<28} {'count':>8} {'self ms':>12}")
    for name, entry in sorted(summary["names"].items()):
        print(f"{name:<28} {entry['spans']:>8} {entry['self_ms']:>12.3f}")
    if args.report:
        with open(args.report, encoding="utf-8") as handle:
            report = json.load(handle)
        layer = report.get("per_layer", {})
        cost = layer.get("trace.span_cost_ns", {}).get("value")
        share = layer.get("trace.overhead_share", {}).get("value")
        if cost is not None:
            print(f"\ntracing cost: {summary['spans']} spans x {cost:.1f} ns = "
                  f"{summary['spans'] * cost / 1e6:.3f} ms")
        if share is not None:
            print(f"measured overhead (traced vs untraced half): {share:+.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
