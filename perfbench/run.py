#!/usr/bin/env python3
"""Repository benchmark: one command for serve_sweep, dse_bnb and eval_cold.

Run from the repository root:

    python3 perfbench/run.py --workload serve_sweep --seed 1 --seconds 20 --trace 0

It builds perfbench/ (a CMake package that compiles the sealpaa libraries
from src/) into .bench_build/, runs the workload in its own process, checks
that every output was correct, prints every metric by name with its unit,
writes the full report to .bench_build/reports/, and prints as its last
stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list (the layer ledger plus per-layer self
time from the span trace, see summarise.py).  `--workload all` runs the
three workloads in turn and prints one result line each.

Exit status: 0 when every operation was correct; 1 when some output was
wrong; 2 when the benchmark could not build or run (for example when src/
is missing), in which case no result line is printed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
OUT_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "sealpaa_perfbench"
WORKLOADS = ("serve_sweep", "dse_bnb", "eval_cold")
RUN_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # keep perfbench/ free of build droppings
sys.path.insert(0, str(BENCH_DIR))
import summarise  # noqa: E402  (sibling module)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark binary; logs to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT / 'src'} is missing; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "sealpaa_perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def source_identity():
    """Git commit when the tree is a git checkout, plus a hash of src/."""
    commit = "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, spec):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "reports").mkdir(exist_ok=True)
    trace_path = OUT_DIR / "reports" / f"{workload}-seed{seed}.trace.jsonl"
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--reference-dir", str(BENCH_DIR / "reference")]
    if trace:
        command += ["--trace-file", str(trace_path)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with status {done.returncode}")
    report = json.loads(lines[-1])

    commit, src_hash = source_identity()
    report["context"]["git_commit"] = commit
    report["context"]["src_sha256"] = src_hash

    if trace:
        summary = summarise.summarise(summarise.load_spans(trace_path))
        report["trace_summary"] = summary
        for layer in summarise.LAYERS:
            report["per_layer"][f"{layer}.self_ms"] = {
                "value": summary["layers_self_ms"].get(layer, 0.0),
                "unit": "ms",
            }

    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    missing = []
    for entry in spec[section]:
        measured = report[section].get(entry["name"])
        if measured is None:
            missing.append(entry["name"])
            continue
        metrics[entry["name"]] = {"value": measured["value"],
                                  "unit": entry["unit"]}
    if missing:
        fail(f"{workload} did not report: {', '.join(missing)}")

    name = f"{workload}-seed{seed}-trace{1 if trace else 0}.json"
    with open(OUT_DIR / "reports" / name, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)

    print(f"== {workload}  seed {seed}  {seconds} s  trace {int(trace)}")
    ctx = report["context"]
    print(f"   nproc {ctx['nproc']}  batch kernel {ctx['batch_kernel']}  "
          f"{ctx['compiler']} {ctx['build_type']}  commit {commit}  "
          f"src {src_hash}")
    print(f"   inputs {report['details'].get('inputs_hash')}  "
          f"attempted {report['attempted']}  failed {report['failed']}  "
          f"failed_share {report['failed'] / max(1, report['attempted']):.6f}")
    for failure in report["failures"]:
        print(f"   FAILED: {failure}")
    for group in ("workload_metrics", "end_to_end", "per_layer"):
        for metric, value in report[group].items():
            print(f"   {metric:<36} {value['value']:>16.6g} {value['unit']}")
    for key, value in report["details"].items():
        if not isinstance(value, (dict, list)):
            print(f"   {key:<36} {value}")
    print(f"   report {OUT_DIR / 'reports' / name}")

    correct = report["failed"] == 0 and report["attempted"] > 0
    result = {"correct": correct, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    return correct, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    started = time.monotonic()
    build()
    print(f"perfbench: build ready in {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    spec = benchmark_spec()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    for workload in workloads:
        correct, result = run_workload(workload, args.seed, args.seconds,
                                       bool(args.trace), spec)
        all_correct = all_correct and correct
        print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
