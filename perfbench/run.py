#!/usr/bin/env python3
"""Run one workload of the repository benchmark and report it.

    python3 perfbench/run.py --workload kv-steady [--seed 42] [--seconds 10]
                             [--trace 0|1]

Builds perfbench/ (CMake, into .bench_build/perfbench) from the sources in
this checkout, runs the benchmark's self-test, then runs the workload for
--seconds and prints a report. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are
its per-layer metrics, read from the traced run's span file, whose per-layer
table is printed first.

Full results land in .bench_build/out/: <workload>-seed<N>-trace<T>.json
(host samples, simulated outcome, registry digest, build metadata) and, for
traced runs, <workload>-seed<N>.spans.json.

Exit status: 0 when the run is correct, 1 when a gate failed (the JSON line
is still printed), 2 when the benchmark could not be built or run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "out"
BINARY = BUILD_DIR / "perfbench"
DEFAULT_SEED = 42
# Workloads perfbench runs that BENCHMARK.json leaves out, and why.
UNGATED = {
    "kv-steady": "KV service at 100 k rps, 1e-3 drops: the small-message "
                 "packet hot path with mapper, membership, ec and chaos idle "
                 "(not in BENCHMARK.json: on a shared VM its run_s spread "
                 "over ten seeds reached 0.15-0.29, at the 0.25 bound)",
    "kv-linkkill": "kv-steady plus one trunk killed halfway through arrivals "
                   "(not in BENCHMARK.json: the as-shipped retry storm after "
                   "the kill makes its host time and memory vary with the "
                   "seed by more than any bound allows)",
}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then (re)build the benchmark binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            # Build chatter goes to stderr: stdout ends with the JSON line.
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if proc.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_binary(args, timeout):
    try:
        return subprocess.run([str(BINARY)] + args, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"perfbench {' '.join(args)} exceeded {timeout:.0f} s")


def print_layer_table(spans_path):
    spans = json.loads(spans_path.read_text())
    print(f"  per-layer ({spans['traced_repeats']} traced repeats, "
          f"{len(spans['spans'])} spans in {spans_path.name}):")
    print(f"    {'metric':36} {'value':>14} {'unit':8} moves")
    for m in spans["layers"]:
        print(f"    {m['name']:36} {m['value']:>14.6g} {m['unit']:8} "
              f"{m['moves']}")
    return {m["name"]: m["value"] for m in spans["layers"]}


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    whys.update(UNGATED)

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(whys))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    build()
    if run_binary(["--self-test"], 60) != 0:
        fail("self-test of the benchmark's derived metrics failed")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    result_path = OUT_DIR / f"{stem}-trace{args.trace}.json"
    spans_path = OUT_DIR / f"{stem}.spans.json"
    result_path.unlink(missing_ok=True)
    if args.trace:
        spans_path.unlink(missing_ok=True)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(result_path)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    print(f"{args.workload}: {whys[args.workload]}")
    sys.stdout.flush()
    # The first run in a checkout spends its time budget on the build.
    budget = RUN_TIMEOUT_S - min(time.monotonic() - started, 60)
    code = run_binary(cmd, budget)
    if not result_path.is_file():
        fail(f"perfbench exited with {code} and wrote no result")
    res = json.loads(result_path.read_text())
    res["nproc"] = os.cpu_count()
    res["commit"] = commit()
    result_path.write_text(json.dumps(res, indent=1) + "\n")

    build_info = res["build"]
    print(f"  build: {build_info['type']}, {build_info['compiler']}, "
          f"nproc={res['nproc']}, commit={res['commit']}")
    if not build_info["optimized"]:
        print("  WARNING: not an optimised build; host times are not "
              "comparable")
    print(f"  seeds: this run {args.seed}, default {DEFAULT_SEED}, "
          f"held out for checking claimed gains {res['held_out_seed']}")

    correct = code == 0 and res["correct"]
    if args.trace:
        if not spans_path.is_file():
            fail(f"perfbench exited with {code} and wrote no span file")
        layers = print_layer_table(spans_path)
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] not in layers:
                fail(f"per-layer metric {m['name']} missing from the run")
            metrics[m["name"]] = {"value": layers[m["name"]],
                                  "unit": m["unit"]}
    else:
        # Host times scaled to the reference kernel's nominal host speed
        # (perfbench/src/calibrate.hpp), as perfbench prints them.
        scale = res["reference_nominal_ns"] / statistics.median(
            res["reference_ns"])
        values = {
            "setup_s": statistics.median(res["setup_ns"]) / 1e9 * scale,
            "run_s": statistics.median(res["run_ns"]) / 1e9 * scale,
            "peak_rss_mb": statistics.median(res["peak_rss_kib"]) / 1024,
        }
        metrics = {}
        for m in spec["end_to_end"]:
            if m["name"] not in values:
                fail(f"end-to-end metric {m['name']} not measured")
            v = values[m["name"]]
            if v <= 0:
                correct = False
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(res["repeats"]),
                      "failed": int(res["failed_repeats"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
