#!/usr/bin/env python3
"""Alternating perfbench pairs of a parent checkout and a change.

    scripts/perf_pairs.py PARENT_ROOT CHANGE_ROOT --workload W [--seed 42]
                          [--pairs 10] [--seconds 50]

Runs `perfbench/run.py --workload W --seed N --seconds S` in each checkout,
--pairs times each, one pair at a time. Pair 1 runs the parent first, pair 2
the change first, and so on, so a drift in the machine's speed falls on both
sides. Each run's result file (ROOT/.bench_build/out/W-seedN-trace0.json) is
copied to CHANGE_ROOT/.bench_build/pairs/W-seedN/ as pairI-parent.json and
pairI-change.json. Nothing is written under either checkout's perfbench/.
Run the script under `taskset -c CPU` to pin every run to one CPU.

Printed per run, and per side as the median with the quartiles: `setup_s`,
`run_s` and `peak_rss_mb` as run.py computes them (host times scaled by the
reference kernel's nominal over measured time), and `run_s` as raw CPU
seconds before that factor, because the factor can invert a small
difference. Then, per metric, the pairs in which the change was lower (ties
count for neither side) and the verdict of the rule docs/PERFORMANCE.md
("Claims") sets: a gain when the change is lower in at least nine tenths
of the pairs and the medians differ by more than the parent's
interquartile range; a loss by the same rule the other way; otherwise no
claim.

Exit status: 0 when every run was correct and printed the same sim_digest;
1 when a run failed perfbench's own gates or the digests differ (the runs
are still kept and summarised); 2 on a usage error, a missing checkout or
run.py, a run that could not be built or run, or a result file that lacks a
key. Standard library only.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# (label, how to read it from a result file); every metric is lower-better.
METRICS = [
    ("setup_s", lambda r: median_of(r, "setup_ns") / 1e9 * scale(r)),
    ("run_s (scaled)", lambda r: median_of(r, "run_ns") / 1e9 * scale(r)),
    ("run_s (raw CPU)", lambda r: median_of(r, "run_ns") / 1e9),
    ("peak_rss_mb", lambda r: median_of(r, "peak_rss_kib") / 1024),
]


def fail(msg):
    print(f"perf_pairs: {msg}", file=sys.stderr)
    sys.exit(2)


def key(result, name):
    if name not in result:
        fail(f"result file {result['_path']} has no key {name}")
    return result[name]


def median_of(result, name):
    values = key(result, name)
    if not isinstance(values, list) or not values:
        fail(f"result file {result['_path']} has no values under {name}")
    return statistics.median(values)


def scale(result):
    return key(result, "reference_nominal_ns") / median_of(result,
                                                           "reference_ns")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def run_once(root, side, args, pair, keep):
    """Runs run.py once in `root`; returns (result dict, run.py's exit)."""
    out = (root / ".bench_build" / "out" /
           f"{args.workload}-seed{args.seed}-trace0.json")
    out.unlink(missing_ok=True)
    sys.stdout.flush()
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds)], cwd=root, capture_output=True, text=True)
    # run.py exits 1 when one of its own gates failed but still writes the
    # result; anything else non-zero means it wrote none.
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr[-2000:])
        fail(f"{side} run.py --workload {args.workload} exited with "
             f"{proc.returncode}")
    kept = keep / f"pair{pair}-{side}.json"
    try:
        shutil.copyfile(out, kept)
        result = json.loads(kept.read_text())
    except FileNotFoundError:
        fail(f"{side} run wrote no result file {out}")
    except json.JSONDecodeError as e:
        fail(f"{out} is not JSON: {e}")
    result["_path"] = str(kept)
    return result, proc.returncode


def describe(result):
    return (f"setup_s {METRICS[0][1](result):.6f}, run_s "
            f"{METRICS[1][1](result):.4f} scaled / {METRICS[2][1](result):.4f}"
            f" CPU (scale {scale(result):.3f}), peak_rss_mb "
            f"{METRICS[3][1](result):.2f}, sim_digest "
            f"{key(result, 'sim_digest')}, repeats {key(result, 'repeats')} "
            f"({key(result, 'failed_repeats')} failed)")


def verdict(parent, change):
    """The rule's verdict on one metric's per-pair values."""
    n = len(parent)
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    q1, q3 = quartiles(parent)
    gap = statistics.median(parent) - statistics.median(change)
    iqr = q3 - q1
    if wins * 10 >= 9 * n and gap > iqr:
        text = "gain"
    elif losses * 10 >= 9 * n and -gap > iqr:
        text = "loss"
    else:
        text = "no claim"
    return (f"{text}: change lower in {wins}/{n}, median gap {gap:+.6g} "
            f"against parent IQR {iqr:.6g}")


def main():
    ap = argparse.ArgumentParser(
        description="Alternating perfbench pairs of a parent and a change.")
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50.0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            fail(f"no perfbench/run.py under the {side} root {root}")
    keep = (roots["change"] / ".bench_build" / "pairs" /
            f"{args.workload}-seed{args.seed}")
    keep.mkdir(parents=True, exist_ok=True)

    results = {side: [] for side in SIDES}
    problems = []
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 == 1 else SIDES[::-1]
        for side in order:
            result, code = run_once(roots[side], side, args, pair, keep)
            results[side].append(result)
            print(f"pair {pair} {side}: {describe(result)}")
            if code != 0 or key(result, "correct") is not True:
                problems.append(f"pair {pair} {side}: perfbench's own gates "
                                f"failed (run.py exited {code})")
    digests = sorted({key(r, "sim_digest") for side in SIDES
                      for r in results[side]})
    if len(digests) > 1:
        problems.append(f"the runs printed different sim_digests: "
                        f"{', '.join(digests)}")

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s; medians with quartiles; results in {keep}")
    print("| metric | parent | change | verdict |")
    print("|---|---:|---:|---|")
    for label, read in METRICS:
        cells = []
        values = {}
        for side in SIDES:
            values[side] = [read(r) for r in results[side]]
            q1, q3 = quartiles(values[side])
            cells.append(f"{statistics.median(values[side]):.6g} "
                         f"({q1:.6g}-{q3:.6g})")
        print(f"| {label} | {cells[0]} | {cells[1]} | "
              f"{verdict(values['parent'], values['change'])} |")
    for msg in problems:
        print(f"perf_pairs: {msg}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
