#!/usr/bin/env python3
"""Stand-in for perfbench/run.py, used by the perf_digests and perf_pairs
cases: writes the result file perfbench would, holding what
perfbench/results.json gives the workload, and writes none when it gives
nothing. Like run.py it then prints one JSON line last and exits 1 when
that line says the run was not correct; `correct` (default true) and the
median of `run_ns` (default 1 s) come from the same entry."""

import argparse
import json
import statistics
import sys
from pathlib import Path

root = Path(__file__).resolve().parent.parent
ap = argparse.ArgumentParser()
ap.add_argument("--workload", required=True)
ap.add_argument("--seed", type=int, default=42)
ap.add_argument("--seconds", type=float)
args = ap.parse_args()
results = json.loads((root / "perfbench" / "results.json").read_text())
res = results.get(args.workload, {})
if args.workload in results:
    out = root / ".bench_build" / "out"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace0.json"
    path.write_text(json.dumps(res))
correct = res.get("correct", True)
run_s = statistics.median(res.get("run_ns", [1e9])) / 1e9
print(f"{args.workload}: stub report")
print(json.dumps({"correct": correct, "attempted": 3, "failed": 0,
                  "metrics": {"run_s": {"value": run_s, "unit": "s"}}}))
sys.exit(0 if correct else 1)
