#!/usr/bin/env python3
"""Stand-in for perfbench/run.py: writes the result file perfbench would,
holding what perfbench/results.json gives the workload, and writes none
when it gives nothing."""

import argparse
import json
from pathlib import Path

root = Path(__file__).resolve().parent.parent
ap = argparse.ArgumentParser()
ap.add_argument("--workload", required=True)
ap.add_argument("--seed", type=int, default=42)
ap.add_argument("--seconds", type=float)
args = ap.parse_args()
results = json.loads((root / "perfbench" / "results.json").read_text())
if args.workload in results:
    out = root / ".bench_build" / "out"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace0.json"
    path.write_text(json.dumps(results[args.workload]))
