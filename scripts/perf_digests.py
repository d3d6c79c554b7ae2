#!/usr/bin/env python3
"""The repository's performance gate, run on the benchmark's own workloads.

    python3 scripts/perf_digests.py [root]

For each workload BENCHMARK.json gates, runs `perfbench/run.py --workload W
--seed 42 --seconds 3` in `root` (default: this checkout) and checks three
things against perfbench/baseline.json:

  (a) the `sim_digest` of the result file the run writes,
      .bench_build/out/W-seed42-trace0.json, equals the workload's
      `seed42_sim_digest`. The digest is a function of the simulated run
      only, so a change meant to alter host speed alone must keep it;
  (b) perfbench's own gates pass: run.py exits 0 and reports
      `"correct": true`, so every repeat passed its audits and reproduced
      the first repeat's simulated outcome (the digest in (a) is the first
      repeat's);
  (c) the reported `run_s` is at most 2 x the workload's `run_s.median`.

`correct` and `run_s` are read from the JSON object run.py prints as the last
line of its standard output, so run_s is scaled by perfbench's reference
kernel exactly as the baseline's is. perfbench/baseline.json is read, never
written. Standard library only.

Exit status: 0 when every workload passes all three checks; 1 naming each
workload that fails one, with the numbers; 2 when a file or key is missing,
a run printed no JSON line or wrote no result file, or perfbench could not
be built or run.
"""

import json
import subprocess
import sys
from pathlib import Path

SEED = 42
SECONDS = "3"
RUN_S_FACTOR = 2


def fail(msg):
    print(f"perf_digests: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        fail(f"missing file {path}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not JSON: {e}")


def lookup(obj, keys, where):
    for k in keys:
        if not isinstance(obj, dict) or k not in obj:
            fail(f"{where} has no key {'.'.join(keys)}")
        obj = obj[k]
    return obj


def check(root, name, want, median):
    """Runs one workload; returns what it failed, one line per check."""
    sys.stdout.flush()
    run = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", name, "--seed", str(SEED), "--seconds", SECONDS],
        cwd=root, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    # run.py exits 1 when one of its own gates failed but still prints its
    # JSON line and writes the result; anything else non-zero means neither.
    if run.returncode not in (0, 1):
        fail(f"perfbench/run.py --workload {name} exited with "
             f"{run.returncode}")
    try:
        line = json.loads(run.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"perfbench/run.py --workload {name} did not end with a JSON "
             f"line")
    where = f"the JSON line of {name}"
    correct = lookup(line, ["correct"], where) is True and run.returncode == 0
    run_s = lookup(line, ["metrics", "run_s", "value"], where)
    result_path = (root / ".bench_build" / "out" /
                   f"{name}-seed{SEED}-trace0.json")
    got = lookup(load(result_path), ["sim_digest"], str(result_path))
    bound = RUN_S_FACTOR * median
    print(f"perf_digests: {name}: sim_digest {got}, baseline {want}: "
          f"{'same' if got == want else 'DIFFERS'}; correct: "
          f"{'true' if correct else 'FALSE'}; run_s {run_s:.3f} s, bound "
          f"{bound:.3f} s ({RUN_S_FACTOR} x baseline median {median:.3f} s)")
    failed = []
    if got != want:
        failed.append(f"the simulated run changed on {name}: sim_digest "
                      f"{got}, baseline {want}")
    if not correct:
        failed.append(f"perfbench's own gates failed on {name}: run.py "
                      f"exited {run.returncode}, correct "
                      f"{json.dumps(line['correct'])}")
    if run_s > bound:
        failed.append(f"run_s over its bound on {name}: {run_s:.3f} s > "
                      f"{bound:.3f} s")
    return failed


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1
                else Path(__file__).resolve().parent.parent).resolve()
    spec = load(root / "BENCHMARK.json")
    baseline_path = root / "perfbench" / "baseline.json"
    baseline = load(baseline_path)
    failed = []
    for w in lookup(spec, ["workloads"], "BENCHMARK.json"):
        name = lookup(w, ["name"], "a BENCHMARK.json workload")
        want = lookup(baseline, ["workloads", name, "seed42_sim_digest"],
                      str(baseline_path))
        median = lookup(baseline, ["workloads", name, "run_s", "median"],
                        str(baseline_path))
        failed += check(root, name, want, median)
    for msg in failed:
        print(f"perf_digests: {msg}", file=sys.stderr)
    if failed:
        return 1
    print("perf_digests: every gated workload kept its baseline digest, "
          "passed perfbench's gates and stayed within its run_s bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
