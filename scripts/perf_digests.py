#!/usr/bin/env python3
"""Check that every gated perfbench workload still simulates the same run.

    python3 scripts/perf_digests.py [root]

For each workload BENCHMARK.json gates, runs `perfbench/run.py --workload W
--seed 42 --seconds 3` in `root` (default: this checkout) and compares the
`sim_digest` of the result file it writes, .bench_build/out/W-seed42-
trace0.json, with the workload's `seed42_sim_digest` in
perfbench/baseline.json. The digest is a function of the simulated run only,
so a change meant to alter host speed alone must keep every one of them.
perfbench/baseline.json is read, never written. Standard library only.

Exit status: 0 when every digest matches; 1 naming each workload whose
digest differs; 2 when a file or key is missing, a run wrote no result
file, or perfbench could not be built or run.
"""

import json
import subprocess
import sys
from pathlib import Path

SEED = 42
SECONDS = "3"


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


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1
                else Path(__file__).resolve().parent.parent).resolve()
    spec = load(root / "BENCHMARK.json")
    baseline_path = root / "perfbench" / "baseline.json"
    baseline = load(baseline_path)
    differ = []
    for w in lookup(spec, ["workloads"], "BENCHMARK.json"):
        name = lookup(w, ["name"], "a BENCHMARK.json workload")
        want = lookup(baseline, ["workloads", name, "seed42_sim_digest"],
                      str(baseline_path))
        sys.stdout.flush()
        run = subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"),
             "--workload", name, "--seed", str(SEED), "--seconds", SECONDS],
            cwd=root)
        # run.py exits 1 when one of its own gates failed but still writes
        # the result; anything else non-zero means there is no fresh one.
        if run.returncode not in (0, 1):
            fail(f"perfbench/run.py --workload {name} exited with "
                 f"{run.returncode}")
        result_path = (root / ".bench_build" / "out" /
                       f"{name}-seed{SEED}-trace0.json")
        got = lookup(load(result_path), ["sim_digest"], str(result_path))
        print(f"perf_digests: {name}: sim_digest {got}, baseline {want}: "
              f"{'same' if got == want else 'DIFFERS'}")
        if got != want:
            differ.append(name)
    if differ:
        print(f"perf_digests: the simulated run changed on "
              f"{', '.join(differ)}", file=sys.stderr)
        return 1
    print("perf_digests: every gated workload kept its baseline digest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
