#!/usr/bin/env python3
"""Exit-code contract tests for the repo's CI gate scripts.

The gate scripts distinguish "regression" (exit 1) from "shape error —
your inputs or goldens are stale" (exit 2), and CI wiring depends on that
distinction (a shape error demands a golden regen, not a revert). This
runner drives each script against the fixtures/ files and asserts the
documented exit code and a recognizable stderr/stdout marker for every
path. Registered in ctest as `scripts_test` (see tests/CMakeLists.txt).

Usage: run_scripts_test.py [repo_root]
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.realpath(
    sys.argv[1] if len(sys.argv) > 1
    else os.path.join(os.path.dirname(__file__), "..", ".."))
SCRIPTS = os.path.join(ROOT, "scripts")
FIXTURES = os.path.join(ROOT, "tests", "scripts_test", "fixtures")

failures = []


def fx(name):
    return os.path.join(FIXTURES, name)


def check(label, argv, want_exit, want_text=None):
    res = subprocess.run([sys.executable] + argv, capture_output=True,
                         text=True, cwd=ROOT)
    blob = res.stdout + res.stderr
    if res.returncode != want_exit:
        failures.append(
            f"{label}: exit {res.returncode}, wanted {want_exit}\n{blob}")
    elif want_text is not None and want_text not in blob:
        failures.append(
            f"{label}: output lacks marker {want_text!r}\n{blob}")
    else:
        print(f"ok: {label}")


def main():
    md = os.path.join(SCRIPTS, "metrics_diff.py")
    check("metrics_diff identical", [md, fx("metrics_golden.json"),
                                     fx("metrics_golden.json")], 0)
    check("metrics_diff within tolerance", [md, fx("metrics_golden.json"),
                                            fx("metrics_ok.json")], 0)
    check("metrics_diff cost regression",
          [md, fx("metrics_golden.json"), fx("metrics_regressed.json")], 1,
          "firmware.retransmissions")
    check("metrics_diff missing value key -> shape error",
          [md, fx("metrics_golden.json"), fx("metrics_missing_value.json")],
          2, "no 'value' key")
    check("metrics_diff stale golden -> shape error",
          [md, fx("metrics_golden.json"), fx("metrics_stale_golden.json")],
          2, "re-generate")

    pf = os.path.join(SCRIPTS, "perf_floor.py")
    check("perf_floor holds",
          [pf, fx("simcore_run_ok.json"), fx("simcore_floor.json")], 0,
          "perf smoke OK")
    check("perf_floor regression",
          [pf, fx("simcore_run_regressed.json"), fx("simcore_floor.json")],
          1, "events_per_sec")
    check("perf_floor unknown run key -> shape error",
          [pf, fx("simcore_run_unknown_key.json"), fx("simcore_floor.json")],
          2, "surprise_metric")

    vc = os.path.join(SCRIPTS, "validate_ci.py")
    check("validate_ci accepts clean workflow",
          [vc, fx("workflow_ok.yml")], 0, "OK")
    check("validate_ci rejects unpinned uses",
          [vc, fx("workflow_bad.yml")], 1, "unpinned action")
    check("validate_ci rejects moving-branch pin",
          [vc, fx("workflow_bad.yml")], 1, "moving branch")
    check("validate_ci rejects duplicate artifact names",
          [vc, fx("workflow_bad.yml")], 1, "duplicate artifact name")
    check("validate_ci validates the repo's real workflows", [vc], 0)

    # layer_profile over a canned `gprof -b` text: every charging rule has a
    # row whose share is a round number once the calibration kernel (and its
    # mislabelled callee's share) is left out.
    lp = os.path.join(SCRIPTS, "layer_profile.py")
    canned = [lp, "--from-gprof", fx("layer_profile_gprof.txt")]
    for row in ["| event queue | 25.0 % |",   # Scheduler members
                "| sim other | 5.0 % |",     # SlotPool<net::Packet>: own ns
                "| net | 15.0 % |",
                "| nic | 5.0 % |",
                "| firmware | 20.0 % |",     # + on_timer lambda, deque<...>
                "| mapper | 5.0 % |",        # OnDemandMapper split out
                "| kv | 10.0 % |",           # _Function_handler's 2nd arg
                "| membership | 5.0 % |",
                "| obs | 5.0 % |",           # operator<< parsed
                "| unattributed | 5.0 % |"]:  # kernel's arc removed
        check(f"layer_profile charges {row}", canned, 0, row)
    check("layer_profile states its limits", canned, 0,
          "layer shares only, not functions or seconds")
    check("layer_profile rejects a text with no flat profile",
          [lp, "--from-gprof", fx("metrics_ok.json")], 2, "no flat profile")

    # perf_digests over a stand-in perfbench: each case assembles a root
    # from a spec gating two workloads, a baseline, and a run.py stub that
    # writes the result files a results fixture describes.
    pd = os.path.join(SCRIPTS, "perf_digests.py")
    for label, baseline, results, want_exit, marker in [
        ("perf_digests every digest kept", "perf_digests_baseline.json",
         "perf_digests_results_same.json", 0, "every gated workload kept"),
        ("perf_digests names the workload that differs",
         "perf_digests_baseline.json",
         "perf_digests_results_beta_differs.json", 1, "changed on beta"),
        ("perf_digests result without sim_digest -> missing key",
         "perf_digests_baseline.json", "perf_digests_results_no_digest.json",
         2, "has no key sim_digest"),
        ("perf_digests run wrote no result -> missing file",
         "perf_digests_baseline.json", "perf_digests_results_no_beta.json",
         2, "missing file"),
        ("perf_digests baseline lacks a gated workload -> missing key",
         "perf_digests_baseline_no_beta.json",
         "perf_digests_results_same.json", 2,
         "has no key workloads.beta.seed42_sim_digest"),
    ]:
        with tempfile.TemporaryDirectory() as root:
            os.mkdir(os.path.join(root, "perfbench"))
            for src, dst in [("perf_digests_benchmark.json", "BENCHMARK.json"),
                             (baseline, "perfbench/baseline.json"),
                             (results, "perfbench/results.json"),
                             ("perf_digests_run_stub.py", "perfbench/run.py")]:
                shutil.copyfile(fx(src), os.path.join(root, dst))
            with open(os.path.join(root, "perfbench", "baseline.json")) as f:
                before = f.read()
            check(label, [pd, root], want_exit, marker)
            with open(os.path.join(root, "perfbench", "baseline.json")) as f:
                if f.read() != before:
                    failures.append(f"{label}: perf_digests wrote the "
                                    f"baseline")

    # Coverage ratchet logic, unit-level: check_floor() against synthetic
    # per-file stats (running gcov here would need an instrumented build).
    sys.path.insert(0, SCRIPTS)
    import coverage_summary  # noqa: E402
    import json
    stats = {"src/chaos/corruptor.cpp": (50, 100),
             "src/firmware/reliability.cpp": (90, 100)}
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as f:
        json.dump({"tolerance_pts": 1.0,
                   "dirs": {"src/chaos": 80.0, "src/firmware": 85.0}}, f)
        floor_path = f.name
    try:
        fails = coverage_summary.check_floor(stats, floor_path)
        if any("src/chaos" in v for v in fails):
            print("ok: coverage check_floor flags regression")
        else:
            failures.append(f"coverage check_floor missed the regression: "
                            f"{fails}")
        if any("src/firmware" in v for v in fails):
            failures.append("coverage check_floor flagged a held floor: "
                            f"{fails}")
        else:
            print("ok: coverage check_floor holds passing dir")
        missing = coverage_summary.check_floor(
            {"src/chaos/corruptor.cpp": (90, 100)}, floor_path)
        if any("no coverage data" in v for v in missing):
            print("ok: coverage check_floor flags missing dir")
        else:
            failures.append(f"coverage check_floor ignored a floored dir "
                            f"with no data: {missing}")
    finally:
        os.unlink(floor_path)

    if failures:
        print(f"\nscripts_test: {len(failures)} FAILURE(S)", file=sys.stderr)
        for msg in failures:
            print(f"--- {msg}", file=sys.stderr)
        return 1
    print("\nscripts_test: all exit-code contracts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
