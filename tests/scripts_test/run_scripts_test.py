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
    """Runs one script; `want_text` is a marker or a list of markers.
    Returns the run's standard output."""
    res = subprocess.run([sys.executable] + argv, capture_output=True,
                         text=True, cwd=ROOT)
    blob = res.stdout + res.stderr
    markers = want_text if isinstance(want_text, list) else [want_text]
    missing = [m for m in markers if m is not None and m not in blob]
    if res.returncode != want_exit:
        failures.append(
            f"{label}: exit {res.returncode}, wanted {want_exit}\n{blob}")
    elif missing:
        failures.append(
            f"{label}: output lacks marker {missing[0]!r}\n{blob}")
    else:
        print(f"ok: {label}")
    return res.stdout


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

    # layer_profile over canned named PC samples (its saved form): every
    # charging rule has a row whose share is a round number once the
    # calibration kernel, with the heap it alone instantiates, is left out.
    lp = os.path.join(SCRIPTS, "layer_profile.py")
    sampled = [lp, "--from-samples", fx("layer_profile_samples.txt")]
    for row in ["| event queue | 20.0 % |",  # Scheduler + BucketRing
                "| sim other | 5.0 % |",     # SlotPool<net::Packet>: own ns
                "| net | 10.0 % |",
                "| nic | 5.0 % |",
                "| firmware | 15.0 % |",     # + on_timer lambda, deque<...>
                "| mapper | 5.0 % |",        # OnDemandMapper split out
                "| vmmc | 5.0 % |",
                "| kv | 10.0 % |",           # _Function_handler's 2nd arg
                "| membership | 5.0 % |",
                "| traffic | 2.0 % |",
                "| chaos | 3.0 % |",
                "| ec | 2.0 % |",
                "| obs | 2.0 % |",           # operator<< parsed
                "| libc | 6.0 % |",          # two libc symbols, one row
                "| libm | 2.0 % |",
                "| libstdc++ | 1.0 % |",
                "| unattributed | 2.0 % |"]:  # frame_dummy, unnamed PCs
        check(f"layer_profile charges {row}", sampled, 0, row)
    check("layer_profile counts samples, the kernel's and dropped ones",
          sampled, 0, "2300 PC samples every 100 us (0.23 s), 300 of them "
          "perfbench's calibration kernel, 3 dropped")
    check("layer_profile states what a sample is charged to", sampled, 0,
          "a shared library to its own row")
    check("layer_profile --top lists the heaviest functions",
          sampled + ["--top", "2"], 0,
          ["| `sanfault::sim::Scheduler::step` | 15.0 % |",
           "| `sanfault::net::Fabric::step` | 10.0 % |"])
    check("layer_profile rejects a file that is not named samples",
          [lp, "--from-samples", fx("metrics_ok.json")], 2,
          "not a named-samples file")

    # perf_digests over a stand-in perfbench: each case assembles a root
    # from a spec gating two workloads, a baseline, and a run.py stub that
    # writes the result files a results fixture describes and prints the
    # JSON line run.py would (correct, run_s) last.
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
        ("perf_digests failed perfbench gate with the same digest",
         "perf_digests_baseline.json",
         "perf_digests_results_beta_incorrect.json", 1,
         "perfbench's own gates failed on beta: run.py exited 1"),
        ("perf_digests names the workload over its run_s bound",
         "perf_digests_baseline.json", "perf_digests_results_beta_slow.json",
         1, "run_s over its bound on beta: 3.000 s > 2.000 s"),
        ("perf_digests baseline without run_s.median -> missing key",
         "perf_digests_baseline_no_run_s.json",
         "perf_digests_results_same.json", 2,
         "has no key workloads.beta.run_s.median"),
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

    # perf_pairs over two stand-in checkouts: each root holds the same run.py
    # stub as above and a results fixture for its side; every pair of a side
    # reads the same values, so the parent's interquartile range is 0.
    pp = os.path.join(SCRIPTS, "perf_pairs.py")
    for label, change, want_exit, markers in [
        ("perf_pairs claims a gain on run_s and none on a tie",
         "perf_pairs_change_faster.json", 0,
         ["| run_s (scaled) | 0.64 (0.64-0.64) | 0.512 (0.512-0.512) | gain: "
          "change lower in 3/3, median gap +0.128 against parent IQR 0 |",
          "| setup_s | 0.0128 (0.0128-0.0128) | 0.0128 (0.0128-0.0128) | "
          "no claim: change lower in 0/3",
          "| peak_rss_mb | 32 (32-32) | 32 (32-32) | no claim"]),
        ("perf_pairs reports raw CPU where the scale factor inverts run_s",
         "perf_pairs_change_inverted.json", 0,
         ["| run_s (raw CPU) | 1 (1-1) | 0.95 (0.95-0.95) | gain: change "
          "lower in 3/3",
          "| run_s (scaled) | 0.64 (0.64-0.64) | 0.76 (0.76-0.76) | loss: "
          "change lower in 0/3"]),
        ("perf_pairs fails when the two sides' digests differ",
         "perf_pairs_change_digest.json", 1,
         ["different sim_digests: aaaa, bbbb"]),
        ("perf_pairs fails when a run fails perfbench's gates",
         "perf_pairs_change_incorrect.json", 1,
         ["pair 1 change: perfbench's own gates failed (run.py exited 1)"]),
        ("perf_pairs result without reference_ns -> missing key",
         "perf_pairs_change_no_reference.json", 2,
         ["has no key reference_ns"]),
        ("perf_pairs change root without run.py -> missing file", None, 2,
         ["no perfbench/run.py under the change root"]),
    ]:
        with tempfile.TemporaryDirectory() as tmp:
            roots = {}
            for side, results in [("parent", "perf_pairs_parent.json"),
                                  ("change", change)]:
                roots[side] = os.path.join(tmp, side)
                os.makedirs(os.path.join(roots[side], "perfbench"))
                if results is None:
                    continue
                shutil.copyfile(fx(results), os.path.join(
                    roots[side], "perfbench", "results.json"))
                shutil.copyfile(fx("perf_digests_run_stub.py"), os.path.join(
                    roots[side], "perfbench", "run.py"))
            out = check(label, [pp, roots["parent"], roots["change"],
                                "--workload", "alpha", "--pairs", "3",
                                "--seconds", "1"], want_exit, markers)
            if want_exit != 0:
                continue
            order = [out.find("pair 1 parent:"), out.find("pair 1 change:"),
                     out.find("pair 2 change:"), out.find("pair 2 parent:")]
            if -1 in order or order != sorted(order):
                failures.append(f"{label}: pairs do not alternate which side "
                                f"runs first\n{out}")
            kept = os.path.join(roots["change"], ".bench_build", "pairs",
                                "alpha-seed42")
            want_kept = sorted(f"pair{i}-{side}.json" for i in (1, 2, 3)
                               for side in ("parent", "change"))
            if sorted(os.listdir(kept)) != want_kept:
                failures.append(f"{label}: kept {os.listdir(kept)}")
            for side in roots:
                listed = sorted(os.listdir(os.path.join(roots[side],
                                                        "perfbench")))
                if listed != ["results.json", "run.py"]:
                    failures.append(f"{label}: perf_pairs wrote under "
                                    f"{side}/perfbench: {listed}")
            print(f"ok: {label}: alternates, keeps every result, writes "
                  f"nothing under perfbench/")

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
