#!/usr/bin/env bash
# Tier-1 verification: configure, build everything, run the full test suite,
# then check bench metrics against the committed golden runs.
# This is the exact command gate a change must pass before merging; CI's
# main job runs `verify.sh --quick` (see .github/workflows/ci.yml).
#
# Modes and optional stages:
#   --quick        CI-sized gate (~minutes): skips the chaos determinism
#                  double-run and validates the campaign with one pass.
#   --perf-smoke   run bench_simcore --quick and fail if any metric falls
#                  below bench/golden/simcore_floor.json (a >2x regression;
#                  see docs/PERFORMANCE.md for the floor's provenance and
#                  how to re-baseline it), then run each gated perfbench
#                  workload for 3 s and fail unless its simulated-run digest
#                  equals perfbench/baseline.json's (scripts/perf_digests.py).
#   --sanitize     additionally build with -DSANFAULT_SANITIZE=address,undefined
#                  in build_asan/ and run the test suite under the sanitizers.
#   --coverage     additionally build with -DSANFAULT_COVERAGE=ON in
#                  build_cov/, run the test suite there, print a per-file
#                  line-coverage summary, and enforce the per-directory
#                  coverage ratchet against bench/golden/coverage_floor.json
#                  (scripts/coverage_summary.py --check-floor).
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
PERF_SMOKE=0
SANITIZE=0
COVERAGE=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --perf-smoke) PERF_SMOKE=1 ;;
    --sanitize) SANITIZE=1 ;;
    --coverage) COVERAGE=1 ;;
    *) echo "usage: $0 [--quick] [--perf-smoke] [--sanitize] [--coverage]" >&2
       exit 2 ;;
  esac
done

# Docs gate (cheap, so it runs first): every markdown link and anchor must
# resolve and docs/ARCHITECTURE.md must cover every src/ module. Blocking
# in quick and full modes alike.
python3 scripts/check_docs.py

cmake -B build -S .
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

# Metrics regression gate: re-run the quick KV sweep and diff its counters
# against bench/golden/kv_quick_metrics.json (tolerance-based; see
# scripts/metrics_diff.py --help). Regenerate the golden after intentional
# protocol changes with:
#   ./build/bench/bench_kv_service --quick --metrics-json bench/golden/kv_quick_metrics.json
./build/bench/bench_kv_service --quick --metrics-json build/kv_quick_metrics.json >/dev/null
python3 scripts/metrics_diff.py bench/golden/kv_quick_metrics.json \
    build/kv_quick_metrics.json

# Chaos recovery gate: drive the quick fault campaign (docs/CHAOS.md) and
# diff its recovery counters against bench/golden/chaos_quick_metrics.json.
# The wider tolerance covers the chaos.*_ns timing counters, which shift
# more across toolchains than event counts do. Regenerate after intentional
# recovery-path changes with:
#   ./build/bench/bench_chaos --quick --metrics-json bench/golden/chaos_quick_metrics.json
echo "--- chaos gate: bench_chaos --quick vs bench/golden/chaos_quick_metrics.json"
./build/bench/bench_chaos --quick \
    --json build/chaos_quick.json \
    --metrics-json build/chaos_quick_metrics.json \
    --log build/chaos_quick_events.log >/dev/null
python3 scripts/metrics_diff.py --tolerance 0.5 \
    bench/golden/chaos_quick_metrics.json build/chaos_quick_metrics.json

# Corruption smoke (docs/CHAOS.md "State corruption"): one fixed-seed
# convergence cell per corruption class, run twice; the scrubber's repair
# path must replay byte-identically, and every class must converge. Cheap
# enough to block the quick gate too.
echo "--- corruption smoke: bench_chaos --corrupt-smoke double run"
./build/bench/bench_chaos --corrupt-smoke \
    --log build/corrupt_smoke_events.log >/dev/null
./build/bench/bench_chaos --corrupt-smoke \
    --log build/corrupt_smoke2_events.log >/dev/null
cmp build/corrupt_smoke_events.log build/corrupt_smoke2_events.log
echo "corruption smoke OK: all classes converged, double run bit-identical"

if [[ "$QUICK" == 0 ]]; then
  # Determinism contract: a second same-seed run must be bit-identical in
  # results, event log, and metrics (the property tests/chaos_test.cpp and
  # the chaos-smoke CI job also enforce).
  ./build/bench/bench_chaos --quick \
      --json build/chaos_quick2.json \
      --metrics-json build/chaos_quick2_metrics.json \
      --log build/chaos_quick2_events.log >/dev/null
  cmp build/chaos_quick.json build/chaos_quick2.json
  cmp build/chaos_quick_metrics.json build/chaos_quick2_metrics.json
  cmp build/chaos_quick_events.log build/chaos_quick2_events.log
  echo "chaos determinism OK: double run bit-identical"

  # Proactive-failover gate (docs/ROUTING.md, EXPERIMENTS.md "Failover cost
  # and TTFR"): every scenario runs as an on-demand/proactive pair; the
  # binary exits nonzero unless proactive median per-destination TTFR is
  # strictly lower on each link-kill cell (with promoted convergences
  # observed) and retransmission amplification regresses nowhere.
  echo "--- failover compare gate: bench_chaos --compare"
  ./build/bench/bench_chaos --compare --jobs "$(nproc)"
fi

# Membership gate: the SWIM sweep (docs/OBSERVABILITY.md membership.*) must
# confirm the killed host everywhere, hold the analytic detection bound, and
# win the confirm-vs-local-threshold race in every cell; the sweep exits
# nonzero otherwise. The detector is seeded-Rng + sim-time driven, so a
# second run — at a different --jobs — must produce byte-identical JSON.
echo "--- membership gate: bench_membership --quick determinism double run"
./build/bench/bench_membership --quick \
    --json build/membership_quick.json >/dev/null
./build/bench/bench_membership --quick --jobs 2 \
    --json build/membership_quick2.json >/dev/null
cmp build/membership_quick.json build/membership_quick2.json
echo "membership determinism OK: double run bit-identical"

# Repair gate (DESIGN.md §13, EXPERIMENTS.md "Repair bandwidth vs foreground
# goodput"): the striped host-kill sweep must reconstruct every stripe with
# clean audits, an honest token bucket, and a throttle-bounded goodput dip —
# the binary exits nonzero otherwise — and a second run must produce a
# byte-identical repair transcript and cell JSON.
echo "--- repair gate: bench_repair --quick determinism double run"
./build/bench/bench_repair --quick \
    --json build/repair_quick.json \
    --log build/repair_quick_events.log >/dev/null
./build/bench/bench_repair --quick \
    --json build/repair_quick2.json \
    --log build/repair_quick2_events.log >/dev/null
cmp build/repair_quick.json build/repair_quick2.json
cmp build/repair_quick_events.log build/repair_quick2_events.log
echo "repair determinism OK: double run bit-identical"

# Paper-figure gate (EXPERIMENTS.md Figures 5-8): each figure binary runs at
# its default size serially and on every core; bench/parallel_sweep.hpp
# promises byte-identical output for every --jobs N, so the two must match.
echo "--- figure gate: Figures 5-8 at --jobs 1 vs --jobs $(nproc)"
for fig in fig5_interval_noerrors fig6_interval_errors fig7_queue_noerrors \
           fig8_queue_errors; do
  ./build/bench/bench_$fig --jobs 1 >"build/${fig}_jobs1.txt"
  ./build/bench/bench_$fig --jobs "$(nproc)" >"build/${fig}_jobsn.txt"
  cmp "build/${fig}_jobs1.txt" "build/${fig}_jobsn.txt"
done
echo "figure determinism OK: serial and parallel runs bit-identical"

# Workflow static validation (actionlint stand-in; no-op without PyYAML).
python3 scripts/validate_ci.py

if [[ "$PERF_SMOKE" == 1 ]]; then
  echo "--- perf smoke: bench_simcore --quick vs bench/golden/simcore_floor.json"
  ./build/bench/bench_simcore --quick --json build/simcore_quick.json
  python3 scripts/perf_floor.py build/simcore_quick.json \
      bench/golden/simcore_floor.json
  echo "--- perf digests: gated perfbench workloads vs perfbench/baseline.json"
  python3 scripts/perf_digests.py
fi

if [[ "$SANITIZE" == 1 ]]; then
  echo "--- sanitizer build: -DSANFAULT_SANITIZE=address,undefined"
  cmake -B build_asan -S . -DSANFAULT_SANITIZE=address,undefined
  cmake --build build_asan -j"$(nproc)"
  # lsan.supp covers the known detached sim::Process pump-loop frames (see
  # the file's header); any other leak still fails.
  LSAN_OPTIONS="suppressions=$PWD/scripts/lsan.supp" \
      ctest --test-dir build_asan --output-on-failure -j"$(nproc)"
fi

if [[ "$COVERAGE" == 1 ]]; then
  echo "--- coverage build: -DSANFAULT_COVERAGE=ON (advisory)"
  cmake -B build_cov -S . -DSANFAULT_COVERAGE=ON
  cmake --build build_cov -j"$(nproc)"
  # Stale .gcda from a previous run would double-count; drop them first.
  find build_cov -name '*.gcda' -delete
  ctest --test-dir build_cov --output-on-failure -j"$(nproc)"
  if command -v gcovr >/dev/null 2>&1; then
    gcovr --root . --filter 'src/' build_cov \
        | tee build_cov/coverage_summary.txt
  fi
  # Ratchet: per-directory line coverage must hold the committed floor
  # (bench/golden/coverage_floor.json). Re-baseline after adding tests with
  #   python3 scripts/coverage_summary.py build_cov --root . \
  #       --write-floor bench/golden/coverage_floor.json
  python3 scripts/coverage_summary.py build_cov --root . \
      --output build_cov/coverage_summary.txt \
      --check-floor bench/golden/coverage_floor.json
fi

cat <<'EOF'

verify: OK

Reading bench JSON: every bench binary exports its obs registry when
SANFAULT_METRICS_JSON=<file> is set (SANFAULT_TRACE=<capacity> adds the
packet-lifecycle trace ring); bench_kv_service and bench_chaos also take
--metrics-json <file> for per-cell dumps, and bench_chaos --log <file>
writes the deterministic campaign event log. Metric names, units, and
increment semantics are documented in docs/OBSERVABILITY.md; compare two
runs with scripts/metrics_diff.py.
EOF
