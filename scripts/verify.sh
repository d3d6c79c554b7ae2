#!/usr/bin/env bash
# Tier-1 verification: configure, build everything, run the full test suite,
# then check bench metrics against the committed golden runs.
# This is the exact command gate a change must pass before merging; CI's
# main job runs it as is (see .github/workflows/ci.yml).
#
# Optional stages:
#   --perf-smoke   run scripts/perf_digests.py, the performance gate CI's
#                  perf job runs: each gated perfbench workload runs for 3 s
#                  and must keep perfbench/baseline.json's simulated-run
#                  digest, pass perfbench's own gates, and report run_s
#                  within 2x the baseline median (docs/PERFORMANCE.md).
#   --sanitize     additionally build with -DSANFAULT_SANITIZE=address,undefined
#                  in build_asan/ and run the test suite under the sanitizers
#                  twice: first with leak detection off and UBSan halting on
#                  its first report (memory errors, CI's memory-errors job),
#                  then with LeakSanitizer (CI's asan+ubsan job).
#   --coverage     additionally build with -DSANFAULT_COVERAGE=ON in
#                  build_cov/, run the test suite there, print a per-file
#                  line-coverage summary, and enforce the per-directory
#                  coverage ratchet against bench/golden/coverage_floor.json
#                  (scripts/coverage_summary.py --check-floor).
set -euo pipefail
cd "$(dirname "$0")/.."

PERF_SMOKE=0
SANITIZE=0
COVERAGE=0
for arg in "$@"; do
  case "$arg" in
    --perf-smoke) PERF_SMOKE=1 ;;
    --sanitize) SANITIZE=1 ;;
    --coverage) COVERAGE=1 ;;
    *) echo "usage: $0 [--perf-smoke] [--sanitize] [--coverage]" >&2
       exit 2 ;;
  esac
done

# Docs gate (cheap, so it runs first): every markdown link and anchor must
# resolve and docs/ARCHITECTURE.md must cover every src/ module. Blocking.
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
# CI's gcc leg uploads the three files it writes as chaos-quick-metrics.
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

# Determinism battery: scripts/same_behaviour.sh runs every deterministic
# bench and example twice from this tree, the first time serially and the
# second at --jobs $(nproc), and byte-compares all 50 outputs. Each run is
# also a gate: it fails when any run exits nonzero, so the battery carries
#   * the corruption smoke (every corruption class converges; docs/CHAOS.md
#     "State corruption");
#   * the chaos campaign's invariants and the failover compare gate
#     (docs/ROUTING.md, EXPERIMENTS.md "Failover cost and TTFR");
#   * the membership sweep's detection bound and confirm-vs-local-threshold
#     race;
#   * the repair sweep's audits, token-bucket honesty and throttle-bounded
#     goodput dip (DESIGN.md §13);
#   * Figures 5-8, whose output must not depend on --jobs.
echo "--- determinism battery: scripts/same_behaviour.sh build build"
scripts/same_behaviour.sh build build

# Workflow static validation (actionlint stand-in; no-op without PyYAML).
python3 scripts/validate_ci.py

if [[ "$PERF_SMOKE" == 1 ]]; then
  echo "--- perf gate: gated perfbench workloads vs perfbench/baseline.json"
  python3 scripts/perf_digests.py
fi

if [[ "$SANITIZE" == 1 ]]; then
  echo "--- sanitizer build: -DSANFAULT_SANITIZE=address,undefined"
  cmake -B build_asan -S . -DSANFAULT_SANITIZE=address,undefined
  cmake --build build_asan -j"$(nproc)"
  # Memory errors first: the LeakSanitizer run below fails on suspended
  # coroutine frames until ROADMAP item 4 lands, which would hide an ASan
  # or UBSan report behind it.
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      ctest --test-dir build_asan --output-on-failure -j"$(nproc)"
  # lsan.supp covers the known detached sim::Process pump-loop frames (see
  # the file's header); any other leak still fails.
  LSAN_OPTIONS="suppressions=$PWD/scripts/lsan.supp" \
      ctest --test-dir build_asan --output-on-failure -j"$(nproc)"
fi

if [[ "$COVERAGE" == 1 ]]; then
  echo "--- coverage build: -DSANFAULT_COVERAGE=ON"
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
