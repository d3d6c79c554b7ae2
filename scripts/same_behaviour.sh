#!/usr/bin/env bash
# Byte-compare the deterministic outputs of two builds of this repository.
#
#   scripts/same_behaviour.sh <build-a> <build-b>
#
# Each argument is a CMake build tree of this repository, for example one
# built from a parent commit and one from a change. The script runs the same
# battery of deterministic bench invocations from both trees and compares
# every output pair with cmp, each run's exit status included. Every run
# that takes --jobs runs serially from the first tree and on every core
# (--jobs $(nproc)) from the second, so the battery also proves
# bench/sweep.hpp's promise that --jobs never changes an output. A change that
# claims simulated behaviour is unchanged must pass it; given the same tree
# twice (as scripts/verify.sh does) it is the repository's determinism
# check.
#
# Exit status: 0 when every run exits 0 and every pair is identical; 1
# naming the first run that exits nonzero, or else the first output that
# differs, in battery order (both output sets are kept for diffing); 2 on
# bad usage or a missing bench binary.
#
# The battery, in order (every output is a function of simulated time and
# fixed seeds only; each run's nonzero exit is a failed gate):
#   bench_kv_service --quick                        metrics JSON
#   bench_chaos --quick                             JSON, metrics JSON, log
#   bench_chaos --corrupt-smoke                     event log (every class
#                                                   converges)
#   bench_chaos --soak 12345 --soak-cases 10        event log
#   bench_repair --quick                            JSON, metrics JSON, repair
#                                                   log (the only run of the
#                                                   striped class, repair and
#                                                   SWIM together)
#   bench_membership --quick                        JSON
#   bench_chaos --compare                           JSON (the failover gate;
#                                                   stdout names the JSON's
#                                                   path, so it is not
#                                                   compared)
#   bench_fig3_latency_breakdown, bench_fig4_latency_bandwidth,
#   bench_fig9_applications, bench_table3_mapping,
#   bench_ablation_mapping, bench_ablation_protocol stdout
#   bench_scale, bench_fig5..8                      stdout
#   examples: quickstart, storage_failover,
#   mapping_demo, kv_cluster, svm_cluster_compute   stdout
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-a> <build-b>" >&2
  exit 2
fi

STDOUT_BENCHES=(fig3_latency_breakdown fig4_latency_bandwidth
                fig9_applications table3_mapping ablation_mapping
                ablation_protocol)
SWEEPS=(scale fig5_interval_noerrors fig6_interval_errors fig7_queue_noerrors
        fig8_queue_errors)
EXAMPLES=(quickstart storage_failover mapping_demo kv_cluster
          svm_cluster_compute)

for build in "$1" "$2"; do
  for bin in bench/bench_{kv_service,chaos,repair,membership} \
             "${STDOUT_BENCHES[@]/#/bench/bench_}" \
             "${SWEEPS[@]/#/bench/bench_}" "${EXAMPLES[@]/#/examples/}"; do
    if [[ ! -x "$build/$bin" ]]; then
      echo "same_behaviour: $build/$bin is missing" >&2
      exit 2
    fi
  done
done

work=$(mktemp -d "${TMPDIR:-/tmp}/same_behaviour.XXXXXX")

# run <out-dir> <name> <stdout|-> <bench> [args...]: one battery entry. The
# exit status goes to <name>.exit and, given "stdout", stdout to
# <name>.stdout; stderr is kept beside the compared outputs, not compared.
# A nonzero exit ends the script.
run() {
  local dir=$1 name=$2 keep=$3
  shift 3
  local sink=/dev/null rc=0
  [[ $keep == stdout ]] && sink=$dir/$name.stdout
  "$@" >"$sink" 2>"$dir/../stderr/$name.txt" || rc=$?
  echo "$rc" >"$dir/$name.exit"
  if [[ $rc -ne 0 ]]; then
    echo "same_behaviour: FAIL: $name exited $rc" >&2
    echo "  $* (stderr: $dir/../stderr/$name.txt)" >&2
    exit 1
  fi
}

# battery <build> <out-dir> <jobs>: names carry a two-digit prefix so that
# sorted order is battery order.
battery() {
  local bin=$1/bench o=$2/out jobs=(--jobs "$3")
  mkdir -p "$o" "$2/stderr"
  run "$o" 01_kv_service - "$bin/bench_kv_service" --quick "${jobs[@]}" \
      --metrics-json "$o/01_kv_service.metrics.json"
  run "$o" 02_chaos_quick - "$bin/bench_chaos" --quick "${jobs[@]}" \
      --json "$o/02_chaos_quick.json" \
      --metrics-json "$o/02_chaos_quick.metrics.json" \
      --log "$o/02_chaos_quick.log"
  run "$o" 03_corrupt_smoke - "$bin/bench_chaos" --corrupt-smoke \
      "${jobs[@]}" --log "$o/03_corrupt_smoke.log"
  run "$o" 04_soak - "$bin/bench_chaos" --soak 12345 --soak-cases 10 \
      "${jobs[@]}" --log "$o/04_soak.log"
  run "$o" 05_repair - "$bin/bench_repair" --quick "${jobs[@]}" \
      --json "$o/05_repair.json" \
      --metrics-json "$o/05_repair.metrics.json" --log "$o/05_repair.log"
  run "$o" 06_membership - "$bin/bench_membership" --quick "${jobs[@]}" \
      --json "$o/06_membership.json"
  run "$o" 07_chaos_compare - "$bin/bench_chaos" --compare "${jobs[@]}" \
      --json "$o/07_chaos_compare.json"
  local i=8 b
  for b in "${STDOUT_BENCHES[@]}"; do
    run "$o" "$(printf %02d "$i")_$b" stdout "$bin/bench_$b"
    i=$((i + 1))
  done
  for b in "${SWEEPS[@]}"; do
    run "$o" "$(printf %02d "$i")_$b" stdout "$bin/bench_$b" "${jobs[@]}"
    i=$((i + 1))
  done
  for b in "${EXAMPLES[@]}"; do
    run "$o" "$(printf %02d "$i")_$b" stdout "$1/examples/$b"
    i=$((i + 1))
  done
}

echo "same_behaviour: running the battery from $1 at --jobs 1"
battery "$1" "$work/a" 1
echo "same_behaviour: running the battery from $2 at --jobs $(nproc)"
battery "$2" "$work/b" "$(nproc)"

compared=0
while read -r f; do
  if ! cmp -s "$work/a/out/$f" "$work/b/out/$f"; then
    echo "same_behaviour: FAIL: $f differs" >&2
    echo "  $work/a/out/$f" >&2
    echo "  $work/b/out/$f" >&2
    exit 1
  fi
  compared=$((compared + 1))
done < <( (ls "$work/a/out"; ls "$work/b/out") | sort -u)

echo "same_behaviour: OK: $compared outputs byte-identical"
rm -rf "$work"
