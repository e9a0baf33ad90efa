#!/usr/bin/env bash
# The one command: build the benchmark, run every workload in a fresh
# process, print one `workload metric value unit n` line per number and
# append each run's full report to a JSON-lines set for compare.py.
#
#   benchmark/run.sh [--seed S] [--workload W] [--runs N] [--vary-seed]
#                    [--trace] [--smoke] [--out FILE]
#
#   --runs N      N runs of every selected workload (default 1)
#   --vary-seed   run k uses seed S + k - 1 (the spread check of the
#                 contract wants ten seeds, not ten repeats)
#   --trace       the traced run (layer ladder) instead of the workloads;
#                 it does not depend on the workload, so it runs once per run
#   --smoke       every workload at 1/32 scale with full verification;
#                 timings are printed but NOT comparable with real runs
#   --out FILE    the set to write (default .bench_out/run-<seed>.jsonl)
set -euo pipefail
cd "$(dirname "$0")/.."

seed=11 runs=1 vary=0 trace=0 seconds=10 out="" smoke=""
workloads="reads_score reads_align reads_dup long_pair serve_mixed"
picked=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed=$2; shift 2 ;;
    --workload) picked="$picked $2"; shift 2 ;;
    --runs) runs=$2; shift 2 ;;
    --vary-seed) vary=1; shift ;;
    --trace) trace=1; shift ;;
    --smoke) seconds=0.3125 smoke=" (smoke: non-comparable)"; shift ;;
    --out) out=$2; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ -n "$picked" ]; then workloads=$picked; elif [ $trace = 1 ]; then workloads=reads_score; fi
[ -n "$out" ] || out=.bench_out/run-$seed.jsonl
mkdir -p "$(dirname "$out")"
: > "$out"

status=0
for k in $(seq 1 "$runs"); do
  for workload in $workloads; do
    s=$((seed + vary * (k - 1)))
    echo "== run $k/$runs: $workload, seed $s$smoke"
    lines=$(python3 benchmark/run.py --workload "$workload" --seed "$s" \
      --seconds "$seconds" --trace "$trace") || status=1
    grep -v '^#report \|^{' <<<"$lines" || true
    sed -n 's/^#report //p' <<<"$lines" >> "$out"
  done
done
echo "set written to $out"
exit $status
