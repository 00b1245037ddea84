#!/usr/bin/env bash
# Regenerates every table/figure of EXPERIMENTS.md into results/.
# Usage: scripts/run_all.sh [scale] [iters] [--threads N]
#   defaults: small 10, threads from MIXEN_THREADS / host parallelism.
# --threads pins the worker-lane count of every binary except `reorder`
# (pinned to 4 lanes, see below). Phase, kernel, lane-scaling and serving
# numbers come from the e2e harness under bench/ (DESIGN.md DR-7), not
# from here.
#
# Robustness contract: every result file is written to a .partial path and
# moved into place only after its producer exits cleanly, so an interrupted
# or failing run never leaves a half-written file that looks like a result.
# Leftover .partial files are removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."
SCALE="small"
ITERS="10"
THREADS=()
POS=0
while [ $# -gt 0 ]; do
  case "$1" in
    --threads)
      [ $# -ge 2 ] || { echo "error: --threads needs a value" >&2; exit 2; }
      THREADS=(--threads "$2"); shift 2 ;;
    *)
      case $POS in
        0) SCALE="$1" ;;
        1) ITERS="$1" ;;
        *) echo "error: unexpected argument '$1'" >&2; exit 2 ;;
      esac
      POS=$((POS + 1)); shift ;;
  esac
done
cargo build --release -p mixen-bench
mkdir -p results
trap 'rm -f results/*.partial' EXIT

# finish FILE...  — promotes .partial outputs after a clean producer exit.
finish() {
  local f
  for f in "$@"; do
    mv "${f}.partial" "$f"
  done
}

for b in table1 table2 table4 fig4 fig5 fig6 fig7 model_check ablation; do
  echo "=== $b ($SCALE) ==="
  txt="results/${b}_${SCALE}.txt"
  # ${THREADS[@]+...} keeps the empty-array expansion safe under `set -u`
  # on bash < 4.4.
  ./target/release/"$b" --scale "$SCALE" --iters "$ITERS" ${THREADS[@]+"${THREADS[@]}"} \
    | tee "${txt}.partial"
  finish "$txt"
done
# table3 also emits a machine-readable JSON sidecar.
echo "=== table3 ($SCALE) ==="
txt="results/table3_${SCALE}.txt"
json="results/table3_${SCALE}.json"
./target/release/table3 --scale "$SCALE" --iters "$ITERS" ${THREADS[@]+"${THREADS[@]}"} \
  --json "${json}.partial" | tee "${txt}.partial"
finish "$json" "$txt"
# Reordering shoot-out: every relabel policy over the uniform/skewed/
# web-like profiles, with simulated cache behaviour and measured PageRank
# time per policy (EXPERIMENTS.md "Reordering shoot-out"), at a pinned 4
# lanes so committed shoot-outs stay comparable across hosts.
echo "=== reorder ($SCALE) ==="
txt="results/reorder_${SCALE}.txt"
json="results/reorder_${SCALE}.json"
./target/release/reorder --scale "$SCALE" --iters "$ITERS" --threads 4 \
  --json "${json}.partial" | tee "${txt}.partial"
finish "$json" "$txt"
echo "all results written to results/"
