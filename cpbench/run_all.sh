#!/usr/bin/env bash
# Runs the four workloads untraced, then traced, and leaves result files and
# Chrome traces in an output directory (default cpbench/out).
#
#   cpbench/run_all.sh [--seed N] [--seconds S] [--smoke] [--out DIR]
#
# Run it from the root of the repo. `cpbench cmp DIR_A DIR_B` compares two
# such directories under the bounds of BENCHMARK.json.
set -euo pipefail

seed=1
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out=cpbench/out
smoke=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

export CPBENCH_COMMIT=${CPBENCH_COMMIT:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}
cargo build --release --offline --quiet --manifest-path cpbench/Cargo.toml
for trace in 0 1; do
  for workload in prefill_full chat_persistent serve_open serve_burst; do
    cargo run --release --offline --quiet --manifest-path cpbench/Cargo.toml -- \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
      --out "$out" "${smoke[@]}" | tail -n 1
  done
done
echo "results in $out" >&2
