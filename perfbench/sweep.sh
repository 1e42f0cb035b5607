#!/usr/bin/env bash
# Timed runs of several seeds per workload, all into one result
# directory, for `perfbench compare`. Run from the repository root:
#
#   perfbench/sweep.sh OUT_DIR FIRST_SEED COUNT SECONDS [WORKLOAD...]
#
# With no workload named, every workload runs.
set -euo pipefail
if [ $# -lt 4 ]; then
  echo "usage: $0 OUT_DIR FIRST_SEED COUNT SECONDS [WORKLOAD...]" >&2
  exit 2
fi
out=$1 first=$2 count=$3 seconds=$4
shift 4
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(paper_flight massive_engine cluster_l2 byte_catalog)
fi
# Build once, then run the binary itself, so editing sources during a
# sweep cannot trigger a rebuild between runs.
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bench=${CARGO_TARGET_DIR:-perfbench/target}/release/basecache-perfbench
for w in "${workloads[@]}"; do
  for ((seed = first; seed < first + count; seed++)); do
    "$bench" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" |
      tail -n 1
  done
done
