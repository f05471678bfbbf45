#!/usr/bin/env bash
# Runs the benchmark twice on the same code and fails unless every
# end-to-end metric of every workload agrees within its own bound.
#
#   benchmark/agree.sh [SEED] [OUT_DIR]
#
# Writes OUT_DIR/run_seed<SEED>_a.json and _b.json (default: seed 0 into
# benchmark/results/). Takes about 2 x 2 minutes.
set -euo pipefail
cd "$(dirname "$0")"
seed="${1:-0}"
out="${2:-results}"
mkdir -p "$out"
a="$out/run_seed${seed}_a.json"
b="$out/run_seed${seed}_b.json"

cargo build -q --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/ibsim-benchmark"

"$bin" run --seed "$seed" --out "$a"
"$bin" run --seed "$seed" --out "$b"
"$bin" compare "$a" "$b" --agree
