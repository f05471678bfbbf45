#!/usr/bin/env bash
# Static checks, unit tests and a smoke run for the benchmark package.
# The root ci.sh does not know this package (it is its own workspace);
# run this after touching anything under benchmark/.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --offline --all-targets -- -D warnings

echo "==> cargo test"
cargo test -q --offline

echo "==> run --quick (one reduced pass per workload, correctness only)"
cargo run -q --release --offline -- run --quick

echo "==> trace --quick"
cargo run -q --release --offline -- trace --quick

echo "==> benchmark/check.sh: all green"
