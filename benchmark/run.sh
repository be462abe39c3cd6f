#!/usr/bin/env bash
# Builds the benchmark (release) and runs it from the repo root. Every
# argument goes to the binary:
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S | --duration-s S]
#                    [--trace [0|1]] [--out DIR]
#
# Without --workload all five workloads run; without --trace each runs
# untraced, then traced. Every metric is printed by name with its unit and
# sample count, and everything is written to <out>/results.json (default
# $CARGO_TARGET_DIR/benchmark, or target/benchmark). With both --workload
# and --trace, the last line of stdout is the one-run result object.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
# The revision is recorded in results.json; a checkout without .git has none.
rev=unknown
if [ -e .git ]; then
    rev=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$CARGO_TARGET_DIR/release/aplus-benchmark" --rev "$rev" "$@"
