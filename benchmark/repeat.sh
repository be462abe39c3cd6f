#!/usr/bin/env bash
# Runs the whole suite twice on the same code and seed, then once more on
# another seed (the correctness checks must not be seed-specific), and
# prints, per (end-to-end metric, workload), how far the two same-seed passes
# are apart against the metric's bound in BENCHMARK.json. Fails when a pair
# is beyond its bound, when a count-type metric does not repeat exactly, or
# when any run is not correct. Extra arguments (e.g. --seconds 5) go to
# every pass.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
out="$CARGO_TARGET_DIR/benchmark"

benchmark/run.sh --seed 1 --out "$out/repeat-1" "$@"
benchmark/run.sh --seed 1 --out "$out/repeat-2" "$@"
benchmark/run.sh --seed 2 --out "$out/repeat-other-seed" "$@"
"$CARGO_TARGET_DIR/release/aplus-benchmark" compare \
    "$out/repeat-1/results.json" "$out/repeat-2/results.json"
