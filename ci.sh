#!/usr/bin/env bash
# Local CI gate for the A+ Indexes workspace. Mirrors
# .github/workflows/ci.yml; run before pushing.
#
# Everything here must pass offline — the workspace has no registry
# dependencies (see vendor/ and the root Cargo.toml header).
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo
    echo "==> $*"
    "$@"
}

# One query driver, no planner knobs, no graph scan while planning, no
# removed server knob, one way to read an offset list, page-granular
# copy-on-write, no bitmap-index plumbing in the store, one benchmark
# track, one (factorized) engine: keeps the forks, env reads, per-query
# O(|E|) pass, per-request stream thread, whole-index / whole-column commit
# copies, duplicate bench reporters and the row pipeline with its engine
# knobs that were deleted from growing back.
# `./ci.sh guard` runs only this (the ci.yml step does).
guard() {
    echo
    echo "==> guard: one query driver, no planner/executor env knobs, no graph scan in the planner, one offset-list read path, pages and edge columns shared per page/chunk, no store bitmap indexes, one benchmark track, no profiled-collect twins, one factorized engine"
    local bad=0 f n=0
    if grep -n 'env::var' crates/query/src/{optimizer,plan,exec,block}.rs; then
        echo "guard: planning and execution must not read the environment"
        bad=1
    fi
    if grep -rnE 'APLUS_(TRAVERSAL|BLOCK_SIZE)' . \
        --exclude-dir=target --exclude-dir=.git --exclude-dir=.bench_build \
        --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md; then
        echo "guard: the traversal and block-size knobs were removed; do not reintroduce them"
        bad=1
    fi
    for f in crates/query/src/*.rs; do
        n=$((n + $(sed '/#\[cfg(test)\]/,$d' "$f" | grep -c 'match strategy(' || true)))
    done
    if ((n > 1)); then
        echo "guard: $n dispatches over Strategy in non-test crates/query/src (exec::run is the only one)"
        bad=1
    fi
    # Planning prices from the statistics the graph maintains on its write
    # path; a scan here would put |E| back into every request.
    if sed '/#\[cfg(test)\]/,$d' crates/query/src/optimizer.rs |
        grep -nE 'GraphStats::compute|graph\.edges\(\)|graph\.vertices\(\)'; then
        echo "guard: the optimizer must not scan the graph (read Graph's maintained statistics)"
        bad=1
    fi
    if grep -rn 'stream_buffer' . \
        --exclude-dir=target --exclude-dir=.git --exclude-dir=.bench_build \
        --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md --exclude=ci.sh; then
        echo "guard: ServerConfig::stream_buffer was removed (streams run on the connection thread)"
        bad=1
    fi
    # A secondary index has one read method returning one handle
    # (`OffsetList`); the lazy/materializing twins stay deleted.
    if grep -rnE 'clean_list|clean_range|LazyVpList|LazyEpList|fetch_pruned_lazy' \
        crates/*/src README.md docs; then
        echo "guard: the forked offset-list read path was removed (use list() -> OffsetList)"
        bad=1
    fi
    for f in crates/core/src/{vertex,edge}_partitioned.rs; do
        if (($(grep -cE 'pub fn list[<(]' "$f") > 1)); then
            echo "guard: $f must keep exactly one public read method"
            bad=1
        fi
    done
    if grep -rniE 'iterative-deepening|iddfs' README.md docs; then
        echo "guard: IDDFS was deleted (BFS is the one traversal); do not document it"
        bad=1
    fi
    # A commit copies the pages and chunks it dirties: index pages and
    # edge columns stay shared per page / per chunk, never as one block.
    if grep -rnE '^\s*(pub(\(crate\))? )?pages: Vec<(Page|OffsetPage|SharedPage)>' crates/core/src; then
        echo "guard: index pages must be Arc-shared (Vec<Arc<Page>>), so a write copies one page"
        bad=1
    fi
    if grep -nE '^\s*\w+: Arc<(Vec<(VertexId|EdgeLabelId)>|Bitmap)>' crates/graph/src/graph.rs; then
        echo "guard: edge columns are ChunkedVecs, so a write copies one chunk, not the column"
        bad=1
    fi
    if grep -nE 'create_bitmap_index|bitmap_indexes' crates/core/src/store.rs; then
        echo "guard: the store's bitmap-index plumbing was removed (the ablation builds BitmapIndex directly)"
        bad=1
    fi
    # crates/bench reproduces the paper's tables only; what lies beyond the
    # paper is measured by benchmark/ and checked by the differential tests.
    if grep -rnE 'BENCH_scaling|BENCH_net|bench_net|APLUS_THREAD_COUNTS|table7_scaling|profile_collect' . \
        --exclude-dir=target --exclude-dir=.git --exclude-dir=.bench_build \
        --exclude='*.md' --exclude=ci.sh; then
        echo "guard: the beyond-the-paper bench reporters and the profiled-collect twins were removed (use benchmark/, and profiled + run)"
        bad=1
    fi
    # Every plan runs on factorized blocks; the row-at-a-time pipeline and
    # the policy knobs that chose between the two engines stay deleted.
    if grep -rnE 'FlattenPolicy|BlockPolicy|DEFAULT_BLOCK_SIZE|with_flatten|use_block|block_morsel_size' \
        crates/*/src crates/*/tests src tests README.md docs ||
        grep -nE 'fn (run_op|execute)\(' crates/query/src/*.rs; then
        echo "guard: the row engine and its FlattenPolicy / BlockPolicy knobs were removed (every plan runs on blocks)"
        bad=1
    fi
    ((bad == 0)) || exit 1
    echo "    guard passed"
}
if [[ ${1:-} == guard ]]; then
    guard
    exit 0
fi

run cargo fmt --all --check
guard
# Lint baseline: the whole workspace (vendor stubs included) is clippy-clean
# with warnings promoted to errors. Keep it that way; allow specific lints
# inline with a justification instead of loosening this gate.
run cargo clippy --workspace --all-targets -- -D warnings
run cargo build --release
# Superset of the tier-1 `cargo test -q`: includes doctests (also the
# runnable examples embedded in docs/ARCHITECTURE.md + docs/PROTOCOL.md,
# included via include_str! in the root crate), the vendor stubs'
# self-tests, the aplus_server network integration tests (multi-client
# stress, writer-starvation regression, shell parity), the snapshot
# isolation suite (tests/snapshot_isolation.rs: streams overlapping
# RECONFIGURE rebuilds, readers never blocking writers), the durability
# fault-injection harness (tests/durability.rs: the commit crash-point
# matrix recovered bit-identically at pool sizes 1/2/4 plus the
# checkpoint scenarios; tests/durability_proptest.rs: torn/bit-flipped
# WAL tails; crates/server/tests/crash_recovery.rs: out-of-process
# kill -9 against the real aplus-server binary + clean nonzero exits on
# unusable/newer-format data directories), the observability suites
# (tests/observability.rs: monotone race-free counters at pool sizes
# 1/2/4, thread-count-invariant PROFILE merges, profiles distinguishing
# RECONFIGUREd layouts and reporting factorized work, storage metrics
# across a durable lifecycle; crates/server/tests/observability.rs: the
# metrics/profile wire verbs + 3-node replication lag gauges converging
# to 0; doctests in docs/OBSERVABILITY.md), and the docs link check
# (tests/docs_links.rs: dangling relative links/anchors in README.md +
# docs/*.md fail here, mirroring rustdoc's -D warnings gate for
# intra-doc links).
run cargo test --workspace -q
# The repo benchmark is a package of its own (benchmark/Cargo.toml), outside
# the workspace: compiling it and running its unit tests here makes a
# product API change that breaks benchmark/src/sut.rs fail this gate.
run cargo test --offline -q --manifest-path benchmark/Cargo.toml
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# Paper-table trajectory: bench_smoke writes a fresh tables II-IV run into
# target/bench-fresh and bench_compare diffs it against the committed
# BENCH_tables.json - count mismatches fail the gate (results changed),
# latency drift is informational. Everything beyond the paper is measured
# by benchmark/ (BENCHMARK.json) and its result invariants are checked by
# the differential tests above. To refresh the baseline intentionally, run
# bench_smoke *without* APLUS_BENCH_OUT (it then writes to the repo root)
# and commit the file.
run env APLUS_SCALE=20000 APLUS_BENCH_OUT=target/bench-fresh \
    cargo run --release -q -p aplus_bench --bin bench_smoke
run cargo run --release -q -p aplus_bench --bin bench_compare -- \
    BENCH_tables.json target/bench-fresh/BENCH_tables.json
# Metrics smoke, out of process: the released aplus-server binary must
# answer the shell's `metrics` command with live Prometheus series after
# a query (the in-process wire round-trip is asserted by
# crates/server/tests/observability.rs; this checks the shipped binaries
# wire the registry end to end).
echo
echo "==> metrics smoke: aplus-server <-> aplus-shell"
coproc SERVER { ./target/release/aplus-server 127.0.0.1:0 2>&1; }
server_addr=""
while IFS= read -r line <&"${SERVER[0]}"; do
    echo "    $line"
    if [[ $line =~ serving.*on\ (127\.0\.0\.1:[0-9]+) ]]; then
        server_addr="${BASH_REMATCH[1]}"
        break
    fi
done
[[ -n $server_addr ]] || { echo "metrics smoke: server never announced its address"; exit 1; }
metrics_out=$(printf 'count MATCH a-[r:W]->b\nmetrics\ncount MATCH a-[:W*1..3]->b\ncount MATCH a-[:W*1..100]->b\n' | ./target/release/aplus-shell "$server_addr" 2>/dev/null)
echo "quit" >&"${SERVER[1]}"
wait "$SERVER_PID" 2>/dev/null || true
for series in \
    'aplus_server_requests_total{verb="count"} 1' \
    'aplus_server_connections_total 1' \
    'aplus_engine_published_epoch 0' \
    'aplus_server_request_seconds_count{verb="count"} 1'; do
    if ! grep -qF "$series" <<<"$metrics_out"; then
        echo "metrics smoke: missing series: $series"
        echo "$metrics_out"
        exit 1
    fi
done
echo "    metrics smoke passed (4 series asserted)"
# Variable-length paths, out of process: the same shell session ran a
# Kleene-star count (20 account pairs within 3 wire hops on the Figure-1
# graph) and a hop-count past the cap, which must come back as a
# structured hop_cap_exceeded error — not a dropped connection.
if ! grep -qF '20 match(es)' <<<"$metrics_out"; then
    echo "var-length smoke: expected 20 match(es) for MATCH a-[:W*1..3]->b"
    echo "$metrics_out"
    exit 1
fi
if ! grep -qF '[hop_cap_exceeded] at byte 11' <<<"$metrics_out"; then
    echo "var-length smoke: expected a hop_cap_exceeded error for *1..100"
    echo "$metrics_out"
    exit 1
fi
echo "    var-length smoke passed (count + structured hop-cap error)"
echo
echo "CI gate passed."
