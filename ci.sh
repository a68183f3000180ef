#!/usr/bin/env bash
# Offline CI gate: build, test, lint, docs, format.
#
# Everything runs with --offline against the vendored shims in shims/
# (rand / proptest), so no network access is required.
#
# The clippy step enforces [workspace.lints] (root Cargo.toml) with
# -D warnings: no unsafe, no unwrap/expect/panic! in library code, no
# prints outside apex-cli/apex-bench, no process::exit outside apex-cli.
# The serving and recovery modules also deny indexing and unreachable!
# (each justified site carries an #[expect] with its invariant, and a
# stale one fails the step), and clippy.toml disallows bare Mutex::lock
# and Condvar waits, so every library lock goes through
# apex_storage::rank, whose rank checks run in every debug build. The
# other workspace invariants are tests: tests/source_rules.rs (only the
# page layer and the executor charge I/O cost; every crate takes the
# workspace lints), tests/roundtrip.rs's steady-state allocation test
# for the query kernels, and a compile_fail doctest that keeps buffer
# pools private to apex-storage. The rustdoc step fails on broken or
# private doc links.
#
# Six bench binaries double as smoke tests (kernels, planner, and
# fig13/fig14/fig15/table2 as path_smoke/qtype2_smoke: they assert their
# own guarantees; table2 that every APEX column survives a persist round
# trip with the same sizes and distinct extents), and table1/table2's
# counts and fig13–15's count columns are compared with golden files.
# The serving layers have no load harness here: net_smoke, shard_smoke,
# recovery_smoke and stress repeat their thread tests under a timeout,
# the refresh count laws run
# in `cargo test --workspace`, and serving load is measured by perf/
# (built and tested by perf_gate, which also serves one second of its
# solo-mixed workload, untraced and traced).

set -euo pipefail
cd "$(dirname "$0")"

STEP_NAMES=()
STEP_SECS=()

run() {
    echo "==> $*"
    local t0 t1
    t0=$SECONDS
    "$@"
    t1=$SECONDS
    STEP_NAMES+=("$1 ${2-}")
    STEP_SECS+=($((t1 - t0)))
}

# Curated pedantic subset on top of the default clippy set: leftover
# debugging and placeholder macros never belong in a green tree.
CLIPPY_EXTRA=(
    -W clippy::dbg_macro
    -W clippy::todo
    -W clippy::unimplemented
)

# The concurrency stress suite must pass deterministically, not just
# once: 20 consecutive release-mode runs under a hard timeout. A single
# flake (torn snapshot, unattributed buffer traffic, stuck refresher)
# fails the gate. The release runs compile the lock-rank checks out of
# the crates under test, so one debug-mode run first takes every lock
# with its rank checked.
stress() {
    timeout 60 cargo test --offline -p apex-suite --test concurrency_stress --quiet \
        || { echo "stress debug-mode run failed"; exit 1; }
    cargo test --release --offline -p apex-suite --test concurrency_stress --quiet
    for i in $(seq 1 20); do
        timeout 60 cargo test --release --offline -p apex-suite \
            --test concurrency_stress --quiet >/dev/null \
            || { echo "stress iteration $i failed"; exit 1; }
    done
    echo "stress: 20/20 iterations green"
}

# The kernel microbench doubles as a smoke test: it runs the three
# semijoin kernels over real dataset edge relations at end:extent ratios
# 1:1 … 1:10^4 and *asserts* (a) the adaptive picker stays within 1.5x
# of the best fixed kernel's work, and (b) the kernels over the stored
# 128-pair bit-packed frames beat the full-decode baseline on wall
# clock at every ratio >= 1:10 (within 5% at 1:1) with resident bytes
# <= 1/3 of the decoded Vec — a perf or size regression in the stored
# form fails CI here. Runs in a temp dir so its BENCH_kernels.json
# never lands in the tree.
kernel_smoke() {
    local out
    out=$(mktemp -d)
    (cd "$out" && "$OLDPWD/target/release/kernels")
    rm -rf "$out"
}

# The planner benchmark doubles as the cost-based-planning smoke test:
# it runs the same generated + stress-chain query mix under the planned
# and both fixed join orders on the three small families and *asserts*
# the planner's guarantee (planned ≤ 1.1x the best fixed order on every
# family, strictly cheaper on at least one). Runs in a temp dir so its
# BENCH_planner.json never lands in the tree.
plan_smoke() {
    local out
    out=$(mktemp -d)
    (cd "$out" && "$OLDPWD/target/release/planner")
    rm -rf "$out"
}

# Figure 14 doubles as the QTYPE2 smoke test: at default scale (about
# 1.5 s) it runs the generated //l_i//l_j queries of three datasets on
# the strong DataGuide, APEX0 and APEX(0.005) and *asserts* that all
# three return the same results count on every dataset, so a summary
# pruning that drops a live class, or a node frontier that loses an
# arrival, fails here. Runs in a temp dir so its BENCH_fig14.json never
# lands in the tree.
qtype2_smoke() {
    local out
    out=$(mktemp -d)
    (cd "$out" && "$OLDPWD/target/release/fig14")
    rm -rf "$out"
}

# Figures 13 and 15 double as the QTYPE1/QTYPE3 smoke test: at default
# scale (about 1.5 s together) they run the generated path and value
# queries of three datasets on every series and *assert* that all series
# return the same results count on every dataset (in Figure 15 the
# Fabric only where its keys were not truncated), so a node frontier
# that loses an arrival or a value test that drops a candidate fails
# here. Table 2 rides along (well under a second): it *asserts* that
# every APEX column reads back from `persist::save` → `persist::load`
# with the same IndexStats, distinct extents included, so a build or
# refine that stops sharing one extent per content fails here. Runs in
# a temp dir so the BENCH_{fig13,fig15,table2}.json never land in the
# tree.
path_smoke() {
    local out
    out=$(mktemp -d)
    (cd "$out" && "$OLDPWD/target/release/fig13" && "$OLDPWD/target/release/fig15" \
        && "$OLDPWD/target/release/table2")
    rm -rf "$out"
}

# A figure's stdout without its `wrote` line and its wall-clock column:
# `wall-ms` is the second-to-last field of each table row (and of the
# header, which ends in `buf-hit`), cut counting from the right because
# an index name such as `Fabric (truncated keys)` holds spaces.
figure_counts() {
    grep -v '^wrote ' \
        | sed -E '/(%|buf-hit)$/ s/[[:space:]]+[^[:space:]]+([[:space:]]+[^[:space:]]+)$/\1/'
}

# The paper's tables and figures are golden files: Table 1 at paper
# scale (about 2 s) and Table 2 at default scale (about 0.1 s) print
# only counts — dataset sizes, index nodes and edges, extent bytes —
# and Figures 13–15 at default scale (about 1 s each) print counts
# besides `wall-ms` — pages, index edges, join work, results, buffer
# hit rate — so all five are regenerated and compared exactly with
# results/golden/, the figures without `wall-ms`. A change that means
# to move a count copies the regenerated files over the golden ones
# (the failing step prints where they are) and says why in CHANGES.md.
# Runs in a temp dir so the BENCH_*.json never land in the tree.
golden() {
    local out f rc=0
    out=$(mktemp -d)
    (cd "$out" && "$OLDPWD/target/release/table1" --scale paper | grep -v '^wrote ' >table1_paper.txt \
        && "$OLDPWD/target/release/table2" | grep -v '^wrote ' >table2.txt \
        && "$OLDPWD/target/release/fig13" | figure_counts >fig13.txt \
        && "$OLDPWD/target/release/fig14" | figure_counts >fig14.txt \
        && "$OLDPWD/target/release/fig15" | figure_counts >fig15.txt)
    for f in table1_paper.txt table2.txt fig13.txt fig14.txt fig15.txt; do
        diff -u "results/golden/$f" "$out/$f" || rc=1
    done
    if [ "$rc" -ne 0 ]; then
        echo "golden: counts moved; the regenerated files are in $out"
        return 1
    fi
    rm -rf "$out"
}

# The crash-recovery suite is the durability gate: three fixed-seed
# byte-offset sweeps (270 distinct crash points across append /
# checkpoint / rename traffic) plus named-site kills, golden snapshot
# corruption, and crash-during-recovery re-entry. Release mode under a
# hard timeout — recovery that converges but crawls is also a failure.
# `roundtrip` holds the durable image's hostile-input sweep (every bit
# of a checkpoint flipped, every word overwritten: O(bytes × 8)
# decodes under a counting allocator) — a decoder that loops or
# allocates from a count it read trips the same timeout. The log's
# group commit hands its fsync to one appender while the others write
# on, so `core::wal`'s thread tests (ack ⇒ durable at N = 1, one fsync
# per batch and the 2N − 2 bound at N = 32, checkpoints racing leaders,
# an fsync death wedging every appender) must pass deterministically,
# like `net_smoke`'s loop: 10 consecutive release-mode runs, where a
# waiter nobody wakes trips the timeout.
recovery_smoke() {
    timeout 300 cargo test --release --offline -p apex-suite \
        --test crash_recovery --quiet
    timeout 120 cargo test --release --offline -p apex-suite \
        --test wal_props --quiet
    timeout 120 cargo test --release --offline -p apex-suite \
        --test roundtrip --quiet
    for i in $(seq 1 10); do
        timeout 120 cargo test --release --offline -p apex --lib --quiet \
            wal::tests::group_commit >/dev/null \
            || { echo "group-commit iteration $i failed"; exit 1; }
    done
    echo "recovery_smoke: crash sweeps + WAL frame properties + image sweep + 10/10 group-commit iterations green"
}

# The apex-net suites are the serving smoke test: the server's
# admission, overload-shed, client-deadline and drain tests assert the
# accounting invariant (accepted == served + shed + timed-out, queue
# high-water <= cap), the engine's test serves across refresher-published
# generations, and the durability suite checks log-before-ack while
# swaps land under live socket traffic. A request is served either on
# its connection's thread or by the pool, decided per frame, so they
# must pass deterministically, like `stress`: 10 consecutive
# release-mode runs under a hard timeout.
net_smoke() {
    for i in $(seq 1 10); do
        timeout 60 cargo test --release --offline -p apex-net --quiet >/dev/null \
            || { echo "apex-net iteration $i failed"; exit 1; }
    done
    echo "net_smoke: 10/10 apex-net iterations green"
}

# The shard suites are the sharded-serving smoke test: the router's
# rolling-swap test replaces every replica while closed-loop clients
# call through it and asserts the rollout invariant (every response Ok,
# balanced router + cluster ledgers, every retired replica ledgered);
# shard_consistency runs a 3x2 cluster under refreshers and concurrent
# clients (no mixed shard eras, exact cross-hop rollup). Both run
# threads against real sockets, so 10 consecutive release-mode runs
# under a hard timeout, like `net_smoke`.
shard_smoke() {
    for i in $(seq 1 10); do
        timeout 120 cargo test --release --offline -p apex-shard --quiet >/dev/null \
            || { echo "apex-shard iteration $i failed"; exit 1; }
        timeout 120 cargo test --release --offline -p apex-suite \
            --test shard_consistency --quiet >/dev/null \
            || { echo "shard_consistency iteration $i failed"; exit 1; }
    done
    echo "shard_smoke: 10/10 apex-shard + shard_consistency iterations green"
}

# perf/ (the BENCHMARK.json package) sits outside the workspace, so no
# step above or below compiles it: an API change in crates/* can break
# the benchmark while everything else stays green. Build it and run its
# own tests against the tree as it is (into perf/target, git-ignored).
# Then serve one second of solo-mixed: the only place CI runs QTYPE3 at
# scale (Ged03's pool through Engine::execute, a sample re-answered by
# the naive scan; the figure smoke tests use default scale). Then one
# traced second: the traced path replicates Engine::execute and a
# refresh step by step through the public API, and is the only caller
# of the statistics shims, so it has to run, not just compile. apex-perf
# exits non-zero on a wrong answer, an invalid run, or a traced metric
# that is set but not listed in BENCHMARK.json, failing the step.
perf_gate() {
    cargo build --release --offline --manifest-path perf/Cargo.toml
    cargo test --offline --manifest-path perf/Cargo.toml --quiet
    bash perf/run.sh --workload solo-mixed --seed 1 --seconds 1 --trace 0
    bash perf/run.sh --workload solo-mixed --seed 1 --seconds 1 --trace 1
}

# Rustdoc with warnings denied: a doc link to a deleted or private item,
# or one that names a function and a module at once, fails the gate.
docs() {
    RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
}

# Reporting only, never a gate: the non-test lines of each crate, the
# size a simplification is judged by. A file's non-test lines are those
# before its first `#[cfg(test)]` line, the rule
# tests/source_rules.rs::library_sources applies.
loc_report() {
    local src n total=0
    for src in crates/*/src; do
        n=$(find "$src" -name '*.rs' -exec awk '
            FNR == 1 { in_test = 0 }
            { line = $0; gsub(/^[ \t\r]+|[ \t\r]+$/, "", line) }
            line == "#[cfg(test)]" { in_test = 1 }
            !in_test { n++ }
            END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')
        printf '  %6d  %s\n' "$n" "${src%/src}"
        total=$((total + n))
    done
    printf '  %6d  total\n' "$total"
}

run loc_report
run cargo build --release --offline --workspace
run cargo test --offline --workspace --quiet
run perf_gate
run kernel_smoke
run plan_smoke
run qtype2_smoke
run path_smoke
run golden
run net_smoke
run shard_smoke
run recovery_smoke
run stress
run cargo clippy --offline --workspace --all-targets -- "${CLIPPY_EXTRA[@]}" -D warnings
run docs
run cargo fmt --check

echo
echo "step timing:"
for i in "${!STEP_NAMES[@]}"; do
    printf '  %4ss  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
done

echo "CI OK"
