#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Every test TEST_INTENT.md names as a witness must exist: a rename or a
# deletion that forgets the intent file fails here, before anything builds.
echo "==> scripts/intent_names.sh (TEST_INTENT witnesses exist)"
scripts/intent_names.sh

# Every `path.rs:NN` ROADMAP.md, DESIGN.md and TEST_INTENT.md cite must
# name a source file at least NN lines long.
echo "==> scripts/cite_lines.sh (cited source lines exist)"
scripts/cite_lines.sh

# The single-node harnesses (fault, obs, doctor and restart sweeps) run on
# the cluster's ShardNode; a hand-built second promise node in the sim
# crate — its own gateway and handler copy — must not come back.
echo "==> crates/sim/src constructs no PromiseGateway"
if grep -rn 'PromiseGateway::new' crates/sim/src; then
    echo "crates/sim/src builds a PromiseGateway: host the pools on a ShardNode"
    exit 1
fi

# The promise path rejects or re-runs at once and never sleeps: a sleep in
# the manager is a backoff hiding a lock-order inversion (DESIGN.md §9).
echo "==> crates/core/src/manager.rs never sleeps"
if grep -n 'thread::sleep' crates/core/src/manager.rs; then
    echo "crates/core/src/manager.rs sleeps: the library path must not block"
    exit 1
fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

# Every crate's unit, integration and property tests, once: the suites
# the smoke sections below lean on (telemetry, cluster, executor,
# thread_stress) all run here.
echo "==> cargo test --workspace"
cargo test -q --workspace

# The benchmark is a package of its own with path dependencies on
# crates/*: build it so an API change that breaks it fails here, then run
# its three audit-heaviest workloads for two seconds each. Every run audits
# itself (promised <= stock, no double grant per (client, rid), digest
# pre-kill == post-restart, acked grants survive kills, live count drains;
# booking_cross, the one workload that runs 2PC: a refused booking left no
# hold, a granted one holds on 3 of 3 shards) and exits non-zero on
# `"correct": false`, so nothing is parsed here.
echo "==> cargo build --release --offline --manifest-path benchmark/Cargo.toml"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
# Its unit tests (slice selection, quartiles, the compare verdicts, the
# result-line parser, open/closed-loop accounting): the package is not a
# workspace member, so the workspace run above never reaches them. Its
# tests/smoke.rs is left out (ROADMAP item 1).
echo "==> cargo test --release --offline --manifest-path benchmark/Cargo.toml --bin benchmark"
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml --bin benchmark
# pm_table's resident footprint is a count too: heap bytes per preloaded
# promise, ≈ 467 since each record is held once behind an Arc and each
# journal line is stored at its exact size (≈ 493 when a line kept the
# slack of being grown by format! and pushes; 676 when the request index,
# every snapshot and the journal append each cloned the record or its
# strings). Keeping that slack again, or one more copy of each record's
# strings and predicates, goes past 490.
echo "==> benchmark --workload pm_table --seed 1 --seconds 2"
table=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload pm_table --seed 1 --seconds 2)
echo "$table"
resident=$(sed -n 's/.*"live_bytes_per_promise": {"value": \([0-9]*\).*/\1/p' <<<"$table")
if [ -z "$resident" ] || [ "$resident" -gt 490 ]; then
    echo "pm_table live_bytes_per_promise = ${resident:-missing} B, limit 490"
    exit 1
fi
# pm_table runs traced as well, for allocations per op, a count too: 91.7
# at seed 1 while the RM lock manager cloned a granule's strings up to
# three times per lock and the promise path formatted a sync-point name
# per pool, copied its predicates, footprint and demand map per attempt
# and packed a request key for each index lookup; ≈ 61 since an
# uncontended operation allocates what it keeps (the record, its journal
# line, its request-index key). A per-lock or per-pool copy creeping back
# goes past 70.
echo "==> benchmark --workload pm_table --seed 1 --seconds 2 --trace 1"
traced=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload pm_table --seed 1 --seconds 2 --trace 1)
echo "$traced"
allocs=$(sed -n 's/.*"alloc.count_per_op": {"value": \([0-9]*\).*/\1/p' <<<"$traced")
if [ -z "$allocs" ] || [ "$allocs" -gt 70 ]; then
    echo "pm_table alloc.count_per_op = ${allocs:-missing}, limit 70"
    exit 1
fi
# failover runs traced for the group-commit give-up count: replies a
# shard released with the follower still behind their batch. A healthy
# link never gives up, so it reads 0 (benchmark/README.md); a commit that
# skips the ship reads about 84 000 after two seconds.
echo "==> benchmark --workload failover --seed 1 --seconds 2 --trace 1"
traced=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload failover --seed 1 --seconds 2 --trace 1)
echo "$traced"
stalled=$(sed -n 's/.*"commit.stalled": {"value": \([0-9]*\).*/\1/p' <<<"$traced")
if [ "$stalled" != "0" ]; then
    echo "failover commit.stalled = ${stalled:-missing}, expected 0"
    exit 1
fi
# booking_cross runs traced, for the one per-layer row that is a count and
# not a timing: bytes allocated per booking. It is indexed by ops and
# repeats to within a few hundred bytes (325 KB while every property check
# copied its pool out of the RM, 160 KB while it cloned the pool's promise
# records, 141 KB while the matcher copied every slot's list into hashed
# tables, ≈ 115 KB while the codec built an element tree of owned strings
# for every envelope, ≈ 69 KB since it writes each envelope into one
# string and reads it in place; two seconds are enough for the row to be
# reported), so a copy of the pool, its records, the slots' lists or a
# per-element string in the codec creeping back fails here without a
# stopwatch.
echo "==> benchmark --workload booking_cross --seed 1 --seconds 2 --trace 1"
traced=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload booking_cross --seed 1 --seconds 2 --trace 1)
echo "$traced"
bytes=$(sed -n 's/.*"alloc.bytes_per_op": {"value": \([0-9]*\).*/\1/p' <<<"$traced")
if [ -z "$bytes" ] || [ "$bytes" -gt 76000 ]; then
    echo "booking_cross alloc.bytes_per_op = ${bytes:-missing} B, limit 76000"
    exit 1
fi
# order_local runs traced for the coordinator's dedup index size, also a
# count: 14 898 entries at steady state, the requests still inside their
# duration + grace. An index that stops evicting grows past the limit
# within the two seconds.
echo "==> benchmark --workload order_local --seed 1 --seconds 2 --trace 1"
traced=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload order_local --seed 1 --seconds 2 --trace 1)
echo "$traced"
entries=$(sed -n 's/.*"coord.dedup_len": {"value": \([0-9]*\).*/\1/p' <<<"$traced")
if [ -z "$entries" ] || [ "$entries" -gt 15000 ]; then
    echo "order_local coord.dedup_len = ${entries:-missing}, limit 15000"
    exit 1
fi

# The nine experiment gates, each under its built-in default seeds (the
# mode table in crates/bench/src/bin/experiments.rs documents what each
# one fails on; any unknown flag prints it and exits 2). Every mode writes
# only its own BENCH_<name> file and never reads another's.
#   faults     wire fault sweep + crash-restart audits            (DESIGN §11)
#   obs        E12 stage histograms, lifecycle audit, overhead    (§12) -> BENCH_obs
#   cluster    E13 modeled-time scaling + faulted 2PC sweep       (§13) -> BENCH_cluster
#   threads    E19 thread-per-shard scaling + stress sweep        (§19) -> BENCH_threads
#   recovery   E14 compacted vs full-history recovery             (§14) -> BENCH_recovery
#   leases     E15 lease locality + mid-rebalance-crash sweep     (§15) -> BENCH_leases
#   failover   E16 leader kills, follower promotion               (§16) -> BENCH_replication
#   doctor     E17 watchdog confusion matrix                      (§17) -> BENCH_doctor
#   workloads  E18 flash sale, travel booking, error-path matrix  (§18) -> BENCH_workloads
for mode in faults obs cluster threads recovery leases failover doctor workloads; do
    echo "==> experiments --$mode"
    cargo run --release -q -p promises-bench --bin experiments -- "--$mode"
done

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> scripts/loc.sh (non-test Rust lines per crate)"
scripts/loc.sh

echo "All checks passed."
