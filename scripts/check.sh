#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

# Every crate's unit, integration and property tests, once: the suites
# the smoke sections below lean on (telemetry, cluster, executor,
# group_commit_model, thread_stress) all run here.
echo "==> cargo test --workspace"
cargo test -q --workspace

# The benchmark is a package of its own with path dependencies on
# crates/*: build it (only) so an API change that breaks it fails here.
echo "==> cargo build --release --offline --manifest-path benchmark/Cargo.toml"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

# Fault suite under three fixed seeds: sweep + crash-restart audits
# (violations, double grants, leaks must all be zero; see DESIGN.md §11).
echo "==> fault smoke (seeds 3 1117 90210)"
cargo run --release -q -p promises-bench --bin experiments -- --faults 3 1117 90210

# The E12 observability smoke: an instrumented fault sweep that fails if
# any required stage histogram (bus.deliver, pm.grant, pm.check, rm.txn)
# is empty or the trace-replay lifecycle audit finds an ordering
# violation (see DESIGN.md §12).
echo "==> observability smoke (seeds 2007 4711)"
cargo run --release -q -p promises-bench --bin experiments -- --obs 2007 4711

# The E13 fault/crash sweep under three fixed seeds: the scaling gate
# (>=2.5x at 4 shards vs 1) and the cross-shard guarantee audits
# (partial grants, double grants, oversells, leaks must all be zero; see
# DESIGN.md §13).
echo "==> cluster smoke (seeds 2007 31337 90210)"
cargo run --release -q -p promises-bench --bin experiments -- --cluster 2007 31337 90210

# The E19 gate under three fixed seeds: wall-clock scaling on real shard
# threads (>=4x at 8 shards vs 1, near-linear trend reported),
# group-commit amortization, and per-seed threaded stress sweeps at
# 0/10/20% fault rates with the lifecycle auditor at zero violations (see
# DESIGN.md §19). Merges the wall-clock `threads` section into
# BENCH_cluster.json next to the modeled-time E13 results and fails on
# any gate miss.
echo "==> threads smoke (seeds 2007 31337 90210)"
cargo run --release -q -p promises-bench --bin experiments -- --threads 2007 31337 90210

# Recovery suite: the E14 checkpoint/compaction benchmark (compacted
# recovery must be >=5x faster than full-history replay, with
# byte-identical state digests) and the crash/compact sweep under three
# fixed seeds (compaction killed before/after the journal swap must
# still recover the uncompacted reference digest; see DESIGN.md §14).
# Writes BENCH_recovery.json and fails on any digest mismatch or
# recovery-time regression.
echo "==> recovery smoke (seeds 2007 31337 90210)"
cargo run --release -q -p promises-bench --bin experiments -- --recovery 2007 31337 90210

# Lease suite: the E15 Zipf-skew benchmark (>=90% of hot-pool grants
# must be served coordinator-free from per-shard leases, with >=1.2x
# throughput uplift over ownership routing at 8 shards) plus the lease
# sweep under three fixed seeds (zero oversells, zero lease-sum
# violations, zero leaks, crash mid-rebalance must heal with matching
# state digests, and >=50% of grants must stay local; see DESIGN.md
# §15). Writes BENCH_leases.json and fails on any gate miss.
echo "==> lease smoke (seeds 2007 31337 90210)"
cargo run --release -q -p promises-bench --bin experiments -- --leases 2007 31337 90210

# Fail-over suite: the E16 replication sweep under three fixed seeds ×
# replication-fault rates 0/10/20%. Every shard leader is killed once
# mid-2PC and once mid-lease-rebalance and its warm follower promoted;
# the promoted replica must be byte-identical to the dead leader (and to
# a clean replay of its journal), with zero partial grants, double
# grants, oversells, lease violations, and leaks, lease sums healed back
# to the registered totals, and promotion MTTR bounded (see DESIGN.md
# §16). Writes BENCH_replication.json and fails on any gate miss.
echo "==> failover smoke (seeds 2007 31337 90210)"
cargo run --release -q -p promises-bench --bin experiments -- --failover 2007 31337 90210

# Doctor suite: the E17 health-plane confusion matrix under three fixed
# seeds × fault rates 0/10/20%. Each doctor sweep injects one known
# fault class with the anomaly watchdogs armed: delay faults must trip
# the SLO burn-rate monitor, a stranded mid-rebalance crash the
# lease-sum probe, a wedged follower and aging in-doubt holds their
# watchdogs — and every rate-0 run must be silent (zero false
# positives). Every trip must cut a JSON-parseable flight-recorder
# incident report (see DESIGN.md §17). Writes BENCH_doctor.json and
# fails on any missed detection, false positive, or invalid incident.
echo "==> doctor smoke (seeds 2007 31337 90210)"
cargo run --release -q -p promises-bench --bin experiments -- --doctor 2007 31337 90210

# Workload suite: the E18 production workload plane under three fixed
# seeds. The flash-sale scenario must meet its p99 SLO at the gated
# offered rate with degraded mode both engaging under overload and
# clearing after it; the travel-booking scenario must complete >=95% of
# three-leg bookings at 0/10/20% wire-fault rates with zero partial
# grants, double grants, oversells, and leaks; and the 6-failure-class x
# 2-scenario error-path matrix must have zero failing cells (see
# DESIGN.md §18). Writes BENCH_workloads.json and fails on any gate miss.
echo "==> workloads smoke (seeds 2007 31337 90210)"
cargo run --release -q -p promises-bench --bin experiments -- --workloads 2007 31337 90210

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "All checks passed."
