//! Threaded concurrency-stress suite for the thread-per-shard runtime.
//!
//! Real client threads drive an 8-shard cluster — real shard worker
//! threads, pipelined 2PC, group-commit journaling — across a wire-fault
//! sweep, and the post-run auditors must come back silent: the cluster
//! run report's always-zero columns (partial grants, double grants,
//! oversells, leaks) and the cross-shard lifecycle auditor's ordering
//! checks. This is the S4 stress leg; the per-race pin tests live in
//! `crates/cluster/tests/executor.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use promises_cluster::ClusterDecision;
use promises_faults::FaultScenario;
use promises_sim::{cluster_harness, run_cluster_fault_sweep, ClusterSweepConfig};

const HOUR_MS: u64 = 3_600_000;

fn stress_config(seed: u64) -> ClusterSweepConfig {
    ClusterSweepConfig {
        shards: 8,
        clients: 8,
        ops_per_client: 25,
        pools: 8,
        seed,
        ..ClusterSweepConfig::default()
    }
}

/// N client threads × 8 shards × fault-rate sweep: every cell of the
/// matrix must report clean guarantees and zero lifecycle violations.
#[test]
fn fault_sweep_matrix_is_clean_across_rates_and_seeds() {
    for seed in [11u64, 42] {
        for rate in [0.0, 0.1, 0.2] {
            let cfg = stress_config(seed);
            let scenario = FaultScenario::uniform(seed ^ 0x7157E55, rate);
            let (report, cluster) = run_cluster_fault_sweep(scenario, &cfg);
            let life = promises_telemetry::audit_cluster_lifecycles(
                &cluster.telemetry.spans(),
                &cluster.evidence(),
            );
            assert_eq!(
                report.tally.attempts,
                (cfg.clients * cfg.ops_per_client) as u64,
                "seed {seed} rate {rate}: every op must be attempted"
            );
            assert!(
                report.clean(),
                "seed {seed} rate {rate}: guarantees violated: {report:?}"
            );
            assert!(
                life.ok(),
                "seed {seed} rate {rate}: lifecycle violations: {:?}",
                life.all_violations()
            );
        }
    }
}

/// The same discipline with modeled service time, so messages queue at
/// every shard's one worker and each wake drains and commits a batch of
/// them. After the run: zero lifecycle violations, every journal's
/// durability watermark at its tip (no reply left with unflushed
/// records), and every queue drained.
#[test]
fn batching_shards_stay_clean_under_faulted_load() {
    let cfg = stress_config(2026);
    let scenario = FaultScenario::uniform(0xACE5, 0.1);
    let cluster = cluster_harness(scenario, &cfg);
    cluster.set_service_time_us(50);

    let granted = AtomicU64::new(0);
    std::thread::scope(|s| {
        for c in 0..cfg.clients {
            let coordinator = Arc::clone(&cluster.coordinator);
            let granted = &granted;
            s.spawn(move || {
                for op in 0..cfg.ops_per_client {
                    let pool = promises_sim::pool_name(op % cfg.pools);
                    let next = promises_sim::pool_name((op + 3) % cfg.pools);
                    let predicates = if op % 3 == 0 {
                        vec![format!("qty('{pool}') >= 1"), format!("qty('{next}') >= 1")]
                    } else {
                        vec![format!("qty('{pool}') >= 2")]
                    };
                    match coordinator.grant(
                        &format!("client-{c}"),
                        &format!("stress-{c}-{op}"),
                        &predicates,
                        HOUR_MS,
                    ) {
                        Ok(ClusterDecision::Granted { parts }) => {
                            granted.fetch_add(1, Ordering::Relaxed);
                            if op % 2 == 0 {
                                coordinator.release(&parts);
                            }
                        }
                        // Faulted wire: rejections and transport errors
                        // are legitimate outcomes; the audits below are
                        // what must stay silent.
                        Ok(ClusterDecision::Rejected { .. }) | Err(_) => {}
                    }
                }
            });
        }
    });

    assert!(granted.load(Ordering::Relaxed) > 0, "load must land grants");
    let life = promises_telemetry::audit_cluster_lifecycles(
        &cluster.telemetry.spans(),
        &cluster.evidence(),
    );
    assert!(
        life.ok(),
        "lifecycle violations: {:?}",
        life.all_violations()
    );
    for node in &cluster.nodes {
        assert_eq!(
            node.journal.flushed_seq(),
            node.journal.tip_seq(),
            "shard {}: a reply left with unflushed records",
            node.index
        );
        assert_eq!(
            node.server.queue_depth(),
            0,
            "shard {} queue not drained",
            node.index
        );
    }
}
