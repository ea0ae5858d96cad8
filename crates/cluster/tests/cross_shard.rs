//! Cross-shard atomic-grant tests: the §4 unit guarantee under the
//! prepare/commit protocol, cluster-wide dedup, and coordinator crash
//! recovery.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use promises_cluster::{
    ClusterDecision, CoordError, CoordRecord, Coordinator, CoordinatorLog, CrashPoint,
    PromiseCluster, ShardServer,
};
use promises_core::{ClientId, Clock, PromiseId, RequestId};
use promises_faults::{FaultInjector, FaultScenario};
use promises_wire::{
    BusStats, Envelope, Pending, RetryPolicy, RetryStats, RetryingClient, Service,
};

const HOUR_MS: u64 = 3_600_000;

/// Two shards, one pool each (round-robin: `alpha`→0, `beta`→1).
fn two_shard_cluster(qty: u64) -> PromiseCluster {
    let cluster = PromiseCluster::build(2, 7);
    assert_eq!(cluster.register_quantity_pool("alpha", qty), 0);
    assert_eq!(cluster.register_quantity_pool("beta", qty), 1);
    cluster
}

fn span_both(a: u64, b: u64) -> Vec<String> {
    vec![
        format!("qty('alpha') >= {a}"),
        format!("qty('beta') >= {b}"),
    ]
}

#[test]
fn cross_shard_grant_commits_on_every_shard() {
    let cluster = two_shard_cluster(10);
    let decision = cluster
        .coordinator
        .grant("alice", "r1", &span_both(5, 3), HOUR_MS)
        .unwrap();
    let ClusterDecision::Granted { parts } = decision else {
        panic!("cross-shard grant should succeed: {decision:?}");
    };
    assert_eq!(parts.len(), 2);
    assert_eq!(parts[0].shard, 0);
    assert_eq!(parts[1].shard, 1);
    for part in &parts {
        let pm = &cluster.nodes[part.shard].pm;
        assert_eq!(pm.live_count(), 1);
        assert!(
            !pm.is_prepared(PromiseId(part.promise_id)),
            "committed hold must no longer be in doubt"
        );
    }
}

#[test]
fn rejection_is_a_unit_and_frees_every_hold() {
    let cluster = two_shard_cluster(10);
    // alpha can hold 6, beta cannot hold 20: the whole request rejects
    // and the alpha hold must be aborted, leaving its quantity grantable.
    let decision = cluster
        .coordinator
        .grant("alice", "r1", &span_both(6, 20), HOUR_MS)
        .unwrap();
    assert!(matches!(decision, ClusterDecision::Rejected { .. }));
    assert_eq!(cluster.live_count(), 0, "no partial grant may survive");
    // The freed alpha units are immediately grantable (non-blocking).
    let retry = cluster
        .coordinator
        .grant("bob", "r2", &["qty('alpha') >= 10".to_string()], HOUR_MS)
        .unwrap();
    assert!(retry.is_granted());
}

#[test]
fn single_shard_footprint_skips_the_coordination_round() {
    let cluster = two_shard_cluster(10);
    let decision = cluster
        .coordinator
        .grant("alice", "r1", &["qty('alpha') >= 4".to_string()], HOUR_MS)
        .unwrap();
    assert!(decision.is_granted());
    assert!(
        cluster.coordinator.log().entries().unwrap().is_empty(),
        "fast path must not log a transaction"
    );
    assert_eq!(cluster.nodes[0].pm.live_count(), 1);
    assert!(cluster.nodes[0].pm.prepared_ids().is_empty());
}

#[test]
fn dedup_is_cluster_wide_for_cross_shard_requests() {
    let cluster = two_shard_cluster(10);
    let first = cluster
        .coordinator
        .grant("alice", "r1", &span_both(5, 3), HOUR_MS)
        .unwrap();
    let second = cluster
        .coordinator
        .grant("alice", "r1", &span_both(5, 3), HOUR_MS)
        .unwrap();
    assert_eq!(first, second, "a retried request returns the same grant");
    assert_eq!(cluster.live_count(), 2, "no shard granted twice");
    // Journal-level proof: one grant-like record per shard.
    for node in &cluster.nodes {
        let facts = node.journal.facts();
        assert_eq!(facts.granted.len(), 1);
    }
}

#[test]
fn crash_after_prepare_recovers_by_presumed_abort() {
    let cluster = two_shard_cluster(10);
    cluster
        .coordinator
        .set_crash_point(Some(CrashPoint::AfterPrepare));
    let err = cluster
        .coordinator
        .grant("alice", "r1", &span_both(5, 3), HOUR_MS)
        .unwrap_err();
    assert!(matches!(err, CoordError::Crashed(_)));
    // The holds are in doubt on both shards, resources reserved.
    assert_eq!(cluster.live_count(), 2);
    assert_eq!(cluster.nodes[0].pm.prepared_ids().len(), 1);
    assert_eq!(cluster.nodes[1].pm.prepared_ids().len(), 1);

    let report = cluster.coordinator.recover().unwrap();
    assert_eq!(report.presumed_aborted, 1);
    assert_eq!(report.holds_freed, 2);
    assert_eq!(cluster.live_count(), 0, "presumed abort frees every hold");
}

#[test]
fn crash_after_commit_logged_recovers_by_resending_commits() {
    let cluster = two_shard_cluster(10);
    cluster
        .coordinator
        .set_crash_point(Some(CrashPoint::AfterCommitLogged));
    let err = cluster
        .coordinator
        .grant("alice", "r1", &span_both(5, 3), HOUR_MS)
        .unwrap_err();
    assert!(matches!(err, CoordError::Crashed(_)));
    // Commit is logged but no shard has heard: holds still in doubt.
    assert_eq!(cluster.nodes[0].pm.prepared_ids().len(), 1);

    let report = cluster.coordinator.recover().unwrap();
    assert_eq!(report.commits_resent, 1);
    assert_eq!(report.presumed_aborted, 0);
    assert_eq!(cluster.live_count(), 2, "commits land on both shards");
    for node in &cluster.nodes {
        assert!(node.pm.prepared_ids().is_empty(), "no hold left in doubt");
    }

    // The client's retry resolves to the same per-shard promises through
    // sub-request dedup, even though the coordinator's in-memory outcome
    // index died with it.
    let retry = cluster
        .coordinator
        .grant("alice", "r1", &span_both(5, 3), HOUR_MS)
        .unwrap();
    let ClusterDecision::Granted { parts } = retry else {
        panic!("retry after recovery must re-grant: {retry:?}");
    };
    assert_eq!(cluster.live_count(), 2, "retry must not double-grant");
    for part in &parts {
        let node = &cluster.nodes[part.shard];
        let held = node.pm.promise_for_request(
            &ClientId("alice".into()),
            &RequestId(format!("r1@s{}", part.shard)),
        );
        assert_eq!(held, Some(PromiseId(part.promise_id)));
    }
}

#[test]
fn recovery_is_idempotent() {
    let cluster = two_shard_cluster(10);
    cluster
        .coordinator
        .set_crash_point(Some(CrashPoint::AfterPrepare));
    let _ = cluster
        .coordinator
        .grant("alice", "r1", &span_both(2, 2), HOUR_MS)
        .unwrap_err();
    let first = cluster.coordinator.recover().unwrap();
    assert_eq!(first.presumed_aborted, 1);
    let second = cluster.coordinator.recover().unwrap();
    assert_eq!(second.presumed_aborted, 0, "decided txns stay decided");
    assert_eq!(second.commits_resent, 0);
    assert_eq!(cluster.live_count(), 0);
}

#[test]
fn acked_commits_compact_out_of_the_log() {
    let cluster = two_shard_cluster(10);
    let decision = cluster
        .coordinator
        .grant("alice", "r1", &span_both(5, 3), HOUR_MS)
        .unwrap();
    assert!(decision.is_granted());
    assert_eq!(
        cluster.coordinator.log().len(),
        2,
        "Begin + Commit are logged"
    );

    // Both shards acknowledged the commit resolutions inline, so the
    // transaction is fully resolved and compaction drops it entirely.
    let report = cluster.coordinator.compact_log().unwrap();
    assert_eq!(report.dropped_resolved, 1);
    assert_eq!(report.kept_txns, 0);
    assert!(cluster.coordinator.log().is_empty());

    // Recovery over the compacted log has nothing to do — and the grant
    // itself is untouched on the shards.
    let recovery = cluster.coordinator.recover().unwrap();
    assert_eq!(recovery.presumed_aborted + recovery.commits_resent, 0);
    assert_eq!(cluster.live_count(), 2);
}

#[test]
fn unacked_commit_survives_compaction_until_recovery_acks_it() {
    let cluster = two_shard_cluster(10);
    cluster
        .coordinator
        .set_crash_point(Some(CrashPoint::AfterCommitLogged));
    let _ = cluster
        .coordinator
        .grant("alice", "r1", &span_both(5, 3), HOUR_MS)
        .unwrap_err();

    // No resolution was ever sent, so no ack: compaction must keep the
    // committed transaction for recovery to resend.
    let report = cluster.coordinator.compact_log().unwrap();
    assert_eq!(report.dropped_resolved, 0);
    assert_eq!(report.kept_txns, 1);
    assert_eq!(cluster.coordinator.log().len(), 2);

    // Recovery resends, collects both shards' acks, and only then does
    // the transaction become compaction fodder.
    let recovery = cluster.coordinator.recover().unwrap();
    assert_eq!(recovery.commits_resent, 1);
    let report = cluster.coordinator.compact_log().unwrap();
    assert_eq!(report.dropped_resolved, 1);
    assert!(cluster.coordinator.log().is_empty());
    assert_eq!(cluster.live_count(), 2, "the grant itself is intact");
}

#[test]
fn orphan_abort_replay_is_surfaced_not_swallowed() {
    use promises_cluster::{CoordRecord, TxnId};
    let cluster = two_shard_cluster(10);
    // Dead history: an Abort whose Begin was compacted away (or a racing
    // recovery double-logged it).
    cluster.coordinator.log().append(CoordRecord::Abort {
        txn: TxnId::new("ghost", "rx"),
    });
    let recovery = cluster.coordinator.recover().unwrap();
    assert_eq!(recovery.orphan_aborts, 1, "tolerated but counted");
    assert_eq!(recovery.presumed_aborted, 0);
    assert_eq!(cluster.live_count(), 0);
}

#[test]
fn dedup_index_is_bounded_by_duration_plus_grace() {
    let cluster = two_shard_cluster(100);
    for i in 0..8 {
        let decision = cluster
            .coordinator
            .grant("alice", &format!("r{i}"), &span_both(1, 1), 10_000)
            .unwrap();
        assert!(decision.is_granted());
    }
    assert_eq!(cluster.coordinator.dedup_len(), 8);
    // Within the retry window nothing is evicted…
    cluster.clock.advance(10_000);
    cluster.coordinator.sweep_dedup();
    assert_eq!(cluster.coordinator.dedup_len(), 8);
    // …but once duration + grace passes, the index drains to empty.
    cluster.clock.advance(400_000);
    cluster.coordinator.sweep_dedup();
    assert_eq!(cluster.coordinator.dedup_len(), 0);
}

#[test]
fn dedup_index_evicts_in_deadline_order_not_insertion_order() {
    let cluster = two_shard_cluster(100);
    let grant = |rid: &str, duration_ms: u64| {
        cluster
            .coordinator
            .grant("alice", rid, &span_both(1, 1), duration_ms)
            .unwrap()
    };
    let long = grant("long", HOUR_MS);
    let short = grant("short", 10_000);
    assert!(long.is_granted() && short.is_granted());
    // The short one's duration + grace has passed, the long one's has not.
    // A FIFO queue would stop at the long entry in front and keep both.
    cluster.clock.advance(10_000 + 300_000);
    cluster.coordinator.sweep_dedup();
    assert_eq!(cluster.coordinator.dedup_len(), 1);

    let delivered = cluster.bus.stats().delivered;
    assert_eq!(grant("long", HOUR_MS), long, "the original decision");
    assert_eq!(
        cluster.bus.stats().delivered,
        delivered,
        "answered from the index without asking a shard"
    );
    let fresh = grant("short", 10_000);
    assert!(
        cluster.bus.stats().delivered > delivered,
        "the shards were asked"
    );
    assert!(fresh.is_granted());
    assert_ne!(fresh, short, "served as a fresh request");
}

#[test]
fn dedup_keys_do_not_collide_across_the_client_request_boundary() {
    let cluster = two_shard_cluster(10);
    let ask = ["qty('alpha') >= 1".to_string()];
    let ab_c = cluster.coordinator.grant("ab", "c", &ask, HOUR_MS).unwrap();
    let a_bc = cluster.coordinator.grant("a", "bc", &ask, HOUR_MS).unwrap();
    assert!(ab_c.is_granted() && a_bc.is_granted());
    assert_ne!(ab_c, a_bc, "two requests, two promises");
    assert_eq!(cluster.coordinator.dedup_len(), 2);
    assert_eq!(cluster.live_count(), 2);
}

#[test]
fn a_resend_after_release_is_answered_by_the_coordinator_index() {
    let cluster = two_shard_cluster(10);
    let ask = ["qty('alpha') >= 4".to_string()];
    let first = cluster
        .coordinator
        .grant("alice", "r1", &ask, HOUR_MS)
        .unwrap();
    let ClusterDecision::Granted { parts } = &first else {
        panic!("single-shard grant should succeed: {first:?}");
    };
    cluster.coordinator.release(parts);
    // The shard dropped `alice/r1` with the released record, so only the
    // coordinator's index still knows the request was answered.
    let resend = cluster
        .coordinator
        .grant("alice", "r1", &ask, HOUR_MS)
        .unwrap();
    assert_eq!(resend, first, "the same promise id, not a second grant");
    assert_eq!(cluster.nodes[0].journal.facts().granted.len(), 1);
    assert_eq!(cluster.nodes[0].pm.live_count(), 0);
}

#[test]
fn release_frees_all_parts() {
    let cluster = two_shard_cluster(10);
    let decision = cluster
        .coordinator
        .grant("alice", "r1", &span_both(5, 3), HOUR_MS)
        .unwrap();
    let ClusterDecision::Granted { parts } = decision else {
        panic!()
    };
    cluster.coordinator.release(&parts);
    assert_eq!(cluster.live_count(), 0);
    let unacked = |cluster: &PromiseCluster| {
        cluster
            .telemetry
            .snapshot()
            .counter("coord.release.unacked")
    };
    assert_eq!(
        unacked(&cluster),
        0,
        "a quiet bus acknowledges every release"
    );

    // A part whose shard is gone is counted, not silently skipped — and
    // the other part is still released.
    let decision = cluster
        .coordinator
        .grant("alice", "r2", &span_both(1, 1), HOUR_MS)
        .unwrap();
    let ClusterDecision::Granted { parts } = decision else {
        panic!()
    };
    assert!(cluster.bus.unregister(&cluster.nodes[1].endpoint));
    cluster.coordinator.release(&parts);
    assert_eq!(unacked(&cluster), 1);
    assert_eq!(cluster.nodes[0].pm.live_count(), 0);
    assert_eq!(cluster.nodes[1].pm.live_count(), 1);
}

#[test]
fn a_dead_leg_during_prepare_leaves_no_hold_on_the_live_shards() {
    let cluster = two_shard_cluster(10);
    assert!(cluster.bus.unregister(&cluster.nodes[1].endpoint));
    let decision = cluster
        .coordinator
        .grant("alice", "r1", &span_both(5, 3), HOUR_MS)
        .unwrap();
    let ClusterDecision::Rejected { reason } = decision else {
        panic!("a grant cannot commit without shard 1: {decision:?}");
    };
    assert!(reason.contains("shard 1 failed"), "{reason}");
    // Shard 0's leg was posted alongside the dead one and did prepare;
    // the abort round must have freed it.
    assert_eq!(cluster.live_count(), 0, "no partial grant may survive");
    assert!(cluster.nodes[0].pm.prepared_ids().is_empty());
    let log = cluster.coordinator.log().entries().unwrap();
    assert!(matches!(log.last(), Some(CoordRecord::Abort { .. })));
    assert_eq!(log.len(), 2, "Begin + Abort");
}

/// Stands in front of a shard on the bus and notes which thread posts to
/// it. Forwards `submit`, so the shard still only enqueues.
struct Recording {
    shard: Arc<ShardServer>,
    posted_from: Arc<Mutex<Vec<ThreadId>>>,
}

impl Service for Recording {
    fn handle(&self, envelope: Envelope) -> Envelope {
        self.submit(envelope).wait()
    }

    fn submit(&self, envelope: Envelope) -> Pending {
        self.posted_from
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        self.shard.submit(envelope)
    }
}

#[test]
fn every_leg_of_a_cross_shard_grant_is_posted_from_the_calling_thread() {
    let cluster = two_shard_cluster(10);
    let posted_from: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    for node in &cluster.nodes {
        cluster.bus.register(
            &node.endpoint,
            Arc::new(Recording {
                shard: Arc::clone(&node.server),
                posted_from: Arc::clone(&posted_from),
            }),
        );
    }
    let granted = cluster
        .coordinator
        .grant("alice", "r1", &span_both(5, 3), HOUR_MS)
        .unwrap();
    let ClusterDecision::Granted { parts } = granted else {
        panic!("{granted:?}")
    };
    let rejected = cluster
        .coordinator
        .grant("alice", "r2", &span_both(1, 20), HOUR_MS)
        .unwrap();
    assert!(!rejected.is_granted());
    cluster.coordinator.release(&parts);
    assert_eq!(cluster.live_count(), 0);

    let posted_from = posted_from.lock().unwrap();
    // 2 prepares + 2 commits, then 2 prepares + 1 abort, then 2 releases.
    assert_eq!(posted_from.len(), 9);
    let me = std::thread::current().id();
    assert!(
        posted_from.iter().all(|id| *id == me),
        "the coordinator posts every leg itself: {posted_from:?} vs {me:?}"
    );
}

/// What one seeded faulted run leaves behind.
#[derive(Debug, PartialEq)]
struct FaultedRun {
    decisions: Vec<Result<ClusterDecision, CoordError>>,
    bus: BusStats,
    retries: RetryStats,
    log_len: usize,
}

fn faulted_run() -> FaultedRun {
    let cluster = two_shard_cluster(120);
    cluster
        .bus
        .set_fault_injector(Some(Arc::new(FaultInjector::new(FaultScenario::uniform(
            11, 0.15,
        )))));
    // A coordinator of our own, so the one client's counters can be read.
    let client = Arc::new(RetryingClient::new(
        Arc::clone(&cluster.bus),
        RetryPolicy::new(23),
    ));
    let coordinator = Coordinator::new(
        Arc::clone(&cluster.map),
        Arc::clone(&client),
        Arc::new(CoordinatorLog::new()),
        Arc::clone(&cluster.clock) as Arc<dyn Clock>,
    );
    let decisions = (0..200)
        .map(|i| {
            cluster.clock.advance(10);
            coordinator.grant("seeded", &format!("r{i}"), &span_both(1, 1), HOUR_MS)
        })
        .collect();
    FaultedRun {
        decisions,
        bus: cluster.bus.stats(),
        retries: client.stats(),
        log_len: coordinator.log().len(),
    }
}

#[test]
fn a_seeded_faulted_run_repeats_exactly() {
    let first = faulted_run();
    assert!(first.retries.retries > 0, "the scenario must bite");
    assert!(first
        .decisions
        .iter()
        .any(|d| matches!(d, Ok(d) if d.is_granted())));
    assert!(first
        .decisions
        .iter()
        .any(|d| matches!(d, Ok(d) if !d.is_granted())));
    // Fates and jitter are drawn in leg order on the one calling thread,
    // so nothing about the run depends on how the OS scheduled it.
    assert_eq!(first, faulted_run());
}

mod interleavings {
    //! The satellite proptest: under arbitrary interleavings of
    //! cross-shard grants, rejections, injected coordinator crashes, and
    //! recovery passes, no partial grant is ever observable.

    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        /// A cross-shard grant of (alpha, beta) units, possibly crashing.
        Grant {
            alpha: u64,
            beta: u64,
            crash: Option<CrashPoint>,
        },
        /// Run coordinator recovery.
        Recover,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u64..6, 1u64..6, arb_crash()).prop_map(|(alpha, beta, crash)| Op::Grant {
                alpha,
                beta,
                crash
            }),
            Just(Op::Recover),
        ]
    }

    fn arb_crash() -> impl Strategy<Value = Option<CrashPoint>> {
        prop_oneof![
            Just(None),
            Just(None),
            Just(None),
            Just(Some(CrashPoint::AfterPrepare)),
            Just(Some(CrashPoint::AfterCommitLogged)),
        ]
    }

    /// The §4 invariant, checked shard-side: every transaction is either
    /// fully committed (each part live, none in doubt) or leaves nothing.
    fn assert_no_partial_grants(cluster: &PromiseCluster, decisions: &[(String, ClusterDecision)]) {
        for (rid, decision) in decisions {
            match decision {
                ClusterDecision::Granted { parts } => {
                    assert_eq!(parts.len(), 2, "{rid}: cross-shard grant has 2 parts");
                    for part in parts {
                        let pm = &cluster.nodes[part.shard].pm;
                        assert!(
                            !pm.is_prepared(PromiseId(part.promise_id)),
                            "{rid}: granted part still in doubt on shard {}",
                            part.shard
                        );
                        let held = pm.promise_for_request(
                            &ClientId("prop".into()),
                            &RequestId(format!("{rid}@s{}", part.shard)),
                        );
                        assert_eq!(
                            held,
                            Some(PromiseId(part.promise_id)),
                            "{rid}: granted part missing on shard {}",
                            part.shard
                        );
                    }
                }
                ClusterDecision::Rejected { .. } => {
                    for shard in 0..cluster.shard_count() {
                        let held = cluster.nodes[shard].pm.promise_for_request(
                            &ClientId("prop".into()),
                            &RequestId(format!("{rid}@s{shard}")),
                        );
                        assert_eq!(held, None, "{rid}: rejected txn left a hold");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn no_partial_grants_under_any_interleaving(ops in proptest::collection::vec(arb_op(), 1..14)) {
            // Small pools so rejections genuinely happen mid-sequence.
            let cluster = two_shard_cluster(12);
            let mut decisions: Vec<(String, ClusterDecision)> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Op::Grant { alpha, beta, crash } => {
                        cluster.coordinator.set_crash_point(*crash);
                        let rid = format!("g{i}");
                        match cluster.coordinator.grant(
                            "prop",
                            &rid,
                            &span_both(*alpha, *beta),
                            HOUR_MS,
                        ) {
                            Ok(decision) => decisions.push((rid, decision)),
                            Err(CoordError::Crashed(_)) => {
                                // In doubt until a later Recover op.
                            }
                            Err(e) => panic!("unexpected coordinator error: {e}"),
                        }
                    }
                    Op::Recover => {
                        cluster.coordinator.recover().unwrap();
                        assert_no_partial_grants(&cluster, &decisions);
                    }
                }
            }
            // Final recovery resolves any transaction left in doubt by a
            // trailing crash, then the unit invariant must hold globally.
            cluster.coordinator.recover().unwrap();
            assert_no_partial_grants(&cluster, &decisions);
            for node in &cluster.nodes {
                prop_assert!(
                    node.pm.prepared_ids().is_empty(),
                    "no hold may remain in doubt after recovery"
                );
            }
            // Resource accounting never oversells on any shard.
            for node in &cluster.nodes {
                for (pool, demanded) in node.pm.promised_quantities() {
                    let on_hand = node.pm.quantity_on_hand(pool.clone()).unwrap_or(0);
                    prop_assert!(
                        demanded <= on_hand,
                        "oversell on {pool:?}: {demanded} > {on_hand}"
                    );
                }
            }
        }
    }
}
