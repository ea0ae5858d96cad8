//! Fail-over tests: warm-follower promotion interleaved with grants,
//! releases, expiries, lease rebalances, mid-rebalance crashes, and
//! journal compactions. Killing a leader at *any* point must leave the
//! promoted follower byte-identical to the dead leader, keep every shard
//! at promised ≤ on hand, never mint lease units (Σ leases ≤ registered
//! total), never give a sold unit back, and never let a double grant
//! survive promotion.

use std::collections::HashMap;

use promises_cluster::{versioned_endpoint, ClusterDecision, PoolSeed, PromiseCluster};
use promises_core::{
    status, Catalog, Environment, InstanceId, JournalOp, PoolSchema, PromiseId, PropertyDef,
};
use promises_rm::Record;

const HOUR_MS: u64 = 3_600_000;

/// Two shards, leases and replication on: `alpha`→0, `beta`→1 by
/// round-robin ownership, `c0`/`c1` pinned to home shards 0/1, and a warm
/// follower attached to each leader.
fn replicated_cluster(qty: u64) -> PromiseCluster {
    let mut cluster = PromiseCluster::build(2, 7);
    let dir = cluster.enable_leases();
    dir.pin_home("c0", 0);
    dir.pin_home("c1", 1);
    assert_eq!(cluster.register_quantity_pool("alpha", qty), 0);
    assert_eq!(cluster.register_quantity_pool("beta", qty), 1);
    cluster.enable_replication();
    cluster
}

fn lease_sum(cluster: &PromiseCluster, pool: &str) -> u64 {
    cluster
        .nodes
        .iter()
        .map(|n| n.pm.lease_of(pool).unwrap_or(0))
        .sum()
}

/// Grant-like journal records per `(client, request)`, per shard —
/// counting checkpoint-folded live records exactly once (compaction drops
/// the raw lines a checkpoint summarizes). Any count above 1 is a double
/// grant.
fn double_grants(cluster: &PromiseCluster) -> usize {
    let mut doubles = 0;
    for node in &cluster.nodes {
        let mut counts: HashMap<(String, String), usize> = HashMap::new();
        for entry in node.journal.entries().expect("journal replays") {
            match entry.op {
                JournalOp::Grant(rec) | JournalOp::Prepared(rec) => {
                    *counts
                        .entry((rec.client.0.clone(), rec.request.0.clone()))
                        .or_insert(0) += 1;
                }
                JournalOp::Checkpoint(cp) => {
                    for item in cp.live {
                        *counts
                            .entry((item.record.client.0.clone(), item.record.request.0.clone()))
                            .or_insert(0) += 1;
                    }
                }
                _ => {}
            }
        }
        doubles += counts.values().filter(|&&n| n > 1).count();
    }
    doubles
}

#[test]
fn promotion_swaps_in_a_byte_identical_replica_behind_a_new_epoch() {
    let mut cluster = replicated_cluster(100);
    let granted = cluster
        .coordinator
        .grant(
            "c0",
            "r1",
            &[
                "qty('alpha') >= 5".to_string(),
                "qty('beta') >= 3".to_string(),
            ],
            HOUR_MS,
        )
        .unwrap();
    assert!(granted.is_granted());

    let pre = cluster.nodes[0].pm.state_digest();
    cluster.kill_shard(0);
    let report = cluster.promote_follower(0);
    assert_eq!(report.shard, 0);
    assert_eq!(report.node_epoch, 1);
    assert_eq!(report.endpoint, versioned_endpoint(0, 1));
    assert_eq!(cluster.nodes[0].endpoint, report.endpoint);
    assert_eq!(
        cluster.nodes[0].pm.state_digest(),
        pre,
        "the promoted follower must be byte-identical to the dead leader"
    );

    // The promoted leader serves new traffic on the fenced endpoint, and
    // is itself protected by a fresh follower.
    let next = cluster
        .coordinator
        .grant("c0", "r2", &["qty('alpha') >= 2".to_string()], HOUR_MS)
        .unwrap();
    assert!(next.is_granted());
    assert!(cluster.nodes[0].follower.is_some());
    assert_eq!(double_grants(&cluster), 0);
}

#[test]
fn repeated_kills_keep_promoting_from_the_standby_chain() {
    let mut cluster = replicated_cluster(100);
    for round in 1..=3u64 {
        let rid = format!("r{round}");
        let granted = cluster
            .coordinator
            .grant("c1", &rid, &["qty('beta') >= 2".to_string()], HOUR_MS)
            .unwrap();
        assert!(granted.is_granted());
        let pre = cluster.nodes[1].pm.state_digest();
        cluster.kill_shard(1);
        let report = cluster.promote_follower(1);
        assert_eq!(report.node_epoch, round);
        assert_eq!(cluster.nodes[1].pm.state_digest(), pre);
    }
    assert_eq!(cluster.nodes[1].pm.live_count(), 3);
    assert_eq!(double_grants(&cluster), 0);
}

/// A shard hosting an instance pool through [`ShardNode::host`] comes
/// back from a same-node restart, and from a promotion over fresh storage,
/// with the pool rebuilt from its hosting record: the digest is the
/// pre-kill one, the held suite is still not free, and the pool grants
/// again.
///
/// [`ShardNode::host`]: promises_cluster::ShardNode::host
#[test]
fn restart_and_promotion_rebuild_a_hosted_instance_pool() {
    for promote in [false, true] {
        let mut cluster = PromiseCluster::build(2, 7);
        let suites = (0..3)
            .map(|i| {
                let suite = Record::new().with("floor", i64::from(i));
                (InstanceId(format!("suite-{i}")), suite)
            })
            .collect();
        cluster.map.assign("suites", 1);
        cluster.nodes[1].host(
            PoolSchema::instances("suites", vec![PropertyDef::plain("floor")]),
            PoolSeed::Instances(suites),
        );
        cluster.enable_replication();
        let grant = |cluster: &PromiseCluster, rid: &str| {
            let floor = ["prop('suites'): floor >= 1".to_string()];
            let decision = cluster.coordinator.grant("c", rid, &floor, HOUR_MS);
            assert!(decision.unwrap().is_granted(), "{rid} promote={promote}");
        };
        let free = |cluster: &PromiseCluster| {
            cluster.nodes[1]
                .pm
                .free_instances("suites")
                .expect("the suites are hosted")
        };
        grant(&cluster, "r1");
        let pre = cluster.nodes[1].pm.state_digest();
        let held_one = free(&cluster);
        assert_eq!(held_one.len(), 2);
        if promote {
            cluster.kill_shard(1);
            cluster.promote_follower(1);
        } else {
            cluster.crash_restart_shard(1);
        }
        assert_eq!(cluster.nodes[1].pm.state_digest(), pre, "promote={promote}");
        assert_eq!(free(&cluster), held_one, "promote={promote}");
        grant(&cluster, "r2");
        assert_eq!(free(&cluster).len(), 1, "promote={promote}");
    }
}

/// The promise a single-part cluster grant made on its one shard.
fn granted_id(decision: ClusterDecision) -> PromiseId {
    match decision {
        ClusterDecision::Granted { parts } => PromiseId(parts[0].promise_id),
        other => panic!("not granted: {other:?}"),
    }
}

/// Paper §8: an action and the release that rides with it commit as one
/// transaction, so a rebuilt shard keeps both or neither. A purchase of 4
/// out of 10 under `releasing` leaves 6 on hand, and taking the held
/// suite leaves it out of the free list, after a same-node restart and
/// after a promotion over fresh storage alike, replayed from the action's
/// `W` record or from a checkpoint. Were the journal to carry
/// the release without the sale, the promoted shard would read 10 on hand
/// and grant 10 more.
#[test]
fn a_sale_survives_restart_and_promotion() {
    for promote in [false, true] {
        let mut cluster = PromiseCluster::build(2, 7);
        assert_eq!(cluster.register_quantity_pool("alpha", 10), 0);
        let suites = (0..3)
            .map(|i| {
                let suite = Record::new().with("floor", i64::from(i));
                (InstanceId(format!("suite-{i}")), suite)
            })
            .collect();
        cluster.map.assign("suites", 1);
        cluster.nodes[1].host(
            PoolSchema::instances("suites", vec![PropertyDef::plain("floor")]),
            PoolSeed::Instances(suites),
        );
        cluster.enable_replication();
        let grant = |cluster: &PromiseCluster, rid: &str, predicate: &str| {
            let predicates = [predicate.to_string()];
            (cluster.coordinator.grant("c", rid, &predicates, HOUR_MS)).unwrap()
        };

        let four = granted_id(grant(&cluster, "r1", "qty('alpha') >= 4"));
        let sold = cluster.nodes[0]
            .pm
            .execute(&Environment::none().releasing(four), |rm, txn| {
                rm.update(txn, Catalog::QTY_TABLE, "alpha", |r| {
                    r.set("qty", r.int("qty").unwrap_or(0) - 4);
                })?;
                Ok(())
            });
        sold.expect("the sale commits");
        let held = granted_id(grant(&cluster, "r2", "prop('suites'): floor >= 1"));
        let pm = &cluster.nodes[1].pm;
        let suite = pm.promise(held).expect("held").allocations[0]
            .instance
            .clone();
        let taken = pm.execute(&Environment::none().releasing(held), |rm, txn| {
            let table = Catalog::instance_table(&"suites".into());
            rm.update(txn, &table, &suite.0, |r| {
                r.set(Catalog::STATUS, status::TAKEN)
            })?;
            Ok(())
        });
        taken.expect("the suite is taken");
        let free = |cluster: &PromiseCluster| {
            cluster.nodes[1]
                .pm
                .free_instances("suites")
                .expect("the suites are hosted")
        };
        let free_before = free(&cluster);
        assert_eq!(free_before.len(), 2, "promote={promote}");
        assert!(!free_before.contains(&suite), "promote={promote}");
        // Shard 0 replays its sale from the `W` record, shard 1 its taken
        // suite from the checkpoint that folded it.
        cluster.nodes[1].pm.compact().expect("compaction");

        for shard in 0..2 {
            if promote {
                cluster.kill_shard(shard);
                cluster.promote_follower(shard);
            } else {
                cluster.crash_restart_shard(shard);
            }
        }
        let on_hand = cluster.nodes[0].pm.quantity_on_hand("alpha").unwrap();
        assert_eq!(on_hand, 6, "promote={promote}");
        let ten = grant(&cluster, "r3", "qty('alpha') >= 10");
        assert!(!ten.is_granted(), "promote={promote}: {ten:?}");
        assert!(grant(&cluster, "r4", "qty('alpha') >= 6").is_granted());
        assert_eq!(free(&cluster), free_before, "promote={promote}");
    }
}

mod interleavings {
    //! The satellite proptest: leader kills + promotions interleaved with
    //! grants, releases, purchases, expiries, lease rebalances,
    //! mid-rebalance crashes, and compaction-triggering advances. The
    //! purchases sell from the leased `alpha`. Every step keeps promised ≤
    //! on hand on every shard, Σ leases ≤ registered total and Σ on hand +
    //! sold ≤ registered total; every promotion yields a byte-identical
    //! replica with the dead leader's stock on hand; no double grant
    //! survives any interleaving.

    use super::*;
    use promises_cluster::{GrantPart, ShardNode};
    use promises_core::Clock;
    use proptest::prelude::*;

    const POOLS: [&str; 2] = ["alpha", "beta"];
    const TOTAL: u64 = 60;
    /// The leased pool purchases take from.
    const SOLD: &str = "alpha";

    #[derive(Debug, Clone)]
    enum Op {
        Grant {
            client: usize,
            pool: usize,
            amount: u64,
            span_both: bool,
        },
        Release {
            index: usize,
        },
        /// A grant on [`SOLD`] to `client`, then an action on the granting
        /// shard taking what it promised, releasing the promise with it
        /// or keeping it.
        Purchase {
            client: usize,
            amount: u64,
            release_after: bool,
        },
        Advance {
            ms: u64,
        },
        KillPromote {
            shard: usize,
        },
        Rebalance,
        ArmRebalanceCrash,
    }

    fn arb_grant() -> impl Strategy<Value = Op> {
        (0usize..2, 0usize..2, 1u64..8, any::<bool>()).prop_map(
            |(client, pool, amount, span_both)| Op::Grant {
                client,
                pool,
                amount,
                span_both,
            },
        )
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // The shim's `prop_oneof!` is unweighted: repeat the grant arm so
        // the mix stays grant-heavy.
        prop_oneof![
            arb_grant(),
            arb_grant(),
            arb_grant(),
            (0usize..16).prop_map(|index| Op::Release { index }),
            (0usize..2, 1u64..8, any::<bool>()).prop_map(|(client, amount, release_after)| {
                Op::Purchase {
                    client,
                    amount,
                    release_after,
                }
            }),
            (1u64..120_000).prop_map(|ms| Op::Advance { ms }),
            (0usize..2).prop_map(|shard| Op::KillPromote { shard }),
            Just(Op::Rebalance),
            Just(Op::ArmRebalanceCrash),
        ]
    }

    /// Units of `pool` on hand over the shards.
    fn on_hand_sum(cluster: &PromiseCluster, pool: &str) -> u64 {
        let on_hand = |n: &ShardNode| n.pm.quantity_on_hand(pool).unwrap();
        cluster.nodes.iter().map(on_hand).sum()
    }

    fn assert_lease_invariants(
        cluster: &PromiseCluster,
        step: usize,
        sold: u64,
    ) -> Result<(), TestCaseError> {
        for pool in POOLS {
            let sum = lease_sum(cluster, pool);
            prop_assert!(
                sum <= TOTAL,
                "step {step}: lease sum for {pool} minted units: {sum} > {TOTAL}"
            );
            for node in &cluster.nodes {
                let on_hand = node.pm.quantity_on_hand(pool).unwrap();
                let promised = node.pm.promised_qty(pool);
                prop_assert!(
                    promised <= on_hand,
                    "step {step}: shard {} oversold {pool}: {promised} > {on_hand}",
                    node.index
                );
            }
        }
        let stock = on_hand_sum(cluster, SOLD) + sold;
        prop_assert!(
            stock <= TOTAL,
            "step {step}: a sold unit of {SOLD} came back: {stock} > {TOTAL}"
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn promotion_preserves_every_invariant_under_any_interleaving(
            ops in proptest::collection::vec(arb_op(), 1..20)
        ) {
            let mut cluster = replicated_cluster(TOTAL);
            let mut held: Vec<Vec<GrantPart>> = Vec::new();
            let mut sold = 0u64;
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Op::Grant { client, pool, amount, span_both } => {
                        let mut predicates =
                            vec![format!("qty('{}') >= {amount}", POOLS[*pool])];
                        if *span_both {
                            predicates
                                .push(format!("qty('{}') >= {amount}", POOLS[1 - *pool]));
                        }
                        let decision = cluster.coordinator.grant(
                            &format!("c{client}"),
                            &format!("g{i}"),
                            &predicates,
                            50_000,
                        ).unwrap();
                        if let ClusterDecision::Granted { parts } = decision {
                            held.push(parts);
                        }
                    }
                    Op::Release { index } => {
                        if !held.is_empty() {
                            let parts = held.swap_remove(index % held.len());
                            cluster.coordinator.release(&parts);
                        }
                    }
                    Op::Purchase { client, amount, release_after } => {
                        let predicates = [format!("qty('{SOLD}') >= {amount}")];
                        let decision = cluster
                            .coordinator
                            .grant(&format!("c{client}"), &format!("g{i}"), &predicates, 50_000)
                            .unwrap();
                        if let ClusterDecision::Granted { parts } = decision {
                            let (shard, id) = (parts[0].shard, PromiseId(parts[0].promise_id));
                            let env = if *release_after {
                                Environment::none().releasing(id)
                            } else {
                                Environment::none().under(id)
                            };
                            let take = *amount as i64;
                            let sale = cluster.nodes[shard].pm.execute(&env, |rm, txn| {
                                rm.update(txn, Catalog::QTY_TABLE, SOLD, |r| {
                                    r.set("qty", r.int("qty").unwrap_or(0) - take);
                                })?;
                                Ok(())
                            });
                            if sale.is_ok() {
                                sold += *amount;
                            }
                            if sale.is_err() || !*release_after {
                                held.push(parts);
                            }
                        }
                    }
                    Op::Advance { ms } => {
                        // Drives expiry, compaction, and a rebalance cycle
                        // (which may fire a previously armed crash).
                        cluster.advance_and_prune(*ms);
                        held.retain(|parts| {
                            parts.iter().all(|p| p.expires_at > cluster.clock.now_ms())
                        });
                    }
                    Op::KillPromote { shard } => {
                        let pre = cluster.nodes[*shard].pm.state_digest();
                        let on_hand = cluster.nodes[*shard].pm.quantity_on_hand(SOLD).ok();
                        cluster.kill_shard(*shard);
                        let report = cluster.promote_follower(*shard);
                        prop_assert_eq!(
                            cluster.nodes[*shard].pm.quantity_on_hand(SOLD).ok(),
                            on_hand,
                            "step {}: promoted shard {} lost a sale",
                            i,
                            shard
                        );
                        prop_assert_eq!(
                            cluster.nodes[*shard].pm.state_digest(),
                            pre,
                            "step {}: promoted follower diverged from dead leader {}",
                            i,
                            shard
                        );
                        prop_assert_eq!(
                            &cluster.nodes[*shard].endpoint,
                            &versioned_endpoint(*shard, report.node_epoch),
                            "step {}: promotion must fence the endpoint",
                            i
                        );
                    }
                    Op::Rebalance => {
                        cluster.rebalance_leases();
                    }
                    Op::ArmRebalanceCrash => cluster.arm_rebalance_crash(),
                }
                assert_lease_invariants(&cluster, i, sold)?;
                prop_assert_eq!(
                    double_grants(&cluster), 0,
                    "step {}: a double grant appeared", i
                );
            }

            // Quiesce: two rebalance cycles consume any still-armed crash
            // and heal whatever a fired one stranded — the lease sum must
            // return to the registered total exactly.
            cluster.rebalance_leases();
            cluster.rebalance_leases();
            for pool in POOLS {
                prop_assert_eq!(
                    lease_sum(&cluster, pool),
                    TOTAL,
                    "healed cluster must account for every unit of {}",
                    pool
                );
            }
            prop_assert_eq!(on_hand_sum(&cluster, SOLD) + sold, TOTAL);
            prop_assert_eq!(double_grants(&cluster), 0);
        }
    }
}
