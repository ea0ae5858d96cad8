//! Per-shard escrow-lease tests: local grants without coordination,
//! demand-driven rebalancing, durable lease splits across crash–restart,
//! and the lease-sum invariant under arbitrary interleavings.

use std::sync::atomic::Ordering;

use promises_cluster::{ClusterDecision, PromiseCluster};
use promises_core::{Catalog, Environment, PromiseId};

const HOUR_MS: u64 = 3_600_000;

/// Two shards with leases on: `alpha`→0, `beta`→1 by round-robin
/// ownership, both pools hosted everywhere, `c0`/`c1` pinned to home
/// shards 0/1.
fn leased_cluster(qty: u64) -> PromiseCluster {
    let cluster = PromiseCluster::build(2, 7);
    let dir = cluster.enable_leases();
    dir.pin_home("c0", 0);
    dir.pin_home("c1", 1);
    assert_eq!(cluster.register_quantity_pool("alpha", qty), 0);
    assert_eq!(cluster.register_quantity_pool("beta", qty), 1);
    cluster
}

fn counter(cluster: &PromiseCluster, name: &str) -> u64 {
    cluster.telemetry.counter(name).load(Ordering::Relaxed)
}

fn lease_sum(cluster: &PromiseCluster, pool: &str) -> u64 {
    cluster
        .nodes
        .iter()
        .map(|n| n.pm.lease_of(pool).unwrap_or(0))
        .sum()
}

/// Shard `index`'s `(lease_of, quantity_on_hand)` per pool.
fn slices(cluster: &PromiseCluster, index: usize) -> Vec<(Option<u64>, u64)> {
    let pm = &cluster.nodes[index].pm;
    let slice = |pool| (pm.lease_of(pool), pm.quantity_on_hand(pool).unwrap());
    ["alpha", "beta"].map(slice).to_vec()
}

#[test]
fn covered_grant_is_local_and_writes_no_coordinator_record() {
    let cluster = leased_cluster(100);
    let decision = cluster
        .coordinator
        .grant("c0", "r1", &["qty('alpha') >= 5".to_string()], HOUR_MS)
        .unwrap();
    assert!(decision.is_granted());
    assert!(
        cluster.coordinator.log().entries().unwrap().is_empty(),
        "lease-covered grant must not touch the coordinator log"
    );
    assert_eq!(cluster.nodes[0].pm.live_count(), 1);
    assert_eq!(counter(&cluster, "cluster.lease.local_grants"), 1);
    assert_eq!(counter(&cluster, "cluster.lease.coordinator_fallbacks"), 0);
}

#[test]
fn rebalance_makes_hot_pool_grants_local_on_a_non_owner_shard() {
    let cluster = leased_cluster(100);
    // c1's home (shard 1) starts with zero alpha lease: the first grant
    // falls back to the ownership path (owner shard 0 serves it) while
    // registering demand at home.
    let first = cluster
        .coordinator
        .grant("c1", "r1", &["qty('alpha') >= 5".to_string()], HOUR_MS)
        .unwrap();
    assert!(first.is_granted());
    assert_eq!(counter(&cluster, "cluster.lease.coordinator_fallbacks"), 1);
    assert_eq!(cluster.nodes[0].pm.live_count(), 1, "owner served it");

    // The rebalance cycle chases that demand: alpha headroom migrates to
    // shard 1, and the next grant is purely local there.
    let report = cluster.rebalance_leases().expect("leases enabled");
    assert!(report.moved > 0, "headroom must migrate toward demand");
    let second = cluster
        .coordinator
        .grant("c1", "r2", &["qty('alpha') >= 5".to_string()], HOUR_MS)
        .unwrap();
    assert!(second.is_granted());
    assert_eq!(counter(&cluster, "cluster.lease.local_grants"), 1);
    assert_eq!(cluster.nodes[1].pm.live_count(), 1, "home served it");
    assert!(
        cluster.coordinator.log().entries().unwrap().is_empty(),
        "still no coordination round"
    );
}

#[test]
fn stale_directory_estimate_costs_a_round_trip_never_an_oversell() {
    let cluster = leased_cluster(10);
    // c1's fallback grant consumes real headroom at the owner (shard 0)
    // without touching the advisory directory's estimate for home 0.
    let fallback = cluster
        .coordinator
        .grant("c1", "r1", &["qty('alpha') >= 8".to_string()], HOUR_MS)
        .unwrap();
    assert!(fallback.is_granted());
    assert_eq!(counter(&cluster, "cluster.lease.coordinator_fallbacks"), 1);

    // c0's directory still estimates 10 units at home 0, so the local
    // attempt happens — and the home shard's authoritative escrow check
    // refuses. Home owns alpha, so the rejection is final.
    let over = cluster
        .coordinator
        .grant("c0", "r2", &["qty('alpha') >= 5".to_string()], HOUR_MS)
        .unwrap();
    assert!(matches!(over, ClusterDecision::Rejected { .. }));
    assert_eq!(counter(&cluster, "cluster.lease.local_rejects"), 1);
    assert_eq!(cluster.nodes[0].pm.promised_qty("alpha"), 8);

    // What the remaining lease genuinely covers still grants locally.
    let fits = cluster
        .coordinator
        .grant("c0", "r3", &["qty('alpha') >= 2".to_string()], HOUR_MS)
        .unwrap();
    assert!(fits.is_granted());
    assert_eq!(counter(&cluster, "cluster.lease.local_grants"), 1);
    assert_eq!(cluster.nodes[0].pm.promised_qty("alpha"), 10);
}

#[test]
fn multi_pool_footprint_served_locally_counts_a_log_skip() {
    let cluster = leased_cluster(100);
    // alpha lives on shard 0, beta's lease starts on shard 1: the span
    // falls back to a full 2PC round first (and notes demand at home 0).
    let first = cluster
        .coordinator
        .grant(
            "c0",
            "r1",
            &[
                "qty('alpha') >= 2".to_string(),
                "qty('beta') >= 2".to_string(),
            ],
            HOUR_MS,
        )
        .unwrap();
    assert!(first.is_granted());
    assert_eq!(counter(&cluster, "cluster.lease.coord_log_skips"), 0);
    assert!(!cluster.coordinator.log().entries().unwrap().is_empty());

    // After a rebalance both pools have headroom at home 0, so the same
    // span becomes one local grant — no Begin/Commit records this time.
    cluster.rebalance_leases();
    let log_len = cluster.coordinator.log().len();
    let second = cluster
        .coordinator
        .grant(
            "c0",
            "r2",
            &[
                "qty('alpha') >= 2".to_string(),
                "qty('beta') >= 2".to_string(),
            ],
            HOUR_MS,
        )
        .unwrap();
    assert!(second.is_granted());
    assert_eq!(counter(&cluster, "cluster.lease.coord_log_skips"), 1);
    assert_eq!(
        cluster.coordinator.log().len(),
        log_len,
        "the lease saved the coordination round"
    );
}

#[test]
fn crash_restart_reconstructs_the_lease_split() {
    let mut cluster = leased_cluster(100);
    // Skew the split away from the registration default, with live holds.
    let _ = cluster
        .coordinator
        .grant("c1", "r1", &["qty('alpha') >= 5".to_string()], HOUR_MS)
        .unwrap();
    cluster.rebalance_leases();
    let _ = cluster
        .coordinator
        .grant("c1", "r2", &["qty('alpha') >= 7".to_string()], HOUR_MS)
        .unwrap();

    for index in 0..cluster.shard_count() {
        let pre = cluster.nodes[index].pm.state_digest();
        let slices_pre = slices(&cluster, index);
        cluster.crash_restart_shard(index);
        assert_eq!(
            cluster.nodes[index].pm.state_digest(),
            pre,
            "shard {index} state must survive"
        );
        assert_eq!(slices(&cluster, index), slices_pre);
    }
    assert_eq!(lease_sum(&cluster, "alpha"), 100);
}

/// Runs an action on `shard` that adds `delta` to `alpha`'s `qty`,
/// releasing `releasing` with it.
fn change_alpha(cluster: &PromiseCluster, shard: usize, releasing: Option<PromiseId>, delta: i64) {
    let env = match releasing {
        Some(id) => Environment::none().releasing(id),
        None => Environment::none(),
    };
    let done = cluster.nodes[shard].pm.execute(&env, |rm, txn| {
        rm.update(txn, Catalog::QTY_TABLE, "alpha", |r| {
            r.set("qty", r.int("qty").unwrap_or(0) + delta);
        })?;
        Ok(())
    });
    done.expect("the action commits");
}

/// Client `c0` is granted 4 units of `alpha` from shard 0's lease of 10
/// and buys them, the promise released with the sale.
fn sell_four(cluster: &PromiseCluster) {
    let four = ["qty('alpha') >= 4".to_string()];
    let decision = cluster.coordinator.grant("c0", "sale", &four, HOUR_MS);
    let ClusterDecision::Granted { parts } = decision.unwrap() else {
        panic!("the lease covers 4 units");
    };
    assert_eq!(parts[0].shard, 0, "a lease-local grant");
    change_alpha(cluster, 0, Some(PromiseId(parts[0].promise_id)), -4);
}

/// Escrow consumes: a sale spends the leased shard's stock and nothing
/// gives it back. Shard 0 holds a lease of 10 and sells 4; then with no
/// lease move, after a zero-unit deposit, after a same-node restart and
/// after a promotion alike it reads 6 on hand, 6 headroom and a lease of
/// 10, and refuses a grant of 10.
#[test]
fn a_sale_on_a_leased_pool_stays_sold() {
    for path in ["no move", "zero deposit", "restart", "promotion"] {
        let mut cluster = leased_cluster(10);
        if path == "promotion" {
            cluster.enable_replication();
        }
        sell_four(&cluster);
        match path {
            "zero deposit" => cluster.nodes[0].pm.lease_deposit("alpha", 0).unwrap(),
            "restart" => drop(cluster.crash_restart_shard(0)),
            "promotion" => {
                cluster.kill_shard(0);
                cluster.promote_follower(0);
            }
            _ => {}
        }
        let pm = &cluster.nodes[0].pm;
        assert_eq!(pm.quantity_on_hand("alpha").unwrap(), 6, "{path}");
        assert_eq!(pm.lease_headroom("alpha"), 6, "{path}");
        assert_eq!(pm.lease_of("alpha"), Some(10), "{path}");
        let ten = ["qty('alpha') >= 10".to_string()];
        let decision = cluster
            .coordinator
            .grant("c0", "ten", &ten, HOUR_MS)
            .unwrap();
        assert!(!decision.is_granted(), "{path}: {decision:?}");
    }
}

/// A rebalance after a sale moves only unsold units: shard 0 sells 4 of
/// its 10, more demand appears at shard 1, and the cycle moves some of
/// the 6 left there. Over the shards 6 units are on hand and the leases
/// still sum to 10.
#[test]
fn a_rebalance_after_a_sale_moves_only_unsold_units() {
    let cluster = leased_cluster(10);
    sell_four(&cluster);
    let dir = cluster.lease_directory().expect("leases enabled");
    dir.note_demand(1, &[("alpha".to_string(), 5)]);
    let report = cluster.rebalance_leases().expect("leases enabled");
    assert!(report.moved > 0, "headroom moves toward shard 1");
    let on_hand: u64 = (cluster.nodes.iter())
        .map(|n| n.pm.quantity_on_hand("alpha").unwrap())
        .sum();
    assert_eq!(on_hand, 6, "a sold unit came back");
    assert_eq!(lease_sum(&cluster, "alpha"), 10);
}

/// A restock raises a leased shard's stock above its lease. A withdraw
/// then moves at most the lease, so the restocked units stay where they
/// were added and the leases never sum past the pool total.
#[test]
fn a_withdraw_after_a_restock_moves_at_most_the_lease() {
    let cluster = leased_cluster(10);
    change_alpha(&cluster, 0, None, 5);
    let pm = &cluster.nodes[0].pm;
    assert_eq!(pm.lease_headroom("alpha"), 15);
    assert_eq!(pm.lease_withdraw("alpha", 15).unwrap(), 10);
    assert_eq!(pm.quantity_on_hand("alpha").unwrap(), 5);
    assert_eq!(pm.lease_of("alpha"), Some(0));
    cluster.nodes[1].pm.lease_deposit("alpha", 10).unwrap();
    assert_eq!(lease_sum(&cluster, "alpha"), 10);
    assert_eq!(cluster.rebalance_leases().unwrap().healed, 0);
}

#[test]
fn mid_rebalance_crash_only_shrinks_the_sum_and_heals_next_cycle() {
    let cluster = leased_cluster(100);
    // Demand at the non-owner home makes the next cycle move alpha.
    let _ = cluster
        .coordinator
        .grant("c1", "r1", &["qty('alpha') >= 1".to_string()], HOUR_MS)
        .unwrap();
    cluster.arm_rebalance_crash();
    let crashed = cluster.rebalance_leases().expect("leases enabled");
    assert!(crashed.crashed, "armed crash fires on observed demand");
    let after_crash = lease_sum(&cluster, "alpha");
    assert!(
        after_crash < 100,
        "withdraws landed, deposits did not: sum must shrink"
    );

    // The next cycle's heal pass re-credits the stranded headroom.
    let heal = cluster.rebalance_leases().expect("leases enabled");
    assert_eq!(heal.healed, 100 - after_crash);
    assert_eq!(lease_sum(&cluster, "alpha"), 100);
    assert!(!heal.crashed);
}

#[test]
#[should_panic(expected = "enable_leases must run before pools")]
fn enable_leases_after_registration_panics() {
    let cluster = PromiseCluster::build(2, 7);
    cluster.register_quantity_pool("alpha", 10);
    cluster.enable_leases();
}

mod interleavings {
    //! The satellite proptest: under arbitrary interleavings of grants,
    //! releases, expiries, rebalances, mid-rebalance crashes, and shard
    //! crash–restarts, every shard keeps promised ≤ lease, no pool's
    //! lease sum ever exceeds its registered total, and a restarted
    //! shard's state digest is byte-identical to its pre-kill state.

    use super::*;
    use promises_cluster::GrantPart;
    use promises_core::Clock;
    use proptest::prelude::*;

    const POOLS: [&str; 2] = ["alpha", "beta"];
    const TOTAL: u64 = 60;

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
        Advance {
            ms: u64,
        },
        CrashShard {
            shard: usize,
        },
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
            (1u64..120_000).prop_map(|ms| Op::Advance { ms }),
            (0usize..2).prop_map(|shard| Op::CrashShard { shard }),
            Just(Op::ArmRebalanceCrash),
        ]
    }

    fn assert_lease_invariants(cluster: &PromiseCluster, step: usize) -> Result<(), TestCaseError> {
        for pool in POOLS {
            let sum = lease_sum(cluster, pool);
            prop_assert!(
                sum <= TOTAL,
                "step {step}: lease sum for {pool} minted units: {sum} > {TOTAL}"
            );
            for node in &cluster.nodes {
                let lease = node.pm.lease_of(pool).unwrap_or(0);
                let promised = node.pm.promised_qty(pool);
                prop_assert!(
                    promised <= lease,
                    "step {step}: shard {} oversold {pool}: {promised} > {lease}",
                    node.index
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn lease_sum_and_escrow_hold_under_any_interleaving(
            ops in proptest::collection::vec(arb_op(), 1..20)
        ) {
            let mut cluster = leased_cluster(TOTAL);
            let mut held: Vec<Vec<GrantPart>> = Vec::new();
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
                    Op::Advance { ms } => {
                        // Drives expiry AND a rebalance cycle (which may
                        // fire a previously armed crash).
                        cluster.advance_and_prune(*ms);
                        held.retain(|parts| {
                            parts.iter().all(|p| p.expires_at > cluster.clock.now_ms())
                        });
                    }
                    Op::CrashShard { shard } => {
                        let pre = cluster.nodes[*shard].pm.state_digest();
                        cluster.crash_restart_shard(*shard);
                        prop_assert_eq!(
                            cluster.nodes[*shard].pm.state_digest(),
                            pre,
                            "step {}: shard {} digest changed across restart",
                            i,
                            shard
                        );
                    }
                    Op::ArmRebalanceCrash => cluster.arm_rebalance_crash(),
                }
                assert_lease_invariants(&cluster, i)?;
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
        }
    }
}
