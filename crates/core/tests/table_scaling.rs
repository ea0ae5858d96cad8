//! The promise table's indexes against brute force, and the manager's
//! per-operation work against table size — counted, never timed.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use promises_core::{
    ActionError, Allocation, Catalog, ClientId, Environment, InstanceId, JournalOp, ManualClock,
    PoolId, PoolSchema, Predicate, PromiseId, PromiseJournal, PromiseManager, PromiseRecord,
    PromiseRequestSpec, PromiseTable, PropExpr, PropertyDef, RequestId,
};
use promises_rm::{Record, ResourceManager};

const POOLS: [&str; 3] = ["a", "b", "c"];

fn record(id: PromiseId, pool: u8, amount: u64, expires_at: u64, with_view: bool) -> PromiseRecord {
    let pool = POOLS[pool as usize % POOLS.len()];
    let mut predicates = vec![Predicate::qty_at_least(pool, amount)];
    if with_view {
        // A second pool, so multi-pool records exercise `by_pool` too.
        predicates.push(Predicate::property("views", PropExpr::True, 1));
    }
    PromiseRecord {
        id,
        client: ClientId::from("c"),
        request: RequestId(format!("r{}", id.0)),
        predicates,
        granted_at: 0,
        expires_at,
        allocations: Vec::new(),
    }
}

fn qty_on(rec: &PromiseRecord, pool: &PoolId) -> u64 {
    rec.predicates
        .iter()
        .filter_map(|p| match p {
            Predicate::QtyAtLeast { pool: q, amount } if q == pool => Some(*amount),
            _ => None,
        })
        .sum()
}

/// Every index-backed read of `table` equals the same question answered by
/// filtering `model`, at a spread of instants around the expiries in use.
fn assert_matches_model(
    table: &PromiseTable,
    model: &BTreeMap<PromiseId, PromiseRecord>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(table.len(), model.len());
    let mut histogram: BTreeMap<u64, u32> = BTreeMap::new();
    for rec in model.values() {
        *histogram.entry(rec.expires_at).or_default() += 1;
    }
    prop_assert_eq!(
        table.expiry_histogram(),
        histogram.into_iter().collect::<Vec<_>>()
    );
    let mut resident: Vec<PromiseId> = table.records().map(|r| r.id).collect();
    resident.sort();
    prop_assert_eq!(resident, model.keys().copied().collect::<Vec<_>>());

    for now in [0u64, 7, 20, 33, 47, 64, 1_000] {
        let mut expired = table.expired_ids(now);
        expired.sort();
        let brute: Vec<PromiseId> = model
            .values()
            .filter(|r| r.expires_at <= now)
            .map(|r| r.id)
            .collect();
        prop_assert_eq!(table.none_expired(now), brute.is_empty());
        prop_assert_eq!(expired, brute, "expired ids at {}", now);

        for pool in POOLS.iter().copied().chain(["views"]).map(PoolId::from) {
            let live_in_pool = || {
                model
                    .values()
                    .filter(|r| r.is_live(now) && r.pools().contains(&&pool))
            };
            prop_assert_eq!(
                table.qty_demand(&pool, now, &[]),
                live_in_pool().map(|r| qty_on(r, &pool)).sum::<u64>()
            );
            prop_assert_eq!(
                table.first_live_in_pool(&pool, now, &[]),
                live_in_pool().map(|r| r.id).min()
            );
            let snap = table.snapshot_pools(now, std::slice::from_ref(&pool), &[]);
            prop_assert_eq!(
                snap.iter().map(|r| r.id).collect::<Vec<_>>(),
                live_in_pool().map(|r| r.id).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                table.promised_qty(&pool),
                model.values().map(|r| qty_on(r, &pool)).sum::<u64>()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After any sequence of inserts, replacements (same id, new pool and
    /// expiry), removals and take-expired sweeps, the expiry index, the
    /// pool index and the quantity aggregates answer exactly what a scan
    /// of the surviving records would.
    #[test]
    fn table_indexes_equal_brute_force(
        ops in proptest::collection::vec(
            (0u8..4, 0u8..3, 1u64..6, 1u64..64, any::<bool>(), 0usize..64),
            1..48,
        ),
    ) {
        let mut table = PromiseTable::new();
        let mut model: BTreeMap<PromiseId, PromiseRecord> = BTreeMap::new();
        for (kind, pool, amount, at, with_view, pick) in ops {
            let picked = model.keys().nth(pick % model.len().max(1)).copied();
            match (kind, picked) {
                (1, Some(id)) => {
                    let rec = record(id, pool, amount, at, with_view);
                    model.insert(id, rec.clone());
                    table.insert(Arc::new(rec));
                }
                (2, Some(id)) => {
                    prop_assert_eq!(table.remove(id), model.remove(&id).map(Arc::new));
                }
                (3, _) => {
                    let mut taken: Vec<PromiseId> =
                        table.take_expired(at).iter().map(|r| r.id).collect();
                    taken.sort();
                    let due: Vec<PromiseId> = model
                        .values()
                        .filter(|r| r.expires_at <= at)
                        .map(|r| r.id)
                        .collect();
                    model.retain(|_, r| r.expires_at > at);
                    prop_assert_eq!(taken, due);
                }
                _ => {
                    let rec = record(table.next_id(), pool, amount, at, with_view);
                    model.insert(rec.id, rec.clone());
                    table.insert(Arc::new(rec));
                }
            }
            assert_matches_model(&table, &model)?;
        }
    }
}

const GRACE_MS: u64 = 1_000;
const SHORT_MS: u64 = 50;
const LONG_MS: u64 = 1_000_000_000;
const EXPIRING: usize = 5;

fn qty_spec(tag: &str, amount: u64, duration_ms: u64) -> PromiseRequestSpec {
    PromiseRequestSpec::new(RequestId(tag.to_owned()), ClientId::from("t"))
        .predicate(Predicate::qty_at_least("w", amount))
        .duration_ms(duration_ms)
}

/// One quantity pool holding 10, 1 000 and 10 000 live promises: a grant
/// and an action's post-check clone no record, a prune clones exactly the
/// records that expired, and every tombstone is gone once its grace has
/// passed — the same counts at every size.
#[test]
fn work_per_operation_does_not_grow_with_the_table() {
    for size in [10usize, 1_000, 10_000] {
        let clock = Arc::new(ManualClock::new());
        let pm = PromiseManager::new(Arc::new(ResourceManager::new()), clock.clone())
            .with_tombstone_grace_ms(GRACE_MS);
        pm.register_pool(PoolSchema::quantity("w"));
        pm.seed_quantity("w", 10 * size as u64).unwrap();
        for i in 0..size {
            let duration = if i < EXPIRING { SHORT_MS } else { LONG_MS };
            let granted = pm.request(qty_spec(&format!("r{i}"), 1, duration)).unwrap();
            assert!(granted.decision.is_granted());
        }
        assert_eq!(pm.live_count(), size);

        let fresh = pm
            .request(qty_spec("fresh", 2, LONG_MS))
            .unwrap()
            .decision
            .granted_id()
            .expect("stock left");
        assert_eq!(
            pm.last_check_stats().promises_considered,
            0,
            "a quantity grant reads one aggregate at {size} live promises"
        );

        pm.execute(&Environment::none().releasing(fresh), |rm, txn| {
            rm.update(txn, Catalog::QTY_TABLE, "w", |r| {
                let q = r.int("qty").unwrap();
                r.set("qty", q - 2);
            })
            .map_err(ActionError::from)
        })
        .unwrap();
        let stats = pm.last_check_stats();
        assert_eq!(stats.pools_visited, vec![PoolId::from("w")]);
        assert_eq!(
            stats.promises_considered, 0,
            "a quantity post-check reads one aggregate at {size} live promises"
        );

        clock.advance(SHORT_MS);
        assert_eq!(pm.prune_expired().unwrap(), EXPIRING);
        assert_eq!(
            pm.last_check_stats().promises_considered,
            EXPIRING,
            "a prune reads the expired records only at {size} live promises"
        );
        assert_eq!(pm.live_count(), size - EXPIRING);
        assert_eq!(pm.tombstone_count(), EXPIRING);

        clock.advance(GRACE_MS - 1);
        pm.prune_expired().unwrap();
        assert_eq!(pm.tombstone_count(), EXPIRING, "still inside the grace");
        clock.advance(1);
        pm.prune_expired().unwrap();
        assert_eq!(pm.tombstone_count(), 0, "evicted once the grace has passed");
    }
}

/// One instance pool holding 10, 100 and 1 000 resident property promises
/// that between them ask four distinct things: a grant reads the pool's
/// table once and evaluates each distinct expression once per instance —
/// not once per resident slot per instance, which grows with the table.
/// It reads the residents where the table holds them: a grant that moves
/// no allocation copies no record, and one that forces a re-arrangement
/// copies exactly the promises it moves. The residents are what a restart
/// finds (journalled grants with their allocations), so building a rung costs
/// one replay, not a thousand checks.
#[test]
fn an_instance_pool_grant_reads_its_pool_once_whatever_the_residents() {
    const KINDS: usize = 4;
    let room = |i: usize| InstanceId(format!("{i:05}"));
    let wants = |kind: usize| {
        let kind = (kind % KINDS) as i64;
        vec![Predicate::property("rooms", PropExpr::eq("kind", kind), 1)]
    };
    for residents in [10usize, 100, 1_000] {
        let instances = residents + 2 * KINDS;
        let rm = Arc::new(ResourceManager::new());
        let pm = PromiseManager::new(rm, Arc::new(ManualClock::new()));
        pm.register_pool(PoolSchema::instances(
            "rooms",
            vec![PropertyDef::plain("kind")],
        ));
        let journal = Arc::new(PromiseJournal::new());
        for i in 0..instances {
            let kind = Record::new().with("kind", (i % KINDS) as i64);
            pm.seed_instance("rooms", room(i), kind).unwrap();
        }
        for i in 0..residents {
            journal.append(JournalOp::Grant(PromiseRecord {
                id: PromiseId(i as u64 + 1),
                client: ClientId::from("t"),
                request: RequestId(format!("r{i}")),
                predicates: wants(i),
                granted_at: 0,
                expires_at: LONG_MS,
                allocations: vec![Allocation {
                    pred_idx: 0,
                    instance: room(i),
                }],
            }));
        }
        assert_eq!(pm.recover(journal).unwrap().recovered, residents);

        let mut fresh = PromiseRequestSpec::new(RequestId("fresh".into()), ClientId::from("t"))
            .duration_ms(LONG_MS);
        fresh.predicates = wants(0);
        let granted = pm.request(fresh).unwrap().decision.granted_id();
        let held = pm.promise(granted.expect("two rooms of every kind are free"));
        let first_free = (residents..instances).find(|i| i % KINDS == 0).unwrap();
        assert_eq!(held.unwrap().allocations[0].instance, room(first_free));
        let stats = pm.last_check_stats();
        assert_eq!(stats.promises_considered, residents);
        assert_eq!(
            stats.records_copied, 0,
            "no allocation moved, no record copied at {residents} residents"
        );
        assert_eq!(
            stats.instance_passes, 1,
            "one pass over the pool at {residents} residents"
        );
        assert!(
            stats.predicate_evals <= 5 * instances,
            "{} evaluations over {instances} instances at {residents} residents",
            stats.predicate_evals
        );

        // Naming the rooms the first resident of each kind holds moves
        // those residents, each to a free room of its kind, and no other.
        let holdings = |pm: &PromiseManager| -> Vec<Vec<Allocation>> {
            (1..=residents as u64)
                .map(|id| pm.peek_promise(PromiseId(id)).unwrap().allocations)
                .collect()
        };
        let before = holdings(&pm);
        let mut named = PromiseRequestSpec::new(RequestId("named".into()), ClientId::from("t"))
            .duration_ms(LONG_MS);
        named.predicates = (0..KINDS)
            .map(|i| Predicate::named("rooms", room(i)))
            .collect();
        assert!(pm.request(named).unwrap().decision.is_granted());
        let moved = before
            .iter()
            .zip(holdings(&pm))
            .filter(|(was, now)| **was != *now)
            .count();
        assert_eq!(moved, KINDS);
        assert_eq!(
            pm.last_check_stats().records_copied,
            moved,
            "a re-arrangement copies exactly the moved promises at {residents} residents"
        );
    }
}
