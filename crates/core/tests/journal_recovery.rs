//! Crash-recovery integration tests for the durable promise journal:
//! a journalled manager is "crashed" (dropped), a fresh incarnation
//! replays the journal, and the rebuilt promise table must be
//! byte-equivalent to the pre-crash state — including per-pool quantity
//! aggregates, the expiry histogram, and the request-dedup index.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use promises_core::{
    JournalOp, ManualClock, PoolSchema, Predicate, PromiseDecision, PromiseId, PromiseJournal,
    PromiseManager, PromiseRequestSpec,
};
use promises_rm::{Record, ResourceManager, RowImages};

const LONG_MS: u64 = 10_000_000;

/// A journalled manager over two quantity pools.
fn journalled_pm(clock: &Arc<ManualClock>, journal: &Arc<PromiseJournal>) -> Arc<PromiseManager> {
    let rm = Arc::new(ResourceManager::new());
    let pm =
        Arc::new(PromiseManager::new(rm, Arc::clone(clock) as _).with_journal(Arc::clone(journal)));
    for pool in ["widgets", "gears"] {
        pm.register_pool(PoolSchema::quantity(pool));
        pm.seed_quantity(pool, 10_000).unwrap();
    }
    pm
}

fn spec(client: &str, request: &str, pool: &str, qty: u64, duration_ms: u64) -> PromiseRequestSpec {
    PromiseRequestSpec::new(request, client)
        .predicate(Predicate::qty_at_least(pool, qty))
        .duration_ms(duration_ms)
}

fn grant(pm: &PromiseManager, s: PromiseRequestSpec) -> PromiseId {
    pm.request(s).unwrap().decision.granted_id().expect("grant")
}

#[test]
fn crash_restart_rebuilds_byte_equivalent_state() {
    let clock = Arc::new(ManualClock::new());
    let journal = Arc::new(PromiseJournal::new());
    let pm = journalled_pm(&clock, &journal);

    // Grants across both pools, from several clients, with varied TTLs so
    // the expiry histogram has more than one bucket.
    let mut ids = Vec::new();
    for i in 0..10u64 {
        let pool = if i % 2 == 0 { "widgets" } else { "gears" };
        let s = spec(
            &format!("client-{}", i % 3),
            &format!("order-{i}"),
            pool,
            (i % 4) + 1,
            LONG_MS + i * 1_000,
        );
        ids.push(grant(&pm, s));
    }
    // Release a few so the journal has R records interleaved with G.
    for id in [ids[1], ids[4], ids[7]] {
        pm.release(id).unwrap();
    }

    let pre_digest = pm.state_digest();
    let pre_qty = pm.promised_quantities();
    let pre_live = pm.live_count();
    drop(pm); // crash

    let pm2 = journalled_pm(&clock, &Arc::new(PromiseJournal::new()));
    let report = pm2.recover(Arc::clone(&journal)).unwrap();
    assert_eq!(report.replayed, 13, "10 grants + 3 releases");
    assert_eq!(report.recovered, pre_live);
    assert_eq!(report.pruned, 0);
    assert_eq!(report.generation, 1);

    assert_eq!(
        pm2.state_digest(),
        pre_digest,
        "recovered table must be byte-equivalent"
    );
    assert_eq!(pm2.promised_quantities(), pre_qty);
    assert_eq!(pm2.live_count(), pre_live);

    // The request-dedup index was rebuilt: re-sending a pre-crash request
    // returns the original promise instead of double-granting.
    let again = grant(&pm2, spec("client-0", "order-0", "widgets", 1, LONG_MS));
    assert_eq!(again, ids[0]);
    assert_eq!(
        pm2.live_count(),
        pre_live,
        "dedup hit must not create a promise"
    );

    // Fresh requests still get ids above every replayed one.
    let fresh = grant(&pm2, spec("client-9", "order-new", "gears", 1, LONG_MS));
    assert!(fresh.0 > ids.iter().map(|i| i.0).max().unwrap());
}

#[test]
fn promises_expiring_while_down_are_pruned_and_never_readmitted() {
    let clock = Arc::new(ManualClock::new());
    let journal = Arc::new(PromiseJournal::new());
    let pm = journalled_pm(&clock, &journal);

    let doomed: Vec<PromiseId> = (0..4)
        .map(|i| grant(&pm, spec("c", &format!("short-{i}"), "widgets", 2, 50)))
        .collect();
    let survivors: Vec<PromiseId> = (0..3)
        .map(|i| grant(&pm, spec("c", &format!("long-{i}"), "gears", 3, LONG_MS)))
        .collect();
    drop(pm); // crash while all 7 are live

    clock.advance(1_000); // the short promises expire during the outage

    let pm2 = journalled_pm(&clock, &Arc::new(PromiseJournal::new()));
    let report = pm2.recover(Arc::clone(&journal)).unwrap();
    assert_eq!(report.recovered, 7, "replay first rebuilds everything");
    assert_eq!(report.pruned, 4, "then expiry-aware pruning drops the dead");
    assert_eq!(pm2.live_count(), survivors.len());
    for id in &doomed {
        assert!(
            pm2.promise(*id).is_none(),
            "expired promise {id:?} re-admitted"
        );
    }
    for id in &survivors {
        assert!(pm2.promise(*id).is_some());
    }
    // Only the surviving pool still has promised quantity.
    assert_eq!(pm2.promised_quantities(), vec![("gears".into(), 9)]);

    // The recovery appended generation-stamped Expire records, so a *second*
    // incarnation recovering from the same journal sees them as ordinary
    // history: nothing left to prune, identical state, and the expired
    // promises stay gone even though their Grant records are replayed.
    let pm3 = journalled_pm(&clock, &Arc::new(PromiseJournal::new()));
    let report3 = pm3.recover(Arc::clone(&journal)).unwrap();
    assert_eq!(report3.pruned, 0);
    assert_eq!(report3.generation, 2);
    assert_eq!(pm3.state_digest(), pm2.state_digest());
    for id in &doomed {
        assert!(pm3.promise(*id).is_none());
    }

    // And a dedup probe for an expired request must not resurrect it with
    // the old id: the tombstone forces a fresh grant.
    let revived = grant(&pm3, spec("c", "short-0", "widgets", 2, LONG_MS));
    assert!(
        !doomed.contains(&revived),
        "expired promise id must not be re-issued"
    );
}

#[test]
fn compaction_preserves_recovery_byte_for_byte() {
    let clock = Arc::new(ManualClock::new());
    let journal = Arc::new(PromiseJournal::new());
    let pm = journalled_pm(&clock, &journal);

    let mut ids = Vec::new();
    for i in 0..12u64 {
        let pool = if i % 2 == 0 { "widgets" } else { "gears" };
        let s = spec(
            &format!("client-{}", i % 3),
            &format!("order-{i}"),
            pool,
            (i % 4) + 1,
            LONG_MS + i * 1_000,
        );
        ids.push(grant(&pm, s));
    }
    for id in [ids[0], ids[3], ids[6], ids[9]] {
        pm.release(id).unwrap();
    }
    let history_len = journal.len();
    let pre_digest = pm.state_digest();

    // Ground truth: recovery over the uncompacted history.
    let reference = Arc::new(PromiseJournal::from_lines(&journal.lines()).unwrap());
    let pm_ref = journalled_pm(&clock, &Arc::new(PromiseJournal::new()));
    pm_ref.recover(reference).unwrap();
    assert_eq!(pm_ref.state_digest(), pre_digest);

    // Compaction folds 16 records into one checkpoint…
    let report = pm.compact().unwrap().expect("journal attached");
    assert_eq!(report.dropped, history_len);
    assert_eq!(report.live, 8);
    assert_eq!(journal.len(), 1);
    assert_eq!(
        pm.state_digest(),
        pre_digest,
        "compaction must not disturb the live manager"
    );
    drop(pm); // crash

    // …and recovery over the checkpoint is byte-identical.
    let pm2 = journalled_pm(&clock, &Arc::new(PromiseJournal::new()));
    let rec = pm2.recover(Arc::clone(&journal)).unwrap();
    assert_eq!(rec.replayed, 1, "one checkpoint record is the whole replay");
    assert_eq!(pm2.state_digest(), pre_digest);

    // The dedup index survives the checkpoint (live records carry their
    // request keys)…
    let again = grant(
        &pm2,
        spec("client-1", "order-1", "gears", 2, LONG_MS + 1_000),
    );
    assert_eq!(again, ids[1]);
    // …and the id high-water does too: released ids 0/3/6/9 are gone from
    // the checkpoint, but fresh grants must never reuse them.
    let fresh = grant(&pm2, spec("client-9", "order-new", "widgets", 1, LONG_MS));
    assert!(fresh.0 > ids.iter().map(|i| i.0).max().unwrap());
}

/// A `W` line — an action's row writes — cut short anywhere, or holding
/// a value with an unknown tag, is a `JournalError`, never a panic and
/// never a shorter row.
#[test]
fn malformed_write_lines_are_errors_not_panics() {
    let suite = Record::new()
        .with("_status", "taken")
        .with("floor", -3i64)
        .with("view", true);
    let rows = RowImages::from([
        (("inst:suites".into(), "suite-1".into()), Some(suite)),
        (("qty_pools".into(), "gone".into()), None),
    ]);
    let journal = PromiseJournal::new();
    journal.append(JournalOp::Write(rows));
    let line = journal.lines().remove(0);
    assert!(PromiseJournal::from_lines(&[&line]).is_ok());
    for cut in (0..line.len()).filter(|&at| line.is_char_boundary(at)) {
        let torn = PromiseJournal::from_lines(&[&line[..cut]]);
        assert!(torn.is_err(), "{:?} decoded", &line[..cut]);
    }
    for (good, bad) in [
        ("\tI-3", "\tX-3"),
        ("\tI-3", "\tI3x"),
        ("\tBtrue", "\tByes"),
        ("\tStaken", "\tütaken"),
        ("\tStaken", "\t"),
        ("\t3\t", "\tthree\t"),
    ] {
        let broken = line.replacen(good, bad, 1);
        assert!(
            PromiseJournal::from_lines(&[broken]).is_err(),
            "{bad:?} decoded"
        );
    }
}

#[test]
fn torn_trailing_record_recovers_from_the_prefix() {
    let clock = Arc::new(ManualClock::new());
    let journal = Arc::new(PromiseJournal::new());
    let pm = journalled_pm(&clock, &journal);
    for i in 0..6u64 {
        grant(&pm, spec("c", &format!("r{i}"), "widgets", i + 1, LONG_MS));
    }
    pm.release(PromiseId(2)).unwrap();
    drop(pm); // crash mid-append: the final record is half-written

    let mut lines = journal.lines();
    let last = lines.last_mut().unwrap();
    last.truncate(last.len() / 2);

    let (torn_journal, torn) = PromiseJournal::from_lines_tolerant(&lines).unwrap();
    assert!(torn.is_some(), "the chopped tail must be reported");
    assert_eq!(torn_journal.len(), lines.len() - 1);

    // Ground truth: the journal as if the torn append had never happened.
    let prefix = Arc::new(PromiseJournal::from_lines(&lines[..lines.len() - 1]).unwrap());
    let pm_ref = journalled_pm(&clock, &Arc::new(PromiseJournal::new()));
    pm_ref.recover(prefix).unwrap();

    let pm2 = journalled_pm(&clock, &Arc::new(PromiseJournal::new()));
    pm2.recover(Arc::new(torn_journal)).unwrap();
    assert_eq!(
        pm2.state_digest(),
        pm_ref.state_digest(),
        "torn-tail recovery equals recovery from the intact prefix"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compacting at *any* point in the history is invisible to recovery:
    /// a manager that checkpoints after op `k` and one that never compacts
    /// reach byte-identical post-recovery state, for arbitrary
    /// interleavings of grants, releases, and downtime expiry.
    #[test]
    fn compaction_at_a_random_point_is_invisible_to_recovery(
        ops in proptest::collection::vec(
            (0u8..2, 1u64..5, any::<bool>(), any::<bool>()),
            1..24,
        ),
        compact_at_raw in 0usize..24,
        downtime_ms in 0u64..2_000,
    ) {
        let compact_at = compact_at_raw % ops.len();
        let clock = Arc::new(ManualClock::new());
        let journal_plain = Arc::new(PromiseJournal::new());
        let journal_compacted = Arc::new(PromiseJournal::new());
        let pm_plain = journalled_pm(&clock, &journal_plain);
        let pm_compacted = journalled_pm(&clock, &journal_compacted);

        for (i, (pool, qty, short, release)) in ops.iter().enumerate() {
            let pool = if *pool == 0 { "widgets" } else { "gears" };
            let duration = if *short { 50 } else { LONG_MS };
            for pm in [&pm_plain, &pm_compacted] {
                let s = spec(&format!("c{}", i % 3), &format!("r{i}"), pool, *qty, duration);
                let id = grant(pm, s);
                if *release {
                    pm.release(id).unwrap();
                }
            }
            if i == compact_at {
                pm_compacted.compact().unwrap();
            }
        }
        drop(pm_plain);
        drop(pm_compacted);
        clock.advance(downtime_ms);

        let pm_a = journalled_pm(&clock, &Arc::new(PromiseJournal::new()));
        pm_a.recover(Arc::clone(&journal_plain)).unwrap();
        let pm_b = journalled_pm(&clock, &Arc::new(PromiseJournal::new()));
        pm_b.recover(Arc::clone(&journal_compacted)).unwrap();

        prop_assert!(journal_compacted.len() <= journal_plain.len());
        prop_assert_eq!(pm_b.state_digest(), pm_a.state_digest());
        prop_assert_eq!(pm_b.live_count(), pm_a.live_count());
        prop_assert_eq!(pm_b.promised_quantities(), pm_a.promised_quantities());
    }

    /// Replaying a journal twice is a no-op: two fresh managers recovering
    /// from the same journal (the second seeing the first's recovery
    /// records) reach byte-identical state, for arbitrary interleavings of
    /// grants, releases, and downtime expiry.
    #[test]
    fn replaying_a_journal_twice_is_a_noop(
        ops in proptest::collection::vec(
            (0u8..2, 1u64..5, any::<bool>(), any::<bool>()),
            1..24,
        ),
        downtime_ms in 0u64..2_000,
    ) {
        let clock = Arc::new(ManualClock::new());
        let journal = Arc::new(PromiseJournal::new());
        let pm = journalled_pm(&clock, &journal);

        let mut live = Vec::new();
        for (i, (pool, qty, short, release)) in ops.iter().enumerate() {
            let pool = if *pool == 0 { "widgets" } else { "gears" };
            let duration = if *short { 50 } else { LONG_MS };
            let s = spec(&format!("c{}", i % 3), &format!("r{i}"), pool, *qty, duration);
            let id = grant(&pm, s);
            if *release {
                pm.release(id).unwrap();
            } else {
                live.push(id);
            }
        }
        drop(pm);
        clock.advance(downtime_ms);

        let pm_a = journalled_pm(&clock, &Arc::new(PromiseJournal::new()));
        let report_a = pm_a.recover(Arc::clone(&journal)).unwrap();
        let digest_a = pm_a.state_digest();

        // Second replay of the (now extended) journal: same state, nothing
        // new to prune.
        let pm_b = journalled_pm(&clock, &Arc::new(PromiseJournal::new()));
        let report_b = pm_b.recover(Arc::clone(&journal)).unwrap();
        prop_assert_eq!(pm_b.state_digest(), digest_a);
        prop_assert_eq!(report_b.pruned, 0);
        prop_assert_eq!(report_b.recovered, report_a.recovered - report_a.pruned);
        prop_assert_eq!(pm_b.live_count(), pm_a.live_count());
        prop_assert_eq!(pm_b.promised_quantities(), pm_a.promised_quantities());
    }
}

/// The lifecycle ground truth counts a prepared hold, and every live
/// record a compaction checkpoint carries, as granted.
#[test]
fn facts_count_prepared_holds_and_checkpointed_grants() {
    let journal = Arc::new(PromiseJournal::new());
    let pm = PromiseManager::new(
        Arc::new(ResourceManager::new()),
        Arc::new(ManualClock::new()),
    )
    .with_journal(Arc::clone(&journal));
    pm.register_pool(PoolSchema::quantity("w"));
    pm.seed_quantity("w", 10).unwrap();
    let grant = |rid: &str, prepared: bool| {
        let spec = PromiseRequestSpec::new(rid, "c").predicate(Predicate::qty_at_least("w", 1));
        let response = if prepared {
            pm.request_prepared(spec)
        } else {
            pm.request(spec)
        };
        match response.expect("request").decision {
            PromiseDecision::Granted { promise, .. } => promise.0,
            other => panic!("{rid}: {other:?}"),
        }
    };
    let folded = grant("r1", false);
    let folded_hold = grant("r2", true);
    pm.compact().expect("compaction");
    let hold = grant("r3", true);
    let facts = journal.facts();
    assert_eq!(facts.granted, BTreeSet::from([folded, folded_hold, hold]));
    assert!(facts.released.is_empty() && facts.expired.is_empty());
}
