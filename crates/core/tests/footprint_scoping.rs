//! Footprint-scoped locking tests: disjoint-pool parallelism without
//! deadlock retries, post-checks restricted to written pools, and the
//! lock-wait / check latency counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use promises_core::{
    status, ActionError, Catalog, CheckStrategy, ClientId, Clock, Environment, LockingMode, PoolId,
    PoolSchema, Predicate, PromiseError, PromiseId, PromiseJournal, PromiseManager, PromiseRecord,
    PromiseRequestSpec, PropExpr, PropertyDef, RequestId, SystemClock,
};
use promises_rm::{Record, ResourceManager};

fn pm_with(mode: LockingMode) -> Arc<PromiseManager> {
    Arc::new(
        PromiseManager::new(
            Arc::new(ResourceManager::new()),
            Arc::new(SystemClock::new()),
        )
        .with_locking_mode(mode),
    )
}

fn qty_request(n: &str, pool: &str, amount: u64) -> PromiseRequestSpec {
    PromiseRequestSpec::new(RequestId(n.to_owned()), ClientId("t".into()))
        .predicate(Predicate::qty_at_least(pool, amount))
}

/// Consumes `amount` from `pool` under promise `id` (releasing it).
fn consume(pm: &PromiseManager, id: promises_core::PromiseId, pool: &str, amount: i64) {
    let pool = pool.to_owned();
    pm.execute(&Environment::none().releasing(id), move |rm, txn| {
        rm.update(txn, Catalog::QTY_TABLE, &pool, |r| {
            let q = r.int("qty").unwrap();
            r.set("qty", q - amount);
        })
        .map_err(ActionError::from)
    })
    .expect("protected consumption succeeds");
}

/// Threads working entirely disjoint pools never touch a common sync
/// point or data granule under footprint locking, so every operation
/// succeeds on its first attempt: zero deadlock retries.
#[test]
fn disjoint_pools_run_without_deadlock_retries() {
    const THREADS: usize = 8;
    const OPS: u64 = 30;
    let pm = pm_with(LockingMode::Footprint);
    for t in 0..THREADS {
        let pool = format!("pool{t}");
        pm.register_pool(PoolSchema::quantity(pool.as_str()));
        pm.seed_quantity(pool.as_str(), 10 * OPS).unwrap();
    }

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let pm = Arc::clone(&pm);
            scope.spawn(move || {
                let pool = format!("pool{t}");
                for i in 0..OPS {
                    let resp = pm
                        .request(qty_request(&format!("{t}-{i}"), &pool, 2))
                        .unwrap();
                    let id = resp
                        .decision
                        .granted_id()
                        .expect("pool never oversubscribed");
                    consume(&pm, id, &pool, 2);
                }
            });
        }
    });

    let m = pm.metrics();
    assert_eq!(m.deadlock_retries, 0, "disjoint footprints never conflict");
    assert_eq!(m.granted, (THREADS as u64) * OPS);
    assert_eq!(m.executions, (THREADS as u64) * OPS);
    assert_eq!(m.violations_rolled_back, 0);
    assert_eq!(pm.live_count(), 0);

    let rm = pm.rm();
    let txn = rm.begin();
    for t in 0..THREADS {
        let left = rm
            .get(&txn, Catalog::QTY_TABLE, &format!("pool{t}"))
            .unwrap()
            .unwrap()
            .int("qty")
            .unwrap();
        assert_eq!(left, (10 * OPS - 2 * OPS) as i64);
    }
    rm.commit(txn).unwrap();
}

/// Threads overlapping on shared pools stay correct under footprint
/// locking: the shared pool is never oversubscribed and every protected
/// consumption succeeds (retries may happen; safety must not give).
#[test]
fn overlapping_pools_stay_correct_under_contention() {
    const THREADS: usize = 6;
    let pm = pm_with(LockingMode::Footprint);
    pm.register_pool(PoolSchema::quantity("shared"));
    pm.seed_quantity("shared", 1_000).unwrap();
    pm.register_pool(PoolSchema::quantity("side"));
    pm.seed_quantity("side", 1_000).unwrap();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let pm = Arc::clone(&pm);
            scope.spawn(move || {
                for i in 0..20 {
                    // Alternate between the contended pool and a promise
                    // spanning both pools (overlapping footprints).
                    let spec = if i % 2 == 0 {
                        qty_request(&format!("s{t}-{i}"), "shared", 3)
                    } else {
                        qty_request(&format!("b{t}-{i}"), "shared", 2)
                            .predicate(Predicate::qty_at_least("side", 1))
                    };
                    if let Some(id) = pm.request(spec).unwrap().decision.granted_id() {
                        if i % 4 == 3 {
                            pm.release(id).unwrap();
                        } else {
                            consume(&pm, id, "shared", 2);
                        }
                    }
                }
            });
        }
    });

    assert_eq!(pm.live_count(), 0);
    assert_eq!(pm.metrics().violations_rolled_back, 0);
    let rm = pm.rm();
    let txn = rm.begin();
    let left = rm
        .get(&txn, Catalog::QTY_TABLE, "shared")
        .unwrap()
        .unwrap()
        .int("qty")
        .unwrap();
    rm.commit(txn).unwrap();
    assert!(left >= 0, "shared stock never negative (got {left})");
    assert_eq!(rm.locked_granules(), 0, "no leaked locks");
}

fn seeded_four_pool_pm(mode: LockingMode) -> Arc<PromiseManager> {
    let pm = pm_with(mode);
    for i in 0..4 {
        let pool = format!("p{i}");
        pm.register_pool(PoolSchema::quantity(pool.as_str()));
        pm.seed_quantity(pool.as_str(), 100).unwrap();
        pm.request(qty_request(&format!("r{i}"), &pool, 5))
            .unwrap()
            .decision
            .granted_id()
            .expect("plenty of stock");
    }
    pm
}

fn restock_p0(pm: &PromiseManager) {
    pm.execute(&Environment::none(), |rm, txn| {
        rm.update(txn, Catalog::QTY_TABLE, "p0", |r| {
            let q = r.int("qty").unwrap();
            r.set("qty", q + 1);
        })
        .map_err(ActionError::from)
    })
    .unwrap();
}

/// With four pools each holding one promise, an action writing only `p0`
/// must re-check only `p0` — the checker's own counters prove the other
/// three pools were never scanned.
#[test]
fn post_check_visits_only_written_pools() {
    let pm = seeded_four_pool_pm(LockingMode::Footprint);
    restock_p0(&pm);
    let stats = pm.last_check_stats();
    assert_eq!(
        stats.pools_visited,
        vec![PoolId::from("p0")],
        "only the written pool is re-checked"
    );
    assert_eq!(
        stats.promises_considered, 0,
        "a quantity pool is re-checked from its aggregate: no record is cloned"
    );
}

/// The global-locking baseline re-checks every pool with a live promise —
/// the contrast that makes the previous test meaningful.
#[test]
fn global_mode_post_check_visits_every_live_pool() {
    let pm = seeded_four_pool_pm(LockingMode::Global);
    restock_p0(&pm);
    let stats = pm.last_check_stats();
    assert_eq!(stats.pools_visited.len(), 4, "whole-table re-check");
    assert_eq!(stats.promises_considered, 4, "whole-table snapshot");
}

/// The latency counters actually accumulate: every grant/execute records
/// one lock acquisition and one checking pass.
#[test]
fn latency_counters_accumulate_per_operation() {
    let pm = seeded_four_pool_pm(LockingMode::Footprint);
    restock_p0(&pm);
    let m = pm.metrics();
    assert_eq!(m.grant_lat.lock_wait_ops(), 4);
    assert_eq!(m.grant_lat.check_ops(), 4);
    assert_eq!(m.execute_lat.lock_wait_ops(), 1);
    assert_eq!(m.execute_lat.check_ops(), 1);
    assert_eq!(m.prune_lat.lock_wait_ops(), 0, "nothing expired, fast path");
}

/// Both locking modes make identical decisions on a sequential workload:
/// footprint scoping changes parallelism, never admission semantics.
#[test]
fn modes_agree_on_sequential_decisions() {
    let run = |mode: LockingMode| {
        let pm = pm_with(mode);
        pm.register_pool(PoolSchema::quantity("w"));
        pm.seed_quantity("w", 10).unwrap();
        let mut decisions = Vec::new();
        let mut granted = Vec::new();
        for i in 0..6 {
            let resp = pm.request(qty_request(&format!("r{i}"), "w", 3)).unwrap();
            decisions.push(resp.decision.is_granted());
            if let Some(id) = resp.decision.granted_id() {
                granted.push(id);
            }
        }
        // Release one, then a grant that only now fits.
        pm.release(granted[0]).unwrap();
        let resp = pm.request(qty_request("again", "w", 3)).unwrap();
        decisions.push(resp.decision.is_granted());
        decisions
    };
    assert_eq!(run(LockingMode::Footprint), run(LockingMode::Global));
}

/// A clock that moves `step` ms at every reading (and on demand). At
/// `step == 0` it is a manual clock; at `step == 1` time passes *inside*
/// an operation, between its lazy prune and its check, so promises sit in
/// the table expired-but-unpruned — the state in which the footprint path
/// re-sums a pool's live demand instead of trusting the aggregate.
struct SteppingClock {
    now: AtomicU64,
    step: AtomicU64,
}

impl Clock for SteppingClock {
    fn now_ms(&self) -> u64 {
        self.now
            .fetch_add(self.step.load(Ordering::SeqCst), Ordering::SeqCst)
    }
}

/// What a differential world's client holds.
#[derive(Debug, Clone, Copy)]
struct Held {
    id: PromiseId,
    /// Quantity held, if any, for the purchase under it.
    qty: Option<(&'static str, u64)>,
    /// True if it holds a suite (tentatively allocated, so observable).
    suite: bool,
}

/// One manager in one locking mode, with its own clock, storage and
/// journal. The storage and the journal's lines outlive a crash.
struct World {
    pm: PromiseManager,
    mode: LockingMode,
    rm: Arc<ResourceManager>,
    journal: Arc<PromiseJournal>,
    clock: Arc<SteppingClock>,
    held: Vec<Held>,
    /// Every request sent so far, for resending.
    sent: Vec<(PromiseRequestSpec, Held)>,
    /// Every promise id ever granted.
    granted: Vec<PromiseId>,
}

const QTY_POOLS: [&str; 2] = ["w", "x"];

impl World {
    /// A manager over `rm` with the four pools registered (not seeded).
    fn manager(
        mode: LockingMode,
        rm: &Arc<ResourceManager>,
        clock: &Arc<SteppingClock>,
    ) -> PromiseManager {
        let pm = PromiseManager::new(rm.clone(), clock.clone())
            .with_locking_mode(mode)
            .with_tombstone_grace_ms(60);
        pm.register_pool(PoolSchema::quantity("w"));
        pm.register_pool(PoolSchema::quantity("x"));
        // Distinguishable rooms, checked by satisfiability alone.
        pm.register_pool(
            PoolSchema::instances("rooms", vec![PropertyDef::plain("view")])
                .with_strategy(CheckStrategy::Satisfiability),
        );
        // Interchangeable suites, tentatively allocated and re-arranged.
        pm.register_pool(PoolSchema::instances("suites", vec![]));
        pm
    }

    fn new(mode: LockingMode, step: u64) -> Self {
        let clock = Arc::new(SteppingClock {
            now: AtomicU64::new(0),
            step: AtomicU64::new(step),
        });
        let rm = Arc::new(ResourceManager::new());
        let journal = Arc::new(PromiseJournal::new());
        let pm = Self::manager(mode, &rm, &clock).with_journal(journal.clone());
        pm.seed_quantity("w", 12).unwrap();
        pm.seed_quantity("x", 8).unwrap();
        for (room, view) in [("r0", true), ("r1", true), ("r2", false), ("r3", false)] {
            pm.seed_instance("rooms", room, Record::new().with("view", view))
                .unwrap();
        }
        for suite in ["s0", "s1", "s2"] {
            pm.seed_instance("suites", suite, Record::new()).unwrap();
        }
        Self {
            pm,
            mode,
            rm,
            journal,
            clock,
            held: Vec::new(),
            sent: Vec::new(),
            granted: Vec::new(),
        }
    }

    fn request(&mut self, spec: PromiseRequestSpec, holds: Held) -> String {
        self.submit(spec, holds, false)
    }

    /// A first sending of `spec`, remembered for resending.
    fn submit(&mut self, spec: PromiseRequestSpec, holds: Held, prepared: bool) -> String {
        self.sent.push((spec.clone(), holds));
        self.send(spec, holds, prepared)
    }

    /// Sends `spec` (as a prepared hold if `prepared`); a grant — fresh or
    /// answered from the request index — is held once.
    fn send(&mut self, spec: PromiseRequestSpec, holds: Held, prepared: bool) -> String {
        let response = if prepared {
            self.pm.request_prepared(spec)
        } else {
            self.pm.request(spec)
        };
        let decision = response.unwrap().decision;
        if let Some(id) = decision.granted_id() {
            if !self.granted.contains(&id) {
                self.granted.push(id);
            }
            if !self.held.iter().any(|held| held.id == id) {
                self.held.push(Held { id, ..holds });
            }
        }
        format!("{decision:?}")
    }

    /// Kills the manager and recovers a fresh one over the same storage
    /// from the journal's lines. The clock stands still meanwhile, so
    /// nothing expires between the two digests, which must be byte-equal.
    fn crash_and_recover(&mut self) -> String {
        let step = self.clock.step.swap(0, Ordering::SeqCst);
        self.pm.prune_expired().unwrap();
        let before = self.pm.state_digest();
        let lines = self.journal.lines();
        self.journal = Arc::new(PromiseJournal::from_lines(&lines).unwrap());
        self.pm = Self::manager(self.mode, &self.rm, &self.clock);
        let report = self.pm.recover(self.journal.clone()).unwrap();
        assert_eq!(self.pm.state_digest(), before, "recovered state");
        self.clock.step.store(step, Ordering::SeqCst);
        format!(
            "recovered {} in doubt {}",
            report.recovered, report.in_doubt
        )
    }

    /// Every record in the table, found through the ids ever granted.
    fn records(&self) -> Vec<PromiseRecord> {
        let records: Vec<PromiseRecord> = self
            .granted
            .iter()
            .filter_map(|id| self.pm.peek_promise(*id))
            .collect();
        let listed = self.pm.state_digest();
        let listed = listed.lines().filter(|l| l.starts_with("promise "));
        assert_eq!(records.len(), listed.count(), "a record nobody was granted");
        records
    }

    /// No mark outlives its record: every prepared mark is on a record in
    /// the table, and a request key resolves to a promise exactly when a
    /// live record carries it.
    fn assert_marks_follow_records(&self) {
        let records = self.records();
        for id in self.pm.prepared_ids() {
            assert!(
                records.iter().any(|rec| rec.id == id),
                "prepared mark on absent {id}"
            );
        }
        for (spec, _) in &self.sent {
            // The reading the manager is about to take.
            let now = self.clock.now.load(Ordering::SeqCst);
            let found = self.pm.promise_for_request(&spec.client, &spec.request);
            let live: Vec<PromiseId> = records
                .iter()
                .filter(|rec| rec.request == spec.request && rec.is_live(now))
                .map(|rec| rec.id)
                .collect();
            assert!(live.len() <= 1, "{} granted twice: {live:?}", spec.request);
            assert_eq!(found, live.first().copied(), "key {}", spec.request);
        }
    }

    /// Takes whatever `held` stands for inside one action that also
    /// releases it: its quantity off the pool, the suite it was allocated,
    /// or else the first free room.
    fn purchase(&mut self, held: Held) -> String {
        let suite = if held.suite {
            match self.pm.promise(held.id) {
                Some(rec) => rec
                    .allocated_in(&PoolId::from("suites"))
                    .first()
                    .map(|i| i.0.clone()),
                None => return "gone".to_owned(),
            }
        } else {
            None
        };
        let result = self
            .pm
            .execute(&Environment::none().releasing(held.id), |rm, txn| {
                if let Some((pool, amount)) = held.qty {
                    rm.update(txn, Catalog::QTY_TABLE, pool, |r| {
                        let q = r.int("qty").unwrap();
                        r.set("qty", q - amount as i64);
                    })?;
                    return Ok(());
                }
                let (pool, key) = match &suite {
                    Some(key) => ("suites", key.clone()),
                    None => {
                        let table = Catalog::instance_table(&PoolId::from("rooms"));
                        let mut rooms = rm.scan(txn, &table)?;
                        rooms.sort_by(|a, b| a.0.cmp(&b.0));
                        let free = rooms
                            .into_iter()
                            .find(|(_, r)| r.str(Catalog::STATUS) == Some(status::AVAILABLE));
                        match free {
                            Some((key, _)) => ("rooms", key),
                            None => return Err(ActionError::App("no free room".into())),
                        }
                    }
                };
                let table = Catalog::instance_table(&PoolId::from(pool));
                rm.update(txn, &table, &key, |r| r.set(Catalog::STATUS, status::TAKEN))?;
                Ok(())
            });
        outcome(result)
    }

    /// An action under no promise that drains `w`: rolled back whenever a
    /// live promise still needs the stock.
    fn rogue_drain(&mut self, amount: u64) -> String {
        outcome(self.pm.execute(&Environment::none(), |rm, txn| {
            rm.update(txn, Catalog::QTY_TABLE, "w", |r| {
                let q = r.int("qty").unwrap();
                r.set("qty", (q - amount as i64).max(0));
            })?;
            Ok(())
        }))
    }

    /// Runs op `i` — `(kind, pick, amount, duration, advance)` — and says
    /// what came of it. Release, purchase, exchange, commit, abort and
    /// observe need something held, a resend something sent; without it
    /// they fall through to a clock advance.
    fn step(&mut self, i: usize, op: (u8, usize, u64, u64, u64)) -> String {
        let (kind, pick, amount, duration, advance) = op;
        let spec = PromiseRequestSpec::new(RequestId(format!("r{i}")), ClientId::from("c"))
            .duration_ms(duration);
        let pool = QTY_POOLS[pick % QTY_POOLS.len()];
        let qty = Held {
            id: PromiseId(0),
            qty: Some((pool, amount)),
            suite: false,
        };
        let room = Held { qty: None, ..qty };
        let picked = (!self.held.is_empty()).then(|| pick % self.held.len());
        match (kind, picked) {
            (0, _) => self.request(spec.predicate(Predicate::qty_at_least(pool, amount)), qty),
            (1, _) => {
                let wanted = [
                    PropExpr::True,
                    PropExpr::eq("view", true),
                    PropExpr::eq("view", false),
                ];
                let expr = wanted[pick % wanted.len()].clone();
                self.request(spec.predicate(Predicate::property("rooms", expr, 1)), room)
            }
            (2, _) => self.request(
                spec.predicate(Predicate::property("suites", PropExpr::True, 1)),
                Held {
                    suite: true,
                    ..room
                },
            ),
            (3, _) => self.request(
                spec.predicate(Predicate::qty_at_least(pool, amount))
                    .predicate(Predicate::property("rooms", PropExpr::True, 1)),
                qty,
            ),
            (4, Some(at)) => {
                let held = self.held.remove(at);
                format!("{:?}", self.pm.release(held.id))
            }
            (5, Some(at)) => {
                let held = self.held.remove(at);
                self.purchase(held)
            }
            (6, Some(at)) => {
                let old = self.held.remove(at);
                self.request(
                    spec.predicate(Predicate::qty_at_least(pool, amount))
                        .exchanging(old.id),
                    qty,
                )
            }
            (7, _) => self.rogue_drain(2 * amount),
            (9, _) => {
                let spec = spec.predicate(Predicate::qty_at_least(pool, amount));
                self.submit(spec, qty, true)
            }
            (10, Some(at)) => format!("{:?}", self.pm.commit_prepared(self.held[at].id)),
            (11, Some(at)) => {
                let held = self.held.remove(at);
                format!("{:?}", self.pm.abort_prepared(held.id))
            }
            (12, _) if !self.sent.is_empty() => {
                let (spec, holds) = self.sent[pick % self.sent.len()].clone();
                self.send(spec, holds, false)
            }
            (13, Some(at)) => {
                // Observe (and so pin) a held promise's allocations, then
                // ask for a suite: the matcher must work around the pin.
                let seen = self.pm.promise(self.held[at].id).is_some();
                let suite = spec.predicate(Predicate::property("suites", PropExpr::True, 1));
                let holds = Held {
                    suite: true,
                    ..room
                };
                format!("seen {seen} {}", self.request(suite, holds))
            }
            (14, _) => self.crash_and_recover(),
            _ => {
                self.clock.now.fetch_add(advance, Ordering::SeqCst);
                format!("{:?}", self.pm.prune_expired())
            }
        }
    }

    /// The digest without allocation lines: *which* of several
    /// interchangeable suites the matcher picks depends on the order
    /// records are handed to it, which the global snapshot does not fix.
    fn digest(&self) -> String {
        self.pm
            .state_digest()
            .lines()
            .filter(|line| !line.starts_with("  alloc "))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// An action's outcome with the victim of a violation left out: the
/// global path names an arbitrary one of the violated promises.
fn outcome(result: Result<(), PromiseError>) -> String {
    match result {
        Ok(()) => "ok".to_owned(),
        Err(PromiseError::ViolationRolledBack { .. }) => "violation".to_owned(),
        Err(e) => e.to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The footprint path (aggregate-only quantity checks, instance-pool
    /// snapshots, index-driven prune) and the global path (whole-table
    /// snapshot, kept as the oracle) make the same decision on every step
    /// of any sequence of requests (plain, prepared, resent), releases,
    /// purchases, exchanges, commits and aborts, observations, rogue
    /// actions, crashes and clock advances over quantity and instance
    /// pools, and hold the same promise state after it; in both, no mark
    /// outlives its record and recovery rebuilds the digest byte for byte.
    #[test]
    fn modes_agree_on_random_sequences(
        step in 0u64..2,
        ops in proptest::collection::vec(
            (0u8..15, 0usize..8, 1u64..6, 5u64..120, 0u64..40),
            1..40,
        ),
    ) {
        let mut worlds = [
            World::new(LockingMode::Footprint, step),
            World::new(LockingMode::Global, step),
        ];
        for (i, op) in ops.into_iter().enumerate() {
            let said = worlds.each_mut().map(|world| world.step(i, op));
            prop_assert_eq!(&said[0], &said[1], "step {} {:?}", i, op);
            prop_assert_eq!(worlds[0].digest(), worlds[1].digest(), "after step {}", i);
            prop_assert_eq!(worlds[0].pm.tombstone_count(), worlds[1].pm.tombstone_count());
            for world in &worlds {
                world.assert_marks_follow_records();
            }
        }
    }
}
