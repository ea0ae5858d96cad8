//! The promise manager judged step by step, and its footprint-scoped
//! locking measured.
//!
//! `manager_agrees_with_the_model` runs random sequences of every §2–§6
//! operation against a manager and against `support::model`, the paper's
//! promise manager as a brute-force transition system that shares none of
//! the manager's code, and asserts after every step that both answered
//! alike and hold the same promises, marks, tombstones and stock. The
//! other tests pin what footprint scoping buys: disjoint pools never
//! retry, a post-check visits only the pools an action wrote, and the
//! lock-wait and check counters accumulate.

mod support;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use promises_core::{
    status, ActionError, Catalog, CheckStrategy, ClientId, Clock, Environment, InstanceId, PoolId,
    PoolSchema, Predicate, PromiseDecision, PromiseError, PromiseId, PromiseJournal,
    PromiseManager, PromiseRecord, PromiseRequestSpec, PropExpr, PropertyDef, RejectReason,
    RequestId, SystemClock,
};
use promises_rm::{Record, ResourceManager};
use support::model::{Ask, Buy, Label, Model, Outcome, Reason, Request, View, ROOMS, SUITES};

fn pm() -> Arc<PromiseManager> {
    Arc::new(PromiseManager::new(
        Arc::new(ResourceManager::new()),
        Arc::new(SystemClock::new()),
    ))
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
/// succeeds on its first attempt: the RM counts no deadlock.
#[test]
fn disjoint_pools_run_without_deadlock_retries() {
    const THREADS: usize = 8;
    const OPS: u64 = 30;
    let pm = pm();
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
    assert_eq!(
        pm.rm().stats().deadlocks,
        0,
        "disjoint footprints never conflict"
    );
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
    let pm = pm();
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

fn seeded_four_pool_pm() -> Arc<PromiseManager> {
    let pm = pm();
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
    let pm = seeded_four_pool_pm();
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

/// The latency counters actually accumulate: every grant/execute records
/// one lock acquisition and one checking pass.
#[test]
fn latency_counters_accumulate_per_operation() {
    let pm = seeded_four_pool_pm();
    restock_p0(&pm);
    let m = pm.metrics();
    assert_eq!(m.grant_lat.lock_wait_ops(), 4);
    assert_eq!(m.grant_lat.check_ops(), 4);
    assert_eq!(m.execute_lat.lock_wait_ops(), 1);
    assert_eq!(m.execute_lat.check_ops(), 1);
    assert_eq!(m.prune_lat.lock_wait_ops(), 0, "nothing expired, fast path");
}

/// A clock that moves `step` ms at every reading (and on demand), and
/// keeps each reading for the model. At `step == 0` it is a manual clock;
/// at `step == 1` time passes *inside* an operation, between its lazy
/// prune and its check, so promises sit in the table expired-but-unpruned —
/// the state in which the manager re-sums a pool's live demand instead of
/// trusting the aggregate.
struct SteppingClock {
    now: AtomicU64,
    step: AtomicU64,
    readings: Mutex<Vec<u64>>,
}

impl Clock for SteppingClock {
    fn now_ms(&self) -> u64 {
        let now = self
            .now
            .fetch_add(self.step.load(Ordering::SeqCst), Ordering::SeqCst);
        self.readings.lock().unwrap().push(now);
        now
    }
}

/// What a client holds: a promise, and what a purchase under it takes.
#[derive(Debug, Clone, Copy)]
struct Held {
    id: u64,
    buy: Buy,
}

const STOCK: [(&str, u64); 2] = [("w", 12), ("x", 8)];
const VIEWS: [bool; 4] = [true, true, false, false];
const SUITE_COUNT: usize = 3;
const GRACE_MS: u64 = 60;

/// One manager with its own clock, storage and journal, and the model
/// that judges it. The storage and the journal's lines outlive a crash.
struct World {
    pm: PromiseManager,
    model: Model,
    rm: Arc<ResourceManager>,
    journal: Arc<PromiseJournal>,
    clock: Arc<SteppingClock>,
    held: Vec<Held>,
    /// Every request sent so far, for resending.
    sent: Vec<Request>,
    /// Every promise id ever granted.
    granted: Vec<PromiseId>,
}

impl World {
    /// A manager over `rm` with the four pools registered (not seeded).
    fn manager(rm: &Arc<ResourceManager>, clock: &Arc<SteppingClock>) -> PromiseManager {
        let pm = PromiseManager::new(rm.clone(), clock.clone()).with_tombstone_grace_ms(GRACE_MS);
        for (pool, _) in STOCK {
            pm.register_pool(PoolSchema::quantity(pool));
        }
        // Distinguishable rooms, checked by satisfiability alone.
        pm.register_pool(
            PoolSchema::instances(ROOMS, vec![PropertyDef::plain("view")])
                .with_strategy(CheckStrategy::Satisfiability),
        );
        // Interchangeable suites, tentatively allocated and re-arranged.
        pm.register_pool(PoolSchema::instances(SUITES, vec![]));
        pm
    }

    fn new(step: u64) -> Self {
        let clock = Arc::new(SteppingClock {
            now: AtomicU64::new(0),
            step: AtomicU64::new(step),
            readings: Mutex::new(Vec::new()),
        });
        let rm = Arc::new(ResourceManager::new());
        let journal = Arc::new(PromiseJournal::new());
        let pm = Self::manager(&rm, &clock).with_journal(journal.clone());
        for (pool, qty) in STOCK {
            pm.seed_quantity(pool, qty).unwrap();
        }
        for (i, view) in VIEWS.into_iter().enumerate() {
            let room = format!("r{i}");
            pm.seed_instance(ROOMS, room.as_str(), Record::new().with("view", view))
                .unwrap();
        }
        for i in 0..SUITE_COUNT {
            pm.seed_instance(SUITES, format!("s{i}").as_str(), Record::new())
                .unwrap();
        }
        Self {
            pm,
            model: Model::new(&STOCK, &VIEWS, SUITE_COUNT, GRACE_MS),
            rm,
            journal,
            clock,
            held: Vec::new(),
            sent: Vec::new(),
            granted: Vec::new(),
        }
    }

    /// Turns op `i` — `(kind, pick, amount, duration, advance)` — into a
    /// label. Release, purchase, exchange, commit, abort and observe need
    /// something held, a resend something sent; without it they fall
    /// through to a clock advance.
    fn label(&mut self, i: usize, op: (u8, usize, u64, u64, u64)) -> Label {
        let (kind, pick, amount, duration, advance) = op;
        let pool = STOCK[pick % STOCK.len()].0;
        let fresh = |asks, exchange, prepared| Request {
            request: format!("r{i}"),
            asks,
            duration,
            exchange,
            prepared,
        };
        let qty = Ask::Qty(pool, amount);
        let picked = (!self.held.is_empty()).then(|| pick % self.held.len());
        let label = match (kind, picked) {
            (0, _) => Label::Request(fresh(vec![qty], None, false)),
            (1, _) => {
                let view = [None, Some(true), Some(false)][pick % 3];
                Label::Request(fresh(vec![Ask::Room(view)], None, false))
            }
            (2, _) => Label::Request(fresh(vec![Ask::Suite], None, false)),
            (3, _) => Label::Request(fresh(vec![qty, Ask::Room(None)], None, false)),
            (4, Some(at)) => Label::Release(self.held.remove(at).id),
            (5, Some(at)) => {
                let held = self.held.remove(at);
                Label::Purchase(held.id, held.buy)
            }
            (6, Some(at)) => {
                let old = self.held.remove(at);
                Label::Request(fresh(vec![qty], Some(old.id), false))
            }
            (7, _) => Label::RogueDrain(2 * amount),
            (9, _) => Label::Request(fresh(vec![qty], None, true)),
            (10, Some(at)) => Label::Commit(self.held[at].id),
            (11, Some(at)) => Label::Abort(self.held.remove(at).id),
            (12, _) if !self.sent.is_empty() => Label::Request(Request {
                prepared: false,
                ..self.sent[pick % self.sent.len()].clone()
            }),
            (13, Some(at)) => {
                let id = self.held[at].id;
                Label::ObserveThenRequest(id, fresh(vec![Ask::Suite], None, false))
            }
            (14, _) => Label::Crash,
            _ => Label::Tick(advance),
        };
        // A first sending is remembered for resending; a resend is not.
        if let Label::Request(req) | Label::ObserveThenRequest(_, req) = &label {
            if req.request == format!("r{i}") {
                self.sent.push(req.clone());
            }
        }
        label
    }

    /// Runs `label` on the manager; what it answered, and the clock
    /// readings it took.
    fn act(&mut self, label: &Label) -> (Outcome, Vec<u64>) {
        self.clock.readings.lock().unwrap().clear();
        let said = match label {
            Label::Request(req) => self.send(req),
            Label::Release(id) => outcome(self.pm.release(PromiseId(*id))),
            Label::Purchase(id, buy) => self.purchase(PromiseId(*id), *buy),
            Label::RogueDrain(amount) => self.rogue_drain(*amount),
            Label::Commit(id) => decided(self.pm.commit_prepared(PromiseId(*id))),
            Label::Abort(id) => decided(self.pm.abort_prepared(PromiseId(*id))),
            Label::ObserveThenRequest(id, req) => {
                let seen = self.pm.promise(PromiseId(*id)).is_some();
                Outcome::Seen(seen, Box::new(self.send(req)))
            }
            Label::Crash => self.crash_and_recover(),
            Label::Tick(advance) => {
                self.clock.now.fetch_add(*advance, Ordering::SeqCst);
                match self.pm.prune_expired() {
                    Ok(reaped) => Outcome::Reaped(reaped),
                    Err(e) => error(e),
                }
            }
        };
        (
            said,
            std::mem::take(&mut *self.clock.readings.lock().unwrap()),
        )
    }

    /// Sends `req`; a grant — fresh or answered from the request index —
    /// is held once.
    fn send(&mut self, req: &Request) -> Outcome {
        let mut spec = PromiseRequestSpec::new(RequestId(req.request.clone()), ClientId::from("c"))
            .duration_ms(req.duration);
        for ask in &req.asks {
            spec = spec.predicate(match *ask {
                Ask::Qty(pool, amount) => Predicate::qty_at_least(pool, amount),
                Ask::Room(None) => Predicate::property(ROOMS, PropExpr::True, 1),
                Ask::Room(Some(view)) => Predicate::property(ROOMS, PropExpr::eq("view", view), 1),
                Ask::Suite => Predicate::property(SUITES, PropExpr::True, 1),
            });
        }
        if let Some(old) = req.exchange {
            spec = spec.exchanging(PromiseId(old));
        }
        let response = if req.prepared {
            self.pm.request_prepared(spec)
        } else {
            self.pm.request(spec)
        };
        let reason = match response.map(|r| r.decision) {
            Err(e) => return error(e),
            Ok(PromiseDecision::Rejected { reason }) => reason,
            Ok(PromiseDecision::Granted {
                promise,
                expires_at,
            }) => {
                if !self.granted.contains(&promise) {
                    self.granted.push(promise);
                }
                let buy = match req.asks[0] {
                    Ask::Qty(pool, amount) => Buy::Qty(pool, amount),
                    Ask::Room(_) => Buy::Room,
                    Ask::Suite => Buy::Suite,
                };
                if !self.held.iter().any(|held| held.id == promise.0) {
                    self.held.push(Held { id: promise.0, buy });
                }
                return Outcome::Granted {
                    id: promise.0,
                    expires_at,
                };
            }
        };
        Outcome::Rejected(match reason {
            RejectReason::InsufficientQuantity {
                pool,
                on_hand,
                demanded,
            } => Reason::InsufficientQuantity {
                pool: pool.0,
                on_hand,
                demanded,
            },
            RejectReason::Unsatisfiable { pool } => Reason::Unsatisfiable { pool: pool.0 },
            RejectReason::UnknownExchange(id) => Reason::UnknownExchange(id.0),
            other => return Outcome::Other(other.to_string()),
        })
    }

    /// Kills the manager and recovers a fresh one over the same storage
    /// from the journal's lines. The clock stands still meanwhile, so
    /// nothing expires between the two digests, which must be byte-equal.
    fn crash_and_recover(&mut self) -> Outcome {
        let step = self.clock.step.swap(0, Ordering::SeqCst);
        self.pm.prune_expired().unwrap();
        let before = self.pm.state_digest();
        let lines = self.journal.lines();
        self.journal = Arc::new(PromiseJournal::from_lines(&lines).unwrap());
        self.pm = Self::manager(&self.rm, &self.clock);
        let report = self.pm.recover(self.journal.clone()).unwrap();
        assert_eq!(self.pm.state_digest(), before, "recovered state");
        self.clock.step.store(step, Ordering::SeqCst);
        Outcome::Recovered {
            recovered: report.recovered,
            in_doubt: report.in_doubt,
        }
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

    /// What the manager shows, in the model's terms.
    fn view(&self) -> View {
        let mut table: Vec<u64> = self.records().iter().map(|rec| rec.id.0).collect();
        table.sort_unstable();
        let rm = &self.rm;
        let txn = rm.begin();
        let mut taken = Vec::new();
        for pool in [ROOMS, SUITES] {
            let table = Catalog::instance_table(&PoolId::from(pool));
            for (id, rec) in rm.scan(&txn, &table).unwrap() {
                if rec.str(Catalog::STATUS) == Some(status::TAKEN) {
                    taken.push(format!("{pool}/{id}"));
                }
            }
        }
        rm.commit(txn).unwrap();
        taken.sort();
        View {
            table,
            prepared: self.pm.prepared_ids().iter().map(|id| id.0).collect(),
            tombstones: self.pm.tombstone_count(),
            stock: STOCK
                .map(|(pool, _)| (pool, self.pm.quantity_on_hand(pool).unwrap()))
                .to_vec(),
            taken,
        }
    }

    /// The suite each promise in the table holds, by position.
    fn suites_held(&self) -> BTreeMap<u64, Option<usize>> {
        let suites = PoolId::from(SUITES);
        (self.records().iter())
            .map(|rec| {
                let held = rec.allocated_in(&suites).first().map(|s| suite_at(s));
                (rec.id.0, held)
            })
            .collect()
    }

    /// The suites the manager lists as free, by position, and the one
    /// clock reading it listed them at.
    fn free_suites(&self) -> (Vec<usize>, u64) {
        self.clock.readings.lock().unwrap().clear();
        let free = (self.pm.free_instances(SUITES).unwrap().iter())
            .map(suite_at)
            .collect();
        let readings = std::mem::take(&mut *self.clock.readings.lock().unwrap());
        assert_eq!(readings.len(), 1, "a listing reads the clock once");
        (free, readings[0])
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
        for req in &self.sent {
            let request = RequestId(req.request.clone());
            // The reading the manager is about to take.
            let now = self.clock.now.load(Ordering::SeqCst);
            let found = self.pm.promise_for_request(&ClientId::from("c"), &request);
            let live: Vec<PromiseId> = records
                .iter()
                .filter(|rec| rec.request == request && rec.is_live(now))
                .map(|rec| rec.id)
                .collect();
            assert!(live.len() <= 1, "{} granted twice: {live:?}", req.request);
            assert_eq!(found, live.first().copied(), "key {}", req.request);
        }
    }

    /// Takes what the promise stands for inside one action that also
    /// releases it: its quantity off the pool, the suite it was allocated
    /// (read, and so pinned, first), or else the first free room.
    fn purchase(&mut self, id: PromiseId, buy: Buy) -> Outcome {
        let suite = match buy {
            Buy::Suite => match self.pm.promise(id) {
                Some(rec) => rec
                    .allocated_in(&PoolId::from(SUITES))
                    .first()
                    .map(|s| s.0.clone()),
                None => return Outcome::Gone,
            },
            _ => None,
        };
        let result = self
            .pm
            .execute(&Environment::none().releasing(id), |rm, txn| {
                let (pool, key) = match (buy, &suite) {
                    (Buy::Qty(pool, amount), _) => {
                        rm.update(txn, Catalog::QTY_TABLE, pool, |r| {
                            let q = r.int("qty").unwrap();
                            r.set("qty", q - amount as i64);
                        })?;
                        return Ok(());
                    }
                    (_, Some(suite)) => (SUITES, suite.clone()),
                    _ => {
                        let table = Catalog::instance_table(&PoolId::from(ROOMS));
                        let mut rooms = rm.scan(txn, &table)?;
                        rooms.sort_by(|a, b| a.0.cmp(&b.0));
                        let free = rooms
                            .into_iter()
                            .find(|(_, r)| r.str(Catalog::STATUS) == Some(status::AVAILABLE));
                        match free {
                            Some((key, _)) => (ROOMS, key),
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
    fn rogue_drain(&mut self, amount: u64) -> Outcome {
        outcome(self.pm.execute(&Environment::none(), |rm, txn| {
            rm.update(txn, Catalog::QTY_TABLE, "w", |r| {
                let q = r.int("qty").unwrap();
                r.set("qty", (q - amount as i64).max(0));
            })?;
            Ok(())
        }))
    }
}

/// A suite's position: `s<n>` is suite `n`.
fn suite_at(suite: &InstanceId) -> usize {
    let at = suite.0.strip_prefix('s').and_then(|n| n.parse().ok());
    at.expect("a suite is named s<n>")
}

/// An operation's result in the model's terms; a violation's victim is
/// left out (the paper names none, and the model does not choose one).
fn outcome(result: Result<(), PromiseError>) -> Outcome {
    match result {
        Ok(()) => Outcome::Ok,
        Err(e) => error(e),
    }
}

fn decided(result: Result<bool, PromiseError>) -> Outcome {
    match result {
        Ok(changed) => Outcome::Decided(changed),
        Err(e) => error(e),
    }
}

fn error(e: PromiseError) -> Outcome {
    match e {
        PromiseError::PromiseExpired(id) => Outcome::Expired(id.0),
        PromiseError::UnknownPromise(id) => Outcome::Unknown(id.0),
        PromiseError::ViolationRolledBack { .. } => Outcome::Violation,
        PromiseError::ActionFailed(_) => Outcome::ActionFailed,
        other => Outcome::Other(other.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On every step of any sequence of requests (quantity, property,
    /// suite, mixed, exchange, prepared, resent, after an observation),
    /// releases, purchases, commits, aborts, rogue actions, crashes and
    /// clock advances, the manager answers what the model answers — the
    /// decision, its reason and its pool — and afterwards holds the same
    /// promises, prepared marks, tombstones and stock, its suite
    /// allocations are a legal choice, the suites it lists as free are the
    /// untaken ones no live promise holds, no mark outlives its record,
    /// and recovery rebuilds the digest byte for byte.
    #[test]
    fn manager_agrees_with_the_model(
        step in 0u64..2,
        ops in proptest::collection::vec(
            (0u8..15, 0usize..8, 1u64..6, 5u64..120, 0u64..40),
            1..40,
        ),
    ) {
        let mut world = World::new(step);
        for (i, op) in ops.into_iter().enumerate() {
            let label = world.label(i, op);
            let (said, readings) = world.act(&label);
            let judged = world.model.step(&label, &readings);
            prop_assert_eq!(Ok(said), judged, "step {} {:?} at {:?}", i, &label, &readings);
            prop_assert_eq!(world.view(), world.model.view(), "after step {} {:?}", i, &label);
            let held = world.suites_held();
            let adopted = world.model.adopt(&held);
            prop_assert!(adopted.is_ok(), "after step {} {:?}: {:?}", i, &label, adopted);
            let (free, at) = world.free_suites();
            prop_assert_eq!(free, world.model.free_suites(at), "free after step {} {:?}", i, &label);
            world.assert_marks_follow_records();
        }
    }
}
