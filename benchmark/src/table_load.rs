//! `pm_table`: direct `PromiseManager` calls on a large, long-lived table
//! — no wire, no coordinator, no shard threads.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use promises_core::{
    Catalog, ClientId, Clock, CmpOp, Environment, ManualClock, PoolSchema, Predicate,
    PromiseDecision, PromiseId, PromiseJournal, PromiseManager, PromiseRequestSpec, PropExpr,
    PropertyDef, RequestId,
};
use promises_rm::{Record, ResourceManager};
use promises_telemetry::Telemetry;

use crate::alloc;
use crate::layers::Replica;
use crate::load::{Load, Verdict};
use crate::stats::{op_rng, SplitMix};
use crate::trace::{Tracer, CLIENT_OP, PM_CALL};
use crate::workload::{
    audit_manager, hold_ms, Counters, Gauges, OpIndex, Restart, Workload, HOUSEKEEP_EVERY,
    RESIDENT_MS, SLOW_TICK_MS,
};

pub const QTY_POOLS: usize = 16;
pub const QTY_RESIDENT_PER_POOL: usize = 512;
pub const ROOM_POOLS: usize = 4;
pub const ROOMS: usize = 64;
pub const ROOM_RESIDENT_PER_POOL: usize = 48;
/// Never the constraint, even after every purchase of a run.
const STOCK: u64 = 1_000_000_000_000;
/// More than any pool will ever hold: must be refused.
const OVER_ASK: u64 = 1_000_000_000_000_000;
/// A held promise this many ops old is left to expire rather than used:
/// its 100-op hold may run out under the call.
const STALE_AFTER_OPS: u64 = 90;
/// Journal compaction cadence, in ops.
const COMPACT_EVERY: u64 = 2_048;

// The churn mix, as cumulative shares of a uniform draw.
const REQUEST: f64 = 0.45;
const RELEASE: f64 = 0.80;
const EXECUTE: f64 = 0.90;
const EXCHANGE: f64 = 0.95;
/// Of requests: share that ask for a room rather than a quantity, and
/// share left to expire rather than kept for a later release.
const ROOM_SHARE: f64 = 0.30;
const LEFT_TO_EXPIRE: f64 = 0.15;

fn qty_pool(p: usize) -> String {
    format!("bin-{p:02}")
}

fn room_pool(p: usize) -> String {
    format!("wing-{p}")
}

/// What a client holds and may later release, purchase under or exchange.
#[derive(Debug, Clone, Copy)]
struct Held {
    id: PromiseId,
    /// `Some(pool, amount)` for a quantity promise, `None` for a room.
    qty: Option<(usize, u64)>,
    granted_at_op: u64,
    expires_at: u64,
}

/// The manager and the durable parts that survive its restart.
struct Node {
    pm: Arc<PromiseManager>,
    rm: Arc<ResourceManager>,
    journal: Arc<PromiseJournal>,
    telemetry: Arc<Telemetry>,
}

pub struct TableLoad {
    seed: u64,
    node: RwLock<Node>,
    clock: Arc<ManualClock>,
    index: OpIndex,
    held: Vec<Mutex<VecDeque<Held>>>,
    resident: usize,
    resident_bytes: u64,
    tracer: RwLock<Option<Arc<Tracer>>>,
}

fn register_pools(pm: &PromiseManager) {
    for p in 0..QTY_POOLS {
        pm.register_pool(PoolSchema::quantity(qty_pool(p).as_str()));
    }
    for p in 0..ROOM_POOLS {
        pm.register_pool(PoolSchema::instances(
            room_pool(p).as_str(),
            vec![
                PropertyDef::plain("beds"),
                PropertyDef::plain("view"),
                PropertyDef::plain("floor"),
            ],
        ));
    }
}

/// A predicate the room `(beds, view, floor)` satisfies, so the resident
/// asks always have a witness assignment: room `i` for resident `i`.
fn ask_fitting(rng: &mut SplitMix, beds: i64, view: bool, floor: i64) -> PropExpr {
    match rng.below(4) {
        0 => PropExpr::eq("beds", beds),
        1 => PropExpr::eq("view", view),
        2 => PropExpr::cmp("floor", CmpOp::Ge, 1 + rng.below(floor as u64) as i64),
        _ => PropExpr::all([PropExpr::eq("beds", beds), PropExpr::eq("view", view)]),
    }
}

impl TableLoad {
    /// Builds the manager with journal and telemetry attached, seeds the
    /// pools and preloads the resident promises.
    pub fn build(seed: u64, clients: usize) -> Self {
        let clock = Arc::new(ManualClock::new());
        let rm = Arc::new(ResourceManager::new());
        let journal = Arc::new(PromiseJournal::new());
        journal.set_flush_delay_us(0);
        let telemetry = Telemetry::shared();
        let pm = Arc::new(
            PromiseManager::new(Arc::clone(&rm), Arc::clone(&clock) as Arc<dyn Clock>)
                .with_journal(Arc::clone(&journal)),
        );
        rm.set_telemetry(Some(Arc::clone(&telemetry)));
        pm.set_telemetry(Some(Arc::clone(&telemetry)));
        register_pools(&pm);

        let mut rng = SplitMix(seed ^ 0x7AB1_5EED);
        let mut rooms = Vec::new();
        for p in 0..QTY_POOLS {
            pm.seed_quantity(qty_pool(p).as_str(), STOCK)
                .expect("seed bin");
        }
        for p in 0..ROOM_POOLS {
            for r in 0..ROOMS {
                let (beds, view, floor) = (
                    1 + rng.below(2) as i64,
                    rng.below(2) == 0,
                    1 + rng.below(8) as i64,
                );
                let record = Record::new()
                    .with("beds", beds)
                    .with("view", view)
                    .with("floor", floor);
                pm.seed_instance(
                    room_pool(p).as_str(),
                    format!("w{p}-r{r:02}").as_str(),
                    record,
                )
                .expect("seed room");
                rooms.push((p, beds, view, floor));
            }
        }

        let before = alloc::read().live;
        let mut resident = 0usize;
        let mut preload = |tag: String, predicate: Predicate| {
            let spec = PromiseRequestSpec::new(RequestId(tag), "resident")
                .predicate(predicate)
                .duration_ms(RESIDENT_MS);
            let decision = pm.request(spec).expect("preload request").decision;
            assert!(decision.is_granted(), "preload must fit: {decision:?}");
            resident += 1;
        };
        for p in 0..QTY_POOLS {
            for i in 0..QTY_RESIDENT_PER_POOL {
                let amount = 1 + rng.below(9);
                preload(
                    format!("res-b{p}-{i}"),
                    Predicate::qty_at_least(qty_pool(p).as_str(), amount),
                );
            }
        }
        // The first ROOM_RESIDENT_PER_POOL rooms of each wing are the
        // witnesses; the rest stay free for the churn.
        for p in 0..ROOM_POOLS {
            let wing = rooms
                .iter()
                .filter(|r| r.0 == p)
                .take(ROOM_RESIDENT_PER_POOL);
            for (i, &(_, beds, view, floor)) in wing.enumerate() {
                let expr = ask_fitting(&mut rng, beds, view, floor);
                preload(
                    format!("res-w{p}-{i}"),
                    Predicate::property(room_pool(p).as_str(), expr, 1),
                );
            }
        }
        let resident_bytes = alloc::read().live.saturating_sub(before);

        Self {
            seed,
            node: RwLock::new(Node {
                pm,
                rm,
                journal,
                telemetry,
            }),
            clock,
            index: OpIndex::default(),
            held: (0..clients).map(|_| Mutex::new(VecDeque::new())).collect(),
            resident,
            resident_bytes,
            tracer: RwLock::new(None),
        }
    }

    /// What `PromiseCluster::advance_and_prune` does for a shard, done
    /// here for the bare manager: reap, then compact. `maybe_compact`
    /// would wait for a journal four times the table (17 000 ops here,
    /// one cycle per phase, which reads as drift); compacting every 2 048
    /// ops puts several whole cycles into every phase.
    fn housekeep_locked(&self, node: &Node, index: u64) {
        node.pm.prune_expired().expect("prune");
        if index.is_multiple_of(COMPACT_EVERY) {
            node.pm.compact().expect("compaction");
        }
    }

    /// The oldest promise `client` holds that is young enough to use and
    /// that `want` accepts; older ones are dropped on the way (they are
    /// the ones left to expire).
    fn take_held(&self, client: usize, index: u64, want: impl Fn(&Held) -> bool) -> Option<Held> {
        let mut held = self.held[client].lock().expect("held list");
        while held
            .front()
            .is_some_and(|h| index.saturating_sub(h.granted_at_op) >= STALE_AFTER_OPS)
        {
            held.pop_front();
        }
        let at = held.iter().position(want)?;
        held.remove(at)
    }

    /// True when `held`'s hold has run out by now. A call can stall for
    /// tens of ops' worth of time (a lock-conflict victim backs off and
    /// retries while the other client keeps ticking the clock), so a
    /// promise young enough when picked may be gone when the call lands:
    /// that is a promise expiring, not a failure.
    fn ran_out(&self, held: &Held) -> bool {
        self.clock.now_ms() >= held.expires_at
    }

    fn request(
        &self,
        pm: &PromiseManager,
        index: u64,
        client: usize,
        rng: &mut SplitMix,
        exchanging: Option<Held>,
    ) -> Verdict {
        let room = match exchanging {
            Some(old) => old.qty.is_none(),
            None => rng.unit() < ROOM_SHARE,
        };
        let (predicate, qty) = if room {
            let wing = room_pool(rng.below(ROOM_POOLS as u64) as usize);
            // Any room will do: the free rooms of a wing always cover it.
            let any = PropExpr::cmp("beds", CmpOp::Ge, 1i64);
            (Predicate::property(wing.as_str(), any, 1), None)
        } else {
            let (pool, amount) = (rng.below(QTY_POOLS as u64) as usize, 1 + rng.below(3));
            (
                Predicate::qty_at_least(qty_pool(pool).as_str(), amount),
                Some((pool, amount)),
            )
        };
        let mut spec = PromiseRequestSpec::new(
            RequestId(format!("o{index}")),
            ClientId(format!("u{}", rng.below(64))),
        )
        .predicate(predicate)
        .duration_ms(hold_ms(SLOW_TICK_MS));
        if let Some(old) = exchanging {
            spec = spec.exchanging(old.id);
        }
        let leave = exchanging.is_none() && rng.unit() < LEFT_TO_EXPIRE;
        match pm.request(spec).map(|r| r.decision) {
            Ok(PromiseDecision::Granted {
                promise,
                expires_at,
            }) => {
                if !leave {
                    self.held[client]
                        .lock()
                        .expect("held list")
                        .push_back(Held {
                            id: promise,
                            qty,
                            granted_at_op: index,
                            expires_at,
                        });
                }
                Verdict::Ok
            }
            Ok(PromiseDecision::Rejected { .. })
                if exchanging.is_some_and(|old| self.ran_out(&old)) =>
            {
                Verdict::Ok
            }
            // Stock and free rooms exist: a refusal is a failure.
            _ => Verdict::Failed,
        }
    }

    fn purchase(&self, pm: &PromiseManager, held: Held) -> Verdict {
        let (pool, amount) = held.qty.expect("purchases pick quantity promises");
        let pool = qty_pool(pool);
        let env = Environment::none().releasing(held.id);
        let done = pm.execute(&env, |rm, txn| {
            rm.update(txn, Catalog::QTY_TABLE, &pool, |r| {
                let on_hand = r.int("qty").unwrap_or(0);
                r.set("qty", on_hand - amount as i64);
            })?;
            Ok(())
        });
        if done.is_ok() || self.ran_out(&held) {
            Verdict::Ok
        } else {
            Verdict::Failed
        }
    }

    fn churn(&self, pm: &PromiseManager, index: u64, client: usize) -> Verdict {
        let mut rng = op_rng(self.seed, index);
        let draw = rng.unit();
        if draw >= EXCHANGE {
            let spec = PromiseRequestSpec::new(RequestId(format!("o{index}")), "greedy")
                .predicate(Predicate::qty_at_least(
                    qty_pool(rng.below(QTY_POOLS as u64) as usize).as_str(),
                    OVER_ASK,
                ))
                .duration_ms(hold_ms(SLOW_TICK_MS));
            return match pm.request(spec).map(|r| r.decision) {
                Ok(PromiseDecision::Rejected { .. }) => Verdict::Refused,
                _ => Verdict::Failed,
            };
        }
        // Release, purchase and exchange need something held; with
        // nothing suitable they become requests, which is what keeps the
        // held population from dying out.
        let held = if draw < REQUEST {
            None
        } else if !(RELEASE..EXECUTE).contains(&draw) {
            self.take_held(client, index, |_| true)
        } else {
            self.take_held(client, index, |h| h.qty.is_some())
        };
        match held {
            None => self.request(pm, index, client, &mut rng, None),
            Some(h) if draw < RELEASE => {
                if pm.release(h.id).is_ok() || self.ran_out(&h) {
                    Verdict::Ok
                } else {
                    Verdict::Failed
                }
            }
            Some(h) if draw < EXECUTE => self.purchase(pm, h),
            Some(h) => self.request(pm, index, client, &mut rng, Some(h)),
        }
    }
}

impl Load for TableLoad {
    fn begin_op(&self) -> u64 {
        let index = self.index.take();
        if index.is_multiple_of(HOUSEKEEP_EVERY) {
            let node = self.node.write().expect("node lock");
            self.housekeep_locked(&node, index);
        }
        self.clock.advance(SLOW_TICK_MS);
        index
    }

    fn run_op(&self, index: u64, client: usize) -> Verdict {
        let node = self.node.read().expect("node lock");
        match self.tracer.read().expect("tracer slot").clone() {
            None => self.churn(&node.pm, index, client),
            Some(t) => t.span(index, CLIENT_OP, || {
                // One manager call per op; the span around it is the
                // `core.manager` layer, its parent the harness.
                t.span(index, PM_CALL, || self.churn(&node.pm, index, client))
            }),
        }
    }
}

impl Workload for TableLoad {
    fn issued(&self) -> u64 {
        self.index.issued()
    }

    fn tick_ms(&self) -> u64 {
        SLOW_TICK_MS
    }

    fn enter_recovery(&self) {
        let node = self.node.write().expect("node lock");
        self.clock.advance(hold_ms(SLOW_TICK_MS) + SLOW_TICK_MS);
        self.housekeep_locked(&node, 0);
        node.pm.compact().expect("journal compacts");
        for held in &self.held {
            held.lock().expect("held list").clear();
        }
        self.index.enter_recovery();
    }

    fn begin_round(&self, _round: usize) {
        let node = self.node.write().expect("node lock");
        node.pm.compact().expect("journal compacts");
    }

    fn kill_and_restart(&self, round: usize, problems: &mut Vec<String>) -> Restart {
        let mut node = self.node.write().expect("node lock");
        node.pm.prune_expired().expect("prune");
        let before = node.pm.state_digest();
        let journal_len = node.journal.len();
        // The manager dies with its table; storage and journal survive.
        let called = Instant::now();
        let pm = Arc::new(PromiseManager::new(
            Arc::clone(&node.rm),
            Arc::clone(&self.clock) as Arc<dyn Clock>,
        ));
        pm.set_telemetry(Some(Arc::clone(&node.telemetry)));
        register_pools(&pm);
        let report = pm
            .recover(Arc::clone(&node.journal))
            .expect("journal replays");
        let restart_ms = called.elapsed().as_secs_f64() * 1e3;
        node.pm = pm;
        if node.pm.state_digest() != before {
            problems.push(format!(
                "round {round}: manager recovered a different promise table"
            ));
        }
        Restart {
            restart_ms,
            down_ms: restart_ms,
            journal_len,
            replayed: report.replayed,
        }
    }

    fn set_chaos(&self, _every: Option<u64>) {}

    fn set_tracer(&self, tracer: Option<Arc<Tracer>>) {
        *self.tracer.write().expect("tracer slot") = tracer;
    }

    fn audit(&self, problems: &mut Vec<String>) {
        let node = self.node.write().expect("node lock");
        audit_manager("manager", &node.pm, &node.journal, problems);
    }

    fn drain(&self, problems: &mut Vec<String>) {
        let node = self.node.write().expect("node lock");
        self.clock.advance(hold_ms(SLOW_TICK_MS) + SLOW_TICK_MS);
        self.housekeep_locked(&node, 0);
        let live = node.pm.live_count();
        if live != self.resident {
            problems.push(format!(
                "{live} promises live after the drain, resident baseline is {}",
                self.resident
            ));
        }
    }

    fn counters(&self) -> Counters {
        let node = self.node.read().expect("node lock");
        let mut c = Counters::default();
        c.add_manager(&node.pm, &node.telemetry);
        c.add_allocator();
        c
    }

    fn gauges(&self) -> Gauges {
        Gauges::default()
    }

    fn resident(&self) -> (usize, u64) {
        (self.resident, self.resident_bytes)
    }

    fn captured(&self) -> Vec<crate::cluster_load::Captured> {
        Vec::new()
    }

    fn replica(&self) -> Replica {
        let fresh = Self::build(self.seed, self.held.len());
        let node = fresh.node.into_inner().expect("node lock");
        let any_room = Predicate::property(
            room_pool(0).as_str(),
            PropExpr::cmp("beds", CmpOp::Ge, 1i64),
            1,
        );
        Replica {
            clock: fresh.clock,
            qty_pm: Arc::clone(&node.pm),
            qty_pool: qty_pool(0),
            prop: Some((Arc::clone(&node.pm), any_room)),
            gateway: None,
            _owner: Box::new(node.pm),
        }
    }
}
