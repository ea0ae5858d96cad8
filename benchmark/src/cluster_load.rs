//! The three workloads that go through the coordinator, the wire and the
//! shard executors: `order_local`, `booking_cross` and `failover`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use promises_cluster::{
    ClusterDecision, CoordError, GrantPart, PromiseCluster, ShardServer, TxnId,
};
use promises_core::{
    parse_predicate, ClientId, Clock, ManualClock, PoolSchema, Predicate, PromiseId,
    PromiseRequestSpec, PropExpr, PropertyDef, RequestId,
};
use promises_rm::Record;
use promises_wire::{Envelope, NetworkProfile, ResolutionOp, ResolveRef, Service};

use crate::alloc;
use crate::layers::Replica;
use crate::load::{Load, Verdict};
use crate::stats::{op_rng, SplitMix};
use crate::trace::{Tracer, CLIENT_OP, COORD_GRANT, COORD_RELEASE, SHARD_HANDLE};
use crate::workload::{
    audit_manager, hold_ms, Counters, Gauges, OpIndex, Restart, Workload, HOUSEKEEP_EVERY,
    RESEND_EVERY, RESEND_LIMIT, RESIDENT_MS, SLOW_TICK_MS, TICK_MS,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    OrderLocal,
    BookingCross,
    Failover,
}

/// Units seeded into every quantity pool: never the constraint.
const STOCK: u64 = 1_000_000;
/// Share of order grants left to expire instead of being released.
const LEFT_TO_EXPIRE: f64 = 0.15;
/// Share of bookings that over-ask one leg and must be refused.
const OVER_ASK: f64 = 0.05;
const ORDER_POOLS: usize = 32;
const ORDER_RESIDENT_PER_SHARD: usize = 2_048;
const TRIP_POOLS: usize = 4;
const TRIP_RESIDENT_PER_QTY_SHARD: usize = 1_024;
const ROOMS: usize = 64;
const VIEW_ROOMS: usize = 48;
const ROOM_RESIDENT_PER_HOTEL: usize = 32;
/// Kills go round the first two shards. `booking_cross` has a third, but
/// its instance pools are registered by hand, which a cluster restart
/// does not redo.
const KILLABLE_SHARDS: usize = 2;
/// Request/reply pairs kept per shard for the isolated replays.
pub const CAPTURE_LIMIT: usize = 4_096;

/// One message as a shard saw it, with the logical time it arrived at.
#[derive(Debug, Clone)]
pub struct Captured {
    pub now_ms: u64,
    pub request: Envelope,
    pub reply: Envelope,
}

/// The `Service` registered in front of a shard's endpoint: hands every
/// envelope straight to the shard, and — while a tracer is installed —
/// times the call from outside, attributes it to the op that caused it
/// and keeps the first [`CAPTURE_LIMIT`] message pairs.
pub struct Tap {
    server: Arc<ShardServer>,
    clock: Arc<ManualClock>,
    tracer: RwLock<Option<Arc<Tracer>>>,
    /// Promise id → index of the op that was granted it, so a release or
    /// a commit (which name only the promise) joins the right trace.
    owners: Mutex<HashMap<u64, u64>>,
    captured: Mutex<Vec<Captured>>,
    // Relaxed: a statistic.
    queue_depth_max: AtomicUsize,
}

/// `o123` and `o123@s1` both belong to op 123.
fn op_of_request(request_id: &str) -> Option<u64> {
    let digits = request_id.strip_prefix('o')?;
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

impl Tap {
    fn trace_of(&self, env: &Envelope) -> Option<u64> {
        if let Some(req) = env.promise_requests.first() {
            return op_of_request(&req.request_id);
        }
        let mut owners = self.owners.lock().expect("tap owners");
        if let Some(id) = env.releases.first() {
            return owners.remove(id);
        }
        match env.resolutions.first().map(|r| (&r.reference, r.op)) {
            Some((ResolveRef::Id(id), ResolutionOp::Commit)) => owners.get(id).copied(),
            Some((ResolveRef::Id(id), ResolutionOp::Abort)) => owners.remove(id),
            Some((ResolveRef::Request { request, .. }, _)) => op_of_request(request),
            None => None,
        }
    }

    pub fn take_captured(&self) -> Vec<Captured> {
        std::mem::take(&mut *self.captured.lock().expect("tap capture"))
    }
}

impl Service for Tap {
    fn handle(&self, envelope: Envelope) -> Envelope {
        let Some(tracer) = self.tracer.read().expect("tap tracer").clone() else {
            return self.server.handle(envelope);
        };
        let trace = self.trace_of(&envelope);
        self.queue_depth_max
            .fetch_max(self.server.queue_depth(), Ordering::Relaxed);
        let keep = self.captured.lock().expect("tap capture").len() < CAPTURE_LIMIT;
        let request = keep.then(|| envelope.clone());
        let start = tracer.now();
        let reply = self.server.handle(envelope);
        let end = tracer.now();
        if let Some(trace) = trace {
            tracer.record(trace, SHARD_HANDLE, start, end);
            let mut owners = self.owners.lock().expect("tap owners");
            for id in reply.promise_responses.iter().filter_map(|r| r.promise_id) {
                owners.insert(id, trace);
            }
        }
        if let Some(request) = request {
            self.captured.lock().expect("tap capture").push(Captured {
                now_ms: self.clock.now_ms(),
                request,
                reply: reply.clone(),
            });
        }
        reply
    }
}

/// The texts one kind of trip leg sends: the normal ask and the over-ask.
struct Leg {
    ask: String,
    over_ask: String,
}

pub struct ClusterLoad {
    kind: Kind,
    seed: u64,
    cluster: RwLock<PromiseCluster>,
    clock: Arc<ManualClock>,
    index: OpIndex,
    taps: Vec<Arc<Tap>>,
    /// `order_local` / `failover`: one ask per quantity pool.
    orders: Vec<String>,
    /// `booking_cross`: asks per flight, car and hotel.
    flights: Vec<Leg>,
    cars: Vec<Leg>,
    hotels: Vec<Leg>,
    tick_ms: u64,
    resident: usize,
    resident_bytes: u64,
    /// Coordinator log records seen so far, and the log's length when
    /// last looked at: compaction shrinks the log, this keeps counting.
    coord_log: Mutex<(u64, usize)>,
    /// Acknowledged grants left to expire: (shard, promise, expiry). They
    /// must survive every kill until their expiry.
    expiring: Mutex<VecDeque<(usize, u64, u64)>>,
    problems: Mutex<Vec<String>>,
    chaos_every: AtomicU64,
    chaos_rounds: AtomicUsize,
    /// The shard an open-phase kill left dead and nobody has noticed yet.
    killed: Mutex<Option<usize>>,
    tracer: RwLock<Option<Arc<Tracer>>>,
}

fn resident_request(tag: &str, i: usize, predicate: Predicate) -> PromiseRequestSpec {
    PromiseRequestSpec::new(RequestId(format!("res-{tag}-{i}")), "resident")
        .predicate(predicate)
        .duration_ms(RESIDENT_MS)
}

impl ClusterLoad {
    /// Builds the cluster, registers and preloads the pools. Warm-up is
    /// the caller's.
    pub fn build(kind: Kind, seed: u64) -> Self {
        let shards = if kind == Kind::BookingCross { 3 } else { 2 };
        let mut cluster = PromiseCluster::build(shards, seed);
        // No modeled time anywhere: a sleep must never produce a number.
        cluster.set_service_time_us(0);
        cluster.bus.set_profile(NetworkProfile::default());
        assert!(NetworkProfile::default().latency.is_zero());
        for node in &cluster.nodes {
            node.journal.set_flush_delay_us(0);
        }

        let mut rng = SplitMix(seed ^ 0x5EED_05E7);
        let mut orders = Vec::new();
        let (mut flights, mut cars, mut hotels) = (Vec::new(), Vec::new(), Vec::new());
        let before = alloc::read().live;
        let mut resident = 0usize;
        let mut preload = |pm: &promises_core::PromiseManager, spec: PromiseRequestSpec| {
            let granted = pm.request(spec).expect("preload request").decision;
            assert!(granted.is_granted(), "preload must fit: {granted:?}");
            resident += 1;
        };
        match kind {
            Kind::OrderLocal | Kind::Failover => {
                let mut by_shard: Vec<Vec<String>> = vec![Vec::new(); shards];
                for p in 0..ORDER_POOLS {
                    let name = format!("sku-{p:02}");
                    by_shard[cluster.register_quantity_pool(&name, STOCK)].push(name.clone());
                    orders.push(format!("qty('{name}') >= 1"));
                }
                for (s, pools) in by_shard.iter().enumerate() {
                    for i in 0..ORDER_RESIDENT_PER_SHARD {
                        let pool = pools[i % pools.len()].as_str();
                        let amount = 1 + rng.below(9);
                        preload(
                            &cluster.nodes[s].pm,
                            resident_request(
                                &format!("s{s}"),
                                i,
                                Predicate::qty_at_least(pool, amount),
                            ),
                        );
                    }
                }
            }
            Kind::BookingCross => {
                for t in 0..TRIP_POOLS {
                    let (flight, car, hotel) = (
                        format!("flight-{t}"),
                        format!("car-{t}"),
                        format!("hotel-{t}"),
                    );
                    assert_eq!(cluster.register_quantity_pool(&flight, STOCK), 0);
                    assert_eq!(cluster.register_quantity_pool(&car, STOCK), 1);
                    assert_eq!(cluster.map.assign_round_robin(&hotel), 2);
                    let pm = &cluster.nodes[2].pm;
                    pm.register_pool(PoolSchema::instances(
                        hotel.as_str(),
                        vec![PropertyDef::plain("beds"), PropertyDef::plain("view")],
                    ));
                    for r in 0..ROOMS {
                        let room = Record::new()
                            .with("beds", 2i64)
                            .with("view", r < VIEW_ROOMS);
                        pm.seed_instance(hotel.as_str(), format!("h{t}-r{r:02}").as_str(), room)
                            .expect("seed room");
                    }
                    for (legs, pool) in [(&mut flights, &flight), (&mut cars, &car)] {
                        legs.push(Leg {
                            ask: format!("qty('{pool}') >= 1"),
                            over_ask: format!("qty('{pool}') >= {}", 2 * STOCK),
                        });
                    }
                    hotels.push(Leg {
                        ask: format!("prop('{hotel}', 1): beds == 2 && desirable(view == true)"),
                        over_ask: format!("prop('{hotel}', {}): beds == 2", ROOMS + 1),
                    });
                    for i in 0..ROOM_RESIDENT_PER_HOTEL {
                        let any_twin =
                            Predicate::property(hotel.as_str(), PropExpr::eq("beds", 2i64), 1);
                        preload(pm, resident_request(&hotel, i, any_twin));
                    }
                }
                for (s, prefix) in [(0, "flight"), (1, "car")] {
                    for i in 0..TRIP_RESIDENT_PER_QTY_SHARD {
                        let pool = format!("{prefix}-{}", i % TRIP_POOLS);
                        let amount = 1 + rng.below(9);
                        preload(
                            &cluster.nodes[s].pm,
                            resident_request(
                                prefix,
                                i,
                                Predicate::qty_at_least(pool.as_str(), amount),
                            ),
                        );
                    }
                }
            }
        }
        let resident_bytes = alloc::read().live.saturating_sub(before);
        if kind == Kind::Failover {
            cluster.enable_replication();
        }

        let clock = Arc::clone(&cluster.clock);
        let taps: Vec<Arc<Tap>> = cluster
            .nodes
            .iter()
            .map(|node| {
                Arc::new(Tap {
                    server: Arc::clone(&node.server),
                    clock: Arc::clone(&clock),
                    tracer: RwLock::new(None),
                    owners: Mutex::new(HashMap::new()),
                    captured: Mutex::new(Vec::new()),
                    queue_depth_max: AtomicUsize::new(0),
                })
            })
            .collect();
        let load = Self {
            kind,
            seed,
            clock,
            index: OpIndex::default(),
            orders,
            flights,
            cars,
            hotels,
            tick_ms: if kind == Kind::BookingCross {
                SLOW_TICK_MS
            } else {
                TICK_MS
            },
            resident,
            resident_bytes,
            coord_log: Mutex::new((0, 0)),
            expiring: Mutex::new(VecDeque::new()),
            problems: Mutex::new(Vec::new()),
            chaos_every: AtomicU64::new(0),
            chaos_rounds: AtomicUsize::new(0),
            killed: Mutex::new(None),
            tracer: RwLock::new(None),
            taps,
            cluster: RwLock::new(cluster),
        };
        {
            let cluster = load.cluster.read().expect("cluster lock");
            for shard in 0..shards {
                load.retap(&cluster, shard);
            }
        }
        load
    }

    /// Puts the tap (back) in front of a shard: a restart or promotion
    /// re-registers the bare server under the node's current endpoint.
    fn retap(&self, cluster: &PromiseCluster, shard: usize) {
        cluster.bus.register(
            &cluster.nodes[shard].endpoint,
            Arc::clone(&self.taps[shard]) as Arc<dyn Service>,
        );
    }

    fn problem(&self, what: String) {
        self.problems.lock().expect("problem list").push(what);
    }

    fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer.read().expect("tracer slot").clone()
    }

    /// Prune, compact and sweep, with every client held off: the state
    /// after housekeeping at index `i` is exactly "ops below `i` done".
    fn housekeep(&self) {
        let cluster = self.cluster.write().expect("cluster lock");
        self.housekeep_locked(&cluster);
    }

    fn housekeep_locked(&self, cluster: &PromiseCluster) {
        cluster.advance_and_prune(0);
        let mut seen = self.coord_log.lock().expect("coord log count");
        seen.0 += (cluster.coordinator.log().len().saturating_sub(seen.1)) as u64;
        // `advance_and_prune` bounds every shard-side population; the
        // coordinator's decision log is the one it leaves to the caller.
        cluster
            .coordinator
            .compact_log()
            .expect("coordinator log compacts");
        seen.1 = cluster.coordinator.log().len();
    }

    /// Failover open phase: pull the plug on a leader and leave it dead.
    /// The next request for that shard meets the dead endpoint, and it is
    /// the failed send that gets the follower promoted
    /// ([`Self::promote_killed`]).
    fn chaos_kill(&self) {
        // Lock order, here and in `promote_killed`: cluster, then killed.
        let cluster = self.cluster.read().expect("cluster lock");
        let mut killed = self.killed.lock().expect("killed shard");
        if killed.is_none() {
            let victim = self.chaos_rounds.fetch_add(1, Ordering::Relaxed) % KILLABLE_SHARDS;
            cluster.kill_shard_abrupt(victim);
            *killed = Some(victim);
        }
    }

    /// Promotes the follower of the shard [`Self::chaos_kill`] left dead,
    /// if there is one, and checks that nothing acknowledged was lost.
    fn promote_killed(&self) {
        let mut cluster = self.cluster.write().expect("cluster lock");
        if let Some(victim) = self.killed.lock().expect("killed shard").take() {
            cluster.promote_follower(victim);
            self.retap(&cluster, victim);
            self.check_acknowledged(&cluster, victim);
        }
    }

    /// Every acknowledged grant that has not reached its expiry must be
    /// in the table of whoever answers for `shard` now.
    fn check_acknowledged(&self, cluster: &PromiseCluster, shard: usize) {
        let now = self.clock.now_ms();
        let mut expiring = self.expiring.lock().expect("expiring list");
        while expiring.front().is_some_and(|&(_, _, at)| at <= now) {
            expiring.pop_front();
        }
        for &(s, id, at) in expiring.iter() {
            if s == shard && at > now && cluster.nodes[s].pm.peek_promise(PromiseId(id)).is_none() {
                self.problem(format!(
                    "acknowledged grant {id} on shard {s} lost by a kill"
                ));
            }
        }
    }

    /// Sends the grant until a live endpoint serves it, re-sending under
    /// the same request id; `None` when nothing ever answered.
    fn grant(
        &self,
        index: u64,
        user: &str,
        rid: &str,
        predicates: &[String],
        tracer: Option<&Tracer>,
    ) -> Option<ClusterDecision> {
        for _ in 0..RESEND_LIMIT {
            let outcome = {
                let cluster = self.cluster.read().expect("cluster lock");
                let call = || {
                    cluster
                        .coordinator
                        .grant(user, rid, predicates, hold_ms(self.tick_ms))
                };
                match tracer {
                    Some(t) => t.span(index, COORD_GRANT, call),
                    None => call(),
                }
            };
            match outcome {
                Ok(decision) => return Some(decision),
                Err(CoordError::Transport(_)) => {
                    // A dead endpoint. Whoever notices gets the follower
                    // promoted; everyone re-sends until it answers.
                    self.promote_killed();
                    std::thread::sleep(RESEND_EVERY);
                }
                Err(_) => return None,
            }
        }
        None
    }

    fn release(&self, index: u64, parts: &[GrantPart], tracer: Option<&Tracer>) {
        let cluster = self.cluster.read().expect("cluster lock");
        let call = || cluster.coordinator.release(parts);
        match tracer {
            Some(t) => t.span(index, COORD_RELEASE, call),
            None => call(),
        }
    }

    fn order(&self, index: u64, rng: &mut SplitMix, tracer: Option<&Tracer>) -> Verdict {
        let ask = &self.orders[rng.below(self.orders.len() as u64) as usize];
        let leave = rng.unit() < LEFT_TO_EXPIRE;
        let user = format!("u{}", rng.below(64));
        let rid = format!("o{index}");
        match self.grant(index, &user, &rid, std::slice::from_ref(ask), tracer) {
            Some(ClusterDecision::Granted { parts }) => {
                if leave {
                    let mut expiring = self.expiring.lock().expect("expiring list");
                    for p in &parts {
                        expiring.push_back((p.shard, p.promise_id, p.expires_at));
                    }
                } else {
                    self.release(index, &parts, tracer);
                }
                Verdict::Ok
            }
            // Stock is never the constraint: a refusal is a failure.
            _ => Verdict::Failed,
        }
    }

    fn booking(&self, index: u64, rng: &mut SplitMix, tracer: Option<&Tracer>) -> Verdict {
        let pick = |rng: &mut SplitMix| rng.below(TRIP_POOLS as u64) as usize;
        let legs = [
            &self.flights[pick(rng)],
            &self.cars[pick(rng)],
            &self.hotels[pick(rng)],
        ];
        let over = (rng.unit() < OVER_ASK).then(|| rng.below(3) as usize);
        let user = format!("u{}", rng.below(64));
        let rid = format!("o{index}");
        let predicates: Vec<String> = legs
            .iter()
            .enumerate()
            .map(|(i, leg)| {
                if over == Some(i) {
                    leg.over_ask.clone()
                } else {
                    leg.ask.clone()
                }
            })
            .collect();
        match (self.grant(index, &user, &rid, &predicates, tracer), over) {
            (Some(ClusterDecision::Granted { parts }), None) => {
                let whole = parts.len() == 3;
                self.release(index, &parts, tracer);
                if whole {
                    Verdict::Ok
                } else {
                    self.problem(format!(
                        "booking {rid} granted on {} of 3 shards",
                        parts.len()
                    ));
                    Verdict::Failed
                }
            }
            (Some(ClusterDecision::Rejected { .. }), Some(_)) => {
                // Refused as a unit: no leg may be left holding anything.
                let cluster = self.cluster.read().expect("cluster lock");
                let txn = TxnId::new(user.as_str(), rid.as_str());
                for (s, node) in cluster.nodes.iter().enumerate() {
                    let held = node.pm.promise_for_request(
                        &ClientId(user.clone()),
                        &RequestId(txn.sub_request(s)),
                    );
                    if let Some(id) = held {
                        self.problem(format!("refused booking {rid} left hold {id} on shard {s}"));
                    }
                }
                Verdict::Refused
            }
            (Some(ClusterDecision::Granted { parts }), Some(_)) => {
                self.release(index, &parts, tracer);
                Verdict::Failed
            }
            _ => Verdict::Failed,
        }
    }
}

impl Load for ClusterLoad {
    fn begin_op(&self) -> u64 {
        let index = self.index.take();
        if index.is_multiple_of(HOUSEKEEP_EVERY) {
            self.housekeep();
        }
        let every = self.chaos_every.load(Ordering::Relaxed);
        if every > 0 && index % every == every / 2 {
            self.chaos_kill();
        }
        self.clock.advance(self.tick_ms);
        index
    }

    fn run_op(&self, index: u64, _client: usize) -> Verdict {
        let mut rng = op_rng(self.seed, index);
        let tracer = self.tracer();
        let start = tracer.as_ref().map(|t| t.now());
        let verdict = match self.kind {
            Kind::OrderLocal | Kind::Failover => self.order(index, &mut rng, tracer.as_deref()),
            Kind::BookingCross => self.booking(index, &mut rng, tracer.as_deref()),
        };
        if let (Some(t), Some(start)) = (&tracer, start) {
            t.record(index, CLIENT_OP, start, t.now());
        }
        verdict
    }
}

impl Workload for ClusterLoad {
    fn issued(&self) -> u64 {
        self.index.issued()
    }

    fn tick_ms(&self) -> u64 {
        self.tick_ms
    }

    fn enter_recovery(&self) {
        let cluster = self.cluster.write().expect("cluster lock");
        self.clock.advance(hold_ms(self.tick_ms) + self.tick_ms);
        self.housekeep_locked(&cluster);
        for node in &cluster.nodes {
            node.pm.compact().expect("shard journal compacts");
        }
        cluster.sync_replication();
        self.expiring.lock().expect("expiring list").clear();
        self.index.enter_recovery();
    }

    fn begin_round(&self, round: usize) {
        let cluster = self.cluster.write().expect("cluster lock");
        cluster.nodes[round % KILLABLE_SHARDS]
            .pm
            .compact()
            .expect("shard journal compacts");
        cluster.sync_replication();
    }

    fn kill_and_restart(&self, round: usize, problems: &mut Vec<String>) -> Restart {
        let victim = round % KILLABLE_SHARDS;
        let mut cluster = self.cluster.write().expect("cluster lock");
        // Reap what has expired first: recovery reaps it too, and the
        // tables are compared record for record.
        self.housekeep_locked(&cluster);
        let before = cluster.nodes[victim].pm.state_digest();
        let journal_len = cluster.nodes[victim].journal.len();
        let killed = Instant::now();
        let (restart_ms, replayed) = if self.kind == Kind::Failover {
            cluster.kill_shard_abrupt(victim);
            let called = Instant::now();
            let report = cluster.promote_follower(victim);
            (
                called.elapsed().as_secs_f64() * 1e3,
                report.recovery.replayed,
            )
        } else {
            let called = Instant::now();
            let report = cluster.crash_restart_shard(victim);
            (called.elapsed().as_secs_f64() * 1e3, report.replayed)
        };
        self.retap(&cluster, victim);
        let down_ms = killed.elapsed().as_secs_f64() * 1e3;
        if cluster.nodes[victim].pm.state_digest() != before {
            problems.push(format!(
                "round {round}: shard {victim} came back with a different promise table"
            ));
        }
        Restart {
            restart_ms,
            down_ms,
            journal_len,
            replayed,
        }
    }

    fn set_chaos(&self, every: Option<u64>) {
        let every = if self.kind == Kind::Failover {
            every.unwrap_or(0)
        } else {
            0
        };
        self.chaos_every.store(every, Ordering::Relaxed);
        if every == 0 {
            // A leader killed by the phase's last ops may not have been
            // missed by anyone yet.
            self.promote_killed();
        }
    }

    fn set_tracer(&self, tracer: Option<Arc<Tracer>>) {
        for tap in &self.taps {
            *tap.tracer.write().expect("tap tracer") = tracer.clone();
        }
        *self.tracer.write().expect("tracer slot") = tracer;
    }

    fn audit(&self, problems: &mut Vec<String>) {
        problems.append(&mut self.problems.lock().expect("problem list"));
        let cluster = self.cluster.write().expect("cluster lock");
        for (s, node) in cluster.nodes.iter().enumerate() {
            audit_manager(&format!("shard {s}"), &node.pm, &node.journal, problems);
            if !node.pm.prepared_ids().is_empty() {
                problems.push(format!(
                    "shard {s} holds in-doubt prepares at a quiet point"
                ));
            }
        }
        match cluster.coordinator.log().replay() {
            Ok(summary) if summary.undecided.is_empty() => {}
            Ok(summary) => problems.push(format!(
                "{} cross-shard grants undecided at a quiet point",
                summary.undecided.len()
            )),
            Err(e) => problems.push(format!("coordinator log unreadable: {e}")),
        }
    }

    fn drain(&self, problems: &mut Vec<String>) {
        let cluster = self.cluster.write().expect("cluster lock");
        self.clock.advance(hold_ms(self.tick_ms) + self.tick_ms);
        self.housekeep_locked(&cluster);
        let live = cluster.live_count();
        if live != self.resident {
            problems.push(format!(
                "{live} promises live after the drain, resident baseline is {}",
                self.resident
            ));
        }
    }

    fn counters(&self) -> Counters {
        let cluster = self.cluster.read().expect("cluster lock");
        let mut c = Counters::default();
        let bus = cluster.bus.stats();
        c.bus_msgs = bus.delivered;
        c.bus_bytes = bus.bytes;
        let seen = self.coord_log.lock().expect("coord log count");
        c.coord_log_records =
            seen.0 + cluster.coordinator.log().len().saturating_sub(seen.1) as u64;
        for node in &cluster.nodes {
            c.add_manager(&node.pm, &node.telemetry);
            let commit = node.server.commit_stats();
            c.commit_batches += commit.batches;
            c.commit_stalled += commit.stalled;
        }
        c.repl_lines = cluster
            .telemetry
            .snapshot()
            .counter("cluster.repl.shipped_lines");
        c.add_allocator();
        c
    }

    fn gauges(&self) -> Gauges {
        let cluster = self.cluster.read().expect("cluster lock");
        Gauges {
            dedup_len: cluster.coordinator.dedup_len(),
            repl_lag: cluster
                .nodes
                .iter()
                .filter_map(|n| n.replication.as_ref().map(|l| l.lag()))
                .max()
                .unwrap_or(0),
            queue_depth_max: self
                .taps
                .iter()
                .map(|t| t.queue_depth_max.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
        }
    }

    fn resident(&self) -> (usize, u64) {
        (self.resident, self.resident_bytes)
    }

    fn captured(&self) -> Vec<Captured> {
        self.taps[0].take_captured()
    }

    fn replica(&self) -> Replica {
        // A second cluster built and preloaded the same way; only shard
        // 0 (whose messages were captured) and the room shard are used.
        let Self { cluster, .. } = Self::build(self.kind, self.seed);
        let cluster = cluster.into_inner().expect("cluster lock");
        let first = &cluster.nodes[0];
        let qty_pool = cluster
            .registered_pools()
            .into_iter()
            .find(|(_, _, shard)| *shard == 0)
            .expect("shard 0 owns a quantity pool")
            .0;
        let prop = (self.kind == Kind::BookingCross).then(|| {
            let ask = parse_predicate(&self.hotels[0].ask).expect("the hotel ask parses");
            (Arc::clone(&cluster.nodes[2].pm), ask)
        });
        Replica {
            clock: Arc::clone(&cluster.clock),
            qty_pm: Arc::clone(&first.pm),
            qty_pool,
            prop,
            gateway: Some(Arc::clone(&first.gateway)),
            _owner: Box::new(cluster),
        }
    }
}
