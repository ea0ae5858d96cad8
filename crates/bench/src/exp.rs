//! Experiment implementations: the tables (E1/Figure 1 … E9) and what
//! the gates run (E12 … E19). See DESIGN.md §4.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use promises_baselines::{EscrowReserver, LockReserver, OptimisticReserver};
use promises_cluster::PromiseCluster;
use promises_core::{
    ActionError, Catalog, CheckStrategy, Environment, ManualClock, PoolSchema, Predicate,
    PromiseJournal, PromiseManager, PromiseRequestSpec, PropExpr,
};
use promises_faults::FaultScenario;
use promises_rm::ResourceManager;
use promises_services::Merchant;
use promises_sim::{
    drive_clients, pool_name, promise_reserver, run_obs_sweep, run_qty_workload, seed_pools,
    ClientOp, FaultSweepConfig, ObsReport, Release, RunReport, WorkloadConfig,
};
use promises_telemetry::Telemetry;
use promises_wire::{
    ActionRequest, EnvEntry, EnvRef, Envelope, EnvironmentHeader, InMemoryBus, PromiseGateway,
    PromiseRequestHeader,
};

/// Measures mean wall time per iteration of `f`, in microseconds.
fn mean_us(iters: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_micros() as f64 / iters.max(1) as f64
}

// ======================================================================
// E1 / Figure 1 — the ordering process
// ======================================================================

/// One full Figure 1 cycle: promise 5 widgets, purchase them, release.
fn figure1_once(merchant: &Merchant) {
    let p = merchant
        .reserve_stock("bench", "widgets", 5, 60_000)
        .expect("rm ok")
        .expect("stock ample");
    merchant
        .purchase(p, "bench", "widgets", 5)
        .expect("purchase ok");
}

/// Figure 1 latency: mean microseconds per promise+purchase cycle.
pub fn e1_figure1(iters: usize) -> f64 {
    let merchant = crate::setup::merchant_with_stock("widgets", (iters as u64 + 1) * 5);
    mean_us(iters, || figure1_once(&merchant))
}

// ======================================================================
// E2 / Figure 2 — wire pipeline throughput
// ======================================================================

/// Builds the Figure 2 pipeline (gateway + bus) over one widget pool.
fn build_pipeline(stock: u64) -> Arc<InMemoryBus> {
    let pm = crate::setup::pm_with_qty_pool("widgets", stock);
    let gateway = Arc::new(PromiseGateway::new(Arc::clone(&pm)));
    gateway.register_handler(
        "merchant",
        "purchase",
        Arc::new(|rm, txn, action| {
            let qty: i64 = action
                .get("qty")
                .and_then(|v| v.parse().ok())
                .ok_or(ActionError::App("missing qty".into()))?;
            rm.update(txn, Catalog::QTY_TABLE, "widgets", |r| {
                let q = r.int("qty").unwrap_or(0);
                r.set("qty", q - qty);
            })?;
            Ok(vec![])
        }),
    );
    let bus = Arc::new(InMemoryBus::new());
    bus.register("gateway", gateway);
    bus
}

/// One §6 combined envelope: promise + purchase-under-it + release.
fn pipeline_roundtrip(bus: &InMemoryBus, id: u64) -> bool {
    let envelope = Envelope::new()
        .with_promise_request(PromiseRequestHeader {
            request_id: format!("r{id}"),
            client: "bench".into(),
            predicates: vec!["qty('widgets') >= 1".into()],
            duration_ms: 60_000,
            exchange: vec![],
            negotiate: false,
            prepare: false,
        })
        .with_environment(EnvironmentHeader {
            entries: vec![EnvEntry {
                reference: EnvRef::Correlation(format!("r{id}")),
                release_after: true,
            }],
        })
        .with_action(ActionRequest::new("merchant", "purchase").param("qty", 1));
    let reply = bus.send("gateway", &envelope).expect("bus delivery");
    reply.action_response.map(|a| a.ok).unwrap_or(false)
}

/// E2 row: `clients` concurrent clients each sending `ops` combined
/// envelopes; returns (throughput ops/s, ok-fraction).
pub fn e2_pipeline(clients: usize, ops: usize) -> (f64, f64) {
    let bus = build_pipeline((clients * ops) as u64 + 10);
    let start = Instant::now();
    let ok: u64 = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let bus = Arc::clone(&bus);
            handles.push(scope.spawn(move || {
                let mut ok = 0u64;
                for i in 0..ops {
                    if pipeline_roundtrip(&bus, (c * ops + i) as u64) {
                        ok += 1;
                    }
                }
                ok
            }));
        }
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });
    let wall = start.elapsed().as_secs_f64();
    let total = (clients * ops) as f64;
    (total / wall, ok as f64 / total)
}

/// A single-predicate promise request from `client`.
fn spec(request: String, client: &str, predicate: Predicate) -> PromiseRequestSpec {
    PromiseRequestSpec::new(request.as_str(), client).predicate(predicate)
}

// ======================================================================
// E4 — contention comparison (promises vs 2PL vs optimistic vs escrow)
// ======================================================================

/// Systems compared by E4/E5/E6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Long-held 2PL locks.
    Locks,
    /// Unprotected check-then-act.
    Optimistic,
    /// Escrow counters.
    Escrow,
    /// The promise manager.
    Promises,
}

impl System {
    /// All four systems.
    pub const ALL: [System; 4] = [
        System::Locks,
        System::Optimistic,
        System::Escrow,
        System::Promises,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            System::Locks => "locks-2pl",
            System::Optimistic => "optimistic",
            System::Escrow => "escrow",
            System::Promises => "promises",
        }
    }
}

/// Runs `cfg` over the chosen system with `qty` units per pool.
pub fn run_system(system: System, cfg: &WorkloadConfig, qty: u64) -> RunReport {
    match system {
        System::Locks => {
            let rm = Arc::new(ResourceManager::new());
            seed_pools(&rm, cfg.pools, qty);
            run_qty_workload(Arc::new(LockReserver::new(rm)), cfg)
        }
        System::Optimistic => {
            let rm = Arc::new(ResourceManager::new());
            seed_pools(&rm, cfg.pools, qty);
            run_qty_workload(Arc::new(OptimisticReserver::new(rm)), cfg)
        }
        System::Escrow => {
            let rm = Arc::new(ResourceManager::new());
            seed_pools(&rm, cfg.pools, qty);
            run_qty_workload(Arc::new(EscrowReserver::new(rm)), cfg)
        }
        System::Promises => run_qty_workload(Arc::new(promise_reserver(cfg.pools, qty)), cfg),
    }
}

/// E4 workload: hotspot contention with think time.
pub fn e4_config(clients: usize, ops: usize) -> WorkloadConfig {
    WorkloadConfig {
        clients,
        ops_per_client: ops,
        pools: 4,
        hotspot_probability: 0.7,
        zipf_exponent: 0.0,
        amount_max: 3,
        think: Duration::from_millis(2),
        real_time_think: true,
        abandon_probability: 0.1,
        multi_pool: false,
        pinned_pools: false,
        seed: 2007,
    }
}

/// E5 workload: multi-pool operations with opposite acquisition orders.
pub fn e5_config(clients: usize, ops: usize) -> WorkloadConfig {
    WorkloadConfig {
        clients,
        ops_per_client: ops,
        pools: 3,
        hotspot_probability: 0.3,
        zipf_exponent: 0.0,
        amount_max: 2,
        think: Duration::from_millis(1),
        real_time_think: true,
        abandon_probability: 0.0,
        multi_pool: true,
        pinned_pools: false,
        seed: 2007,
    }
}

/// E6 workload: scarce stock so admission control is the discriminator.
pub fn e6_config(clients: usize, ops: usize) -> WorkloadConfig {
    WorkloadConfig {
        clients,
        ops_per_client: ops,
        pools: 1,
        hotspot_probability: 1.0,
        zipf_exponent: 0.0,
        amount_max: 4,
        think: Duration::from_millis(2),
        real_time_think: true,
        abandon_probability: 0.0,
        multi_pool: false,
        pinned_pools: false,
        seed: 2007,
    }
}

// ======================================================================
// E7 — property-view strategies: acceptance and cost
// ======================================================================

/// Result of the E7 adversarial grant sequence.
#[derive(Debug, Clone, Copy)]
pub struct E7Outcome {
    /// Requests granted.
    pub granted: usize,
    /// Requests rejected.
    pub rejected: usize,
    /// Mean microseconds per request.
    pub mean_us: f64,
}

/// Runs the adversarial sequence against a pool of `rooms` rooms using
/// `strategy`: alternating broad ("view") and narrow ("floor == f")
/// requests. Every request in the sequence is jointly satisfiable, so a
/// perfect strategy grants all of them; allocate-on-grant-without-
/// re-arrangement does not.
pub fn e7_strategy(rooms: usize, strategy: CheckStrategy) -> E7Outcome {
    let pm = crate::setup::pm_with_rooms("p", rooms, strategy);
    // Per 20-room floor there are 6-7 view rooms (i % 3 == 0). Request
    // one view room then the whole remainder of the same floor; the view
    // request must be steered off that floor for everything to fit.
    let floors = rooms / 20;
    let mut granted = 0usize;
    let mut rejected = 0usize;
    let mut n = 0u64;
    let start = Instant::now();
    // Only even floors are demanded wholesale, so steering every broad
    // "view" grant onto an odd floor keeps the entire sequence jointly
    // satisfiable at any pool size.
    for floor in (0..floors.saturating_sub(1)).step_by(2) {
        let mut ask = |pred: Predicate| {
            n += 1;
            let resp = pm
                .request(spec(format!("e7-{n}"), "bench", pred))
                .expect("rm ok");
            if resp.decision.is_granted() {
                granted += 1;
            } else {
                rejected += 1;
            }
        };
        // Broad request first: any view room anywhere.
        ask(Predicate::property("p", PropExpr::eq("view", true), 1));
        // Then demand EVERY room on this floor (20 of them): feasible only
        // if earlier broad grants were not pinned to this floor.
        ask(Predicate::property(
            "p",
            PropExpr::eq("floor", floor as i64),
            20,
        ));
    }
    let total = granted + rejected;
    E7Outcome {
        granted,
        rejected,
        mean_us: start.elapsed().as_micros() as f64 / total.max(1) as f64,
    }
}

// ======================================================================
// E8 — atomic release+action vs naive two-step
// ======================================================================

/// Outcome counts of the E8 race trials.
#[derive(Debug, Clone, Copy, Default)]
pub struct E8Outcome {
    /// Protected client completed its purchase.
    pub protected_ok: u64,
    /// Protected client lost its resource to the competitor.
    pub protected_lost: u64,
    /// Competitor acquisitions.
    pub competitor_got: u64,
}

/// Runs `trials` races on a 1-unit pool. The protected client holds a
/// promise for the unit and then consumes it either atomically
/// (release-with-action, §4) or naively (release, *then* act). A
/// competitor thread hammers promise requests for the same unit. With the
/// atomic form the protected client can never lose; with the naive form
/// the competitor can steal the unit between release and action.
pub fn e8_race(trials: usize, atomic: bool) -> E8Outcome {
    let mut out = E8Outcome::default();
    for trial in 0..trials {
        let pm = crate::setup::pm_with_qty_pool("unit", 1);
        let p = pm
            .request(spec(
                format!("hold-{trial}"),
                "protected",
                Predicate::qty_at_least("unit", 1),
            ))
            .expect("rm ok")
            .decision
            .granted_id()
            .expect("unit free");

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let competitor = {
            let pm = Arc::clone(&pm);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut got = 0u64;
                let mut n = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    n += 1;
                    let resp = pm
                        .request(spec(
                            format!("steal-{n}"),
                            "competitor",
                            Predicate::qty_at_least("unit", 1),
                        ))
                        .expect("rm ok");
                    if let Some(id) = resp.decision.granted_id() {
                        got += 1;
                        // Competitor immediately consumes the unit.
                        let _ = pm.execute(&Environment::none().releasing(id), |rm, txn| {
                            rm.update(txn, Catalog::QTY_TABLE, "unit", |r| {
                                let q = r.int("qty").unwrap_or(0);
                                r.set("qty", q - 1);
                            })
                            .map_err(ActionError::from)
                        });
                    }
                }
                got
            })
        };

        let take_unit = |env: &Environment| {
            pm.execute(env, |rm, txn| {
                let q = rm
                    .get(txn, Catalog::QTY_TABLE, "unit")
                    .map_err(ActionError::from)?
                    .and_then(|r| r.int("qty"))
                    .unwrap_or(0);
                if q < 1 {
                    return Err(ActionError::App("unit already gone".into()));
                }
                rm.update(txn, Catalog::QTY_TABLE, "unit", |r| {
                    r.set("qty", q - 1);
                })
                .map_err(ActionError::from)
            })
        };

        // Give the competitor a moment to start hammering.
        std::thread::sleep(Duration::from_micros(200));
        let result = if atomic {
            take_unit(&Environment::none().releasing(p))
        } else {
            // Naive two-step: the window between these calls is the race.
            pm.release(p).expect("release");
            std::thread::sleep(Duration::from_micros(200));
            take_unit(&Environment::none())
        };
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let got = competitor.join().expect("competitor");
        out.competitor_got += got;
        match result {
            Ok(()) => out.protected_ok += 1,
            Err(_) => out.protected_lost += 1,
        }
    }
    out
}

// ======================================================================
// E9 — promise duration vs completion and utilisation
// ======================================================================

/// One E9 row: TTL plus outcome fractions.
#[derive(Debug, Clone, Copy)]
pub struct E9Outcome {
    /// Promise TTL (manager-clock ms).
    pub ttl_ms: u64,
    /// Operations that completed under a live promise.
    pub completed: u64,
    /// Operations refused with promise-expired.
    pub expired: u64,
    /// Grants denied to a late second population because capacity was
    /// still promised to abandoned first-population promises.
    pub latecomer_rejections: u64,
}

/// Deterministic TTL study on a manual clock. Population 1: `n` clients
/// obtain a 1-unit promise with the given TTL, work for `think_ms`
/// (clock-advanced), then try to consume; a fraction abandon without
/// releasing. Population 2 arrives afterwards and requests what is left.
pub fn e9_ttl(ttl_ms: u64, n: usize, think_ms: u64, abandon_every: usize) -> E9Outcome {
    let rm = Arc::new(ResourceManager::new());
    let clock = Arc::new(ManualClock::new());
    let pm = PromiseManager::new(rm, Arc::clone(&clock) as _);
    pm.register_pool(PoolSchema::quantity("capacity"));
    pm.seed_quantity("capacity", n as u64).expect("seed");

    let mut out = E9Outcome {
        ttl_ms,
        completed: 0,
        expired: 0,
        latecomer_rejections: 0,
    };

    // Population 1.
    let mut live: Vec<(usize, promises_core::PromiseId)> = Vec::new();
    for i in 0..n {
        let resp = pm
            .request(
                spec(
                    format!("p1-{i}"),
                    "pop1",
                    Predicate::qty_at_least("capacity", 1),
                )
                .duration_ms(ttl_ms),
            )
            .expect("rm ok");
        if let Some(id) = resp.decision.granted_id() {
            live.push((i, id));
        }
    }
    clock.advance(think_ms);
    for (i, id) in live {
        if abandon_every != 0 && i % abandon_every == 0 {
            continue; // walked away without releasing
        }
        let r = pm.execute(&Environment::none().releasing(id), |rm, txn| {
            rm.update(txn, Catalog::QTY_TABLE, "capacity", |rec| {
                let q = rec.int("qty").unwrap_or(0);
                rec.set("qty", q - 1);
            })
            .map_err(ActionError::from)
        });
        match r {
            Ok(()) => out.completed += 1,
            Err(promises_core::PromiseError::PromiseExpired(_)) => out.expired += 1,
            Err(e) => panic!("unexpected: {e}"),
        }
    }

    // Population 2 arrives later (after another 2x think time), when
    // short-TTL abandoned promises have expired but long-TTL ones linger.
    clock.advance(think_ms * 2);
    for i in 0..n / 4 {
        let resp = pm
            .request(
                spec(
                    format!("p2-{i}"),
                    "pop2",
                    Predicate::qty_at_least("capacity", 1),
                )
                .duration_ms(ttl_ms),
            )
            .expect("rm ok");
        if !resp.decision.is_granted() {
            out.latecomer_rejections += 1;
        }
    }
    out
}

// ======================================================================
// E12 — observability: instrumented sweep, lifecycle audit, overhead
// ======================================================================

/// Runs the E12 instrumented fault sweep: the `--faults` workload with one
/// shared telemetry registry attached at every layer (client, bus, PM,
/// RM), audited by the trace-replay lifecycle checker. Message faults
/// fire at `rate`; RM storage faults at a quarter of it.
pub fn e12_obs(seed: u64, rate: f64, clients: usize, ops_per_client: usize) -> ObsReport {
    let cfg = FaultSweepConfig {
        clients,
        ops_per_client,
        seed,
        ..FaultSweepConfig::default()
    };
    let scenario = FaultScenario::uniform(seed, rate).with_storage_errors(rate / 4.0);
    run_obs_sweep(scenario, &cfg)
}

/// E12b result: disjoint-pool throughput with and without telemetry.
#[derive(Debug, Clone, Copy)]
pub struct ObsOverhead {
    /// Median round throughput with telemetry disabled (ops/s).
    pub plain: f64,
    /// Median round throughput with a live registry on the PM and RM
    /// (ops/s).
    pub instrumented: f64,
    /// Median of the per-round paired regressions (percent; negative =
    /// the instrumented run of that round happened to be faster).
    pub median_delta_pct: f64,
}

impl ObsOverhead {
    /// Regression of the instrumented runs in percent: the median of the
    /// paired per-round deltas, which cancels machine-load drift that a
    /// single off/on pair (or a best-of comparison) cannot.
    pub fn overhead_pct(&self) -> f64 {
        self.median_delta_pct
    }
}

fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("throughputs are finite"));
    xs[xs.len() / 2]
}

/// Throughput of one disjoint-pool run: `standing_per_pool` long-lived
/// promises are granted against every pool before the clocks start (the
/// paper's long-running operations, each re-checked after every action),
/// with `telemetry`, if any, attached to the manager and its RM.
fn disjoint_throughput(
    cfg: &WorkloadConfig,
    qty: u64,
    standing_per_pool: usize,
    telemetry: Option<Arc<Telemetry>>,
) -> f64 {
    let reserver = Arc::new(promise_reserver(cfg.pools, qty));
    let pm = reserver.manager();
    if let Some(tel) = telemetry {
        pm.rm().set_telemetry(Some(Arc::clone(&tel)));
        pm.set_telemetry(Some(tel));
    }
    for pool in 0..cfg.pools {
        for k in 0..standing_per_pool {
            pm.request(
                PromiseRequestSpec::new(format!("standing-{pool}-{k}").as_str(), "bench")
                    .predicate(Predicate::qty_at_least(pool_name(pool).as_str(), 1))
                    .duration_ms(3_600_000),
            )
            .expect("standing grant")
            .decision
            .granted_id()
            .expect("ample stock");
        }
    }
    run_qty_workload(reserver, cfg).throughput
}

/// E12b: telemetry overhead on the disjoint-pool workload — each client
/// pinned to its own pool, zero think time, so nothing but the work under
/// measurement paces a run. The same config runs in interleaved off/on
/// pairs differing only in whether a registry is attached. Each pair
/// yields one paired regression sample; the reported overhead is the
/// median pair, which is robust to the scheduler noise a shared box
/// injects into any single run. `--obs` gates it at 5%, best of three.
pub fn e12_overhead(clients: usize, ops: usize, qty: u64, standing_per_pool: usize) -> ObsOverhead {
    let cfg = WorkloadConfig {
        clients,
        ops_per_client: ops,
        pools: clients,
        hotspot_probability: 0.0,
        zipf_exponent: 0.0,
        amount_max: 2,
        think: Duration::ZERO,
        real_time_think: true,
        abandon_probability: 0.0,
        multi_pool: false,
        pinned_pools: true,
        seed: 2007,
    };
    let run_off = || disjoint_throughput(&cfg, qty, standing_per_pool, None);
    let run_on = || disjoint_throughput(&cfg, qty, standing_per_pool, Some(Telemetry::shared()));
    // One unmeasured warmup pair: the first run of each variant pays for
    // allocator growth and cache warming that later rounds reuse, which
    // otherwise biases whichever arm happens to run first.
    let _ = run_off();
    let _ = run_on();
    let mut offs = Vec::new();
    let mut ons = Vec::new();
    let mut deltas = Vec::new();
    for round in 0..9 {
        // Alternate which variant runs first so slow drift in machine
        // load (warming caches, background work) cancels out across the
        // pairs instead of biasing one arm.
        let (off, on) = if round % 2 == 0 {
            let off = run_off();
            (off, run_on())
        } else {
            let on = run_on();
            (run_off(), on)
        };
        offs.push(off);
        ons.push(on);
        if off > 0.0 {
            deltas.push((off - on) / off * 100.0);
        }
    }
    ObsOverhead {
        plain: median(&mut offs),
        instrumented: median(&mut ons),
        median_delta_pct: median(&mut deltas),
    }
}

// ======================================================================
// E13 — cluster: shard-count throughput scaling + cross-shard mix
// ======================================================================

/// One row of a shard-count scaling table (E13 and E19 share the shape
/// and the driver; they differ in service time, seed and request ids).
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Cluster size (one dedicated worker thread per shard).
    pub shards: usize,
    /// Grant+release operations per wall-clock second.
    pub throughput: f64,
    /// Unit grants confirmed.
    pub granted: u64,
    /// Unit rejections.
    pub rejected: u64,
    /// Mean wall-clock latency per op, microseconds.
    pub mean_op_us: f64,
    /// Journal flush writes across the cluster (group-commit batches).
    pub flush_writes: u64,
    /// Journal records covered by those writes.
    pub flushed_records: u64,
}

/// Modeled per-message service time for the E13 scaling runs: each shard
/// node is a single-threaded server costing this much per request, as if
/// it ran on its own machine (see [`promises_cluster::ShardServer`]).
pub const E13_SERVICE_US: u64 = 100;

/// The scaling workload behind E13 and E19: `clients` concurrent clients,
/// each pinned to its own pool (pools spread round-robin, so shard load
/// divides evenly), drive single-shard grant+release cycles through the
/// coordinator's fast path against a `shards`-node cluster whose worker
/// threads sleep `service_us` per message. With one shard the whole
/// offered load funnels through one serialized loop, while N shards
/// overlap their service time — the *shape* adding machines buys. The
/// sleep dominates, so this is modeled-time scaling, not throughput.
fn cluster_scaling(
    tag: &str,
    seed: u64,
    service_us: u64,
    shards: usize,
    clients: usize,
    ops_per_client: usize,
) -> ScalingRow {
    let cluster = PromiseCluster::build(shards, seed);
    cluster.set_service_time_us(service_us);
    for c in 0..clients {
        cluster.register_quantity_pool(&pool_name(c), 1_000_000);
    }
    let start = Instant::now();
    let run = drive_clients(
        &cluster,
        clients,
        0..ops_per_client,
        |_| 0,
        |c, op, _| ClientOp {
            rid: format!("{tag}-{c}-{op}"),
            predicates: vec![format!("qty('{}') >= 2", pool_name(c))],
            release: Release::Always,
        },
    );
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    run.assert_quiet(tag, 0);
    let total = (clients * ops_per_client) as f64;
    let (flush_writes, flushed_records) = cluster
        .nodes
        .iter()
        .map(|n| n.journal.flush_stats())
        .fold((0, 0), |(w, r), (nw, nr)| (w + nw, r + nr));
    ScalingRow {
        shards,
        throughput: total / wall,
        granted: run.tally.granted,
        rejected: run.tally.rejected,
        mean_op_us: wall * 1e6 / total,
        flush_writes,
        flushed_records,
    }
}

/// Runs the E13 scaling workload ([`cluster_scaling`] at
/// [`E13_SERVICE_US`]) on a `shards`-node cluster.
pub fn e13_cluster_scaling(shards: usize, clients: usize, ops_per_client: usize) -> ScalingRow {
    cluster_scaling("e13", 2013, E13_SERVICE_US, shards, clients, ops_per_client)
}

// ======================================================================
// E14 — recovery time: compacted vs uncompacted journal
// ======================================================================

/// One E14 measurement: the same logical promise state recovered from
/// the full append-only history and from the checkpoint-seeded compacted
/// journal, with the wall time of each replay.
#[derive(Debug, Clone)]
pub struct E14Row {
    /// Grant+release churn cycles driven before measuring.
    pub cycles: usize,
    /// Promises still live (unreleased) when the journal is snapshotted.
    pub live: usize,
    /// Record count of the uncompacted history journal.
    pub history_records: usize,
    /// Record count after `compact()` (checkpoint + nothing else here).
    pub compacted_records: usize,
    /// Mean recovery wall time over the full history, microseconds.
    pub uncompacted_us: f64,
    /// Mean recovery wall time over the compacted journal, microseconds.
    pub compacted_us: f64,
    /// Whether both recoveries reproduce the pre-crash state digest.
    pub digests_match: bool,
}

impl E14Row {
    /// Recovery speedup bought by compaction.
    pub fn speedup(&self) -> f64 {
        self.uncompacted_us / self.compacted_us.max(1e-9)
    }
}

/// A journalled single-pool manager for the E14 churn workload.
fn e14_manager(clock: &Arc<ManualClock>, journal: &Arc<PromiseJournal>) -> Arc<PromiseManager> {
    let rm = Arc::new(ResourceManager::new());
    let pm =
        Arc::new(PromiseManager::new(rm, Arc::clone(clock) as _).with_journal(Arc::clone(journal)));
    pm.register_pool(PoolSchema::quantity("stock"));
    pm.seed_quantity("stock", 1_000_000).expect("seed stock");
    pm
}

/// Mean wall time, in microseconds, to recover a fresh manager from the
/// given journal lines (parse included — that is what restart pays).
fn e14_recovery_us(clock: &Arc<ManualClock>, lines: &[String], iters: usize) -> (f64, String) {
    let mut total_us = 0.0;
    let mut digest = String::new();
    for _ in 0..iters.max(1) {
        let pm = e14_manager(clock, &Arc::new(PromiseJournal::new()));
        let start = Instant::now();
        let journal = Arc::new(PromiseJournal::from_lines(lines).expect("well-formed journal"));
        pm.recover(journal).expect("recovery succeeds");
        total_us += start.elapsed().as_micros() as f64;
        digest = pm.state_digest();
    }
    (total_us / iters.max(1) as f64, digest)
}

/// E14: drives `cycles` grant+release pairs plus `live` retained grants
/// through a journalled manager, then times a cold restart from the full
/// history versus from the compacted journal. History replay is
/// O(cycles); checkpoint replay is O(live) — the bounded-recovery claim
/// of DESIGN.md §14, gated in `--recovery` mode on both the speedup and
/// digest equality.
pub fn e14_recovery(cycles: usize, live: usize, iters: usize) -> E14Row {
    let clock = Arc::new(ManualClock::new());
    let journal = Arc::new(PromiseJournal::new());
    let pm = e14_manager(&clock, &journal);
    let grant = |i: usize, tag: &str| {
        let spec = PromiseRequestSpec::new(format!("e14-{tag}-{i}").as_str(), "bench")
            .predicate(Predicate::qty_at_least("stock", 1))
            .duration_ms(3_600_000);
        pm.request(spec)
            .expect("rm ok")
            .decision
            .granted_id()
            .expect("ample stock")
    };
    for i in 0..cycles {
        let id = grant(i, "churn");
        pm.release(id).expect("release own grant");
    }
    for i in 0..live {
        grant(i, "live");
    }

    let history = journal.lines();
    let reference = pm.state_digest();
    pm.compact()
        .expect("no crash armed")
        .expect("journal attached");
    let compacted = journal.lines();
    drop(pm); // crash

    let (uncompacted_us, history_digest) = e14_recovery_us(&clock, &history, iters);
    let (compacted_us, compacted_digest) = e14_recovery_us(&clock, &compacted, iters);
    E14Row {
        cycles,
        live,
        history_records: history.len(),
        compacted_records: compacted.len(),
        uncompacted_us,
        compacted_us,
        digests_match: history_digest == reference && compacted_digest == reference,
    }
}

// ======================================================================
// E15 — lease locality: hot-pool grants without the coordinator
// ======================================================================

/// One E15 row: the Zipf-skewed workload on a cluster with or without
/// per-shard escrow leases, measured after a rebalance warm-up.
#[derive(Debug, Clone, Copy)]
pub struct E15Row {
    /// Cluster size.
    pub shards: usize,
    /// Whether escrow leases were enabled.
    pub leases: bool,
    /// Grant(+release) operations per wall-clock second, measure phase.
    pub throughput: f64,
    /// Unit grants confirmed in the measure phase.
    pub granted: u64,
    /// Unit rejections in the measure phase.
    pub rejected: u64,
    /// Measure-phase grants served by the client's home-shard lease.
    pub local_grants: u64,
    /// Measure-phase grants that fell back to the ownership path.
    pub coordinator_fallbacks: u64,
    /// Measure-phase fraction of *hot-pool* grants (the top Zipf ranks)
    /// served locally: `local / (local + fallback)` over those pools.
    pub hot_local_ratio: f64,
}

/// Pools in the E15 workload; the top [`E15_HOT_POOLS`] Zipf ranks carry
/// most of the mass (s = 1.1 puts ~45% on the first three ranks).
pub const E15_POOLS: usize = 16;
/// How many head ranks count as "hot" for the locality ratio.
pub const E15_HOT_POOLS: usize = 3;

/// E15: the flash-sale shape E13 can't serve — a Zipf-skewed pool mix
/// where every client hammers the same few hot pools. Without leases
/// every hot-pool grant funnels through the owner shard's single-threaded
/// server loop; with leases each client's home shard serves its slice of
/// the hot pool from a local escrow lease, so the same offered load
/// spreads over all `shards` loops. Clients are pinned home shards
/// round-robin, the first half of each stream is warm-up (two rebalance
/// cycles chase the observed demand), and throughput plus the locality
/// counters are measured over the second half only.
pub fn e15_lease_locality(
    shards: usize,
    clients: usize,
    ops_per_client: usize,
    leases: bool,
) -> E15Row {
    let cluster = PromiseCluster::build(shards, 2015);
    if leases {
        let dir = cluster.enable_leases();
        for c in 0..clients {
            dir.pin_home(&format!("client-{c}"), c % shards.max(1));
        }
    }
    for p in 0..E15_POOLS {
        cluster.register_quantity_pool(&pool_name(p), 1_000_000);
    }
    cluster.set_service_time_us(E13_SERVICE_US);

    let workload = WorkloadConfig {
        clients,
        ops_per_client,
        pools: E15_POOLS,
        zipf_exponent: 1.1,
        amount_max: 3,
        seed: 2015,
        ..WorkloadConfig::default()
    };
    let streams: Vec<_> = (0..clients).map(|c| workload.ops_for_client(c)).collect();

    // Drives every client through `range` of its op stream concurrently.
    let drive = |range: std::ops::Range<usize>| {
        let run = drive_clients(
            &cluster,
            clients,
            range,
            |_| 0,
            |c, i, _| {
                let op = &streams[c][i];
                ClientOp {
                    rid: format!("e15-{c}-{i}"),
                    predicates: vec![format!(
                        "qty('{}') >= {}",
                        pool_name(op.pools[0]),
                        op.amount
                    )],
                    release: if op.abandon {
                        Release::Never
                    } else {
                        Release::Always
                    },
                }
            },
        );
        run.assert_quiet("e15", 0);
        run.tally
    };

    // Warm-up: half the stream, with a rebalance cycle after each quarter
    // so lease headroom has chased the Zipf head before we measure.
    let warmup = ops_per_client / 2;
    drive(0..warmup / 2);
    cluster.advance_and_prune(10_000);
    drive(warmup / 2..warmup);
    cluster.advance_and_prune(10_000);

    let counter = |name: &str| cluster.telemetry.counter(name).load(Ordering::Relaxed);
    let hot_pools: Vec<String> = (0..E15_HOT_POOLS).map(pool_name).collect();
    let snap_hot = |kind: &str| -> u64 {
        hot_pools
            .iter()
            .map(|p| counter(&format!("cluster.lease.{kind}.{p}")))
            .sum()
    };
    let local_before = counter("cluster.lease.local_grants");
    let fallback_before = counter("cluster.lease.coordinator_fallbacks");
    let hot_local_before = snap_hot("local");
    let hot_fallback_before = snap_hot("fallback");

    // Measure phase.
    let start = Instant::now();
    let measured = drive(warmup..ops_per_client);
    let wall = start.elapsed().as_secs_f64().max(1e-9);

    let hot_local = snap_hot("local") - hot_local_before;
    let hot_fallback = snap_hot("fallback") - hot_fallback_before;
    let hot_routed = hot_local + hot_fallback;
    E15Row {
        shards,
        leases,
        throughput: (clients * (ops_per_client - warmup)) as f64 / wall,
        granted: measured.granted,
        rejected: measured.rejected,
        local_grants: counter("cluster.lease.local_grants") - local_before,
        coordinator_fallbacks: counter("cluster.lease.coordinator_fallbacks") - fallback_before,
        hot_local_ratio: if hot_routed == 0 {
            0.0
        } else {
            hot_local as f64 / hot_routed as f64
        },
    }
}

// ======================================================================
// E19 — thread-per-shard runtime: wall-clock scaling and group commit
// ======================================================================

/// Modeled per-message service time for the E19 scaling runs. Larger than
/// E13's so the run is sleep-dominated even on a single-core test box:
/// the scaling the gate checks comes from shard *threads* overlapping
/// their service time, which needs the per-op CPU cost to stay a small
/// fraction of the service time.
pub const E19_SERVICE_US: u64 = 300;

/// Clients driving the E19 runs (two per shard at the widest point, so
/// every shard thread always has a next request queued).
pub const E19_CLIENTS: usize = 16;

/// Modeled latency of one durable batch write in the E19b amortization
/// probe — the "fsync" cost group commit exists to amortize. Half the
/// service time: long enough that messages queue behind an in-flight
/// flush, short enough that the probe stays quick.
pub const E19_FLUSH_DELAY_US: u64 = 150;

/// Runs the E19 scaling workload ([`cluster_scaling`] at
/// [`E19_SERVICE_US`]): the concurrency gate for the thread-per-shard
/// executor. Every number is wall-clock — arrival-to-reply time measured
/// across real thread handoffs, the group-commit barrier included — but
/// the service sleep dominates it.
pub fn e19_thread_scaling(shards: usize, clients: usize, ops_per_client: usize) -> ScalingRow {
    cluster_scaling("e19", 2019, E19_SERVICE_US, shards, clients, ops_per_client)
}

/// The E19b group-commit amortization probe: one shard, more clients
/// than its one worker can serve at once, modeled service time on the
/// handlers and modeled write latency on the journal — so messages queue
/// while the worker is busy, each wake drains them as one batch, and the
/// batch's records ride one write. Returns `(flush_writes,
/// flushed_records)` for the shard; `records / writes` is the
/// amortization factor (1.0 means every record paid its own write, i.e.
/// no batching happened).
pub fn e19_group_commit_amortization(clients: usize, ops_per_client: usize) -> (u64, u64) {
    let mut cluster = PromiseCluster::build(1, 2019);
    // Modeled service time plus modeled write latency open the batching
    // window this probe measures: while the worker handles one message
    // or sleeps out one batch's "fsync", the other clients' messages
    // queue behind it, and the next drain's single write covers them all.
    // With both costs at zero the worker mostly finishes a message before
    // the next arrives, and each batch degenerates to one record — group
    // commit only amortizes a write cost that exists.
    cluster.set_service_time_us(E19_SERVICE_US);
    cluster.nodes[0]
        .journal
        .set_flush_delay_us(E19_FLUSH_DELAY_US);
    cluster.enable_replication();
    for c in 0..clients {
        cluster.register_quantity_pool(&pool_name(c), 1_000_000);
    }
    drive_clients(
        &cluster,
        clients,
        0..ops_per_client,
        |_| 0,
        |c, op, _| ClientOp {
            rid: format!("e19b-{c}-{op}"),
            predicates: vec![format!("qty('{}') >= 1", pool_name(c))],
            release: Release::Always,
        },
    );
    cluster.nodes[0].journal.flush_stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_runs() {
        assert!(e1_figure1(5) > 0.0);
    }

    #[test]
    fn e2_pipeline_small() {
        let (tput, ok) = e2_pipeline(2, 3);
        assert!(tput > 0.0);
        assert!((ok - 1.0).abs() < 1e-9, "all combined ops succeed");
    }

    #[test]
    fn e4_runs_all_systems() {
        let cfg = WorkloadConfig {
            clients: 2,
            ops_per_client: 3,
            think: Duration::from_micros(100),
            ..e4_config(2, 3)
        };
        for sys in System::ALL {
            let r = run_system(sys, &cfg, 10_000);
            assert_eq!(r.attempts, 6, "{}", sys.name());
        }
    }

    #[test]
    fn e7_tentative_beats_strict_tags() {
        let strict = e7_strategy(100, CheckStrategy::AllocatedTags);
        let tentative = e7_strategy(100, CheckStrategy::TentativeAllocation);
        let satisfiability = e7_strategy(100, CheckStrategy::Satisfiability);
        assert_eq!(
            tentative.rejected, 0,
            "re-arrangement grants the whole feasible sequence"
        );
        assert_eq!(satisfiability.rejected, 0);
        assert!(
            strict.rejected > 0,
            "allocate-on-grant without re-arrangement must reject some"
        );
    }

    #[test]
    fn e8_atomic_never_loses() {
        let atomic = e8_race(5, true);
        assert_eq!(atomic.protected_lost, 0, "atomic release+action is safe");
        assert_eq!(atomic.protected_ok, 5);
    }

    #[test]
    fn e9_short_ttl_expires_long_ttl_starves_latecomers() {
        let short = e9_ttl(5, 20, 10, 4);
        assert!(short.expired > 0, "TTL shorter than think time expires");
        let long = e9_ttl(1_000_000, 20, 10, 4);
        assert_eq!(long.expired, 0);
        assert!(
            long.latecomer_rejections >= short.latecomer_rejections,
            "abandoned long-TTL promises starve the second population"
        );
    }

    #[test]
    fn e12_obs_small_audits_clean_with_stage_histograms() {
        let obs = e12_obs(2007, 0.1, 3, 10);
        assert!(obs.ok(), "violations: {:?}", obs.lifecycle.violations);
        for stage in ["bus.deliver", "pm.check", "rm.txn"] {
            let h = obs.snapshot.histogram(stage);
            assert!(h.is_some_and(|h| !h.is_empty()), "stage {stage} empty");
        }
    }

    #[test]
    fn e12_overhead_measures_both_modes() {
        let o = e12_overhead(2, 5, 10_000, 2);
        assert!(o.plain > 0.0);
        assert!(o.instrumented > 0.0);
        assert!(o.overhead_pct().is_finite());
    }

    #[test]
    fn e14_compaction_shrinks_the_journal_and_preserves_the_digest() {
        let row = e14_recovery(50, 8, 2);
        assert!(row.digests_match, "both replays must match the reference");
        assert_eq!(row.history_records, 2 * 50 + 8);
        assert!(
            row.compacted_records < row.live + 2,
            "compacted journal is O(live): {} records for {} live",
            row.compacted_records,
            row.live
        );
        assert!(row.uncompacted_us > 0.0 && row.compacted_us > 0.0);
    }

    #[test]
    fn e15_leases_localise_the_hot_pools() {
        let with = e15_lease_locality(4, 4, 48, true);
        assert!(with.granted > 0);
        assert!(with.local_grants > 0, "{with:?}");
        assert!(
            with.hot_local_ratio > 0.8,
            "hot-pool locality after warm-up: {with:?}"
        );
        let without = e15_lease_locality(4, 4, 48, false);
        assert_eq!(without.local_grants, 0, "no lease path without leases");
        assert_eq!(without.hot_local_ratio, 0.0);
    }

    #[test]
    fn e19_scaling_counts_every_op_and_flushes_every_record() {
        let row = e19_thread_scaling(2, 4, 5);
        assert_eq!(row.shards, 2);
        assert_eq!(row.granted + row.rejected, 4 * 5);
        assert!(row.throughput > 0.0);
        assert!(row.flush_writes > 0, "grants must hit the group committer");
        assert!(
            row.flushed_records >= row.flush_writes,
            "a flush write covers at least one record: {row:?}"
        );
    }

    #[test]
    fn e19b_amortizes_writes_across_concurrent_appends() {
        let (writes, records) = e19_group_commit_amortization(6, 20);
        assert!(records > 0);
        assert!(
            writes < records,
            "queued messages must share writes: {writes} writes, {records} records"
        );
    }
}
