//! Experiment implementations (E1/Figure 1 … E10). See DESIGN.md §4.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use promises_baselines::{EscrowReserver, LockReserver, OptimisticReserver};
use promises_cluster::PromiseCluster;
use promises_core::{
    ActionError, Catalog, CheckStrategy, Environment, LockingMode, ManualClock, PoolSchema,
    Predicate, PromiseJournal, PromiseManager, PromiseRequestSpec, PropExpr,
};
use promises_faults::FaultScenario;
use promises_rm::ResourceManager;
use promises_services::Merchant;
use promises_sim::{
    drive_clients, pool_name, promise_reserver, promise_reserver_with_mode, run_fault_sweep_with,
    run_obs_sweep, run_qty_workload, seed_pools, ClientOp, FaultRunReport, FaultSweepConfig,
    ObsReport, Release, RunReport, WorkloadConfig,
};
use promises_telemetry::Telemetry;
use promises_wire::{
    ActionRequest, EnvEntry, EnvRef, Envelope, EnvironmentHeader, InMemoryBus, PromiseGateway,
    PromiseRequestHeader,
};

/// Measures mean wall time per iteration of `f`, in microseconds.
pub fn mean_us(iters: usize, mut f: impl FnMut()) -> f64 {
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
pub fn figure1_once(merchant: &Merchant) {
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
pub fn build_pipeline(stock: u64) -> (Arc<InMemoryBus>, Arc<PromiseManager>) {
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
    (bus, pm)
}

/// One §6 combined envelope: promise + purchase-under-it + release.
pub fn pipeline_roundtrip(bus: &InMemoryBus, id: u64) -> bool {
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
    let (bus, _pm) = build_pipeline((clients * ops) as u64 + 10);
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

// ======================================================================
// E3 — promise-check cost by resource view and table size
// ======================================================================

/// Resource view under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// Quantity pool (anonymous).
    Anonymous,
    /// Named instances.
    Named,
    /// Property expressions (matching).
    Property,
}

/// Prepares a manager holding `live` promises of the given view, then
/// returns mean microseconds per additional grant+release cycle.
pub fn e3_check_cost(view: View, live: usize, iters: usize) -> f64 {
    use crate::setup::{pm_with_qty_pool, pm_with_rooms};
    let rooms = |n| pm_with_rooms("p", n, CheckStrategy::TentativeAllocation);
    let floors = ((live * 2 + 4) / 20).max(1);
    let on_floor = move |i: usize| PropExpr::eq("floor", ((i / 2) % floors) as i64);
    // The manager, its i-th standing promise, and the probe each
    // measured iteration grants and releases on top of them.
    let (pm, held, probe): (_, Box<dyn Fn(usize) -> Predicate>, _) = match view {
        View::Anonymous => (
            pm_with_qty_pool("p", (live + 2) as u64),
            Box::new(|_| Predicate::qty_at_least("p", 1)),
            Predicate::qty_at_least("p", 1),
        ),
        View::Named => (
            rooms(live + 2),
            Box::new(|i| Predicate::named("p", format!("room-{i:05}").as_str())),
            Predicate::named("p", format!("room-{live:05}").as_str()),
        ),
        // 2x headroom so the extra grant always succeeds.
        View::Property => (
            rooms(live * 2 + 4),
            Box::new(move |i| Predicate::property("p", on_floor(i), 1)),
            Predicate::property("p", PropExpr::eq("view", true), 1),
        ),
    };
    for i in 0..live {
        let r = pm.request(spec(format!("pre-{i}"), "bench", held(i)));
        assert!(
            r.expect("rm ok").decision.is_granted(),
            "standing grant {i}"
        );
    }
    grant_release_us(&pm, probe, iters)
}

/// A single-predicate promise request from `client`.
fn spec(request: String, client: &str, predicate: Predicate) -> PromiseRequestSpec {
    PromiseRequestSpec::new(request.as_str(), client).predicate(predicate)
}

fn grant_release_us(pm: &PromiseManager, predicate: Predicate, iters: usize) -> f64 {
    let mut n = 0u64;
    mean_us(iters, || {
        n += 1;
        let resp = pm
            .request(spec(format!("bench-{n}"), "bench", predicate.clone()))
            .expect("rm ok");
        let id = resp
            .decision
            .granted_id()
            .expect("headroom guarantees grant");
        pm.release(id).expect("release");
    })
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

/// E4b workload: each client pinned to its own pool, zero think time —
/// the all-parallelisable shape where a global promise-manager sync
/// point is pure overhead and footprint scoping should win outright.
pub fn e4_disjoint_config(clients: usize, ops: usize) -> WorkloadConfig {
    WorkloadConfig {
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
    }
}

/// One locking mode's result on the E4b disjoint workload.
#[derive(Debug, Clone, Copy)]
pub struct ModeReport {
    /// `LockingMode` name as it should appear in reports.
    pub mode: &'static str,
    /// Full workload run.
    pub report: RunReport,
    /// Deadlock retries absorbed inside the promise manager.
    pub deadlock_retries: u64,
}

/// Runs the promise system on `cfg` under an explicit locking mode.
///
/// `standing_per_pool` long-lived promises are granted against every pool
/// before the clocks start — the paper's long-running operations holding
/// guarantees while short operations stream past. Every one of them must
/// survive each post-action re-check, so the standing set is what the
/// incremental checker avoids re-scanning.
pub fn run_promises_with_mode(
    cfg: &WorkloadConfig,
    qty: u64,
    standing_per_pool: usize,
    mode: LockingMode,
) -> ModeReport {
    run_promises_with_mode_telemetry(cfg, qty, standing_per_pool, mode, None)
}

/// [`run_promises_with_mode`] with an optional telemetry registry attached
/// to the manager and its RM — the E12 overhead probe runs the same
/// workload twice, differing only in this argument.
pub fn run_promises_with_mode_telemetry(
    cfg: &WorkloadConfig,
    qty: u64,
    standing_per_pool: usize,
    mode: LockingMode,
    telemetry: Option<Arc<Telemetry>>,
) -> ModeReport {
    let reserver = Arc::new(promise_reserver_with_mode(cfg.pools, qty, mode));
    let pm = Arc::clone(reserver.manager());
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
    let report = run_qty_workload(reserver, cfg);
    ModeReport {
        mode: match mode {
            LockingMode::Global => "global",
            LockingMode::Footprint => "footprint",
        },
        report,
        deadlock_retries: pm.metrics().deadlock_retries,
    }
}

/// E4b: footprint-scoped vs global locking on the disjoint workload,
/// with `standing_per_pool` long-lived promises held against every pool.
/// Returns `(global, footprint)`.
pub fn e4_disjoint_compare(
    clients: usize,
    ops: usize,
    qty: u64,
    standing_per_pool: usize,
) -> (ModeReport, ModeReport) {
    let cfg = e4_disjoint_config(clients, ops);
    let global = run_promises_with_mode(&cfg, qty, standing_per_pool, LockingMode::Global);
    let footprint = run_promises_with_mode(&cfg, qty, standing_per_pool, LockingMode::Footprint);
    (global, footprint)
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
// E10 — delegation chains
// ======================================================================

/// Mean microseconds per grant+release through a delegation chain of the
/// given depth (0 = local pool only).
pub fn e10_delegation(depth: usize, iters: usize) -> f64 {
    let front = crate::setup::delegation_chain("stock", depth, 1_000_000);
    let mut n = 0u64;
    mean_us(iters, || {
        n += 1;
        let resp = front
            .request(spec(
                format!("d-{n}"),
                "bench",
                Predicate::qty_at_least("stock", 1),
            ))
            .expect("rm ok");
        let id = resp.decision.granted_id().expect("ample stock");
        front.release(id).expect("release");
    })
}

// ======================================================================
// E11 — fault sweep: goodput and guarantee audits vs fault rate
// ======================================================================

/// One E11 row: a fault rate and everything measured under it.
#[derive(Debug, Clone, Copy)]
pub struct E11Row {
    /// Message fault rate (drop/duplicate/delay each at this probability)
    /// and RM storage-fault rate.
    pub rate: f64,
    /// The audited run.
    pub report: FaultRunReport,
    /// Confirmed purchases per wall-clock second.
    pub goodput: f64,
    /// Fraction of grant answers served from the manager's
    /// `(client, request-id)` dedup index — rises with the retry rate.
    pub dedup_ratio: Option<f64>,
}

/// Runs the E11 fault sweep: the same grant→purchase workload at each
/// fault rate (messages dropped/duplicated/delayed AND RM storage errors,
/// all at `rate`), auditing promise violations, double grants and leaks
/// after every run. The paper's guarantees require the violation and
/// double-grant columns to be **exactly zero at every rate**.
pub fn e11_fault_sweep(rates: &[f64], clients: usize, ops_per_client: usize) -> Vec<E11Row> {
    rates
        .iter()
        .map(|&rate| {
            let cfg = FaultSweepConfig {
                clients,
                ops_per_client,
                seed: 2007 + (rate * 1000.0) as u64,
                ..FaultSweepConfig::default()
            };
            let scenario = FaultScenario::uniform(cfg.seed, rate).with_storage_errors(rate);
            let (report, harness) = run_fault_sweep_with(scenario, &cfg, None);
            let goodput = report.purchased_ops as f64 / report.elapsed.as_secs_f64().max(1e-9);
            E11Row {
                rate,
                report,
                goodput,
                dedup_ratio: harness.pm.metrics().dedup_ratio(),
            }
        })
        .collect()
}

// ======================================================================
// E12 — observability: instrumented sweep, lifecycle audit, overhead
// ======================================================================

/// Runs the E12 instrumented fault sweep: the E11 workload with one
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

/// E12b result: footprint-mode E4b throughput with and without telemetry.
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

/// E12b: telemetry overhead on the E4b disjoint footprint workload — the
/// same config run in interleaved off/on pairs differing only in whether
/// a registry is attached. Each pair yields one paired regression sample;
/// the reported overhead is the median pair, which is robust to the
/// scheduler noise a shared box injects into any single run. The
/// acceptance bar is under 5% regression; the smoke reports rather than
/// gates on this because the noise floor on a loaded box can exceed it.
pub fn e12_overhead(clients: usize, ops: usize, qty: u64, standing_per_pool: usize) -> ObsOverhead {
    let cfg = e4_disjoint_config(clients, ops);
    let run_off = || -> f64 {
        run_promises_with_mode(&cfg, qty, standing_per_pool, LockingMode::Footprint)
            .report
            .throughput
    };
    let run_on = || -> f64 {
        run_promises_with_mode_telemetry(
            &cfg,
            qty,
            standing_per_pool,
            LockingMode::Footprint,
            Some(Telemetry::shared()),
        )
        .report
        .throughput
    };
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
    run.assert_quiet(tag);
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
        run.assert_quiet("e15");
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
/// service time: long enough that concurrent handlers append behind an
/// in-flight flush, short enough that the probe stays quick.
pub const E19_FLUSH_DELAY_US: u64 = 150;

/// Runs the E19 scaling workload ([`cluster_scaling`] at
/// [`E19_SERVICE_US`]): the concurrency gate for the thread-per-shard
/// executor. Every number is wall-clock — arrival-to-reply time measured
/// across real thread handoffs, the group-commit barrier included — but
/// the service sleep dominates it.
pub fn e19_thread_scaling(shards: usize, clients: usize, ops_per_client: usize) -> ScalingRow {
    cluster_scaling("e19", 2019, E19_SERVICE_US, shards, clients, ops_per_client)
}

/// The E19b group-commit amortization probe: one shard grown to a small
/// worker pool, more clients than workers, modeled service time on the
/// handlers and modeled write latency on the journal — so handlers
/// overlap inside the shard and concurrent appends accumulate behind the
/// in-flight flush, riding shared batches. Returns
/// `(flush_writes, flushed_records)` for the shard; `records / writes`
/// is the amortization factor (1.0 means every record paid its own
/// write, i.e. no batching happened).
pub fn e19_group_commit_amortization(
    workers: usize,
    clients: usize,
    ops_per_client: usize,
) -> (u64, u64) {
    let mut cluster = PromiseCluster::build(1, 2019);
    cluster.nodes[0].server.set_workers(workers);
    // Modeled service time plus modeled write latency open the batching
    // window this probe measures: while one worker leads a flush+ship
    // round (sleeping out the "fsync"), the other workers' handlers
    // append behind it, and the next leader's single write covers them
    // all. With both costs at zero the round is nanoseconds long, every
    // handler races straight from append to flush, and each batch
    // degenerates to one record — group commit only amortizes a write
    // cost that exists.
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
    fn e3_views_all_measure() {
        for view in [View::Anonymous, View::Named, View::Property] {
            assert!(e3_check_cost(view, 10, 3) > 0.0, "{view:?}");
        }
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
    fn e4_disjoint_compare_runs_both_modes_cleanly() {
        let (global, footprint) = e4_disjoint_compare(4, 5, 10_000, 8);
        for r in [&global, &footprint] {
            assert_eq!(r.report.attempts, 20, "{}", r.mode);
            assert_eq!(r.report.completed, 20, "{}", r.mode);
            assert_eq!(r.report.deadlocks, 0, "{}", r.mode);
        }
        assert_eq!(
            footprint.deadlock_retries, 0,
            "disjoint footprints never conflict"
        );
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
    fn e10_depth_increases_latency_shape() {
        let d0 = e10_delegation(0, 10);
        let d3 = e10_delegation(3, 10);
        assert!(d0 > 0.0 && d3 > 0.0);
        // Not asserting strict ordering (timing noise), only that both run.
    }

    #[test]
    fn e11_sweep_small_is_clean_at_every_rate() {
        for row in e11_fault_sweep(&[0.0, 0.15], 2, 10) {
            assert_eq!(row.report.violations, 0, "rate {}", row.rate);
            assert_eq!(row.report.double_grants, 0, "rate {}", row.rate);
            assert_eq!(row.report.live_after_reap, 0, "rate {}", row.rate);
            if row.report.granted + row.report.deduped > 0 {
                let ratio = row.dedup_ratio.expect("grants happened");
                assert!((0.0..=1.0).contains(&ratio), "rate {}", row.rate);
            }
        }
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
        let (writes, records) = e19_group_commit_amortization(4, 6, 20);
        assert!(records > 0);
        assert!(
            writes <= records,
            "group commit never writes more than once per record: {writes} writes, {records} records"
        );
    }
}
