//! Doctor sweeps: fault-injection scenarios with the health plane armed,
//! gated on a confusion matrix (DESIGN §17, E17).
//!
//! Each sweep drives a known fault class against an instrumented system
//! with the anomaly watchdogs watching, and reports which watchdogs
//! tripped against which were *expected* to trip:
//!
//! * [`run_doctor_fault_sweep`] — bus delay faults large enough to blow
//!   the latency SLO; the **slo-burn-rate** monitor must trip (and, when
//!   `fail_fast` is set, drive the manager into degraded fail-fast mode
//!   until the burn recovers);
//! * [`run_doctor_lease_sweep`] — an armed mid-rebalance crash strands
//!   lease headroom; the **lease-sum-invariant** probe must trip, and
//!   fall silent again after the next cycle's heal pass;
//! * [`run_doctor_failover_sweep`] — a saturated replication drop wedges
//!   a follower (**stalled-replication**), then a coordinator crash
//!   leaves prepared holds aging past the limit (**in-doubt-age**); both
//!   must clear after the faults are lifted and recovery runs.
//!
//! At `fault_rate == 0` every sweep runs the same workload with no fault
//! armed, and **no** watchdog may trip — the false-positive half of the
//! confusion matrix. Every trip cuts a flight-recorder incident report;
//! the `--doctor` experiments gate re-validates each one as JSON. Every
//! sweep ends in the one audit, and a cell is clean only when it is.

use std::sync::Arc;
use std::time::Duration;

use promises_cluster::{CoordError, CrashPoint, PromiseCluster};
use promises_faults::FaultScenario;
use promises_telemetry::{
    FlightRecorder, HealthState, IncidentReport, Telemetry, Watchdog, WatchdogConfig, WatchdogTrip,
};
use promises_wire::{Envelope, PromiseResult, RetryPolicy, RetryingClient};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::audit::{audit_cluster, audit_manager, ClusterAudit};
use crate::clients::{ClientOp, ClientRun, Release};
use crate::cluster::{cluster_harness, ClusterSweepConfig};
use crate::faults::{fault_harness, grant_request};
use crate::workload::{pool_name, sample_zipf, zipf_cdf};

/// Outcome of one doctor sweep: the confusion-matrix row for one
/// `(scenario, fault_rate)` cell.
#[derive(Debug, Clone, Default)]
pub struct DoctorReport {
    /// Which sweep ran (`"fault"`, `"lease"`, `"failover"`).
    pub sweep: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Injected fault rate (0.0 = clean run).
    pub fault_rate: f64,
    /// Health-plane ticks taken.
    pub ticks: usize,
    /// Watchdogs this scenario *must* trip (empty on clean runs).
    pub expected: Vec<&'static str>,
    /// Watchdog names that actually tripped, first-trip order, deduped.
    pub tripped: Vec<String>,
    /// One incident-report JSON per trip, in trip order.
    pub incidents: Vec<String>,
    /// Whether the burn trip drove the manager into degraded fail-fast
    /// mode (fault sweep with `fail_fast` only).
    pub fail_fast_engaged: bool,
    /// Whether degraded mode was lifted after the burn recovered.
    pub fail_fast_cleared: bool,
    /// The end-of-sweep audit (the fault sweep's one manager judged by its
    /// per-manager half plus the leak reap).
    pub audit: ClusterAudit,
}

impl DoctorReport {
    /// A fresh report; `watchdogs` are expected to trip iff faults fire.
    fn new(sweep: &'static str, seed: u64, fault_rate: f64, watchdogs: &[Watchdog]) -> Self {
        let armed = if fault_rate > 0.0 { watchdogs } else { &[] };
        Self {
            sweep,
            seed,
            fault_rate,
            expected: armed.iter().map(|w| w.name()).collect(),
            ..Self::default()
        }
    }

    /// Folds one tick's trips (and their incident reports) in.
    fn note(&mut self, trips: &[(WatchdogTrip, IncidentReport)]) {
        self.ticks += 1;
        for (trip, incident) in trips {
            let name = trip.watchdog.name();
            if !self.tripped.iter().any(|t| t == name) {
                self.tripped.push(name.to_string());
            }
            self.incidents.push(incident.to_json());
        }
    }

    /// Expected watchdogs that never tripped (missed detections).
    pub fn missed(&self) -> Vec<&'static str> {
        self.expected
            .iter()
            .copied()
            .filter(|e| !self.tripped.iter().any(|t| t == e))
            .collect()
    }

    /// Tripped watchdogs that were not expected (false positives).
    pub fn unexpected(&self) -> Vec<String> {
        self.tripped
            .iter()
            .filter(|t| !self.expected.iter().any(|e| e == t))
            .cloned()
            .collect()
    }

    /// True when the confusion-matrix cell is perfect — every expected
    /// watchdog tripped and nothing else did — and the audit is clean.
    pub fn clean(&self) -> bool {
        self.missed().is_empty() && self.unexpected().is_empty() && self.audit.clean()
    }
}

/// Ticks `state` over `snap`-shaped telemetry and folds the trips (each
/// paired with an incident cut from `recorder`) into `report`.
fn tick(
    report: &mut DoctorReport,
    state: &mut HealthState,
    recorder: &FlightRecorder,
    tel: &Telemetry,
) -> Vec<Watchdog> {
    let snap = tel.snapshot();
    let trips = state.observe(&snap);
    let kinds: Vec<Watchdog> = trips.iter().map(|t| t.watchdog).collect();
    let paired: Vec<(WatchdogTrip, IncidentReport)> = trips
        .into_iter()
        .map(|trip| {
            let reason = format!("watchdog:{} {}", trip.watchdog.name(), trip.subject);
            let incident = recorder.incident(&reason, &snap);
            (trip, incident)
        })
        .collect();
    report.note(&paired);
    kinds
}

/// The E11-doctor scenario: one promise node (the cluster's shard node,
/// with its worker and group commit) behind a bus that delays
/// `fault_rate` of all messages by up to 24 ms — an order of magnitude
/// over the ~2 ms latency SLO — while the two-window burn monitor watches
/// `client.send`. At any non-zero rate the over-SLO
/// fraction dwarfs the 1% error budget, so **slo-burn-rate** must trip;
/// at rate 0 every send is microseconds and nothing may.
///
/// With `fail_fast`, the first burn trip flips the manager into degraded
/// mode (new grants fail fast with an overload rejection); once the
/// post-quiesce rounds bring the burn back under both thresholds the
/// sweep lifts degraded mode — the overload loop the position paper's §6
/// "manager may refuse" escape hatch sketches.
pub fn run_doctor_fault_sweep(seed: u64, fault_rate: f64, fail_fast: bool) -> DoctorReport {
    const ROUNDS: usize = 8;
    const OPS_PER_ROUND: usize = 50;
    const POOLS: usize = 2;

    let mut report = DoctorReport::new("fault", seed, fault_rate, &[Watchdog::SloBurnRate]);

    let mut scenario = FaultScenario::quiet(seed);
    scenario.delay_probability = fault_rate;
    scenario.max_delay = Duration::from_millis(24);
    let h = fault_harness(scenario, POOLS, 1_000_000);
    let tel = Arc::clone(&h.node.telemetry);
    let to = h.node.endpoint.as_str();
    let client = Arc::new(
        RetryingClient::new(Arc::clone(&h.bus), RetryPolicy::new(seed ^ 0xD0C7))
            .with_telemetry(Arc::clone(&tel)),
    );
    let recorder = FlightRecorder::new("doctor-pm");
    let mut state = HealthState::new(WatchdogConfig::default());
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));

    let run_round = |round: usize, rng: &mut StdRng| {
        recorder.record("workload.round", format!("round {round}"));
        for op in 0..OPS_PER_ROUND {
            let pool = pool_name(rng.random_range(0..POOLS));
            let amount = rng.random_range(1..=3u64);
            let request_id = format!("d{round}-o{op}");
            let grant = grant_request(&request_id, "doctor", &pool, amount, 60_000);
            let Ok(reply) = client.send(to, &grant) else {
                continue;
            };
            let promise_id = reply.response_for(&request_id).and_then(|resp| {
                if matches!(resp.result, PromiseResult::Rejected(_)) {
                    None
                } else {
                    resp.promise_id
                }
            });
            if let Some(id) = promise_id {
                let _ = client.send(to, &Envelope::new().with_release(id));
            }
        }
    };

    for round in 0..ROUNDS {
        run_round(round, &mut rng);
        let kinds = tick(&mut report, &mut state, &recorder, &tel);
        if fail_fast && kinds.contains(&Watchdog::SloBurnRate) && !h.node.pm.is_degraded() {
            h.node.pm.set_degraded(true);
            report.fail_fast_engaged = true;
            recorder.record("overload.fail_fast", "burn trip: degraded mode on");
        }
    }

    // Lift the faults; fast in-SLO rounds flush the burn windows. Once
    // a tick passes without the burn tripping, degraded mode comes off.
    h.quiesce();
    for round in ROUNDS..(ROUNDS * 3) {
        if !h.node.pm.is_degraded() {
            break;
        }
        run_round(round, &mut rng);
        let kinds = tick(&mut report, &mut state, &recorder, &tel);
        if !kinds.contains(&Watchdog::SloBurnRate) {
            h.node.pm.set_degraded(false);
            report.fail_fast_cleared = true;
            recorder.record("overload.recover", "burn recovered: degraded mode off");
        }
    }

    report.audit = audit_manager(&h.node.pm, &h.node.journal, &h.node.rm);
    h.clock.advance(4_000_000);
    let _ = h.node.pm.prune_expired();
    report.audit.live_after_reap = h.node.pm.live_count();
    report
}

/// The E15-doctor scenario: a leased cluster under a Zipf-skewed grant
/// workload. At a non-zero `fault_rate` the sweep arms the mid-rebalance
/// crash — withdraws land, deposits die — so the cluster-wide lease sum
/// transiently shrinks below the registered total, and the
/// **lease-sum-invariant** probe must trip on the next health tick. The
/// following cycle's heal pass re-credits the stranded units and the
/// probe must fall silent. At rate 0 the identical workload (no armed
/// crash) may trip nothing.
pub fn run_doctor_lease_sweep(seed: u64, fault_rate: f64) -> DoctorReport {
    const ROUNDS: usize = 3;
    const OPS_PER_CLIENT: usize = 12;

    let expected = [Watchdog::LeaseSumInvariant];
    let mut report = DoctorReport::new("lease", seed, fault_rate, &expected);

    let cfg = ClusterSweepConfig {
        shards: 4,
        clients: 4,
        pools: 4,
        qty: 10_000,
        leases: true,
        seed,
        ..ClusterSweepConfig::default()
    };
    let cluster = cluster_harness(FaultScenario::quiet(seed), &cfg);
    cluster.bus.set_fault_injector(None);
    let mut state = HealthState::new(WatchdogConfig::default());
    let cdf = zipf_cdf(cfg.pools, 1.1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1EA5E);

    let mut run = ClientRun::default();
    let mut run_round = |round: usize, rng: &mut StdRng| {
        for c in 0..cfg.clients {
            let client = format!("client-{c}");
            for op in 0..OPS_PER_CLIENT {
                let pool = pool_name(sample_zipf(&cdf, rng));
                let amount = rng.random_range(1..=cfg.amount_max);
                let op = ClientOp {
                    rid: format!("d{round}-c{c}-o{op}"),
                    predicates: vec![format!("qty('{pool}') >= {amount}")],
                    release: Release::Always,
                };
                let _ = run.step(&cluster, rng, &client, op);
            }
        }
    };

    for round in 0..ROUNDS {
        run_round(round, &mut rng);
        if round + 1 < ROUNDS {
            // Clean rebalance cycles between rounds: headroom chases the
            // Zipf head, the lease sum stays at the total.
            cluster.advance_and_prune(10_000);
        }
        report.note(&cluster.health_tick(&mut state));
    }

    if fault_rate > 0.0 {
        // Final-round demand is still pending; the armed cycle withdraws
        // the surplus headroom and dies before any deposit.
        cluster.arm_rebalance_crash();
        let crash = cluster.rebalance_leases().expect("leases are enabled");
        assert!(crash.crashed, "armed rebalance crash must fire");
        report.note(&cluster.health_tick(&mut state));

        // The next cycle's heal pass re-credits the stranded units; the
        // probe must clear.
        cluster.rebalance_leases().expect("leases are enabled");
        report.note(&cluster.health_tick(&mut state));
    }

    run.assert_quiet("doctor lease sweep", 0);
    report.audit = audit_cluster(&cluster, &run);
    report
}

/// The E16-doctor scenario: a replicated 2-shard cluster. At a non-zero
/// `fault_rate` two fault classes fire in sequence:
///
/// 1. a **saturated replication drop** wedges shard 0's follower — the
///    leader's tip keeps advancing while the watermark freezes, and the
///    **stalled-replication** watchdog must trip within two ticks; the
///    drop is then lifted, one sync drains the backlog, and the watchdog
///    must clear;
/// 2. a coordinator crash **after Prepare** leaves prepared holds on both
///    shards; the clock advances past the in-doubt age limit and
///    **in-doubt-age** must trip; coordinator recovery then resolves the
///    holds (presumed abort) and the watchdog must clear.
///
/// The sweep finishes with a kill + follower promotion on shard 0 and a
/// final tick that must be silent — fail-over itself is not an anomaly.
/// At rate 0 the same steady traffic runs with no fault and nothing may
/// trip.
pub fn run_doctor_failover_sweep(seed: u64, fault_rate: f64) -> DoctorReport {
    const SHARDS: usize = 2;

    let expected = [Watchdog::StalledReplication, Watchdog::InDoubtAge];
    let mut report = DoctorReport::new("failover", seed, fault_rate, &expected);

    let cfg = ClusterSweepConfig {
        shards: SHARDS,
        clients: 2,
        pools: SHARDS,
        qty: 10_000,
        seed,
        ..ClusterSweepConfig::default()
    };
    let mut cluster = cluster_harness(FaultScenario::quiet(seed), &cfg);
    cluster.bus.set_fault_injector(None);
    cluster.enable_replication();
    let mut state = HealthState::new(WatchdogConfig::default());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA11);
    let mut op = 0usize;
    let mut run = ClientRun::default();
    let run_round =
        |run: &mut ClientRun, cluster: &PromiseCluster, rng: &mut StdRng, op: &mut usize| {
            for _ in 0..6 {
                let pool = pool_name(rng.random_range(0..SHARDS));
                let amount = rng.random_range(1..=3u64);
                let next = ClientOp {
                    rid: format!("d-o{op}"),
                    predicates: vec![format!("qty('{pool}') >= {amount}")],
                    release: Release::Always,
                };
                *op += 1;
                let _ = run.step(cluster, rng, "doctor", next);
            }
        };

    // Steady traffic, replication healthy: ticks must be silent.
    for _ in 0..2 {
        run_round(&mut run, &cluster, &mut rng, &mut op);
        cluster.sync_replication();
        report.note(&cluster.health_tick(&mut state));
    }

    if fault_rate > 0.0 {
        // ---- Fault class 1: wedged follower. ----
        // A saturated drop rate (the non-converging regime MAX_SHIP_ATTEMPTS
        // documents) freezes the watermark while grants advance the tip.
        cluster.set_replication_faults(Some(Arc::new(promises_faults::FaultInjector::new(
            FaultScenario::quiet(seed ^ 0xD20).with_replication_faults(1.0, 0.0),
        ))));
        for _ in 0..3 {
            run_round(&mut run, &cluster, &mut rng, &mut op);
            cluster.sync_replication();
            report.note(&cluster.health_tick(&mut state));
        }
        assert!(
            report
                .tripped
                .iter()
                .any(|t| t == Watchdog::StalledReplication.name()),
            "saturated drop must wedge the watermark: {report:?}"
        );
        // Lift the drop; one sync drains the backlog and the stall clears.
        cluster.set_replication_faults(None);
        cluster.sync_replication();
        report.note(&cluster.health_tick(&mut state));

        // ---- Fault class 2: aging in-doubt holds. ----
        cluster
            .coordinator
            .set_crash_point(Some(CrashPoint::AfterPrepare));
        let doomed = ClientOp {
            rid: "dx".into(),
            predicates: (0..SHARDS)
                .map(|s| format!("qty('{}') >= 2", pool_name(s)))
                .collect(),
            release: Release::Never,
        };
        let seen = run.step(&cluster, &mut rng, "doomed", doomed);
        assert!(matches!(seen, Err(CoordError::Crashed(_))), "{seen:?}");
        // The prepared holds age past the watchdog's limit.
        cluster.clock.advance(6_000);
        report.note(&cluster.health_tick(&mut state));

        // Recovery resolves the in-doubt holds (presumed abort); silent.
        cluster
            .coordinator
            .recover()
            .expect("coordinator recovery succeeds");
        cluster.sync_replication();
        report.note(&cluster.health_tick(&mut state));

        // ---- Fail-over is not an anomaly. ----
        cluster.kill_shard(0);
        cluster.promote_follower(0);
        run_round(&mut run, &cluster, &mut rng, &mut op);
        cluster.sync_replication();
        report.note(&cluster.health_tick(&mut state));
    }

    run.assert_quiet("doctor failover sweep", u64::from(fault_rate > 0.0));
    report.audit = audit_cluster(&cluster, &run);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use promises_telemetry::export::validate_json;

    #[test]
    fn clean_runs_trip_no_watchdog() {
        for (label, report) in [
            ("fault", run_doctor_fault_sweep(7, 0.0, false)),
            ("lease", run_doctor_lease_sweep(7, 0.0)),
            ("failover", run_doctor_failover_sweep(7, 0.0)),
        ] {
            assert!(
                report.tripped.is_empty(),
                "{label} clean run tripped {:?}",
                report.tripped
            );
            assert!(report.clean(), "{label}: {report:?}");
            assert!(report.ticks > 0);
        }
    }

    /// Pinned to what the commit before the one-driver refactor produced
    /// (these two sweeps are single-threaded and clock-driven).
    #[test]
    fn doctor_sweeps_at_seed_2007_trip_what_the_parent_tripped() {
        let shape = |r: DoctorReport| (r.ticks, r.tripped, r.incidents.len());
        let lease = |rate| shape(run_doctor_lease_sweep(2007, rate));
        let failover = |rate| shape(run_doctor_failover_sweep(2007, rate));
        assert_eq!(lease(0.0), (3, vec![], 0));
        assert_eq!(lease(0.1), (5, vec!["lease-sum-invariant".to_owned()], 1));
        assert_eq!(failover(0.0), (2, vec![], 0));
        let both = vec!["stalled-replication".to_owned(), "in-doubt-age".to_owned()];
        assert_eq!(failover(0.1), (9, both, 5));
    }

    #[test]
    fn delay_faults_trip_the_burn_monitor() {
        let report = run_doctor_fault_sweep(11, 0.2, false);
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.tripped, vec![Watchdog::SloBurnRate.name()]);
        assert!(!report.incidents.is_empty());
        for incident in &report.incidents {
            validate_json(incident).expect("incident JSON must parse");
        }
    }

    #[test]
    fn burn_trip_drives_fail_fast_and_recovers() {
        let report = run_doctor_fault_sweep(13, 0.2, true);
        assert!(report.clean(), "{report:?}");
        assert!(report.fail_fast_engaged, "{report:?}");
        assert!(report.fail_fast_cleared, "{report:?}");
    }

    #[test]
    fn stranded_rebalance_trips_the_lease_probe_then_heals() {
        let report = run_doctor_lease_sweep(11, 0.1);
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.tripped, vec![Watchdog::LeaseSumInvariant.name()]);
        for incident in &report.incidents {
            validate_json(incident).expect("incident JSON must parse");
            assert!(
                incident.contains("lease-sum-invariant"),
                "incident names its watchdog"
            );
        }
    }

    #[test]
    fn wedged_follower_and_aging_holds_trip_their_watchdogs() {
        let report = run_doctor_failover_sweep(11, 0.1);
        assert!(report.clean(), "{report:?}");
        assert!(report
            .tripped
            .iter()
            .any(|t| t == Watchdog::StalledReplication.name()));
        assert!(report
            .tripped
            .iter()
            .any(|t| t == Watchdog::InDoubtAge.name()));
        for incident in &report.incidents {
            validate_json(incident).expect("incident JSON must parse");
        }
    }
}
