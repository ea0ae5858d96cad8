//! The flash-sale scenario: Zipf-skewed contention against a sharded
//! cluster, driven through a normal → overload → recovery arc.
//!
//! A flash sale is the workload the paper's §7 merchant dreads: almost
//! every request wants the same hot item, the front end offers load at a
//! rate the backing store did not choose, and the operator's question is
//! not "how fast is a grant" but "what breaks first, and does it come
//! back". The scenario drives the real production machinery end to end:
//!
//! * **admission fail-fast** — every shard runs with a live-promise cap
//!   ([`PromiseManager::set_overload_limit`]); shoppers keep most grants
//!   open for a while (only some release immediately), so the live count
//!   climbs under pressure and the cap starts refusing new grants with an
//!   explicit retryable rejection rather than queueing into collapse;
//! * **SLO burn-rate degraded mode** — during the overload phase each
//!   shard's service time is inflated past the `client.send` latency SLO;
//!   periodic [`PromiseCluster::health_tick`]s feed the burn-rate monitor,
//!   and when the `slo-burn-rate` watchdog trips the scenario flips every
//!   shard into degraded mode (grants refused, releases still honoured) —
//!   the real load-shedding response, doing real work against real
//!   traffic. In recovery the service time drops back, trip-free ticks
//!   drain the burn windows, and degraded mode is lifted;
//! * **honest accounting** — arrivals come from the open-loop generator,
//!   so queueing delay during the overload phase lands in the latency
//!   histogram instead of being omitted, and every rejection is
//!   classified by cause (overload shed vs. capacity vs. other).
//!
//! The SLO gate judges the *normal* phase — the overload phase exists to
//! prove the degraded mode engages, the recovery phase to prove it clears.
//! Every shopper's grant goes through [`ClientRun::step`], and the run
//! ends in the one cluster audit.

use std::collections::BTreeMap;

use promises_cluster::{ClusterDecision, PromiseCluster};
use promises_telemetry::{HealthState, Watchdog, WatchdogConfig};
use rand::{rngs::StdRng, RngCore, SeedableRng};

use crate::audit::{audit_cluster, ClusterAudit};
use crate::clients::{ClientOp, ClientRun, Release};
use crate::openloop::{run_open_loop, OpStatus, OpenLoopConfig, OpenLoopReport};
use crate::slo::{SloGate, SloVerdict};
use crate::workload::{sample_zipf, zipf_cdf};

/// Shape of a flash-sale run.
#[derive(Debug, Clone)]
pub struct FlashSaleConfig {
    /// Master seed (cluster retry jitter, Zipf sampling, arrivals).
    pub seed: u64,
    /// Shards in the cluster.
    pub shards: usize,
    /// Item pools; pool 0 is the Zipf head ("the" sale item).
    pub pools: usize,
    /// Zipf skew exponent (1.2 ≈ strongly contended head).
    pub zipf_s: f64,
    /// Units seeded into every pool — ample, so capacity is not the
    /// bottleneck and rejections are attributable to overload shedding.
    pub qty_per_pool: u64,
    /// Live-promise cap per shard (admission fail-fast threshold).
    pub overload_limit: usize,
    /// Probability a granted shopper releases immediately; the rest hold,
    /// building live count against the cap.
    pub release_probability: f64,
    /// Arrivals in the gated normal phase.
    pub ops_normal: usize,
    /// Arrivals in the overload phase.
    pub ops_overload: usize,
    /// Arrivals in the recovery phase.
    pub ops_recovery: usize,
    /// Per-message shard service inflation during overload, µs. Must sit
    /// above the `client.send` SLO to make the burn monitor trip.
    pub overload_service_us: u64,
    /// Health-tick cadence, in arrivals.
    pub tick_every: usize,
    /// Offered arrival rate for the generator, ops/s of virtual time.
    pub offered_rate: f64,
    /// Bounded in-flight concurrency for the generator.
    pub max_in_flight: usize,
    /// p99 ceiling for the normal-phase `client.send` stage, ns.
    pub slo_p99_ns: u64,
    /// Goodput floor for the normal phase.
    pub min_goodput_ratio: f64,
}

impl Default for FlashSaleConfig {
    fn default() -> Self {
        Self {
            seed: 2007,
            shards: 2,
            pools: 8,
            zipf_s: 1.2,
            qty_per_pool: 1_000_000,
            overload_limit: 256,
            release_probability: 0.2,
            ops_normal: 160,
            ops_overload: 140,
            ops_recovery: 120,
            overload_service_us: 2_500,
            tick_every: 20,
            offered_rate: 2_000.0,
            max_in_flight: 8,
            // The burn-rate monitor's default stage SLO (2^21 ns); the
            // normal phase must clear the same bar the watchdog enforces.
            slo_p99_ns: 1 << 21,
            min_goodput_ratio: 0.95,
        }
    }
}

/// Outcome of a flash-sale run.
#[derive(Debug, Clone)]
pub struct FlashSaleReport {
    /// Open-loop report for the gated normal phase.
    pub normal: OpenLoopReport,
    /// SLO verdict over the normal phase (`client.send` p99 + goodput).
    pub verdict: SloVerdict,
    /// Open-loop report for the overload phase.
    pub overload: OpenLoopReport,
    /// Open-loop report for the recovery phase.
    pub recovery: OpenLoopReport,
    /// The `slo-burn-rate` watchdog tripped during overload and the
    /// cluster was flipped into degraded mode.
    pub degraded_engaged: bool,
    /// Degraded mode was lifted again during recovery (trip-free ticks).
    pub degraded_cleared: bool,
    /// Grants refused by overload shedding (cap or degraded mode).
    pub shed_rejections: u64,
    /// Rejection counts by cause substring, across all phases.
    pub reject_causes: BTreeMap<String, u64>,
    /// The end-of-run audit, after expiry reclaimed every held unit.
    pub audit: ClusterAudit,
}

impl FlashSaleReport {
    /// The run held its gates: normal-phase SLO passed, load shedding
    /// engaged under overload, the cluster came back, and the audit is
    /// clean.
    pub fn passed(&self) -> bool {
        self.verdict.passed && self.degraded_engaged && self.degraded_cleared && self.audit.clean()
    }
}

fn classify(reason: &str) -> &'static str {
    if reason.contains("overloaded") {
        "overloaded"
    } else if reason.contains("insufficient") || reason.contains("quantity") {
        "capacity"
    } else {
        "other"
    }
}

/// Runs the three-phase flash sale against a fresh cluster.
pub fn run_flash_sale(cfg: &FlashSaleConfig) -> FlashSaleReport {
    let cluster = PromiseCluster::build(cfg.shards, cfg.seed);
    let pools: Vec<String> = (0..cfg.pools).map(|i| format!("sale-item-{i}")).collect();
    for pool in &pools {
        cluster.register_quantity_pool(pool, cfg.qty_per_pool);
    }
    for node in &cluster.nodes {
        node.pm.set_overload_limit(cfg.overload_limit);
    }

    let cdf = zipf_cdf(cfg.pools, cfg.zipf_s);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut reject_causes: BTreeMap<String, u64> = BTreeMap::new();
    let mut shed_rejections = 0u64;
    let mut op_serial = 0usize;
    let mut run = ClientRun::default();

    // One op: a shopper asks for one unit of a Zipf-sampled item through
    // the coordinator; a minority of grants release immediately, the rest
    // hold (and are reclaimed by expiry pruning at the end).
    let mut shop = || -> OpStatus {
        op_serial += 1;
        let pool = &pools[sample_zipf(&cdf, &mut rng)];
        let client = format!("shopper-{}", op_serial % 64);
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let op = ClientOp {
            rid: format!("fs-{op_serial}"),
            predicates: vec![format!("qty('{pool}') >= 1")],
            release: if unit < cfg.release_probability {
                Release::Always
            } else {
                Release::Never
            },
        };
        match run
            .step(&cluster, &mut rng, &client, op)
            .map(|g| g.decision)
        {
            Ok(ClusterDecision::Granted { .. }) => OpStatus::Ok,
            Ok(ClusterDecision::Rejected { reason }) => {
                let cause = classify(&reason);
                if cause == "overloaded" {
                    shed_rejections += 1;
                }
                *reject_causes.entry(cause.to_owned()).or_insert(0) += 1;
                OpStatus::Rejected
            }
            Err(_) => OpStatus::Failed,
        }
    };

    let gen_cfg = |phase: u64, ops: usize| OpenLoopConfig {
        offered_rate: cfg.offered_rate,
        ops,
        max_in_flight: cfg.max_in_flight,
        seed: cfg.seed.wrapping_add(phase),
    };

    // Phase 1 — normal. Judge the SLO on this phase's client.send p99:
    // snapshot the histogram before overload pollutes it.
    let normal = run_open_loop(&gen_cfg(1, cfg.ops_normal), |_| shop());
    let send_p99 = cluster.snapshot();
    let gate = SloGate::new("client.send", cfg.slo_p99_ns, cfg.min_goodput_ratio);
    let verdict = gate.judge_parts(
        send_p99
            .histogram("client.send")
            .unwrap_or(&promises_telemetry::HistogramSnapshot::default()),
        normal.goodput_ratio(),
    );

    // Phase 2 — overload: inflate shard service time past the stage SLO
    // and health-tick on a cadence; the first slo-burn-rate trip flips
    // every shard into degraded mode.
    cluster.set_service_time_us(cfg.overload_service_us);
    let mut health = HealthState::new(WatchdogConfig::default());
    let mut degraded_engaged = false;
    let overload = run_open_loop(&gen_cfg(2, cfg.ops_overload), |i| {
        let status = shop();
        if (i + 1) % cfg.tick_every == 0 {
            let trips = cluster.health_tick(&mut health);
            let slo_tripped = trips
                .iter()
                .any(|(t, _)| matches!(t.watchdog, Watchdog::SloBurnRate));
            if slo_tripped && !degraded_engaged {
                degraded_engaged = true;
                for node in &cluster.nodes {
                    node.pm.set_degraded(true);
                }
            }
        }
        status
    });

    // Phase 3 — recovery: service time back to normal; two consecutive
    // trip-free ticks lift degraded mode.
    cluster.set_service_time_us(0);
    let mut clean_ticks = 0u32;
    let mut degraded_cleared = false;
    let recovery = run_open_loop(&gen_cfg(3, cfg.ops_recovery), |i| {
        let status = shop();
        if (i + 1) % cfg.tick_every == 0 && !degraded_cleared {
            let trips = cluster.health_tick(&mut health);
            let slo_tripped = trips
                .iter()
                .any(|(t, _)| matches!(t.watchdog, Watchdog::SloBurnRate));
            clean_ticks = if slo_tripped { 0 } else { clean_ticks + 1 };
            if clean_ticks >= 2 && degraded_engaged {
                degraded_cleared = true;
                for node in &cluster.nodes {
                    node.pm.set_degraded(false);
                }
            }
        }
        status
    });

    // Expiry must reclaim everything the shoppers held on to.
    let audit = audit_cluster(&cluster, &run);
    FlashSaleReport {
        normal,
        verdict,
        overload,
        recovery,
        degraded_engaged,
        degraded_cleared,
        shed_rejections,
        reject_causes,
        audit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_sale_arc_sheds_then_recovers() {
        // The strict default p99 ceiling (the watchdog's own 2^21 ns SLO)
        // is for the serial release-mode benchmark; under a parallel
        // debug test runner wall-clock service times are at the mercy of
        // sibling tests, so the in-crate arc test loosens the ceiling and
        // judges the behavioural gates (shed, engage, clear) strictly.
        let report = run_flash_sale(&FlashSaleConfig {
            slo_p99_ns: 1 << 24,
            ..FlashSaleConfig::default()
        });
        assert!(
            report.verdict.passed,
            "normal phase must meet the SLO: {}",
            report.verdict.summary()
        );
        assert!(
            report.degraded_engaged,
            "overload must trip the burn-rate watchdog into degraded mode"
        );
        assert!(
            report.degraded_cleared,
            "recovery must lift degraded mode after trip-free ticks"
        );
        assert!(
            report.shed_rejections > 0,
            "degraded mode must have refused real traffic"
        );
        // After degraded mode cleared, grants flow again.
        assert!(
            report.recovery.completed > 0,
            "recovery phase must complete grants after the clear"
        );
        assert!(report.audit.clean(), "{:?}", report.audit);
    }

    #[test]
    fn rejections_are_classified_by_cause() {
        let report = run_flash_sale(&FlashSaleConfig::default());
        let total: u64 = report.reject_causes.values().sum();
        assert_eq!(
            total,
            report.normal.rejected + report.overload.rejected + report.recovery.rejected,
            "every rejection carries a cause"
        );
        assert!(report.reject_causes.contains_key("overloaded"));
    }
}
