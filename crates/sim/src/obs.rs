//! Observability harness: an instrumented fault sweep plus the
//! trace-replay lifecycle audit.
//!
//! [`run_obs_sweep`] drives the full wire pipeline (retrying client →
//! faulty bus → one promise node's worker → gateway → PM → RM) with the
//! node's [`Telemetry`] registry attached at every layer, then:
//!
//! 1. digests the promise journal into [`JournalFacts`] (ground truth:
//!    which ids were granted / released / expired);
//! 2. replays the span ring through
//!    [`promises_telemetry::audit_lifecycles`], asserting every observed
//!    promise lifecycle (requested→granted→checked→released/expired)
//!    against that ground truth;
//! 3. snapshots every histogram and counter for per-stage reporting.

use std::sync::Arc;

use promises_faults::FaultScenario;
use promises_telemetry::{
    audit_lifecycles, JournalFacts, LifecycleReport, Telemetry, TelemetrySnapshot,
};

use crate::faults::{run_fault_sweep_with, FaultRunReport, FaultSweepConfig};

/// Everything one instrumented sweep produces.
#[derive(Debug)]
pub struct ObsReport {
    /// The fault sweep's own invariant audits (violations, double grants,
    /// leaks).
    pub sweep: FaultRunReport,
    /// Every histogram and counter at end of run.
    pub snapshot: TelemetrySnapshot,
    /// Journal-derived ground truth the spans were audited against.
    pub facts: JournalFacts,
    /// The trace-replay lifecycle audit.
    pub lifecycle: LifecycleReport,
    /// The registry itself, for span-level drill-down.
    pub telemetry: Arc<Telemetry>,
}

impl ObsReport {
    /// True when both the sweep invariants and the lifecycle audit held.
    pub fn ok(&self) -> bool {
        self.sweep.violations == 0 && self.sweep.double_grants == 0 && self.lifecycle.ok()
    }
}

/// Runs one fault sweep with telemetry attached at every layer and audits
/// the recorded spans against the journal.
pub fn run_obs_sweep(scenario: FaultScenario, cfg: &FaultSweepConfig) -> ObsReport {
    let (sweep, h) = run_fault_sweep_with(scenario, cfg);
    let telemetry = Arc::clone(&h.node.telemetry);
    let facts = h.node.journal.facts();
    let lifecycle = audit_lifecycles(&telemetry.spans(), &facts);
    ObsReport {
        sweep,
        snapshot: telemetry.snapshot(),
        facts,
        lifecycle,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promises_telemetry::{FaultTag, SpanKind};

    #[test]
    fn quiet_obs_sweep_audits_clean_and_fills_stages() {
        let cfg = FaultSweepConfig {
            clients: 3,
            ops_per_client: 12,
            ..FaultSweepConfig::default()
        };
        let obs = run_obs_sweep(FaultScenario::quiet(3), &cfg);
        assert!(obs.ok(), "violations: {:?}", obs.lifecycle.violations);
        assert!(obs.lifecycle.promises > 0, "spans observed promises");
        assert!(obs.lifecycle.complete > 0, "full lifecycles reconstructed");
        for stage in [
            "bus.deliver",
            "pm.grant",
            "pm.check",
            "pm.release",
            "rm.txn",
        ] {
            let h = obs.snapshot.histogram(stage).unwrap_or_else(|| {
                panic!(
                    "stage {stage} missing: {:?}",
                    obs.snapshot.histograms.keys()
                )
            });
            assert!(!h.is_empty(), "stage {stage} recorded no samples");
        }
        assert!(!obs.facts.granted.is_empty());
    }

    #[test]
    fn faulty_obs_sweep_tags_spans_and_still_audits_clean() {
        let cfg = FaultSweepConfig {
            clients: 3,
            ops_per_client: 15,
            ..FaultSweepConfig::default()
        };
        let obs = run_obs_sweep(
            FaultScenario::uniform(13, 0.2).with_storage_errors(0.05),
            &cfg,
        );
        assert!(
            obs.lifecycle.ok(),
            "lifecycle violations under faults: {:?}",
            obs.lifecycle.violations
        );
        assert_eq!(obs.sweep.violations, 0);
        assert_eq!(obs.sweep.double_grants, 0);
        let spans = obs.telemetry.spans();
        let tagged = spans.iter().filter(|s| s.fault.is_some()).count();
        assert!(tagged > 0, "injected faults must show up as span tags");
        // Goodput loss is attributable: every fault tag names its kind.
        let drop_tags = spans
            .iter()
            .filter(|s| {
                s.kind == SpanKind::BusDeliver
                    && matches!(
                        s.fault,
                        Some(FaultTag::DropRequest) | Some(FaultTag::DropReply)
                    )
            })
            .count();
        assert!(
            drop_tags > 0,
            "a 20% drop sweep must tag dropped deliveries"
        );
    }
}
