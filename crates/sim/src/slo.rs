//! Service-level objective gates.
//!
//! A benchmark number without a judgment invites drift: the table gets a
//! little worse each quarter and nobody's build breaks. An [`SloGate`]
//! makes the judgment explicit — p99 below a stated ceiling *and* goodput
//! above a stated floor, or the run fails — so the workload benchmarks in
//! `experiments --workloads` gate CI the same way correctness tests do.

use promises_telemetry::HistogramSnapshot;

use crate::openloop::OpenLoopReport;

/// A pass/fail service-level objective for one workload stage.
#[derive(Debug, Clone)]
pub struct SloGate {
    /// Human-readable stage this gate judges (e.g. `"client.send"` or
    /// `"flash-sale end-to-end"`).
    pub stage: String,
    /// Ceiling on p99 latency, nanoseconds.
    pub p99_ns_max: u64,
    /// Floor on completed/offered, 0.0..=1.0.
    pub min_goodput_ratio: f64,
}

/// The judgment an [`SloGate`] renders over a run.
#[derive(Debug, Clone)]
pub struct SloVerdict {
    /// Stage judged, copied from the gate.
    pub stage: String,
    /// Observed p99, ns (0 when nothing was recorded).
    pub p99_ns: u64,
    /// The gate's p99 ceiling.
    pub p99_ns_max: u64,
    /// Observed completed/offered ratio.
    pub goodput_ratio: f64,
    /// The gate's goodput floor.
    pub min_goodput_ratio: f64,
    /// Both bounds held.
    pub passed: bool,
}

impl SloVerdict {
    /// One-line rendering for experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "{}: p99 {:.3}ms (max {:.3}ms), goodput {:.1}% (min {:.1}%) => {}",
            self.stage,
            self.p99_ns as f64 / 1e6,
            self.p99_ns_max as f64 / 1e6,
            self.goodput_ratio * 100.0,
            self.min_goodput_ratio * 100.0,
            if self.passed { "pass" } else { "FAIL" }
        )
    }
}

impl SloGate {
    /// Builds a gate over the named stage.
    pub fn new(stage: impl Into<String>, p99_ns_max: u64, min_goodput_ratio: f64) -> Self {
        Self {
            stage: stage.into(),
            p99_ns_max,
            min_goodput_ratio,
        }
    }

    /// Judges an open-loop run: its coordinated-omission-free latency
    /// histogram against the p99 ceiling and its completed/offered ratio
    /// against the goodput floor.
    pub fn judge(&self, report: &OpenLoopReport) -> SloVerdict {
        self.judge_parts(&report.latency, report.goodput_ratio())
    }

    /// Judges an arbitrary latency snapshot + goodput ratio — used when
    /// the latency of interest is a per-stage histogram from the cluster's
    /// telemetry rather than the generator's end-to-end histogram.
    pub fn judge_parts(&self, latency: &HistogramSnapshot, goodput_ratio: f64) -> SloVerdict {
        // An empty histogram means the stage never ran; that is a failure
        // of the run, not a vacuous pass.
        let passed = match latency.p99() {
            Some(p99) => p99 <= self.p99_ns_max && goodput_ratio >= self.min_goodput_ratio,
            None => false,
        };
        SloVerdict {
            stage: self.stage.clone(),
            p99_ns: latency.p99().unwrap_or(0),
            p99_ns_max: self.p99_ns_max,
            goodput_ratio,
            min_goodput_ratio: self.min_goodput_ratio,
            passed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::openloop::{run_open_loop, OpStatus, OpenLoopConfig};

    #[test]
    fn gate_passes_fast_runs_and_fails_slow_ones() {
        let report = run_open_loop(&OpenLoopConfig::default(), |_| OpStatus::Ok);
        let lenient = SloGate::new("e2e", u64::MAX, 0.99);
        assert!(lenient.judge(&report).passed);
        let impossible = SloGate::new("e2e", 0, 0.99);
        assert!(!impossible.judge(&report).passed);
    }

    #[test]
    fn goodput_floor_is_enforced() {
        let report = run_open_loop(&OpenLoopConfig::default(), |i| {
            if i % 2 == 0 {
                OpStatus::Ok
            } else {
                OpStatus::Rejected
            }
        });
        let gate = SloGate::new("e2e", u64::MAX, 0.9);
        let verdict = gate.judge(&report);
        assert!(!verdict.passed, "{}", verdict.summary());
    }

    #[test]
    fn empty_histogram_fails_not_passes() {
        let gate = SloGate::new("never-ran", u64::MAX, 0.0);
        let verdict = gate.judge_parts(&HistogramSnapshot::default(), 1.0);
        assert!(!verdict.passed, "empty stage must not vacuously pass");
    }
}
