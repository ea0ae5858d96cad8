//! Seeded, deterministic fault injection for the Promises workspace.
//!
//! The paper's guarantees (§3 expiry, §4 atomicity of grant and of
//! action+release) are only interesting in the presence of failures, so this
//! crate makes failures first-class and *reproducible*: a [`FaultScenario`]
//! describes per-fault-kind probabilities and a seed; a [`FaultInjector`]
//! draws from one deterministic PRNG stream so an entire failure run can be
//! replayed bit-for-bit from the scenario alone.
//!
//! Injection points:
//! - **Wire** — the in-memory bus consults [`FaultInjector::request_fate`]
//!   before delivering a request and [`FaultInjector::reply_fate`] before
//!   returning the reply, and applies [`FaultInjector::delay`] to each
//!   direction. Dropping the *request* means the service never ran; dropping
//!   the *reply* means it may have — the distinction drives the retry policy.
//! - **RM storage** — [`FaultInjector::rm_hook`] is installed as the
//!   resource manager's storage-fault hook and turns a configurable fraction
//!   of page accesses into typed `RmError::StorageFault` errors.
//! - **Named points** — [`FaultInjector::pause`], the rollback hook and
//!   [`FaultInjector::point_fires`] fire at named injection points (for
//!   example `"undo"` inside rollback, or PM pause points), controlled per
//!   point by [`FaultScenario::points`] so dangerous faults stay off unless a
//!   test opts in.
//!
//! All counters are recorded in [`FaultStats`] so experiments can report how
//! many faults actually fired.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use promises_rm::RmError;

/// What the injector decided to do with one message direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Deliver the message normally.
    Deliver,
    /// Drop the message (the receiver never sees it).
    Drop,
    /// Deliver the message twice (the receiver handles it twice; the
    /// caller sees the first reply).
    Duplicate,
}

/// Per-named-point fault settings (used for PM pauses and the rollback
/// `"undo"` point).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PointFaults {
    /// Probability in [0, 1] that hitting the point injects a pause.
    pub pause_probability: f64,
    /// Length of an injected pause.
    pub pause: Duration,
    /// Probability in [0, 1] that hitting the point injects a storage
    /// fault (an `RmError::StorageFault` naming the point).
    pub error_probability: f64,
}

/// A reproducible description of which faults to inject at which rates.
///
/// Two runs with equal scenarios observe the same fault sequence as long as
/// they interrogate the injector in the same order.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScenario {
    /// PRNG seed; the whole fault sequence is a pure function of this.
    pub seed: u64,
    /// Probability in [0, 1] that an outbound request is dropped before the
    /// service sees it (safe to retry: the action never ran).
    pub drop_request: f64,
    /// Probability in [0, 1] that a reply is dropped after the service ran
    /// (ambiguous to the caller: the action may have been applied).
    pub drop_reply: f64,
    /// Probability in [0, 1] that a request is delivered twice.
    pub duplicate: f64,
    /// Probability in [0, 1] that a per-direction delay is injected.
    pub delay_probability: f64,
    /// Maximum injected delay; the actual delay is uniform in
    /// [0, `max_delay`]. Delays also reorder concurrent messages.
    pub max_delay: Duration,
    /// Probability in [0, 1] that an RM storage access fails with
    /// `RmError::StorageFault`.
    pub storage_error: f64,
    /// Per-named-point overrides (pauses and point errors). Points that are
    /// absent never fire, so e.g. the `"undo"` point is off by default.
    pub points: BTreeMap<String, PointFaults>,
}

impl FaultScenario {
    /// A scenario with no faults at all (but still seeded).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            drop_request: 0.0,
            drop_reply: 0.0,
            duplicate: 0.0,
            delay_probability: 0.0,
            max_delay: Duration::ZERO,
            storage_error: 0.0,
            points: BTreeMap::new(),
        }
    }

    /// A uniform message-fault scenario: requests and replies each dropped
    /// with probability `rate`, requests duplicated with probability `rate`,
    /// and sub-millisecond delays at the same rate.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            drop_request: rate,
            drop_reply: rate,
            duplicate: rate,
            delay_probability: rate,
            max_delay: Duration::from_micros(200),
            storage_error: 0.0,
            points: BTreeMap::new(),
        }
    }

    /// Adds RM storage faults at the given rate.
    pub fn with_storage_errors(mut self, rate: f64) -> Self {
        self.storage_error = rate;
        self
    }

    /// Arms the replication fault points: shipped journal segments are
    /// dropped in flight with probability `drop`, and acked shipments are
    /// delayed (follower lag) with probability `lag`. Both points are
    /// consumed via [`FaultInjector::point_fires`] by the cluster's
    /// replication links; a dropped shipment is retried by the link, so
    /// these rates degrade freshness, never correctness.
    pub fn with_replication_faults(mut self, drop: f64, lag: f64) -> Self {
        self.points.insert(
            POINT_REPL_DROP.to_owned(),
            PointFaults {
                error_probability: drop,
                ..PointFaults::default()
            },
        );
        self.points.insert(
            POINT_REPL_LAG.to_owned(),
            PointFaults {
                error_probability: lag,
                ..PointFaults::default()
            },
        );
        self
    }
}

/// Named point: a shipped replication segment is dropped before the
/// follower sees it (the link retries).
pub const POINT_REPL_DROP: &str = "repl-drop";
/// Named point: a shipment is applied but the ack is delayed, leaving the
/// follower's reported watermark stale for a beat.
pub const POINT_REPL_LAG: &str = "repl-lag";
/// Named point: the fail-over sweep consults this to decide whether to
/// kill a shard leader at the next kill site.
pub const POINT_LEADER_KILL: &str = "leader-kill";

/// Counters for faults that actually fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Requests dropped before the service ran.
    pub requests_dropped: u64,
    /// Replies dropped after the service ran.
    pub replies_dropped: u64,
    /// Requests delivered twice.
    pub duplicates: u64,
    /// Per-direction delays injected.
    pub delays: u64,
    /// RM storage faults injected.
    pub storage_faults: u64,
    /// Pauses injected at named points.
    pub pauses: u64,
    /// Errors injected at named points.
    pub point_errors: u64,
}

/// SplitMix64: tiny, high-quality, deterministic. One stream per injector so
/// the fault sequence is a pure function of the scenario seed and the order
/// of interrogations.
#[derive(Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct InjectorState {
    rng: SplitMix64,
    stats: FaultStats,
}

/// A deterministic fault injector driven by a [`FaultScenario`].
///
/// Thread-safe: concurrent users share one PRNG stream under a mutex, so a
/// single-threaded run is exactly reproducible and a multi-threaded run is
/// reproducible up to thread interleaving (each *decision* is still drawn
/// from the seeded stream).
pub struct FaultInjector {
    scenario: FaultScenario,
    state: Mutex<InjectorState>,
}

impl FaultInjector {
    /// Creates an injector for the scenario.
    pub fn new(scenario: FaultScenario) -> Self {
        let seed = scenario.seed;
        Self {
            scenario,
            state: Mutex::new(InjectorState {
                rng: SplitMix64(seed),
                stats: FaultStats::default(),
            }),
        }
    }

    /// The scenario this injector was built from.
    pub fn scenario(&self) -> &FaultScenario {
        &self.scenario
    }

    /// Counters of faults that fired so far.
    pub fn stats(&self) -> FaultStats {
        self.state.lock().unwrap().stats
    }

    /// Resets the PRNG to the scenario seed and zeroes the counters, so the
    /// same injector can replay an identical fault sequence.
    pub fn reset(&self) {
        let mut st = self.state.lock().unwrap();
        st.rng = SplitMix64(self.scenario.seed);
        st.stats = FaultStats::default();
    }

    fn roll(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        self.state.lock().unwrap().rng.next_f64() < p
    }

    /// Decides the fate of an outbound request (drop beats duplicate).
    pub fn request_fate(&self) -> MessageFate {
        if self.roll(self.scenario.drop_request) {
            self.state.lock().unwrap().stats.requests_dropped += 1;
            return MessageFate::Drop;
        }
        if self.roll(self.scenario.duplicate) {
            self.state.lock().unwrap().stats.duplicates += 1;
            return MessageFate::Duplicate;
        }
        MessageFate::Deliver
    }

    /// Decides the fate of a reply (replies are never duplicated: the caller
    /// consumes exactly one reply per send).
    pub fn reply_fate(&self) -> MessageFate {
        if self.roll(self.scenario.drop_reply) {
            self.state.lock().unwrap().stats.replies_dropped += 1;
            return MessageFate::Drop;
        }
        MessageFate::Deliver
    }

    /// Returns a delay to apply to one message direction, if any. Delays on
    /// concurrent sends reorder delivery relative to real time.
    pub fn delay(&self) -> Option<Duration> {
        if !self.roll(self.scenario.delay_probability) {
            return None;
        }
        let mut st = self.state.lock().unwrap();
        st.stats.delays += 1;
        let max = self.scenario.max_delay.as_nanos() as u64;
        if max == 0 {
            return None;
        }
        let nanos = st.rng.next_u64() % (max + 1);
        Some(Duration::from_nanos(nanos))
    }

    /// Storage-fault hook for the resource manager: returns the error to
    /// inject into an access of `table`, or `None` to let it through.
    fn storage_fault(&self, op: &str, table: &str) -> Option<RmError> {
        if !self.roll(self.scenario.storage_error) {
            return None;
        }
        self.state.lock().unwrap().stats.storage_faults += 1;
        Some(RmError::StorageFault {
            op: op.to_owned(),
            table: table.to_owned(),
        })
    }

    /// Fires the named pause point: returns the pause to apply, if any.
    /// Unknown points never fire.
    pub fn pause(&self, point: &str) -> Option<Duration> {
        let pf = self.scenario.points.get(point)?;
        if !self.roll(pf.pause_probability) {
            return None;
        }
        self.state.lock().unwrap().stats.pauses += 1;
        Some(pf.pause)
    }

    /// Builds the resource manager's storage-fault hook for this injector.
    ///
    /// Ordinary accesses draw from the scenario's storage-error rate;
    /// rollback replay (op `"undo"`) is routed to the named `"undo"` point
    /// instead, so undo writes stay fault-free unless a scenario opts in
    /// through [`FaultScenario::points`] — injecting there deliberately
    /// corrupts rollback (`RmError::RollbackIncomplete`) and is only for
    /// tests of that path.
    pub fn rm_hook(self: &std::sync::Arc<Self>) -> promises_rm::StorageFaultHook {
        let inj = std::sync::Arc::clone(self);
        std::sync::Arc::new(move |op: &str, table: &str| {
            if op == "undo" {
                inj.point_error("undo")
            } else {
                inj.storage_fault(op, table)
            }
        })
    }

    /// Fires the named error point: returns a storage fault naming the
    /// point, or `None`. Unknown points never fire — in particular the
    /// `"undo"` point (rollback writes) only fires when a scenario opts in.
    fn point_error(&self, point: &str) -> Option<RmError> {
        let pf = self.scenario.points.get(point)?;
        if !self.roll(pf.error_probability) {
            return None;
        }
        self.state.lock().unwrap().stats.point_errors += 1;
        Some(RmError::StorageFault {
            op: "injected".to_owned(),
            table: point.to_owned(),
        })
    }

    /// Boolean form of the named error point for faults that are
    /// events rather than storage errors (dropped replication shipments,
    /// lagged acks, leader kills). Draws from the same seeded stream and
    /// counts into `point_errors`, so replication scenarios stay exactly
    /// reproducible alongside message faults.
    pub fn point_fires(&self, point: &str) -> bool {
        let Some(pf) = self.scenario.points.get(point) else {
            return false;
        };
        if !self.roll(pf.error_probability) {
            return false;
        }
        self.state.lock().unwrap().stats.point_errors += 1;
        true
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("scenario", &self.scenario)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fates(injector: &FaultInjector, n: usize) -> Vec<MessageFate> {
        (0..n).map(|_| injector.request_fate()).collect()
    }

    #[test]
    fn same_seed_same_sequence() {
        let a = FaultInjector::new(FaultScenario::uniform(7, 0.3));
        let b = FaultInjector::new(FaultScenario::uniform(7, 0.3));
        assert_eq!(fates(&a, 64), fates(&b, 64));
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seed_different_sequence() {
        let a = FaultInjector::new(FaultScenario::uniform(1, 0.3));
        let b = FaultInjector::new(FaultScenario::uniform(2, 0.3));
        assert_ne!(fates(&a, 64), fates(&b, 64));
    }

    #[test]
    fn reset_replays_identically() {
        let inj = FaultInjector::new(FaultScenario::uniform(42, 0.25));
        let first = fates(&inj, 32);
        inj.reset();
        assert_eq!(fates(&inj, 32), first);
    }

    #[test]
    fn quiet_scenario_never_fires() {
        let inj = FaultInjector::new(FaultScenario::quiet(5));
        for _ in 0..100 {
            assert_eq!(inj.request_fate(), MessageFate::Deliver);
            assert_eq!(inj.reply_fate(), MessageFate::Deliver);
            assert!(inj.delay().is_none());
            assert!(inj.storage_fault("get", "t").is_none());
            assert!(inj.pause("anything").is_none());
            assert!(inj.point_error("undo").is_none());
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn storage_faults_are_typed() {
        let inj = FaultInjector::new(FaultScenario::quiet(9).with_storage_errors(1.0));
        match inj.storage_fault("put", "stock") {
            Some(RmError::StorageFault { op, table }) => {
                assert_eq!(op, "put");
                assert_eq!(table, "stock");
            }
            other => panic!("expected storage fault, got {other:?}"),
        }
        assert_eq!(inj.stats().storage_faults, 1);
    }

    #[test]
    fn points_only_fire_when_configured() {
        let mut undo = FaultScenario::quiet(3);
        let always = PointFaults {
            error_probability: 1.0,
            ..PointFaults::default()
        };
        undo.points.insert("undo".into(), always);
        let inj = FaultInjector::new(undo);
        assert!(inj.point_error("undo").is_some());
        assert!(inj.point_error("other").is_none());
        let mut paused = FaultScenario::quiet(3);
        let pause = PointFaults {
            pause_probability: 1.0,
            pause: Duration::from_millis(1),
            error_probability: 0.0,
        };
        paused.points.insert("pm-grant".into(), pause);
        let inj2 = FaultInjector::new(paused);
        assert_eq!(inj2.pause("pm-grant"), Some(Duration::from_millis(1)));
        assert!(inj2.pause("undo").is_none());
    }

    #[test]
    fn replication_points_fire_at_configured_rates() {
        let inj = FaultInjector::new(FaultScenario::quiet(5).with_replication_faults(1.0, 0.0));
        assert!(inj.point_fires(POINT_REPL_DROP));
        assert!(!inj.point_fires(POINT_REPL_LAG));
        assert!(!inj.point_fires(POINT_LEADER_KILL), "unarmed point is off");
        assert_eq!(inj.stats().point_errors, 1);
        // Determinism: two injectors with the same seed agree draw-by-draw.
        let mk = || FaultInjector::new(FaultScenario::quiet(9).with_replication_faults(0.5, 0.5));
        let (a, b) = (mk(), mk());
        let draws = |i: &FaultInjector| {
            (0..64)
                .map(|k| {
                    i.point_fires(if k % 2 == 0 {
                        POINT_REPL_DROP
                    } else {
                        POINT_REPL_LAG
                    })
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(&a), draws(&b));
    }

    #[test]
    fn duplicates_and_drops_both_occur_at_high_rates() {
        let inj = FaultInjector::new(FaultScenario::uniform(11, 0.4));
        let fates = fates(&inj, 200);
        assert!(fates.contains(&MessageFate::Drop));
        assert!(fates.contains(&MessageFate::Duplicate));
        assert!(fates.contains(&MessageFate::Deliver));
        let stats = inj.stats();
        assert!(stats.requests_dropped > 0 && stats.duplicates > 0);
    }

    #[test]
    fn delay_is_bounded() {
        let inj = FaultInjector::new(FaultScenario {
            delay_probability: 1.0,
            max_delay: Duration::from_micros(50),
            ..FaultScenario::quiet(13)
        });
        for _ in 0..100 {
            let d = inj.delay().expect("always delayed");
            assert!(d <= Duration::from_micros(50));
        }
    }
}
