//! The open-loop load generator.
//!
//! Every benchmark before this generator was *closed-loop*: N client threads
//! each issue an op, wait for it, think, repeat — so when the system slows
//! down the clients slow down with it, the offered load collapses to
//! whatever the system can absorb, and the latency a user would actually
//! have seen (queueing included) is silently edited out of the histogram.
//! That editing is *coordinated omission*.
//!
//! This generator is **open-loop**: arrivals are a seeded Poisson process
//! at a configured offered rate, fixed in advance, indifferent to how the
//! system is doing. It runs in *virtual time* — no thread sleeps, no
//! timers — as a deterministic G/G/c queue simulation:
//!
//! * arrival `i` happens at virtual nanosecond `A_i` (cumulative
//!   exponential gaps, `-ln(1-u)/rate`);
//! * `max_in_flight` virtual servers model the bounded concurrency a real
//!   front end would run; op `i` *starts* at
//!   `S_i = max(A_i, earliest server free time)` — if every server is
//!   busy, the op queues;
//! * the op itself is executed synchronously and its measured wall-clock
//!   becomes the virtual *service time* `X_i` (the system under test is
//!   real; only the arrival clock is simulated);
//! * recorded latency is `S_i + X_i - A_i` — queueing delay **included**,
//!   anchored at the intended arrival, never at the convenient moment the
//!   driver got around to sending. No coordinated omission.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use promises_telemetry::{Histogram, HistogramSnapshot};
use rand::{rngs::StdRng, RngCore, SeedableRng};

/// Shape of one open-loop run.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Offered arrival rate, ops per second of virtual time.
    pub offered_rate: f64,
    /// Total arrivals to generate.
    pub ops: usize,
    /// Bounded in-flight concurrency (virtual servers); arrivals beyond
    /// it queue, and their queueing delay lands in the latency.
    pub max_in_flight: usize,
    /// PRNG seed for the arrival process.
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            offered_rate: 2_000.0,
            ops: 200,
            max_in_flight: 8,
            seed: 2007,
        }
    }
}

/// How one op ended, as classified by the scenario closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpStatus {
    /// The op did its useful work (goodput).
    Ok,
    /// The system said no cleanly (admission rejection, negotiation
    /// exhausted, capacity) — accounted, not goodput.
    Rejected,
    /// Transport or storage failure surfaced to the caller.
    Failed,
}

/// Outcome of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Arrivals generated.
    pub offered: usize,
    /// Ops that completed useful work.
    pub completed: u64,
    /// Clean rejections.
    pub rejected: u64,
    /// Failures.
    pub failed: u64,
    /// End-to-end latency (queueing delay included), anchored at intended
    /// arrival times.
    pub latency: HistogramSnapshot,
    /// Virtual makespan: last completion minus first arrival, ns.
    pub makespan_ns: u64,
}

impl OpenLoopReport {
    /// Completed fraction of the offered load.
    pub fn goodput_ratio(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.completed as f64 / self.offered as f64
    }
}

/// A uniform draw in [0, 1) with 53 bits of entropy.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Drives `op` once per generated arrival and returns the
/// coordinated-omission-free report. `op` receives the arrival index and
/// performs the scenario's synchronous work against the real system; its
/// measured wall-clock is the op's virtual service time.
pub fn run_open_loop<F>(cfg: &OpenLoopConfig, mut op: F) -> OpenLoopReport
where
    F: FnMut(usize) -> OpStatus,
{
    assert!(cfg.offered_rate > 0.0, "offered rate must be positive");
    assert!(cfg.max_in_flight > 0, "need at least one virtual server");
    // Salted so scenario seeds and arrival seeds draw distinct streams.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
    let gap_ns = |rng: &mut StdRng| {
        let u = unit(rng);
        (-(1.0 - u).ln() / cfg.offered_rate * 1e9) as u64
    };

    // Virtual server free times; the earliest-free server takes each op.
    let mut servers: BinaryHeap<Reverse<u64>> =
        (0..cfg.max_in_flight).map(|_| Reverse(0u64)).collect();
    let latency = Histogram::default();
    let mut completed = 0u64;
    let mut rejected = 0u64;
    let mut failed = 0u64;
    let mut arrival_ns = 0u64;
    let mut makespan_ns = 0u64;

    for i in 0..cfg.ops {
        arrival_ns = arrival_ns.saturating_add(gap_ns(&mut rng));
        let Reverse(free_at) = servers.pop().expect("non-empty server heap");
        let start = arrival_ns.max(free_at);
        let wall = Instant::now();
        let status = op(i);
        let service_ns = wall.elapsed().as_nanos() as u64;
        let done = start.saturating_add(service_ns);
        servers.push(Reverse(done));
        latency.record(done - arrival_ns);
        makespan_ns = makespan_ns.max(done);
        match status {
            OpStatus::Ok => completed += 1,
            OpStatus::Rejected => rejected += 1,
            OpStatus::Failed => failed += 1,
        }
    }

    OpenLoopReport {
        offered: cfg.ops,
        completed,
        rejected,
        failed,
        latency: latency.snapshot(),
        makespan_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn arrivals_are_deterministic_per_seed() {
        let cfg = OpenLoopConfig {
            ops: 50,
            ..OpenLoopConfig::default()
        };
        let a = run_open_loop(&cfg, |_| OpStatus::Ok);
        let b = run_open_loop(&cfg, |_| OpStatus::Ok);
        assert_eq!(a.completed, 50);
        // Same seed, same arrival process; only the measured service
        // jitter differs, so makespans agree to within service noise.
        assert_eq!(a.offered, b.offered);
    }

    #[test]
    fn queueing_delay_lands_in_latency() {
        // One server, arrivals far faster than service: op k waits behind
        // k-1 slow predecessors, so p99 latency must dwarf one service
        // time — the signature coordinated omission erases.
        let cfg = OpenLoopConfig {
            offered_rate: 1_000_000.0,
            ops: 40,
            max_in_flight: 1,
            seed: 7,
        };
        let service = Duration::from_millis(1);
        let report = run_open_loop(&cfg, |_| {
            std::thread::sleep(service);
            OpStatus::Ok
        });
        let p99 = report.latency.p99().expect("recorded") as u128;
        assert!(
            p99 > 20 * service.as_nanos(),
            "p99 {p99}ns must include queueing behind ~39 predecessors"
        );
    }

    #[test]
    fn status_classification_is_counted() {
        let cfg = OpenLoopConfig {
            ops: 30,
            ..OpenLoopConfig::default()
        };
        let report = run_open_loop(&cfg, |i| match i % 3 {
            0 => OpStatus::Ok,
            1 => OpStatus::Rejected,
            _ => OpStatus::Failed,
        });
        assert_eq!(report.completed, 10);
        assert_eq!(report.rejected, 10);
        assert_eq!(report.failed, 10);
        assert!(report.goodput_ratio() > 0.3 && report.goodput_ratio() < 0.35);
    }
}
