//! The two load generators, and the slicing of what they measured.
//!
//! A closed loop sends a client's next op when its previous one returned;
//! the open loop sends on a seeded schedule and times every op from the
//! moment it was *due*, so a stall is charged to every op it delayed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::procstat::{foreign_share, CpuTicks};
use crate::stats::{self, Selection, SliceSignal};

/// Length of one slice of a timed phase.
pub const SLICE: Duration = Duration::from_millis(500);

/// How an op ended, as the workload judges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Answered, and the answer was the right one.
    Ok,
    /// Refused, and refusing was right (an over-ask). Correct, but it
    /// did no business, so it is counted apart.
    Refused,
    /// Errored, refused while stock existed, or granted when it had to
    /// be refused. Counts as failed and as missing any latency limit.
    Failed,
}

/// What a generator drives. `begin_op` is the op-indexed part of the run:
/// it hands out the next index, advances logical time by one tick and
/// runs housekeeping when the index says so.
pub trait Load: Sync {
    fn begin_op(&self) -> u64;
    fn run_op(&self, index: u64, client: usize) -> Verdict;
}

/// One completed op. Times are ns from the phase's start.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Open loop: when the schedule wanted it sent. Closed loop: `start`.
    pub due: u64,
    pub start: u64,
    pub end: u64,
    pub verdict: Verdict,
}

/// A timed phase, cut into slices.
#[derive(Debug)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub signals: Vec<SliceSignal>,
    /// Ops completed (not failed) per second, by the slice their `end`
    /// fell in, as the wall clock saw it.
    pub rates: Vec<f64>,
    pub selection: Selection,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Sleeps through the phase on the caller's thread, reading the CPU
/// counters at every slice boundary; `at_boundary` lets the caller sample
/// what it wants on the same cadence.
fn watch_slices(
    t0: Instant,
    slices: usize,
    at_boundary: &mut dyn FnMut(),
) -> Vec<(Option<CpuTicks>, Option<CpuTicks>)> {
    let mut readings = Vec::with_capacity(slices);
    let mut before = CpuTicks::read();
    for k in 1..=slices {
        let boundary = t0 + SLICE * k as u32;
        std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
        let after = CpuTicks::read();
        at_boundary();
        readings.push((before, after));
        before = after;
    }
    readings
}

fn finish(
    mut samples: Vec<Sample>,
    readings: Vec<(Option<CpuTicks>, Option<CpuTicks>)>,
    late: &dyn Fn(usize, &[Sample]) -> bool,
) -> Phase {
    samples.sort_by_key(|s| s.due);
    let slices = readings.len();
    let mut counts = vec![0u64; slices];
    for s in samples.iter().filter(|s| s.verdict != Verdict::Failed) {
        let k = (s.end / ns(SLICE)) as usize;
        if k < slices {
            counts[k] += 1;
        }
    }
    let rates = counts
        .iter()
        .map(|&c| c as f64 / SLICE.as_secs_f64())
        .collect();
    let signals: Vec<SliceSignal> = readings
        .iter()
        .enumerate()
        .map(|(k, &(a, b))| SliceSignal {
            foreign_share: foreign_share(a, b),
            late: late(k, &samples),
        })
        .collect();
    let selection = stats::select_clean(&signals);
    Phase {
        samples,
        signals,
        rates,
        selection,
    }
}

impl Phase {
    /// Samples whose `due` time fell in slice `k`.
    pub fn due_in(&self, k: usize) -> &[Sample] {
        let lo = self
            .samples
            .partition_point(|s| s.due < ns(SLICE) * k as u64);
        let hi = self
            .samples
            .partition_point(|s| s.due < ns(SLICE) * (k as u64 + 1));
        &self.samples[lo..hi]
    }

    /// Per-slice rate, each divided by the share of the machine the
    /// process could have had in that slice.
    pub fn slice_rates(&self) -> Vec<f64> {
        self.rates
            .iter()
            .zip(&self.signals)
            .map(|(r, s)| r / s.own_share())
            .collect()
    }

    /// Per-slice percentile (µs) of latency from the due time, each
    /// multiplied by the slice's machine share; a slice with no sample
    /// repeats its predecessor so the vector stays aligned.
    pub fn slice_percentiles_us(&self, q: f64) -> Vec<f64> {
        let mut out: Vec<f64> = Vec::with_capacity(self.signals.len());
        for (k, signal) in self.signals.iter().enumerate() {
            let mut lat: Vec<u64> = self.due_in(k).iter().map(|s| s.end - s.due).collect();
            let v = if lat.is_empty() {
                out.last().copied().unwrap_or(0.0)
            } else {
                stats::percentile(&mut lat, q) as f64 / 1e3 * signal.own_share()
            };
            out.push(v);
        }
        out
    }

    /// Of the ops due in the selected slices, the share answered
    /// correctly within `limit_us`: latency scaled like the percentiles,
    /// and by the core's `speed` during the phase.
    pub fn within_limit(&self, limit_us: u64, speed: f64) -> f64 {
        let (mut due, mut within) = (0u64, 0u64);
        for &k in &self.selection.indices {
            let share = self.signals[k].own_share() * speed;
            for s in self.due_in(k) {
                due += 1;
                let scaled_us = (s.end - s.due) as f64 / 1e3 * share;
                within += u64::from(s.verdict != Verdict::Failed && scaled_us <= limit_us as f64);
            }
        }
        within as f64 / due.max(1) as f64
    }

    /// Whole-phase percentile (µs) and its sample count: a diagnostic,
    /// never an end-to-end metric.
    pub fn whole_percentile_us(&self, q: f64, of: impl Fn(&Sample) -> u64) -> (f64, usize) {
        let mut v: Vec<u64> = self.samples.iter().map(of).collect();
        if v.is_empty() {
            return (0.0, 0);
        }
        (stats::percentile(&mut v, q) as f64 / 1e3, v.len())
    }

    pub fn drift(&self) -> f64 {
        stats::drift(&self.slice_rates())
    }

    pub fn count(&self, verdict: Verdict) -> u64 {
        self.samples.iter().filter(|s| s.verdict == verdict).count() as u64
    }
}

/// Runs `body` on `threads` threads (it gets its thread's number and the
/// phase's start) while the caller's thread watches the slice boundaries,
/// and slices what the threads measured.
fn drive(
    threads: usize,
    slices: usize,
    at_boundary: &mut dyn FnMut(),
    late: &dyn Fn(usize, &[Sample]) -> bool,
    body: impl Fn(usize, Instant) -> Vec<Sample> + Sync,
) -> Phase {
    let t0 = Instant::now();
    let (samples, readings) = std::thread::scope(|scope| {
        let body = &body;
        let handles: Vec<_> = (0..threads)
            .map(|n| scope.spawn(move || body(n, t0)))
            .collect();
        let readings = watch_slices(t0, slices, at_boundary);
        let samples: Vec<Sample> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect();
        (samples, readings)
    });
    finish(samples, readings, late)
}

/// Closed loop: `clients` threads, each sending its next op as soon as
/// the previous one returned, for `slices` slices.
pub fn run_closed(
    load: &dyn Load,
    clients: usize,
    slices: usize,
    at_boundary: &mut dyn FnMut(),
) -> Phase {
    drive(clients, slices, at_boundary, &|_, _| false, |client, t0| {
        let deadline = t0 + SLICE * slices as u32;
        let mut mine = Vec::with_capacity(1 << 16);
        while Instant::now() < deadline {
            // Issued before the timestamp: housekeeping that falls on
            // this index costs throughput, not this op's latency.
            let index = load.begin_op();
            let start = ns(t0.elapsed());
            let verdict = load.run_op(index, client);
            mine.push(Sample {
                due: start,
                start,
                end: ns(t0.elapsed()),
                verdict,
            });
        }
        mine
    })
}

/// Waits for `target` by sleeping, never by spinning or yielding: a
/// dispatcher shares one core with the shards' workers (see
/// [`crate::hot`]), so one that spins towards its due time keeps work
/// already under way off the core, and one that yields hands the core to
/// the idle-class spinner for a whole time slice. The caller has set the
/// thread's timer slack to the minimum, so the sleep ends within
/// microseconds of `target`; what it overshoots by is reported as
/// generator lateness and, rightly, charged to the op.
fn wait_until(target: Instant) {
    loop {
        let left = target.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left);
    }
}

/// Open loop: ops come due at `schedule` (ns from phase start) whatever
/// the system is doing; `dispatchers` threads send them, each taking the
/// next due op when it is free. Latency runs from the due time.
pub fn run_open(
    load: &dyn Load,
    dispatchers: usize,
    schedule: &[u64],
    slices: usize,
    at_boundary: &mut dyn FnMut(),
) -> Phase {
    const LATE: u64 = 1_000_000;
    let late = |k: usize, sorted: &[Sample]| {
        let first = sorted.partition_point(|s| s.due < ns(SLICE) * k as u64);
        sorted.get(first).is_some_and(|s| s.start - s.due >= LATE)
    };
    let next = AtomicUsize::new(0);
    drive(dispatchers, slices, at_boundary, &late, |client, t0| {
        crate::hot::precise_sleeps();
        let mut mine = Vec::with_capacity(schedule.len() / dispatchers + 16);
        // Relaxed: the counter only hands out distinct positions.
        while let Some(&due) = schedule.get(next.fetch_add(1, Ordering::Relaxed)) {
            wait_until(t0 + Duration::from_nanos(due));
            let start = ns(t0.elapsed());
            let index = load.begin_op();
            let verdict = load.run_op(index, client);
            mine.push(Sample {
                due,
                start,
                end: ns(t0.elapsed()),
                verdict,
            });
        }
        mine
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Every op takes `busy`, and op `stall_at` takes `stall` more.
    struct Stalling {
        issued: AtomicU64,
        busy: Duration,
        stall_at: u64,
        stall: Duration,
    }

    impl Load for Stalling {
        fn begin_op(&self) -> u64 {
            self.issued.fetch_add(1, Ordering::Relaxed)
        }
        fn run_op(&self, index: u64, _client: usize) -> Verdict {
            if !self.busy.is_zero() {
                std::thread::sleep(self.busy);
            }
            if index == self.stall_at {
                std::thread::sleep(self.stall);
            }
            Verdict::Ok
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_ops_it_delayed() {
        // One dispatcher, an op due every millisecond, op 5 stalls 40 ms:
        // ops 6.. were due during the stall, so measured from their due
        // time they are slow even though each ran in microseconds.
        let load = Stalling {
            issued: AtomicU64::new(0),
            busy: Duration::ZERO,
            stall_at: 5,
            stall: Duration::from_millis(40),
        };
        let schedule: Vec<u64> = (0..60).map(|i| i * 1_000_000).collect();
        let phase = run_open(&load, 1, &schedule, 1, &mut || {});
        assert_eq!(phase.samples.len(), 60);
        let lat_ms = |i: usize| (phase.samples[i].end - phase.samples[i].due) as f64 / 1e6;
        assert!(lat_ms(2) < 20.0, "before the stall: {}", lat_ms(2));
        assert!(lat_ms(6) > 30.0, "due during the stall: {}", lat_ms(6));
        assert!(lat_ms(20) > 15.0, "still queued behind it: {}", lat_ms(20));
        // Service time alone would hide it.
        let service_ms = (phase.samples[20].end - phase.samples[20].start) as f64 / 1e6;
        assert!(service_ms < lat_ms(20) / 2.0);
    }

    #[test]
    fn closed_loop_counts_every_completed_op_once() {
        let load = Stalling {
            issued: AtomicU64::new(0),
            busy: Duration::from_millis(1),
            stall_at: u64::MAX,
            stall: Duration::ZERO,
        };
        let phase = run_closed(&load, 2, 1, &mut || {});
        let total: f64 = phase.rates.iter().sum::<f64>() * SLICE.as_secs_f64();
        // Ops ending after the last boundary belong to no slice.
        assert!(total as usize <= phase.samples.len());
        assert!(total as usize + 2 >= phase.samples.len());
        assert_eq!(phase.count(Verdict::Ok) as usize, phase.samples.len());
    }
}
