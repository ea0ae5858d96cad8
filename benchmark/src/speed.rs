//! How fast the core is *right now*, read by a fixed piece of work that
//! is not the repository's.
//!
//! Pinned to one core with nothing else running and no steal reported,
//! identical code still came out 10 % apart from one minute to the next:
//! the core itself changes speed (a neighbour on the sibling hardware
//! thread, boost running out). A single-threaded loop of the kind of work
//! the system does — allocate, format, hash, insert — tracks it: over
//! twenty back-to-back runs, dividing `closed_ops_s` by the probe's reading
//! halved its spread (10.8 % → 5.6 %), and likewise `closed_p50_us`.
//!
//! So a thread probes the core a few times a second for the whole run,
//! and every timed value is reported as it would read at the reference
//! speed. The probe is timed in the thread's own CPU time, so being
//! preempted by the workload (it shares the core) or by the hypervisor
//! does not count against the core; what the neighbours *take* is the
//! business of the foreign share, not of this reading.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Probe rounds per CPU-millisecond on the machine the open-loop rates
/// were frozen on, in its usual state. A run that reads exactly this
/// reports its times unchanged.
pub const REFERENCE_ROUNDS_PER_MS: f64 = 620.0;

/// Rounds per probe: about 3 ms of CPU.
const ROUNDS: u64 = 400;
/// Pause between probes: the probe costs the workload about 1 % of the
/// core.
const PAUSE: Duration = Duration::from_millis(250);

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// CPU time the calling thread has used, in ns.
fn thread_cpu_ns() -> u64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which points at a live local of that layout (64-bit Linux).
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) } != 0 {
        return 0;
    }
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// One probe: `ROUNDS` rounds of formatting 16 keys and inserting them in
/// a hash map, in rounds per CPU-millisecond.
fn probe(map: &mut HashMap<String, u64>, serial: &mut u64) -> f64 {
    let before = thread_cpu_ns();
    for _ in 0..ROUNDS {
        *serial += 1;
        // Emptied every round, so the probe never holds more than sixteen
        // short strings: the counting allocator's live bytes are read
        // while it runs.
        map.clear();
        for i in 0..16u64 {
            map.insert(format!("promise-{serial}-{}", i * 7), i);
        }
    }
    let spent_ms = thread_cpu_ns().saturating_sub(before) as f64 / 1e6;
    ROUNDS as f64 / spent_ms.max(1e-6)
}

/// The probing thread; dropping it stops and joins it.
pub struct Speedometer {
    stop: Arc<AtomicBool>,
    readings: Arc<Mutex<Vec<(Instant, f64)>>>,
    thread: Option<JoinHandle<()>>,
}

impl Speedometer {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let readings = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let (stop, readings) = (Arc::clone(&stop), Arc::clone(&readings));
            std::thread::spawn(move || {
                let (mut map, mut serial) = (HashMap::new(), 0u64);
                // Relaxed: the flag publishes nothing.
                while !stop.load(Ordering::Relaxed) {
                    let reading = probe(&mut map, &mut serial);
                    readings
                        .lock()
                        .expect("speed readings")
                        .push((Instant::now(), reading));
                    std::thread::sleep(PAUSE);
                }
            })
        };
        Self {
            stop,
            readings,
            thread: Some(thread),
        }
    }

    /// The core's speed between `from` and now, as a multiple of the
    /// reference speed: the median of the probes taken in that stretch
    /// (with the one before and the one after, so a short stretch still
    /// has two). 1.0 when there is no reading at all.
    pub fn since(&self, from: Instant) -> f64 {
        let readings = self.readings.lock().expect("speed readings");
        let first = readings
            .partition_point(|(at, _)| *at < from)
            .saturating_sub(1);
        let taken: Vec<f64> = readings[first..].iter().map(|(_, r)| *r).collect();
        if taken.is_empty() {
            return 1.0;
        }
        crate::stats::median(&taken) / REFERENCE_ROUNDS_PER_MS
    }
}

impl Drop for Speedometer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // The probe cannot panic; a failed join has nothing to say.
            let _ = thread.join();
        }
    }
}
