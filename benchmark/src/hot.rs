//! Where a run measures: on one core, kept awake.
//!
//! Two properties of the virtual machines this benchmark runs in made
//! whole runs of identical code come out 30–40 % apart, with nothing else
//! on the machine and no steal reported:
//!
//! * Waking a thread on *another* core goes through the hypervisor (an
//!   inter-processor interrupt and, if that core had halted, its wake-up):
//!   a cross-core hand-off costs 20 µs a way against 5 µs on the same
//!   core, and the price moves with whatever the host is doing. Every op
//!   here hands work between threads four times or more, and which thread
//!   the guest scheduler puts on which core changes from minute to
//!   minute. On two cores `order_local` ran 2 500–3 900 ops/s with a p50
//!   of 280–450 µs; pinned to one core, 3 700–4 000 ops/s and 150 µs —
//!   the second core bought nothing but noise.
//! * An idle core halts, and waking it has the same kind of price. The
//!   open loop idles between arrivals.
//!
//! So the process pins itself to one core before it starts any thread
//! (threads inherit the mask, the shards' workers included), and parks
//! one spinning thread there in the scheduler's idle class: it runs only
//! when nothing else wants the core and gives it up the moment anything
//! does, which keeps the core from halting (what booting with
//! `idle=poll` does). What is measured is then the work an op costs, not
//! where the scheduler happened to put it. Clients still overlap: while
//! one waits for a shard, the other runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Linux's `SCHED_IDLE` policy.
const SCHED_IDLE: i32 = 5;
/// Words in the kernel's `cpu_set_t` (1 024 CPUs).
const MASK_WORDS: usize = 16;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Restricts the calling thread (and every thread it starts from now on)
/// to the first core it is allowed on. Returns that core, or `None` when
/// the kernel refuses — the run then goes on unpinned and says so.
pub fn pin_to_one_core() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: the kernel writes at most `bytes` bytes through the pointer,
    // which points at a live array of exactly that size; pid 0 names the
    // calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|w| *w != 0)?;
    let bit = mask[word].trailing_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: the kernel reads `bytes` bytes through the pointer, which
    // points at a live array of exactly that size.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// Sets the calling thread's timer slack to 1 ns, so that its sleeps end
/// when asked and not up to 50 µs (the default slack) later. Best effort.
pub fn precise_sleeps() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: `prctl(PR_SET_TIMERSLACK, ns)` takes its arguments by value
    // and changes one scheduling attribute of the calling thread.
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64, 0u64, 0u64, 0u64) };
}

/// Moves the calling thread to the idle class; false when the kernel
/// refuses.
fn enter_idle_class() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` reads one `sched_param` through the
    // pointer, which points at a live, correctly laid out local; pid 0
    // names the calling thread. It has no other memory effects.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// The idle-class spinner; dropping it stops and joins it.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinner: Option<JoinHandle<()>>,
    /// False when the spinner could not enter the idle class and left
    /// rather than compete with the workload.
    pub spinning: bool,
}

impl KeepAwake {
    /// Starts the spinner on the calling thread's cores.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let (report, reports) = mpsc::channel();
        let spinner = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let idle = enter_idle_class();
                // The receiver waits for exactly this message.
                let _ = report.send(idle);
                // Relaxed: the flag publishes nothing; a late read only
                // spins a little longer.
                while idle && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        };
        Self {
            stop,
            spinner: Some(spinner),
            spinning: reports.recv().unwrap_or(false),
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(spinner) = self.spinner.take() {
            // The spinner cannot panic; a failed join has nothing to say.
            let _ = spinner.join();
        }
    }
}
