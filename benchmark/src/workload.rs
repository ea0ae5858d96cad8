//! What the four workloads share: the op-indexed logical time, the
//! recovery-round shape, and the counters read at phase boundaries.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use promises_core::{JournalOp, PromiseJournal, PromiseManager, PromiseRecord};
use promises_telemetry::Telemetry;

use crate::alloc;
use crate::load::Load;
use crate::trace::Tracer;

/// Logical time one issued op is worth. Expiry, the dedup grace and the
/// tombstone grace are all counted in ops through this, not in seconds of
/// the machine, so every population is a function of the op index.
pub const TICK_MS: u64 = 20;
/// The tick of the two workloads whose ops are slow (`booking_cross`, a
/// thousand bookings a second at best, and `pm_table`, two thousand):
/// a trip is booked, and a long-lived table churned, less often than a
/// widget is ordered — and a warm-up of 15 000 such ops would not fit
/// the run-time budget.
pub const SLOW_TICK_MS: u64 = 100;
/// A transient promise is held for this many ops' worth of logical time.
pub const HOLD_OPS: u64 = 100;

/// How long the coordinator's dedup index and the managers' tombstones
/// outlive a promise (`DEDUP_GRACE_MS` / the default tombstone grace).
pub const GRACE_MS: u64 = 300_000;
/// Resident promises outlast any run.
pub const RESIDENT_MS: u64 = 30 * 24 * 3_600 * 1_000;
/// Prune / compact / sweep cadence, in ops.
pub const HOUSEKEEP_EVERY: u64 = 512;
/// Recovery rounds draw their ops from an index space of their own, so a
/// round's inputs do not depend on how many ops the timed phases managed.
pub const RECOVERY_INDEX_BASE: u64 = 1 << 40;
/// A request that meets a dead endpoint is re-sent this often.
pub const RESEND_EVERY: std::time::Duration = std::time::Duration::from_micros(100);
/// ... and given up on (counted failed) after this many tries, 10 s.
pub const RESEND_LIMIT: u32 = 100_000;

/// Logical duration of a transient promise at a workload's tick.
pub fn hold_ms(tick_ms: u64) -> u64 {
    HOLD_OPS * tick_ms
}

/// Ops before anything is timed: a hold plus the grace, so every
/// population that ages out has started to — rounded up to the
/// housekeeping cadence, plus one more round of it. 15 872 ops at the
/// 20 ms tick, 4 096 at 100 ms.
pub fn warmup_ops(tick_ms: u64) -> u64 {
    (HOLD_OPS + GRACE_MS / tick_ms).next_multiple_of(HOUSEKEEP_EVERY) + HOUSEKEEP_EVERY
}

/// Hands out op indices: from 0 up through set-up and the timed phases,
/// then from [`RECOVERY_INDEX_BASE`] up. Relaxed throughout: the counter
/// hands out distinct numbers and publishes nothing.
#[derive(Debug, Default)]
pub struct OpIndex {
    next: AtomicU64,
    before_recovery: AtomicU64,
}

impl OpIndex {
    pub fn take(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Ops issued so far, in both index spaces together.
    pub fn issued(&self) -> u64 {
        let next = self.next.load(Ordering::Relaxed);
        match next.checked_sub(RECOVERY_INDEX_BASE) {
            Some(in_recovery) => self.before_recovery.load(Ordering::Relaxed) + in_recovery,
            None => next,
        }
    }

    pub fn enter_recovery(&self) {
        let before = self.next.swap(RECOVERY_INDEX_BASE, Ordering::Relaxed);
        self.before_recovery.store(before, Ordering::Relaxed);
    }
}

/// What one kill-and-recover cost.
#[derive(Debug, Clone, Copy)]
pub struct Restart {
    /// The restart / promotion / recover call itself.
    pub restart_ms: f64,
    /// From the kill until the node answers again (`restart_ms` plus the
    /// kill and re-registration); the first op after it is added by the
    /// caller to make `outage_ms`.
    pub down_ms: f64,
    /// Journal lines the recovering node was handed.
    pub journal_len: usize,
    /// Journal entries recovery replayed.
    pub replayed: usize,
}

/// Declares [`Counters`] with its field-by-field difference and sum.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Monotonic counters read from the public snapshots at a quiet
        /// point; a metric is a delta between two readings. Times are ns.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counters {
            $(pub $field: u64),*
        }

        impl Counters {
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field.saturating_sub(earlier.$field)),* }
            }

            pub fn plus(&self, other: &Counters) -> Counters {
                Counters { $($field: self.$field + other.$field),* }
            }
        }
    };
}

counters!(
    bus_msgs,
    bus_bytes,
    coord_log_records,
    journal_records,
    flush_writes,
    flushed_records,
    commit_batches,
    commit_stalled,
    repl_lines,
    compactions,
    pm_ns,
    lock_wait_ns,
    check_ns,
    check_ops,
    rm_txn_ns,
    rm_txns,
    allocs,
    alloc_bytes,
);

impl Counters {
    /// Adds what one promise manager and its telemetry registry report.
    pub fn add_manager(&mut self, pm: &PromiseManager, tel: &Telemetry) {
        let m = pm.metrics();
        for lat in [m.grant_lat, m.release_lat, m.execute_lat, m.prune_lat] {
            self.lock_wait_ns += lat.lock_wait_ns();
            self.check_ns += lat.check_ns();
            self.check_ops += lat.check_ops();
        }
        let snap = tel.snapshot();
        for name in ["pm.grant", "pm.release", "pm.execute"] {
            self.pm_ns += snap.histogram(name).map_or(0, |h| h.sum);
        }
        if let Some(h) = snap.histogram("rm.txn") {
            self.rm_txn_ns += h.sum;
            self.rm_txns += h.count;
        }
        self.compactions += snap.counter("pm.compact.runs");
        if let Some(journal) = pm.journal() {
            self.journal_records += journal.tip_seq();
            let (writes, records) = journal.flush_stats();
            self.flush_writes += writes;
            self.flushed_records += records;
        }
    }

    pub fn add_allocator(&mut self) {
        let a = alloc::read();
        self.allocs = a.count;
        self.alloc_bytes = a.bytes;
    }
}

/// Levels (not counters) sampled at slice boundaries and phase ends.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    pub dedup_len: usize,
    pub repl_lag: u64,
    pub queue_depth_max: usize,
}

/// The invariants one promise manager must keep, checked from its public
/// snapshots at a quiet point: promised ≤ stock per quantity pool, no
/// instance allocated to two promises, no `(client, request id)` granted
/// twice.
pub fn audit_manager(
    who: &str,
    pm: &PromiseManager,
    journal: &PromiseJournal,
    problems: &mut Vec<String>,
) {
    for (pool, promised) in pm.promised_quantities() {
        let stock = pm.quantity_on_hand(pool.clone()).unwrap_or(0);
        if promised > stock {
            problems.push(format!(
                "{who} pool {pool}: promised {promised} > stock {stock}"
            ));
        }
    }
    // The digest lists every allocation as `  alloc <predicate>:<instance>`.
    let digest = pm.state_digest();
    let mut instances = HashSet::new();
    for alloc in digest.lines().filter_map(|l| l.strip_prefix("  alloc ")) {
        let instance = alloc.split_once(':').map_or(alloc, |(_, i)| i);
        if !instances.insert(instance) {
            problems.push(format!("{who}: instance {instance} allocated twice"));
        }
    }
    let mut grants: HashMap<(String, String), HashSet<u64>> = HashMap::new();
    let mut note = |rec: &PromiseRecord| {
        grants
            .entry((rec.client.0.clone(), rec.request.0.clone()))
            .or_default()
            .insert(rec.id.0);
    };
    for entry in journal.entries().unwrap_or_default() {
        match &entry.op {
            JournalOp::Grant(rec) | JournalOp::Prepared(rec) => note(rec),
            JournalOp::Checkpoint(state) => state.live.iter().for_each(|l| note(&l.record)),
            _ => {}
        }
    }
    for ((client, request), ids) in grants.iter().filter(|(_, ids)| ids.len() > 1) {
        problems.push(format!(
            "{who}: {client}/{request} granted {} times",
            ids.len()
        ));
    }
}

/// A benchmark workload: a [`Load`] plus what the phases around the
/// generators need from it.
pub trait Workload: Load {
    /// Issues and runs one op on the calling thread (warm-up and the
    /// recovery rounds count ops, not seconds).
    fn step(&self, client: usize) -> crate::load::Verdict {
        let index = self.begin_op();
        self.run_op(index, client)
    }

    /// Ops issued so far.
    fn issued(&self) -> u64;

    /// Logical milliseconds one op is worth.
    fn tick_ms(&self) -> u64;

    /// Moves op issuing to the recovery index space: drains every
    /// transient promise first, so what the rounds replay does not depend
    /// on what the timed phases left behind.
    fn enter_recovery(&self);

    /// Starts recovery round `round`: compacts the victim's journal, so
    /// the restart at the end of the round replays one checkpoint plus
    /// exactly this round's records.
    fn begin_round(&self, round: usize);

    /// Ends round `round`: kills the victim and brings it back, checking
    /// that its promise table is what it was before the kill.
    fn kill_and_restart(&self, round: usize, problems: &mut Vec<String>) -> Restart;

    /// Open-phase kills (failover only): kill and promote a leader every
    /// `every` ops, or never.
    fn set_chaos(&self, every: Option<u64>);

    /// Turns span recording (and message capture) on or off.
    fn set_tracer(&self, tracer: Option<Arc<Tracer>>);

    /// Checks the isolation invariants at a quiescent point, and hands
    /// over what ops noticed while running (a partial grant, a lost
    /// acknowledged grant).
    fn audit(&self, problems: &mut Vec<String>);

    /// Lets every transient promise expire and checks the table is back
    /// to the resident baseline.
    fn drain(&self, problems: &mut Vec<String>);

    fn counters(&self) -> Counters;
    fn gauges(&self) -> Gauges;

    /// Resident promises, and the heap bytes preloading them took.
    fn resident(&self) -> (usize, u64);

    /// The first messages shard 0 saw while a tracer was installed (none
    /// for a workload without a wire).
    fn captured(&self) -> Vec<crate::cluster_load::Captured>;

    /// A private copy of what this workload runs against.
    fn replica(&self) -> crate::layers::Replica;
}
