//! Hierarchical strict two-phase locking with deadlock detection.
//!
//! The lock manager grants logical locks on table and record granules using
//! the classic `IS`/`IX`/`S`/`X` mode lattice:
//!
//! * readers take `IS` on the table then `S` on the record,
//! * writers take `IX` on the table then `X` on the record,
//! * scanners take `S` on the whole table, which conflicts with any
//!   writer's `IX` and therefore prevents phantoms.
//!
//! Synchronisation points ([`Granule::Sync`]) are a third kind of granule,
//! named by the caller and only ever locked `X`; they never conflict with a
//! table or a record.
//!
//! Lock waits are tracked in a wait-for graph; when adding a wait would
//! close a cycle the requesting transaction is chosen as the victim and the
//! request fails with [`RmError::Deadlock`]. Locks are held until
//! [`LockManager::release_all`] (strict 2PL: the resource manager releases
//! only at commit/abort).
//!
//! A granule is named by borrowed strings and filed under one key string,
//! built per call in a buffer the manager reuses. The first lock of a
//! granule allocates its key and its state; later locks of it allocate
//! nothing, because a granule's state outlives its last holder. What
//! outlives it is bounded twice over. A granule only one transaction has
//! held stays filed among the last [`COLD`] such, so a stream of distinct
//! records never piles up; one a second transaction locks stays until more
//! than [`RETAINED`] granules are filed, when a release sweeps out every
//! one that nobody holds or awaits. A release wakes the blocked lockers
//! only when there are some.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::error::RmError;
use crate::txn::TxnId;

/// Lock modes in increasing strength for a single granule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum LockMode {
    /// Intention shared: the holder reads individual records below.
    IntentionShared,
    /// Intention exclusive: the holder writes individual records below.
    IntentionExclusive,
    /// Shared: the holder reads the whole granule.
    Shared,
    /// Exclusive: the holder writes the whole granule.
    Exclusive,
}

impl LockMode {
    /// Standard hierarchical-locking compatibility matrix.
    pub(crate) fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, other),
            (IntentionShared, IntentionShared)
                | (IntentionShared, IntentionExclusive)
                | (IntentionExclusive, IntentionShared)
                | (IntentionExclusive, IntentionExclusive)
                | (IntentionShared, Shared)
                | (Shared, IntentionShared)
                | (Shared, Shared)
        )
    }

    /// True if holding `self` is at least as strong as holding `want`
    /// (i.e. no new lock is needed).
    pub(crate) fn covers(self, want: LockMode) -> bool {
        use LockMode::*;
        match (self, want) {
            (x, y) if x == y => true,
            (Exclusive, _) => true,
            (Shared, IntentionShared) => true,
            (IntentionExclusive, IntentionShared) => true,
            _ => false,
        }
    }

    /// The weakest mode covering both `self` and `want` (lock upgrade).
    pub(crate) fn combine(self, want: LockMode) -> LockMode {
        use LockMode::*;
        if self.covers(want) {
            return self;
        }
        if want.covers(self) {
            return want;
        }
        match (self, want) {
            // S + IX = SIX in textbooks; we conservatively use X, which is
            // correct (strictly stronger) and keeps the mode set small.
            (Shared, IntentionExclusive) | (IntentionExclusive, Shared) => Exclusive,
            (Shared, Exclusive) | (Exclusive, Shared) => Exclusive,
            (IntentionShared, IntentionExclusive) | (IntentionExclusive, IntentionShared) => {
                IntentionExclusive
            }
            (IntentionShared, Shared) | (Shared, IntentionShared) => Shared,
            (IntentionShared, Exclusive)
            | (Exclusive, IntentionShared)
            | (IntentionExclusive, Exclusive)
            | (Exclusive, IntentionExclusive) => Exclusive,
            _ => Exclusive,
        }
    }
}

/// A lockable granule, named by borrowed strings.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Granule<'a> {
    /// The table itself (used for scans and intention locks).
    Table(&'a str),
    /// A single record: its table and its key.
    Record(&'a str, &'a str),
    /// A synchronisation point (see
    /// [`crate::ResourceManager::lock_exclusive_many`]).
    Sync(&'a str),
}

impl Granule<'_> {
    /// Writes into `buf` the one string the granule is filed under: a tag
    /// for its kind, then its name; a record's table is length-prefixed,
    /// so no two granules share a key.
    fn key_into(self, buf: &mut String) {
        buf.clear();
        match self {
            Granule::Table(table) => {
                buf.push('T');
                buf.push_str(table);
            }
            Granule::Sync(name) => {
                buf.push('S');
                buf.push_str(name);
            }
            Granule::Record(table, key) => {
                write!(buf, "R{}:", table.len()).expect("writing to a String cannot fail");
                buf.push_str(table);
                buf.push_str(key);
            }
        }
    }
}

/// Filed granules past which a release sweeps out the idle ones.
pub(crate) const RETAINED: usize = 256;

/// Idle granules kept that only one transaction has held, the oldest
/// unfiled first.
pub(crate) const COLD: usize = 16;

/// Spare reverse-index lists kept for later transactions.
const SPARE_LISTS: usize = 64;

#[derive(Debug)]
struct GranuleState {
    /// The key it is filed under, shared with its holders' reverse index.
    key: Arc<str>,
    holders: Vec<(TxnId, LockMode)>,
    /// Lockers blocked on it: a granule awaited is not idle.
    waiters: u32,
    /// Transactions that have held it since it was filed, counted to 2.
    holds: u8,
}

impl GranuleState {
    fn idle(&self) -> bool {
        self.holders.is_empty() && self.waiters == 0
    }

    /// Idle, and held by one transaction only since it was filed.
    fn cold(&self) -> bool {
        self.idle() && self.holds < 2
    }
}

/// The state of `granule`, filed under its key on first sight.
fn state_of<'m>(
    locks: &'m mut HashMap<Arc<str>, GranuleState>,
    buf: &mut String,
    granule: Granule<'_>,
) -> &'m mut GranuleState {
    granule.key_into(buf);
    if !locks.contains_key(buf.as_str()) {
        let key: Arc<str> = Arc::from(buf.as_str());
        let state = GranuleState {
            key: Arc::clone(&key),
            holders: Vec::with_capacity(1),
            waiters: 0,
            holds: 0,
        };
        locks.insert(key, state);
    }
    locks.get_mut(buf.as_str()).expect("filed above")
}

/// Depth-first search for a path from `from` back to `target` in the
/// wait-for graph; a hit means granting the wait would close a cycle.
fn reaches(wait_for: &HashMap<TxnId, HashSet<TxnId>>, from: TxnId, target: TxnId) -> bool {
    let mut stack = vec![from];
    let mut seen = HashSet::new();
    while let Some(t) = stack.pop() {
        if t == target {
            return true;
        }
        if !seen.insert(t) {
            continue;
        }
        if let Some(next) = wait_for.get(&t) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

struct LmInner {
    locks: HashMap<Arc<str>, GranuleState>,
    /// Edges `waiter -> holders it waits for`.
    wait_for: HashMap<TxnId, HashSet<TxnId>>,
    /// Reverse index: the keys of the granules a transaction holds (for
    /// release_all).
    held: HashMap<TxnId, Vec<Arc<str>>>,
    /// Emptied reverse-index lists, reused by later transactions.
    spare: Vec<Vec<Arc<str>>>,
    /// Keys of granules that were cold when released, oldest first.
    cold: VecDeque<Arc<str>>,
    /// Lockers blocked on the condition variable.
    waiting: usize,
    /// `locks.len()` past which a release sweeps out idle granules.
    sweep_above: usize,
    /// Where each call builds its granule's key.
    key_buf: String,
}

/// The lock manager. One instance is shared by all transactions of a
/// [`crate::ResourceManager`].
pub(crate) struct LockManager {
    inner: Mutex<LmInner>,
    cv: Condvar,
}

impl LockManager {
    /// Creates an empty lock manager.
    pub(crate) fn new() -> Self {
        Self {
            inner: Mutex::new(LmInner {
                locks: HashMap::new(),
                wait_for: HashMap::new(),
                held: HashMap::new(),
                spare: Vec::new(),
                cold: VecDeque::new(),
                waiting: 0,
                sweep_above: RETAINED,
                key_buf: String::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Acquires (or upgrades to) `mode` on `granule` for `txn`, blocking
    /// until compatible. Returns [`RmError::Deadlock`] if waiting would
    /// close a wait-for cycle; the caller must then abort `txn`.
    pub(crate) fn lock(
        &self,
        txn: TxnId,
        granule: Granule<'_>,
        mode: LockMode,
    ) -> Result<(), RmError> {
        let mut guard = self.inner.lock();
        loop {
            let inner = &mut *guard;
            let state = state_of(&mut inner.locks, &mut inner.key_buf, granule);
            let holding = state.holders.iter().position(|(t, _)| *t == txn);
            let effective = match holding.map(|at| state.holders[at].1) {
                Some(held) if held.covers(mode) => return Ok(()),
                Some(held) => held.combine(mode),
                None => mode,
            };
            let conflicting: Vec<TxnId> = (state.holders.iter())
                .filter(|(holder, held)| *holder != txn && !held.compatible(effective))
                .map(|(holder, _)| *holder)
                .collect();
            if conflicting.is_empty() {
                match holding {
                    Some(at) => state.holders[at].1 = effective,
                    None => {
                        state.holders.push((txn, effective));
                        state.holds = state.holds.saturating_add(1).min(2);
                        let key = Arc::clone(&state.key);
                        let spare = &mut inner.spare;
                        (inner.held.entry(txn))
                            .or_insert_with(|| spare.pop().unwrap_or_default())
                            .push(key);
                    }
                }
                inner.wait_for.remove(&txn);
                return Ok(());
            }
            // Would waiting on any conflicting holder close a cycle back to us?
            if (conflicting.iter()).any(|holder| reaches(&inner.wait_for, *holder, txn)) {
                inner.wait_for.remove(&txn);
                return Err(RmError::Deadlock { txn });
            }
            inner.wait_for.entry(txn).or_default().extend(conflicting);
            state_of(&mut inner.locks, &mut inner.key_buf, granule).waiters += 1;
            inner.waiting += 1;
            self.cv.wait(&mut guard);
            // Re-derive the wait edges on the next pass; stale edges are
            // cleared here so the graph only reflects current blockers.
            let inner = &mut *guard;
            inner.waiting -= 1;
            inner.wait_for.remove(&txn);
            state_of(&mut inner.locks, &mut inner.key_buf, granule).waiters -= 1;
        }
    }

    /// Releases every lock held by `txn`, and wakes the blocked lockers if
    /// there are any.
    pub(crate) fn release_all(&self, txn: TxnId) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if let Some(mut keys) = inner.held.remove(&txn) {
            for key in keys.drain(..) {
                let Some(state) = inner.locks.get_mut(&key) else {
                    continue;
                };
                state.holders.retain(|(t, _)| *t != txn);
                if state.cold() {
                    inner.cold.push_back(key);
                }
            }
            if inner.spare.len() < SPARE_LISTS {
                inner.spare.push(keys);
            }
        }
        // A granule another transaction has locked since is warm, and one
        // swept out or locked again may be listed twice: only a granule
        // still cold leaves.
        while inner.cold.len() > COLD {
            let key = inner.cold.pop_front().expect("longer than COLD");
            if inner.locks.get(&key).is_some_and(GranuleState::cold) {
                inner.locks.remove(&key);
            }
        }
        inner.wait_for.remove(&txn);
        if inner.locks.len() > inner.sweep_above {
            inner.locks.retain(|_, state| !state.idle());
            inner.sweep_above = RETAINED.max(2 * inner.locks.len());
        }
        if inner.waiting > 0 {
            self.cv.notify_all();
        }
    }

    /// Number of granules currently locked (diagnostics/tests).
    pub(crate) fn locked_granules(&self) -> usize {
        (self.inner.lock().locks.values())
            .filter(|s| !s.holders.is_empty())
            .count()
    }

    /// Number of granules filed, held or not.
    #[cfg(test)]
    fn filed_granules(&self) -> usize {
        self.inner.lock().locks.len()
    }

    /// True if `txn` currently holds `mode`-covering access on `granule`.
    #[cfg(test)]
    fn holds(&self, txn: TxnId, granule: Granule<'_>, mode: LockMode) -> bool {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        granule.key_into(&mut inner.key_buf);
        (inner.locks.get(inner.key_buf.as_str()))
            .and_then(|state| state.holders.iter().find(|(t, _)| *t == txn))
            .is_some_and(|(_, held)| held.covers(mode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    struct Counting;

    thread_local! {
        /// Allocations (fresh or grown) made by this thread.
        static ALLOCS: Cell<usize> = const { Cell::new(0) };
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // so each block meets `System`'s requirements exactly when its caller
    // meets `GlobalAlloc`'s; the count is a thread-local `Cell` with a
    // const initialiser, which never allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            // SAFETY: forwarded unchanged (see the impl).
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: forwarded unchanged (see the impl).
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            // SAFETY: forwarded unchanged (see the impl).
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    fn rec(k: &str) -> Granule<'_> {
        Granule::Record("t", k)
    }

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        assert!(IntentionShared.compatible(IntentionExclusive));
        assert!(IntentionExclusive.compatible(IntentionExclusive));
        assert!(Shared.compatible(Shared));
        assert!(Shared.compatible(IntentionShared));
        assert!(!Shared.compatible(IntentionExclusive));
        assert!(!Exclusive.compatible(IntentionShared));
        assert!(!Exclusive.compatible(Exclusive));
        assert!(!IntentionExclusive.compatible(Shared));
    }

    #[test]
    fn covers_and_combine() {
        use LockMode::*;
        assert!(Exclusive.covers(Shared));
        assert!(Shared.covers(IntentionShared));
        assert!(!Shared.covers(Exclusive));
        assert_eq!(Shared.combine(Exclusive), Exclusive);
        assert_eq!(
            IntentionShared.combine(IntentionExclusive),
            IntentionExclusive
        );
        assert_eq!(Shared.combine(IntentionExclusive), Exclusive);
        assert_eq!(IntentionShared.combine(Shared), Shared);
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        lm.lock(TxnId(1), rec("a"), LockMode::Shared).unwrap();
        lm.lock(TxnId(2), rec("a"), LockMode::Shared).unwrap();
        assert!(lm.holds(TxnId(1), rec("a"), LockMode::Shared));
        assert!(lm.holds(TxnId(2), rec("a"), LockMode::Shared));
    }

    #[test]
    fn exclusive_blocks_until_release() {
        let lm = Arc::new(LockManager::new());
        lm.lock(TxnId(1), rec("a"), LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || {
            lm2.lock(TxnId(2), rec("a"), LockMode::Exclusive).unwrap();
            lm2.release_all(TxnId(2));
        });
        thread::sleep(Duration::from_millis(30));
        assert!(!h.is_finished(), "txn 2 should be blocked");
        lm.release_all(TxnId(1));
        h.join().unwrap();
    }

    #[test]
    fn deadlock_is_detected_and_victim_chosen() {
        let lm = Arc::new(LockManager::new());
        lm.lock(TxnId(1), rec("a"), LockMode::Exclusive).unwrap();
        lm.lock(TxnId(2), rec("b"), LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || {
            // txn 2 waits for a (held by 1).
            let r = lm2.lock(TxnId(2), rec("a"), LockMode::Exclusive);
            if r.is_ok() {
                lm2.release_all(TxnId(2));
            }
            r
        });
        thread::sleep(Duration::from_millis(30));
        // txn 1 asks for b (held by 2): cycle 1->2->1, someone must die.
        let r1 = lm.lock(TxnId(1), rec("b"), LockMode::Exclusive);
        // Victim or not, txn 1 releases everything so txn 2 can finish.
        lm.release_all(TxnId(1));
        let r2 = h.join().unwrap();
        assert!(
            r1.is_err() || r2.is_err(),
            "at least one transaction must be a deadlock victim"
        );
    }

    #[test]
    fn lock_upgrade_shared_to_exclusive_when_sole_holder() {
        let lm = LockManager::new();
        lm.lock(TxnId(1), rec("a"), LockMode::Shared).unwrap();
        lm.lock(TxnId(1), rec("a"), LockMode::Exclusive).unwrap();
        assert!(lm.holds(TxnId(1), rec("a"), LockMode::Exclusive));
    }

    #[test]
    fn upgrade_deadlock_between_two_readers_is_detected() {
        let lm = Arc::new(LockManager::new());
        lm.lock(TxnId(1), rec("a"), LockMode::Shared).unwrap();
        lm.lock(TxnId(2), rec("a"), LockMode::Shared).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || {
            let r = lm2.lock(TxnId(2), rec("a"), LockMode::Exclusive);
            lm2.release_all(TxnId(2));
            r
        });
        thread::sleep(Duration::from_millis(30));
        let r1 = lm.lock(TxnId(1), rec("a"), LockMode::Exclusive);
        lm.release_all(TxnId(1));
        let r2 = h.join().unwrap();
        assert!(r1.is_err() || r2.is_err());
        // Whichever survived must have obtained the lock; both ended released.
        assert_eq!(lm.locked_granules(), 0);
    }

    #[test]
    fn table_scan_lock_blocks_record_writer() {
        let lm = Arc::new(LockManager::new());
        let table = Granule::Table("t");
        lm.lock(TxnId(1), table, LockMode::Shared).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || {
            lm2.lock(TxnId(2), Granule::Table("t"), LockMode::IntentionExclusive)
                .unwrap();
            lm2.release_all(TxnId(2));
        });
        thread::sleep(Duration::from_millis(30));
        assert!(!h.is_finished(), "IX must wait for table S");
        lm.release_all(TxnId(1));
        h.join().unwrap();
    }

    #[test]
    fn release_all_cleans_state() {
        let lm = LockManager::new();
        lm.lock(TxnId(1), rec("a"), LockMode::Exclusive).unwrap();
        lm.lock(TxnId(1), Granule::Table("t"), LockMode::IntentionExclusive)
            .unwrap();
        assert_eq!(lm.locked_granules(), 2);
        lm.release_all(TxnId(1));
        assert_eq!(lm.locked_granules(), 0);
    }

    #[test]
    fn relocking_held_mode_is_idempotent() {
        let lm = LockManager::new();
        for _ in 0..3 {
            lm.lock(TxnId(1), rec("a"), LockMode::Shared).unwrap();
        }
        assert_eq!(lm.locked_granules(), 1);
        lm.release_all(TxnId(1));
        assert_eq!(lm.locked_granules(), 0);
    }

    /// One transaction's locks as a promise grant takes them: its sync
    /// point, then a read of one row.
    fn grant_like(lm: &LockManager, txn: TxnId) {
        lm.lock(txn, Granule::Sync("widgets"), LockMode::Exclusive)
            .unwrap();
        lm.lock(txn, Granule::Table("qty_pools"), LockMode::IntentionShared)
            .unwrap();
        lm.lock(
            txn,
            Granule::Record("qty_pools", "widgets"),
            LockMode::Shared,
        )
        .unwrap();
        lm.release_all(txn);
    }

    #[test]
    fn relocking_a_filed_granule_allocates_nothing() {
        let lm = LockManager::new();
        grant_like(&lm, TxnId(1));
        let before = ALLOCS.with(Cell::get);
        for txn in 2..100 {
            grant_like(&lm, TxnId(txn));
        }
        let made = ALLOCS.with(Cell::get) - before;
        assert_eq!(made, 0, "98 warm transactions allocated {made} times");
        assert_eq!(lm.locked_granules(), 0);
    }

    /// Locks and releases 100 000 distinct records, each in `touches`
    /// transactions of its own; what stays filed.
    fn filed_after_distinct_records(touches: u64) -> usize {
        let lm = LockManager::new();
        let mut txn = 0;
        for i in 0..100_000u64 {
            let key = format!("order-{i}");
            for _ in 0..touches {
                txn += 1;
                lm.lock(
                    TxnId(txn),
                    Granule::Table("orders"),
                    LockMode::IntentionExclusive,
                )
                .unwrap();
                lm.lock(
                    TxnId(txn),
                    Granule::Record("orders", &key),
                    LockMode::Exclusive,
                )
                .unwrap();
                lm.release_all(TxnId(txn));
            }
        }
        assert_eq!(lm.locked_granules(), 0);
        lm.filed_granules()
    }

    #[test]
    fn distinct_records_do_not_pile_up() {
        // Touched once, a record leaves among the cold; touched twice, it
        // stays until the next sweep.
        let once = filed_after_distinct_records(1);
        assert!(
            once <= COLD + 1,
            "{once} granules filed, records touched once"
        );
        let twice = filed_after_distinct_records(2);
        assert!(
            twice <= RETAINED,
            "{twice} granules filed, records touched twice"
        );
    }

    #[test]
    fn sync_points_tables_and_records_never_share_a_key() {
        let lm = LockManager::new();
        lm.lock(TxnId(1), Granule::Sync("t"), LockMode::Exclusive)
            .unwrap();
        lm.lock(TxnId(2), Granule::Table("t"), LockMode::Exclusive)
            .unwrap();
        lm.lock(TxnId(3), Granule::Record("t", ""), LockMode::Exclusive)
            .unwrap();
        lm.lock(TxnId(4), Granule::Record("", "t"), LockMode::Exclusive)
            .unwrap();
        assert_eq!(lm.locked_granules(), 4);
    }
}
