//! Transactions and the [`ResourceManager`] facade.
//!
//! Every data operation names an explicit transaction. Locks are acquired
//! as a side effect of access (strict 2PL) and held until commit or abort;
//! aborts replay the undo log. Statement-level failures (missing key,
//! duplicate key) leave the transaction active — the caller decides whether
//! to continue or abort — while a [`RmError::Deadlock`] means the
//! transaction has been victimised and *must* be aborted by the caller.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use promises_telemetry::{current_trace, FaultTag, Histogram, SpanKind, SpanOutcome, Telemetry};

use crate::error::RmError;
use crate::lock::{Granule, LockManager, LockMode};
use crate::log::UndoLog;
use crate::store::Store;
use crate::value::Record;

/// Row images by `(table, key)`: a row's whole record, or `None` where
/// the row is gone. What [`ResourceManager::write_set`] reads.
pub type RowImages = BTreeMap<(String, String), Option<Record>>;

/// Opaque transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// Handle to an active transaction. Consumed by commit/abort.
#[derive(Debug)]
pub struct Txn {
    id: TxnId,
    started: Instant,
}

impl Txn {
    /// The transaction's identifier.
    pub fn id(&self) -> TxnId {
        self.id
    }
}

/// Monotonic counters exposed for experiments.
#[derive(Debug, Default)]
struct Counters {
    commits: AtomicU64,
    aborts: AtomicU64,
    deadlocks: AtomicU64,
}

/// Snapshot of the manager's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RmStatsSnapshot {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions (including deadlock victims).
    pub aborts: u64,
    /// Aborts caused by deadlock victimisation.
    pub deadlocks: u64,
}

/// Telemetry registry plus the two histogram handles the commit/abort
/// paths record into, resolved once at attach time so the per-transaction
/// cost is a single relaxed atomic record with no registry lookup.
struct RmTel {
    tel: Arc<Telemetry>,
    txn_hist: Arc<Histogram>,
    undo_hist: Arc<Histogram>,
}

impl RmTel {
    fn attach(tel: Arc<Telemetry>) -> Arc<Self> {
        Arc::new(Self {
            txn_hist: tel.histogram("rm.txn"),
            undo_hist: tel.histogram("rm.undo"),
            tel,
        })
    }
}

impl std::ops::Deref for RmTel {
    type Target = Telemetry;

    fn deref(&self) -> &Telemetry {
        &self.tel
    }
}

/// A storage-fault hook: called with `(op, table)` before every store
/// access; returning `Some(err)` injects that error instead of performing
/// the access. Rollback replay calls it with op `"undo"` so injectors can
/// (and by default do) keep rollback writes fault-free.
pub type StorageFaultHook = Arc<dyn Fn(&str, &str) -> Option<RmError> + Send + Sync>;

/// The embedded ACID resource manager (paper §8's "RM").
pub struct ResourceManager {
    store: Mutex<Store>,
    locks: LockManager,
    undo: Mutex<HashMap<TxnId, UndoLog>>,
    next_txn: AtomicU64,
    counters: Counters,
    fault_hook: RwLock<Option<StorageFaultHook>>,
    telemetry: RwLock<Option<Arc<RmTel>>>,
}

impl Default for ResourceManager {
    fn default() -> Self {
        Self::new()
    }
}

impl ResourceManager {
    /// Creates an empty resource manager with no tables.
    pub fn new() -> Self {
        Self {
            store: Mutex::new(Store::default()),
            locks: LockManager::new(),
            undo: Mutex::new(HashMap::new()),
            next_txn: AtomicU64::new(1),
            counters: Counters::default(),
            fault_hook: RwLock::new(None),
            telemetry: RwLock::new(None),
        }
    }

    /// Installs (or clears, with `None`) the storage-fault hook used for
    /// deterministic fault injection. See [`StorageFaultHook`].
    pub fn set_storage_fault_hook(&self, hook: Option<StorageFaultHook>) {
        *self.fault_hook.write() = hook;
    }

    /// Attaches (or detaches, with `None`) a telemetry registry. When
    /// attached, every commit/abort records an `rm.txn`/`rm.undo` span and
    /// latency histogram sample, and injected storage faults are tagged.
    pub fn set_telemetry(&self, tel: Option<Arc<Telemetry>>) {
        *self.telemetry.write() = tel.map(RmTel::attach);
    }

    /// Consults the fault hook for one store access; `Err` means the access
    /// must be abandoned with the injected error.
    fn faultable(&self, op: &str, table: &str) -> Result<(), RmError> {
        let guard = self.fault_hook.read();
        if let Some(hook) = guard.as_ref() {
            if let Some(err) = hook(op, table) {
                drop(guard);
                if let Some(tel) = self.telemetry.read().as_deref() {
                    let tag = if op == "undo" {
                        FaultTag::Undo
                    } else {
                        FaultTag::Storage
                    };
                    tel.incr(&format!("rm.fault.{op}"));
                    tel.span(SpanKind::RmTxn)
                        .outcome(SpanOutcome::Error)
                        .fault(tag)
                        .note(format!("storage fault: {op} on {table}"))
                        .finish();
                }
                return Err(err);
            }
        }
        Ok(())
    }

    /// Creates a table. DDL is not transactional (as in most engines,
    /// tables are created during system setup, not inside promise ops).
    pub fn create_table(&self, name: &str) {
        // Ignore "already exists": setup code is allowed to be idempotent.
        let _ = self.store.lock().create_table(name);
    }

    /// Starts a new transaction.
    pub fn begin(&self) -> Txn {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed));
        self.undo.lock().insert(id, UndoLog::new());
        Txn {
            id,
            started: Instant::now(),
        }
    }

    /// Commits: discards the undo log and releases all locks.
    pub fn commit(&self, txn: Txn) -> Result<(), RmError> {
        if self.undo.lock().remove(&txn.id).is_none() {
            return Err(RmError::TxnNotActive(txn.id));
        }
        self.locks.release_all(txn.id);
        self.counters.commits.fetch_add(1, Ordering::Relaxed);
        if let Some(tel) = self.telemetry.read().as_deref() {
            let dur = txn.started.elapsed();
            tel.txn_hist.record_duration(dur);
            // A clean commit outside any ambient trace would root a
            // one-span trace nobody can join; the histogram sample above
            // is the whole signal, so only traced commits get a span.
            if current_trace().is_some() {
                tel.span_since(SpanKind::RmTxn, txn.started)
                    .finish_with(dur);
            }
        }
        Ok(())
    }

    /// Aborts: replays the undo log newest-first, then releases all locks.
    ///
    /// Normally infallible, but if an undo write itself fails (an injected
    /// `"undo"`-point storage fault, or a genuinely missing table) the
    /// rollback stops and [`RmError::RollbackIncomplete`] reports every
    /// `(table, key)` whose before-image was *not* restored, failing entry
    /// first. Locks are released either way so the system does not wedge,
    /// but callers must surface the error: those records may be dirty.
    pub fn abort(&self, txn: Txn) -> Result<(), RmError> {
        let result = self.abort_id(txn.id);
        if let Some(tel) = self.telemetry.read().as_deref() {
            let dur = txn.started.elapsed();
            tel.undo_hist.record_duration(dur);
            let draft = tel.span_since(SpanKind::RmUndo, txn.started);
            match &result {
                Ok(()) => draft.finish_with(dur),
                Err(e) => draft
                    .outcome(SpanOutcome::Error)
                    .fault(FaultTag::Undo)
                    .note(e.to_string())
                    .finish_with(dur),
            }
        }
        result
    }

    /// Aborts by id (used internally by retry helpers).
    fn abort_id(&self, id: TxnId) -> Result<(), RmError> {
        let log = self.undo.lock().remove(&id);
        let mut failure: Option<RmError> = None;
        if let Some(log) = log.filter(|l| !l.is_empty()) {
            let mut store = self.store.lock();
            let entries = log.entries_reversed();
            for (idx, &(table, key, before)) in entries.iter().enumerate() {
                let undo_write = self.faultable("undo", table).and_then(|()| {
                    match before {
                        Some(rec) => store.put(table, key, rec.clone()).map(|_| ()),
                        // An absent before-image means the record was created
                        // by this transaction; it may already be gone if a
                        // statement failed before the write landed.
                        None => match store.delete(table, key) {
                            Ok(_) | Err(RmError::NoSuchKey { .. }) => Ok(()),
                            Err(e) => Err(e),
                        },
                    }
                });
                if undo_write.is_err() {
                    failure = Some(RmError::RollbackIncomplete {
                        txn: id,
                        remaining: entries[idx..]
                            .iter()
                            .map(|&(table, key, _)| (table.to_owned(), key.to_owned()))
                            .collect(),
                    });
                    break;
                }
            }
        }
        self.locks.release_all(id);
        self.counters.aborts.fetch_add(1, Ordering::Relaxed);
        match failure {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Reads a record (`IS` on the table, `S` on the record).
    pub fn get(&self, txn: &Txn, table: &str, key: &str) -> Result<Option<Record>, RmError> {
        self.get_with(txn, table, key, |rec| rec.cloned())
    }

    /// [`ResourceManager::get`] without the copy: the same locks and
    /// `"get"` fault point, the record (if any) lent to `f`. `f` runs under
    /// the store latch and must not call back into the resource manager.
    pub fn get_with<R>(
        &self,
        txn: &Txn,
        table: &str,
        key: &str,
        f: impl FnOnce(Option<&Record>) -> R,
    ) -> Result<R, RmError> {
        self.ensure_active(txn)?;
        self.lock(txn, Granule::Table(table), LockMode::IntentionShared)?;
        self.lock(txn, Granule::Record(table, key), LockMode::Shared)?;
        self.faultable("get", table)?;
        self.store.lock().get_with(table, key, f)
    }

    /// Writes a record unconditionally (`IX` table, `X` record); creates it
    /// if absent. Returns the previous record, if any.
    pub fn put(
        &self,
        txn: &Txn,
        table: &str,
        key: &str,
        rec: Record,
    ) -> Result<Option<Record>, RmError> {
        self.write_locks(txn, table, key)?;
        self.faultable("put", table)?;
        let mut store = self.store.lock();
        let before = store.get(table, key)?;
        self.record_undo(txn, table, key, before.clone())?;
        store.put(table, key, rec)
    }

    /// Inserts a record; fails with [`RmError::DuplicateKey`] if present.
    pub fn insert(&self, txn: &Txn, table: &str, key: &str, rec: Record) -> Result<(), RmError> {
        self.write_locks(txn, table, key)?;
        self.faultable("insert", table)?;
        let mut store = self.store.lock();
        let before = store.get(table, key)?;
        if before.is_some() {
            return Err(RmError::DuplicateKey {
                table: table.to_owned(),
                key: key.to_owned(),
            });
        }
        self.record_undo(txn, table, key, None)?;
        store.insert(table, key, rec)
    }

    /// Deletes a record; fails with [`RmError::NoSuchKey`] if absent.
    pub fn delete(&self, txn: &Txn, table: &str, key: &str) -> Result<(), RmError> {
        self.write_locks(txn, table, key)?;
        self.faultable("delete", table)?;
        let mut store = self.store.lock();
        let before = store.get(table, key)?;
        if before.is_none() {
            return Err(RmError::NoSuchKey {
                table: table.to_owned(),
                key: key.to_owned(),
            });
        }
        self.record_undo(txn, table, key, before)?;
        store.delete(table, key).map(|_| ())
    }

    /// Read-modify-write of one record under an `X` lock.
    pub fn update(
        &self,
        txn: &Txn,
        table: &str,
        key: &str,
        f: impl FnOnce(&mut Record),
    ) -> Result<(), RmError> {
        self.write_locks(txn, table, key)?;
        self.faultable("update", table)?;
        let mut store = self.store.lock();
        let rec = store
            .get_mut(table, key)?
            .ok_or_else(|| RmError::NoSuchKey {
                table: table.to_owned(),
                key: key.to_owned(),
            })?;
        self.record_undo(txn, table, key, Some(rec.clone()))?;
        f(rec);
        Ok(())
    }

    /// The `(table, key)` rows this transaction has modified so far (its
    /// write set), each with the image it will commit with: `None` for a
    /// row it deleted.
    ///
    /// The promise manager uses this to *enforce* promise scoping (paper
    /// §2: a client "should not use the promise for pink widgets to ask
    /// the order service to deliver some un-promised blue widgets ... the
    /// restrictions could be enforced to some degree by promise and
    /// resource managers"), and journals the images. They are read straight
    /// from the store, through no fault point and taking no lock: the
    /// transaction holds every such row's `X` lock, so no other writer can
    /// move them before it ends.
    pub fn write_set(&self, txn: &Txn) -> Result<RowImages, RmError> {
        // The store latch, then the undo log: the order every write takes
        // them in.
        let store = self.store.lock();
        let undo = self.undo.lock();
        let log = undo.get(&txn.id).ok_or(RmError::TxnNotActive(txn.id))?;
        log.keys()
            .map(|(table, key)| {
                let image = store.get(table, key)?;
                Ok(((table.to_owned(), key.to_owned()), image))
            })
            .collect()
    }

    /// Acquires exclusive locks on several synchronisation points, always
    /// in canonical (sorted, deduplicated) order regardless of the order
    /// the caller passes them in. A sync point is a name — the promise
    /// manager passes pool names — in a namespace of its own: it conflicts
    /// with no table or record.
    ///
    /// This is the footprint-locking primitive for the promise manager:
    /// every promise operation locks the sync points of exactly the pools
    /// it touches, and because all lockers of multiple sync points go
    /// through this single sorted path, sync points alone can never form
    /// a wait-for cycle (paper §9's no-new-deadlocks property). Cycles
    /// through ordinary data locks are still possible and remain handled
    /// by deadlock detection + victimisation. Names passed already sorted
    /// and distinct are locked as they stand, with no copy.
    pub fn lock_exclusive_many<S: AsRef<str>>(
        &self,
        txn: &Txn,
        names: &[S],
    ) -> Result<(), RmError> {
        self.ensure_active(txn)?;
        let lock = |name: &str| self.lock(txn, Granule::Sync(name), LockMode::Exclusive);
        if (names.windows(2)).all(|w| w[0].as_ref() < w[1].as_ref()) {
            return names.iter().try_for_each(|name| lock(name.as_ref()));
        }
        let mut sorted: Vec<&str> = names.iter().map(AsRef::as_ref).collect();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.into_iter().try_for_each(lock)
    }

    /// Scans a whole table under a table-level `S` lock (phantom-safe),
    /// copying every record out.
    pub fn scan(&self, txn: &Txn, table: &str) -> Result<Vec<(String, Record)>, RmError> {
        let mut rows = Vec::new();
        self.scan_with(txn, table, |key, rec| {
            rows.push((key.to_owned(), rec.clone()));
        })?;
        Ok(rows)
    }

    /// [`ResourceManager::scan`] without the copies: the same table-level
    /// `S` lock and `"scan"` fault point, every record lent to `f` in key
    /// order. `f` runs under the store latch and must not call back into
    /// the resource manager.
    pub fn scan_with(
        &self,
        txn: &Txn,
        table: &str,
        f: impl FnMut(&str, &Record),
    ) -> Result<(), RmError> {
        self.ensure_active(txn)?;
        self.lock(txn, Granule::Table(table), LockMode::Shared)?;
        self.faultable("scan", table)?;
        self.store.lock().scan_with(table, f)
    }

    /// Runs `f` in a transaction, committing on `Ok` and aborting on `Err`;
    /// retryable failures (deadlock victims, transient storage faults) are
    /// retried up to `max_retries` times. A failed *rollback* is never
    /// retried: [`RmError::RollbackIncomplete`] is returned immediately,
    /// taking precedence over the error that triggered the abort, because
    /// it means the store may be inconsistent.
    pub fn transact<R>(
        &self,
        max_retries: usize,
        mut f: impl FnMut(&Txn) -> Result<R, RmError>,
    ) -> Result<R, RmError> {
        let mut attempt = 0;
        loop {
            let txn = self.begin();
            match f(&txn) {
                Ok(v) => match self.commit(txn) {
                    Ok(()) => return Ok(v),
                    Err(e) => return Err(e),
                },
                Err(e) if e.retryable() && attempt < max_retries => {
                    self.abort(txn)?;
                    attempt += 1;
                    // Bounded exponential backoff breaks retry lockstep
                    // between symmetric victims (caps at ~3ms).
                    let exp = (attempt as u32).min(5);
                    std::thread::sleep(std::time::Duration::from_micros(100u64 << exp));
                }
                Err(e) => {
                    self.abort(txn)?;
                    return Err(e);
                }
            }
        }
    }

    /// Counter snapshot (commits / aborts / deadlocks so far).
    pub fn stats(&self) -> RmStatsSnapshot {
        RmStatsSnapshot {
            commits: self.counters.commits.load(Ordering::Relaxed),
            aborts: self.counters.aborts.load(Ordering::Relaxed),
            deadlocks: self.counters.deadlocks.load(Ordering::Relaxed),
        }
    }

    /// Number of currently locked granules (diagnostics).
    pub fn locked_granules(&self) -> usize {
        self.locks.locked_granules()
    }

    fn ensure_active(&self, txn: &Txn) -> Result<(), RmError> {
        if self.undo.lock().contains_key(&txn.id) {
            Ok(())
        } else {
            Err(RmError::TxnNotActive(txn.id))
        }
    }

    fn write_locks(&self, txn: &Txn, table: &str, key: &str) -> Result<(), RmError> {
        self.ensure_active(txn)?;
        self.lock(txn, Granule::Table(table), LockMode::IntentionExclusive)?;
        self.lock(txn, Granule::Record(table, key), LockMode::Exclusive)
    }

    fn lock(&self, txn: &Txn, granule: Granule<'_>, mode: LockMode) -> Result<(), RmError> {
        match self.locks.lock(txn.id, granule, mode) {
            Err(e @ RmError::Deadlock { .. }) => {
                self.counters.deadlocks.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
            other => other,
        }
    }

    fn record_undo(
        &self,
        txn: &Txn,
        table: &str,
        key: &str,
        before: Option<Record>,
    ) -> Result<(), RmError> {
        let mut undo = self.undo.lock();
        let log = undo.get_mut(&txn.id).ok_or(RmError::TxnNotActive(txn.id))?;
        log.record(table, key, before);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn rm_with_table() -> ResourceManager {
        let rm = ResourceManager::new();
        rm.create_table("t");
        rm
    }

    #[test]
    fn commit_makes_writes_visible() {
        let rm = rm_with_table();
        let tx = rm.begin();
        rm.insert(&tx, "t", "k", Record::new().with("v", 1i64))
            .unwrap();
        rm.commit(tx).unwrap();
        let tx = rm.begin();
        assert_eq!(rm.get(&tx, "t", "k").unwrap().unwrap().int("v"), Some(1));
        rm.commit(tx).unwrap();
    }

    #[test]
    fn abort_undoes_insert_update_delete() {
        let rm = rm_with_table();
        let tx = rm.begin();
        rm.insert(&tx, "t", "stay", Record::new().with("v", 1i64))
            .unwrap();
        rm.commit(tx).unwrap();

        let tx = rm.begin();
        rm.insert(&tx, "t", "new", Record::new()).unwrap();
        rm.update(&tx, "t", "stay", |r| r.set("v", 99i64)).unwrap();
        rm.delete(&tx, "t", "stay").unwrap();
        rm.abort(tx).unwrap();

        let tx = rm.begin();
        assert!(rm.get(&tx, "t", "new").unwrap().is_none(), "insert undone");
        assert_eq!(
            rm.get(&tx, "t", "stay").unwrap().unwrap().int("v"),
            Some(1),
            "update+delete undone back to original"
        );
        rm.commit(tx).unwrap();
    }

    #[test]
    fn locks_released_after_commit_and_abort() {
        let rm = rm_with_table();
        let tx = rm.begin();
        rm.insert(&tx, "t", "k", Record::new()).unwrap();
        assert!(rm.locked_granules() > 0);
        rm.commit(tx).unwrap();
        assert_eq!(rm.locked_granules(), 0);

        let tx = rm.begin();
        rm.put(&tx, "t", "k", Record::new().with("x", 1i64))
            .unwrap();
        rm.abort(tx).unwrap();
        assert_eq!(rm.locked_granules(), 0);
    }

    #[test]
    fn using_finished_txn_fails() {
        let rm = rm_with_table();
        let tx = rm.begin();
        let id = tx.id();
        rm.commit(tx).unwrap();
        let fake = Txn {
            id,
            started: Instant::now(),
        };
        assert_eq!(rm.get(&fake, "t", "k"), Err(RmError::TxnNotActive(id)));
    }

    #[test]
    fn writers_block_readers_until_commit() {
        let rm = Arc::new(rm_with_table());
        let tx = rm.begin();
        rm.insert(&tx, "t", "k", Record::new().with("v", 1i64))
            .unwrap();
        rm.commit(tx).unwrap();

        let tx = rm.begin();
        rm.update(&tx, "t", "k", |r| r.set("v", 2i64)).unwrap();

        let rm2 = Arc::clone(&rm);
        let h = thread::spawn(move || {
            let tr = rm2.begin();
            let v = rm2.get(&tr, "t", "k").unwrap().unwrap().int("v");
            rm2.commit(tr).unwrap();
            v
        });
        thread::sleep(std::time::Duration::from_millis(30));
        assert!(!h.is_finished(), "reader must block on writer's X lock");
        rm.commit(tx).unwrap();
        assert_eq!(h.join().unwrap(), Some(2), "reader sees committed value");
    }

    #[test]
    fn transact_retries_deadlocks_and_commits() {
        let rm = Arc::new(rm_with_table());
        let tx = rm.begin();
        rm.insert(&tx, "t", "a", Record::new().with("v", 0i64))
            .unwrap();
        rm.insert(&tx, "t", "b", Record::new().with("v", 0i64))
            .unwrap();
        rm.commit(tx).unwrap();

        // Two transactions updating a,b in opposite orders: without retry
        // one would fail; with transact both eventually succeed.
        let mut handles = Vec::new();
        for order in [["a", "b"], ["b", "a"]] {
            let rm = Arc::clone(&rm);
            handles.push(thread::spawn(move || {
                rm.transact(50, |tx| {
                    rm.update(tx, "t", order[0], |r| {
                        let v = r.int("v").unwrap();
                        r.set("v", v + 1);
                    })?;
                    thread::sleep(std::time::Duration::from_millis(5));
                    rm.update(tx, "t", order[1], |r| {
                        let v = r.int("v").unwrap();
                        r.set("v", v + 1);
                    })
                })
            }));
        }
        for h in handles {
            h.join().unwrap().unwrap();
        }
        let tx = rm.begin();
        assert_eq!(rm.get(&tx, "t", "a").unwrap().unwrap().int("v"), Some(2));
        assert_eq!(rm.get(&tx, "t", "b").unwrap().unwrap().int("v"), Some(2));
        rm.commit(tx).unwrap();
    }

    #[test]
    fn scan_sees_consistent_snapshot_under_table_lock() {
        let rm = rm_with_table();
        let tx = rm.begin();
        for i in 0..5 {
            rm.insert(
                &tx,
                "t",
                &format!("k{i}"),
                Record::new().with("v", i as i64),
            )
            .unwrap();
        }
        rm.commit(tx).unwrap();
        let tx = rm.begin();
        let rows = rm.scan(&tx, "t").unwrap();
        assert_eq!(rows.len(), 5);
        rm.commit(tx).unwrap();
    }

    #[test]
    fn scan_with_lends_every_record_in_key_order() {
        let rm = rm_with_table();
        let tx = rm.begin();
        for (key, v) in [("b", 2i64), ("c", 3), ("a", 1)] {
            rm.insert(&tx, "t", key, Record::new().with("v", v))
                .unwrap();
        }
        let mut lent = Vec::new();
        rm.scan_with(&tx, "t", |key, rec| {
            lent.push((key.to_owned(), rec.clone()));
        })
        .unwrap();
        assert_eq!(
            lent.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            ["a", "b", "c"]
        );
        assert_eq!(lent, rm.scan(&tx, "t").unwrap(), "what scan copies out");
        assert_eq!(
            rm.scan_with(&tx, "nope", |_, _| unreachable!()),
            Err(RmError::NoSuchTable("nope".into()))
        );
        rm.commit(tx).unwrap();
    }

    #[test]
    fn an_injected_scan_fault_surfaces_from_scan_with() {
        let rm = rm_with_table();
        let fault = RmError::StorageFault {
            op: "scan".into(),
            table: "t".into(),
        };
        let injected = fault.clone();
        rm.set_storage_fault_hook(Some(Arc::new(move |op, table| {
            (op == "scan" && table == "t").then(|| injected.clone())
        })));
        let tx = rm.begin();
        assert_eq!(
            rm.scan_with(&tx, "t", |_, _| unreachable!("nothing is lent")),
            Err(fault.clone())
        );
        assert_eq!(rm.scan(&tx, "t"), Err(fault));
        rm.set_storage_fault_hook(None);
        rm.scan_with(&tx, "t", |_, _| {}).unwrap();
        rm.commit(tx).unwrap();
    }

    #[test]
    fn duplicate_insert_leaves_txn_usable() {
        let rm = rm_with_table();
        let tx = rm.begin();
        rm.insert(&tx, "t", "k", Record::new()).unwrap();
        assert!(matches!(
            rm.insert(&tx, "t", "k", Record::new()),
            Err(RmError::DuplicateKey { .. })
        ));
        // The transaction is still usable after a statement failure.
        rm.insert(&tx, "t", "k2", Record::new()).unwrap();
        rm.commit(tx).unwrap();
    }

    #[test]
    fn stats_count_commits_and_aborts() {
        let rm = rm_with_table();
        let tx = rm.begin();
        rm.commit(tx).unwrap();
        let tx = rm.begin();
        rm.abort(tx).unwrap();
        let s = rm.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.aborts, 1);
    }

    #[test]
    fn lock_exclusive_many_is_order_insensitive_and_deadlock_free() {
        let rm = Arc::new(rm_with_table());
        // Opposite declaration orders on the same sync points: the sorted
        // acquisition path must never produce a deadlock victim.
        let mut handles = Vec::new();
        for names in [["p/a", "p/b", "p/c"], ["p/c", "p/b", "p/a"]] {
            let rm = Arc::clone(&rm);
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    rm.transact(0, |tx| {
                        rm.lock_exclusive_many(tx, &names)?;
                        thread::yield_now();
                        Ok(())
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            rm.stats().deadlocks,
            0,
            "sorted sync locking must not deadlock"
        );
    }

    #[test]
    fn lock_exclusive_many_matches_single_sync_points() {
        let rm = Arc::new(rm_with_table());
        // A multi-lock on {a, b} must conflict with a single lock on b.
        let tx = rm.begin();
        rm.lock_exclusive_many(&tx, &["a", "b", "b"]).unwrap();

        let rm2 = Arc::clone(&rm);
        let h = thread::spawn(move || {
            let t = rm2.begin();
            rm2.lock_exclusive_many(&t, &["b"]).unwrap();
            rm2.commit(t).unwrap();
        });
        thread::sleep(std::time::Duration::from_millis(30));
        assert!(
            !h.is_finished(),
            "single sync point must block on multi-lock"
        );
        rm.commit(tx).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn concurrent_increments_are_serialised() {
        let rm = Arc::new(rm_with_table());
        let tx = rm.begin();
        rm.insert(&tx, "t", "ctr", Record::new().with("v", 0i64))
            .unwrap();
        rm.commit(tx).unwrap();

        let threads = 8;
        let per = 25;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let rm = Arc::clone(&rm);
            handles.push(thread::spawn(move || {
                for _ in 0..per {
                    rm.transact(100, |tx| {
                        rm.update(tx, "t", "ctr", |r| {
                            let v = r.int("v").unwrap();
                            r.set("v", v + 1);
                        })
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let tx = rm.begin();
        assert_eq!(
            rm.get(&tx, "t", "ctr").unwrap().unwrap().int("v"),
            Some((threads * per) as i64)
        );
        rm.commit(tx).unwrap();
    }
}
