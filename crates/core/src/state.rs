//! Everything the manager knows about its promises, as one value behind
//! one lock.
//!
//! The promise table is the paper's (§8); around it sit the marks a
//! promise carries while it is live — its `(client, request)` key, its
//! prepared (in-doubt) mark, its observation pin — plus what outlives it
//! (the tombstone of an expired promise), and the last image of each row
//! an action or a lease move wrote.
//! The marks are private to this module and [`PromiseState::take`] is the
//! only way a record leaves the table, so a mark cannot outlive its
//! record.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use promises_rm::RowImages;

use crate::deadline_map::DeadlineMap;
use crate::error::PromiseError;
use crate::ids::{request_key, ClientId, PoolId, PromiseId, RequestId};
use crate::promise::{Allocation, PromiseRecord, PromiseTable};

/// A `(client, request)` pair as the request index hashes and compares
/// it, so that a lookup borrows the two strings instead of packing a key.
trait RequestPair {
    fn pair(&self) -> (&str, &str);
}

impl RequestPair for (&str, &str) {
    fn pair(&self) -> (&str, &str) {
        *self
    }
}

impl Hash for dyn RequestPair + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.pair().hash(state);
    }
}

impl PartialEq for dyn RequestPair + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.pair() == other.pair()
    }
}

impl Eq for dyn RequestPair + '_ {}

/// A request-index key as stored: [`request_key`]'s one allocation.
#[derive(Debug)]
struct IndexKey(Box<str>);

impl RequestPair for IndexKey {
    fn pair(&self) -> (&str, &str) {
        let (len, rest) = self.0.split_once(':').expect("request_key writes a length");
        rest.split_at(len.parse().expect("request_key writes a length"))
    }
}

impl<'a> Borrow<dyn RequestPair + 'a> for IndexKey {
    fn borrow(&self) -> &(dyn RequestPair + 'a) {
        self
    }
}

impl Hash for IndexKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.pair().hash(state);
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for IndexKey {}

/// The promise table and every per-promise mark (see the module doc).
#[derive(Debug, Default)]
pub(crate) struct PromiseState {
    table: PromiseTable,
    /// [`request_key`]`(client, request)` → the promise granted for it, so
    /// a *retried* grant request (duplicate delivery, reply lost) is
    /// answered with the original promise instead of being granted — and
    /// charged — twice.
    by_request: HashMap<IndexKey, PromiseId>,
    /// Prepared holds awaiting their cross-shard coordinator's decision.
    /// Durable: journalled as `P`/`C` records, rebuilt by recovery, part
    /// of the digest.
    prepared: HashSet<PromiseId>,
    /// Promises whose allocations a client has observed and may be acting
    /// on; re-arrangement never moves them. Volatile: not journalled, not
    /// in the digest, gone after recovery.
    pinned: HashSet<PromiseId>,
    /// Promises reaped by expiry, so operations under them get the paper's
    /// distinct "promise-expired" error (§2) for a grace period — bounded
    /// by eviction in deadline order, not all of history.
    pub(crate) tombstones: DeadlineMap<PromiseId, ()>,
    /// The last image of every RM row an executed action or a lease move
    /// wrote, kept only while a journal is attached. Durable: journalled
    /// as `W` records, checkpointed, written back into the RM by recovery.
    /// Not promise state, so not part of the digest.
    pub(crate) rows: RowImages,
}

impl PromiseState {
    /// An empty state with room for `records` promises without regrowing.
    pub(crate) fn with_capacity(records: usize) -> Self {
        Self {
            table: PromiseTable::with_capacity(records),
            by_request: HashMap::with_capacity(records),
            ..Self::default()
        }
    }

    /// The promise table, read-only: records enter through
    /// [`PromiseState::insert`] and leave through [`PromiseState::take`].
    pub(crate) fn table(&self) -> &PromiseTable {
        &self.table
    }

    /// Allocates the next promise id.
    pub(crate) fn next_id(&mut self) -> PromiseId {
        self.table.next_id()
    }

    /// See [`PromiseTable::bump_next_to`].
    pub(crate) fn bump_next_to(&mut self, floor: u64) {
        self.table.bump_next_to(floor);
    }

    /// Puts a granted promise into the table under its request key, as a
    /// prepared hold if `prepared`; a record with the same id (a replayed
    /// journal may repeat one) is taken out first, marks and all.
    pub(crate) fn insert(&mut self, rec: Arc<PromiseRecord>, prepared: bool) {
        self.take(rec.id);
        if prepared {
            self.prepared.insert(rec.id);
        }
        let key = IndexKey(request_key(&rec.client.0, &rec.request.0));
        self.by_request.insert(key, rec.id);
        self.table.insert(rec);
    }

    /// Takes a promise out of the table — released, exchanged or expired —
    /// and with it its prepared mark, its pin and its request key (unless
    /// a newer grant has since reused the key).
    pub(crate) fn take(&mut self, id: PromiseId) -> Option<Arc<PromiseRecord>> {
        let rec = self.table.remove(id)?;
        self.prepared.remove(&id);
        self.pinned.remove(&id);
        let key: &dyn RequestPair = &(rec.client.0.as_str(), rec.request.0.as_str());
        if self.by_request.get(key) == Some(&id) {
            self.by_request.remove(key);
        }
        Some(rec)
    }

    /// See [`PromiseTable::set_allocations`].
    pub(crate) fn set_allocations(&mut self, id: PromiseId, allocations: Vec<Allocation>) -> bool {
        self.table.set_allocations(id, allocations)
    }

    /// A copy of a promise's record, pinning its allocations (if it has
    /// any) against later re-arrangement — atomically with the read.
    pub(crate) fn observe(&mut self, id: PromiseId) -> Option<PromiseRecord> {
        let rec = PromiseRecord::clone(self.table.get(id)?);
        if !rec.allocations.is_empty() {
            self.pinned.insert(id);
        }
        Some(rec)
    }

    /// The observation pins.
    pub(crate) fn pinned(&self) -> &HashSet<PromiseId> {
        &self.pinned
    }

    /// The prepared holds still in doubt.
    pub(crate) fn prepared(&self) -> &HashSet<PromiseId> {
        &self.prepared
    }

    /// Clears a prepared mark (the coordinator committed); false if the
    /// promise was not prepared.
    pub(crate) fn commit_prepared(&mut self, id: PromiseId) -> bool {
        self.prepared.remove(&id)
    }

    /// The promise held by `(client, request)`, if it is live at `now`.
    pub(crate) fn for_request(
        &self,
        client: &ClientId,
        request: &RequestId,
        now: u64,
    ) -> Option<&PromiseRecord> {
        self.indexed(client, request).filter(|rec| rec.is_live(now))
    }

    /// The promise in the table under `(client, request)`, live or expired
    /// and not yet reaped.
    pub(crate) fn indexed(&self, client: &ClientId, request: &RequestId) -> Option<&PromiseRecord> {
        let key: &dyn RequestPair = &(client.0.as_str(), request.0.as_str());
        let id = self.by_request.get(key)?;
        self.table.get(*id).map(Arc::as_ref)
    }

    /// The error for operating under a promise that is not in the table:
    /// expiry has its own (§2, §6) for as long as the tombstone lasts.
    pub(crate) fn absent(&self, id: PromiseId) -> PromiseError {
        if self.tombstones.contains(&id) {
            PromiseError::PromiseExpired(id)
        } else {
            PromiseError::UnknownPromise(id)
        }
    }

    /// The records of those of `ids` in the table, shared with it.
    pub(crate) fn shared(
        &self,
        ids: impl IntoIterator<Item = PromiseId>,
    ) -> Vec<Arc<PromiseRecord>> {
        let recs = ids.into_iter().filter_map(|id| self.table.get(id));
        recs.cloned().collect()
    }

    /// Every record with its prepared mark, sorted by id (table iteration
    /// order is not deterministic): what a checkpoint captures.
    pub(crate) fn records(&self) -> Vec<(bool, &PromiseRecord)> {
        let mut live: Vec<(bool, &PromiseRecord)> = self
            .table
            .records()
            .map(|record| (self.prepared.contains(&record.id), record))
            .collect();
        live.sort_by_key(|(_, record)| record.id);
        live
    }

    /// A canonical string over the durable state: every record (sorted by
    /// id, predicates in `Display` form, allocations in slot order), the
    /// per-pool promised-quantity aggregates, the expiry histogram and the
    /// prepared marks. Pins are volatile and left out.
    pub(crate) fn digest(&self) -> String {
        let live = self.records();
        let mut out = String::new();
        for (_, rec) in &live {
            out.push_str(&format!(
                "promise {} client={} request={} granted={} expires={}\n",
                rec.id, rec.client, rec.request, rec.granted_at, rec.expires_at
            ));
            for pred in &rec.predicates {
                out.push_str(&format!("  pred {pred}\n"));
            }
            for alloc in &rec.allocations {
                out.push_str(&format!("  alloc {}:{}\n", alloc.pred_idx, alloc.instance));
            }
        }
        for (pool, qty) in self.table.qty_aggregates() {
            out.push_str(&format!("qty {pool}={qty}\n"));
        }
        for (at, n) in self.table.expiry_histogram() {
            out.push_str(&format!("expiry {at}={n}\n"));
        }
        for (_, rec) in live.iter().filter(|(prepared, _)| *prepared) {
            out.push_str(&format!("prepared {}\n", rec.id));
        }
        out
    }
}

/// The pools of `asked` and of `records`, sorted and deduplicated, each
/// borrowed where it lies: an operation's footprint.
pub(crate) fn footprint<'a>(
    asked: impl IntoIterator<Item = &'a PoolId>,
    records: &'a [Arc<PromiseRecord>],
) -> Vec<&'a PoolId> {
    let held = records.iter().flat_map(|rec| &rec.predicates);
    let mut pools: Vec<&PoolId> = asked.into_iter().collect();
    pools.extend(held.map(|pred| pred.pool()));
    pools.sort_unstable();
    pools.dedup();
    pools
}
