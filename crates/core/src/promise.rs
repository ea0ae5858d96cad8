//! The promise table: the manager's record of every live promise.
//!
//! "The promise manager keeps a record of all non-expired promises and
//! their predicates in a 'promise table'. Promises are placed in this
//! table when they are granted and removed when they are released" (§8).

use std::borrow::Borrow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use crate::ids::{ClientId, InstanceId, PoolId, PromiseId, RequestId};
use crate::predicate::Predicate;

/// One instance tentatively allocated to one predicate slot of a promise
/// (allocated-tag and tentative-allocation strategies, §5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Index into [`PromiseRecord::predicates`].
    pub pred_idx: usize,
    /// The allocated instance.
    pub instance: InstanceId,
}

/// One granted, unreleased promise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromiseRecord {
    /// Manager-assigned identifier (§6 "promise identifier").
    pub id: PromiseId,
    /// The requesting client.
    pub client: ClientId,
    /// Correlates with the original request (§6 "promise correlation").
    pub request: RequestId,
    /// The predicates this promise maintains (granted atomically, §4).
    pub predicates: Vec<Predicate>,
    /// Grant time (manager clock, ms).
    pub granted_at: u64,
    /// Expiry time (manager clock, ms). The manager may grant a shorter
    /// duration than requested (§6).
    pub expires_at: u64,
    /// Instances tentatively allocated to this promise's predicate slots
    /// (tag strategies only; empty under pure satisfiability checking).
    pub allocations: Vec<Allocation>,
}

impl PromiseRecord {
    /// True if the promise is live (not expired) at `now`.
    pub fn is_live(&self, now: u64) -> bool {
        now < self.expires_at
    }

    /// Instances allocated to this promise in `pool`.
    pub fn allocated_in(&self, pool: &PoolId) -> Vec<&InstanceId> {
        self.allocations
            .iter()
            .filter(|a| self.predicates.get(a.pred_idx).map(Predicate::pool) == Some(pool))
            .map(|a| &a.instance)
            .collect()
    }

    /// All pools constrained by this promise, deduplicated.
    pub fn pools(&self) -> Vec<&PoolId> {
        let mut out: Vec<&PoolId> = self.predicates.iter().map(Predicate::pool).collect();
        out.sort();
        out.dedup();
        out
    }
}

/// Total `QtyAtLeast` quantity `predicates` demand from `pool`.
pub(crate) fn qty_demand_on(predicates: &[Predicate], pool: &PoolId) -> u64 {
    predicates
        .iter()
        .filter_map(|pred| match pred {
            Predicate::QtyAtLeast { pool: p, amount } if p == pool => Some(*amount),
            _ => None,
        })
        .sum()
}

/// In-memory index of live promises. Thread-safety is provided by the
/// manager (this structure is always accessed under its state mutex).
///
/// Besides the primary id map, the table maintains three derived indexes
/// so no manager operation scans the whole table:
///
/// * `by_pool` — which promises constrain each pool, so a check over one
///   pool reads (or snapshots) only the intersecting promises;
/// * `qty_agg` — the summed `QtyAtLeast` demand per pool over **every**
///   record still in the table (including expired-but-unpruned ones, which
///   over-counts conservatively until the next prune), making the quantity
///   check O(1) instead of a table scan;
/// * `expiry` — the ids bucketed by `expires_at`, ascending, so the
///   promises expired at `now` are a range read of O(k + log n) and "has
///   anything expired?" is a first-key probe.
///
/// All three key off fields that are immutable once granted (predicates,
/// `expires_at`); only `allocations`, which no index depends on, is ever
/// rewritten in place.
///
/// Each record is held once, behind an `Arc`: a snapshot hands out shared
/// references, never copies, and a record is copied only to rewrite its
/// allocations while a snapshot still shares it (copy-on-write). A
/// snapshot taken before a rewrite keeps reading what it took.
#[derive(Debug, Default)]
pub struct PromiseTable {
    live: HashMap<PromiseId, Arc<PromiseRecord>>,
    by_pool: HashMap<PoolId, HashSet<PromiseId>>,
    qty_agg: HashMap<PoolId, u64>,
    /// One bucket of ids per distinct `expires_at` (promises granted in the
    /// same millisecond for the same duration share one). Removing an id
    /// scans its bucket only.
    expiry: BTreeMap<u64, Vec<PromiseId>>,
    next: u64,
}

impl PromiseTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table with room for `records` without regrowing.
    pub fn with_capacity(records: usize) -> Self {
        Self {
            live: HashMap::with_capacity(records),
            ..Self::default()
        }
    }

    /// Allocates the next promise id.
    pub fn next_id(&mut self) -> PromiseId {
        self.next += 1;
        PromiseId(self.next)
    }

    /// Raises the id counter so future [`PromiseTable::next_id`] calls
    /// return ids strictly greater than `floor` — used by journal recovery
    /// so a rebuilt table never re-issues an id that appears in the log.
    pub fn bump_next_to(&mut self, floor: u64) {
        self.next = self.next.max(floor);
    }

    /// The id high-water mark: the last id handed out by
    /// [`PromiseTable::next_id`] (or the floor set by
    /// [`PromiseTable::bump_next_to`]). Checkpoints persist this so
    /// compaction never lets a recovered table re-issue a compacted-away
    /// promise's id.
    pub fn id_high_water(&self) -> u64 {
        self.next
    }

    /// Inserts a granted promise, replacing any record with the same id.
    pub fn insert(&mut self, rec: Arc<PromiseRecord>) {
        // Unindex the displaced record *before* indexing the new one: the
        // two share an id, so the other order would strip the new record's
        // id from `by_pool` and `expiry`.
        if let Some(old) = self.live.remove(&rec.id) {
            self.unindex(&old);
        }
        self.index(&rec);
        self.live.insert(rec.id, rec);
        self.debug_assert_consistent();
    }

    /// Removes (releases) a promise, returning its record.
    pub fn remove(&mut self, id: PromiseId) -> Option<Arc<PromiseRecord>> {
        let rec = self.live.remove(&id)?;
        self.unindex(&rec);
        self.debug_assert_consistent();
        Some(rec)
    }

    /// Looks up a live-or-expired promise still in the table; clone the
    /// `Arc` to keep it past the borrow.
    pub fn get(&self, id: PromiseId) -> Option<&Arc<PromiseRecord>> {
        self.live.get(&id)
    }

    /// Rewrites a promise's allocations in place, copying the record
    /// first only if a snapshot still shares it; false if it is not in
    /// the table.
    pub fn set_allocations(&mut self, id: PromiseId, allocations: Vec<Allocation>) -> bool {
        match self.live.get_mut(&id) {
            Some(rec) => {
                Arc::make_mut(rec).allocations = allocations;
                true
            }
            None => false,
        }
    }

    /// Ids of every promise expired at `now`, earliest expiry first —
    /// a range read of the expiry index, O(expired + log n).
    pub fn expired_ids(&self, now: u64) -> Vec<PromiseId> {
        self.expiry
            .range(..=now)
            .flat_map(|(_, ids)| ids)
            .copied()
            .collect()
    }

    /// Removes and returns every promise expired at `now`.
    pub fn take_expired(&mut self, now: u64) -> Vec<Arc<PromiseRecord>> {
        self.expired_ids(now)
            .into_iter()
            .filter_map(|id| self.remove(id))
            .collect()
    }

    /// The promises live at `now` that constrain `pool`, excluding ids in
    /// `except` — read through the pool index, borrowed in place.
    fn live_in_pool<'a>(
        &'a self,
        pool: &PoolId,
        now: u64,
        except: &'a [PromiseId],
    ) -> impl Iterator<Item = &'a Arc<PromiseRecord>> {
        self.by_pool
            .get(pool)
            .into_iter()
            .flatten()
            .filter_map(|id| self.live.get(id))
            .filter(move |p| p.is_live(now) && !except.contains(&p.id))
    }

    /// Sum of quantities demanded from `pool` by promises live at `now`,
    /// excluding ids in `except` (§8's anonymous-resource check input).
    /// Reads only the records that constrain `pool`, without cloning them.
    pub fn qty_demand(&self, pool: &PoolId, now: u64, except: &[PromiseId]) -> u64 {
        self.live_in_pool(pool, now, except)
            .map(|p| qty_demand_on(&p.predicates, pool))
            .sum()
    }

    /// The lowest-id promise live at `now` that constrains `pool`,
    /// excluding `except` — the promise a failed post-check of `pool`
    /// names as violated.
    pub fn first_live_in_pool(
        &self,
        pool: &PoolId,
        now: u64,
        except: &[PromiseId],
    ) -> Option<PromiseId> {
        self.live_in_pool(pool, now, except).map(|p| p.id).min()
    }

    /// Number of promises currently in the table (live or awaiting prune).
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Every promise in the table, live or expired, in no particular
    /// order.
    pub fn records(&self) -> impl Iterator<Item = &PromiseRecord> {
        self.live.values().map(Arc::as_ref)
    }

    /// Snapshot of promises live at `now` whose footprint intersects any
    /// of `pools`, excluding `except`, for checking outside the state
    /// lock: the records shared, not copied. Cost is proportional to the
    /// number of intersecting promises, not the table size.
    pub fn snapshot_pools<P: Borrow<PoolId>>(
        &self,
        now: u64,
        pools: &[P],
        except: &[PromiseId],
    ) -> Vec<Arc<PromiseRecord>> {
        let mut ids: Vec<PromiseId> = pools
            .iter()
            .filter_map(|pool| self.by_pool.get(pool.borrow()))
            .flatten()
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.iter()
            .filter_map(|id| self.live.get(id))
            .filter(|p| p.is_live(now) && !except.contains(&p.id))
            .cloned()
            .collect()
    }

    /// Cached total `QtyAtLeast` demand against `pool` over every record
    /// still in the table. Includes expired-but-unpruned promises, so it
    /// never under-counts relative to [`PromiseTable::qty_demand`]; the
    /// manager prunes expired promises before consulting it.
    pub fn promised_qty(&self, pool: &PoolId) -> u64 {
        self.qty_agg.get(pool).copied().unwrap_or(0)
    }

    /// True if no record in the table has expired by `now` — exactly the
    /// condition under which [`PromiseTable::promised_qty`] equals the
    /// live demand of [`PromiseTable::qty_demand`] for every pool.
    pub fn none_expired(&self, now: u64) -> bool {
        self.expiry
            .keys()
            .next()
            .is_none_or(|&earliest| earliest > now)
    }

    /// The cached per-pool quantity aggregates, sorted by pool — exposed
    /// so recovery equivalence can be asserted index-by-index, not just on
    /// the primary records.
    pub fn qty_aggregates(&self) -> Vec<(PoolId, u64)> {
        let mut out: Vec<(PoolId, u64)> =
            self.qty_agg.iter().map(|(p, q)| (p.clone(), *q)).collect();
        out.sort();
        out
    }

    /// The expiry histogram (`expires_at` → record count), ascending.
    pub fn expiry_histogram(&self) -> Vec<(u64, u32)> {
        self.expiry
            .iter()
            .map(|(at, ids)| (*at, ids.len() as u32))
            .collect()
    }

    /// Adds `rec` to every index. A pool is cloned only when it enters an
    /// index for the first time.
    fn index(&mut self, rec: &PromiseRecord) {
        self.expiry.entry(rec.expires_at).or_default().push(rec.id);
        for pred in &rec.predicates {
            let pool = pred.pool();
            match self.by_pool.get_mut(pool) {
                Some(ids) => {
                    ids.insert(rec.id);
                }
                None => {
                    self.by_pool.insert(pool.clone(), HashSet::from([rec.id]));
                }
            }
            if let Predicate::QtyAtLeast { amount, .. } = pred {
                if *amount > 0 {
                    match self.qty_agg.get_mut(pool) {
                        Some(total) => *total += amount,
                        None => {
                            self.qty_agg.insert(pool.clone(), *amount);
                        }
                    }
                }
            }
        }
    }

    fn unindex(&mut self, rec: &PromiseRecord) {
        if let Entry::Occupied(mut bucket) = self.expiry.entry(rec.expires_at) {
            let ids = bucket.get_mut();
            if let Some(at) = ids.iter().position(|id| *id == rec.id) {
                ids.swap_remove(at);
            }
            if ids.is_empty() {
                bucket.remove();
            }
        }
        for pred in &rec.predicates {
            let pool = pred.pool();
            if let Some(set) = self.by_pool.get_mut(pool) {
                set.remove(&rec.id);
                if set.is_empty() {
                    self.by_pool.remove(pool);
                }
            }
            if let Predicate::QtyAtLeast { pool, amount } = pred {
                if *amount > 0 {
                    if let Some(total) = self.qty_agg.get_mut(pool) {
                        *total -= amount;
                        if *total == 0 {
                            self.qty_agg.remove(pool);
                        }
                    }
                }
            }
        }
    }

    /// Debug-only drift guard: recomputes every derived index from
    /// scratch and asserts it matches the maintained one. Compiled out in
    /// release builds. Runs on every mutation of a table of up to 511
    /// records; a larger one is checked at one length in every
    /// `len / 256`, which keeps the guard near 256 record visits a
    /// mutation instead of making debug runs quadratic in table size.
    fn debug_assert_consistent(&self) {
        #[cfg(debug_assertions)]
        {
            let stride = (self.live.len() / 256).max(1);
            if !self.live.len().is_multiple_of(stride) {
                return;
            }
            let mut by_pool: HashMap<&PoolId, HashSet<PromiseId>> = HashMap::new();
            let mut qty_agg: HashMap<&PoolId, u64> = HashMap::new();
            let mut expiry: BTreeMap<u64, Vec<PromiseId>> = BTreeMap::new();
            for rec in self.live.values() {
                expiry.entry(rec.expires_at).or_default().push(rec.id);
                for pred in &rec.predicates {
                    by_pool.entry(pred.pool()).or_default().insert(rec.id);
                    if let Predicate::QtyAtLeast { pool, amount } = pred {
                        *qty_agg.entry(pool).or_default() += amount;
                    }
                }
            }
            qty_agg.retain(|_, v| *v != 0);
            debug_assert!(
                self.by_pool.len() == by_pool.len()
                    && self
                        .by_pool
                        .iter()
                        .all(|(p, ids)| by_pool.get(p) == Some(ids)),
                "pool index {:?} drifted from records {by_pool:?}",
                self.by_pool
            );
            debug_assert!(
                self.qty_agg.len() == qty_agg.len()
                    && self.qty_agg.iter().all(|(p, q)| qty_agg.get(p) == Some(q)),
                "quantity aggregate {:?} drifted from records {qty_agg:?}",
                self.qty_agg
            );
            // Bucket order is history-dependent; compare as sorted sets.
            let mut kept = self.expiry.clone();
            for ids in kept.values_mut().chain(expiry.values_mut()) {
                ids.sort_unstable();
            }
            debug_assert_eq!(kept, expiry, "expiry index drifted from records");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::PropExpr;

    fn rec(table: &mut PromiseTable, pool: &str, amount: u64, expires_at: u64) -> PromiseId {
        let id = table.next_id();
        table.insert(Arc::new(PromiseRecord {
            id,
            client: ClientId::from("c"),
            request: RequestId::from("r"),
            predicates: vec![Predicate::qty_at_least(pool, amount)],
            granted_at: 0,
            expires_at,
            allocations: Vec::new(),
        }));
        id
    }

    #[test]
    fn ids_are_monotonic() {
        let mut t = PromiseTable::new();
        let a = t.next_id();
        let b = t.next_id();
        assert!(b > a);
    }

    #[test]
    fn qty_demand_sums_live_only() {
        let mut t = PromiseTable::new();
        let p1 = rec(&mut t, "w", 5, 100);
        let _p2 = rec(&mut t, "w", 3, 100);
        let _expired = rec(&mut t, "w", 100, 10);
        let _other_pool = rec(&mut t, "x", 7, 100);
        assert_eq!(t.qty_demand(&PoolId::from("w"), 50, &[]), 8);
        assert_eq!(t.qty_demand(&PoolId::from("w"), 50, &[p1]), 3);
        assert_eq!(
            t.qty_demand(&PoolId::from("w"), 5, &[]),
            108,
            "not yet expired at t=5"
        );
    }

    #[test]
    fn take_expired_removes_only_expired() {
        let mut t = PromiseTable::new();
        let live = rec(&mut t, "w", 1, 100);
        let dead = rec(&mut t, "w", 1, 10);
        let expired = t.take_expired(50);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].id, dead);
        assert!(t.get(live).is_some());
        assert!(t.get(dead).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn snapshot_excludes_requested_ids() {
        let mut t = PromiseTable::new();
        let a = rec(&mut t, "w", 1, 100);
        let _b = rec(&mut t, "w", 1, 100);
        let snap = t.snapshot_pools(0, &[PoolId::from("w")], &[a]);
        assert_eq!(snap.len(), 1);
        assert_ne!(snap[0].id, a);
    }

    #[test]
    fn pools_dedup() {
        let mut t = PromiseTable::new();
        let id = t.next_id();
        t.insert(Arc::new(PromiseRecord {
            id,
            client: ClientId::from("c"),
            request: RequestId::from("r"),
            predicates: vec![
                Predicate::qty_at_least("w", 1),
                Predicate::property("w", PropExpr::True, 1),
                Predicate::qty_at_least("x", 1),
            ],
            granted_at: 0,
            expires_at: 10,
            allocations: Vec::new(),
        }));
        let pools = t.get(id).unwrap().pools();
        assert_eq!(pools.len(), 2);
    }

    #[test]
    fn snapshot_pools_returns_only_intersecting_promises() {
        let mut t = PromiseTable::new();
        let w1 = rec(&mut t, "w", 1, 100);
        let w2 = rec(&mut t, "w", 2, 100);
        let x = rec(&mut t, "x", 3, 100);
        let _y = rec(&mut t, "y", 4, 100);
        let _expired_w = rec(&mut t, "w", 9, 10);

        let snap = t.snapshot_pools(50, &[PoolId::from("w")], &[]);
        let mut ids: Vec<PromiseId> = snap.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![w1, w2], "only live w-promises");

        let snap = t.snapshot_pools(50, &[PoolId::from("w"), PoolId::from("x")], &[w1]);
        let mut ids: Vec<PromiseId> = snap.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![w2, x], "union of pools minus excluded");

        assert!(t.snapshot_pools(50, &[PoolId::from("zzz")], &[]).is_empty());
    }

    #[test]
    fn snapshot_pools_dedups_multi_pool_promises() {
        let mut t = PromiseTable::new();
        let id = t.next_id();
        t.insert(Arc::new(PromiseRecord {
            id,
            client: ClientId::from("c"),
            request: RequestId::from("r"),
            predicates: vec![
                Predicate::qty_at_least("w", 1),
                Predicate::qty_at_least("x", 1),
            ],
            granted_at: 0,
            expires_at: 100,
            allocations: Vec::new(),
        }));
        let snap = t.snapshot_pools(0, &[PoolId::from("w"), PoolId::from("x")], &[]);
        assert_eq!(snap.len(), 1, "promise spanning both pools appears once");
    }

    #[test]
    fn promised_qty_tracks_insert_remove_and_expiry() {
        let mut t = PromiseTable::new();
        let w = PoolId::from("w");
        assert_eq!(t.promised_qty(&w), 0);
        let a = rec(&mut t, "w", 5, 100);
        let _b = rec(&mut t, "w", 3, 100);
        let dead = rec(&mut t, "w", 7, 10);
        assert_eq!(
            t.promised_qty(&w),
            15,
            "aggregate counts unpruned expired too"
        );
        t.take_expired(50);
        assert_eq!(t.promised_qty(&w), 8);
        assert!(t.remove(dead).is_none());
        t.remove(a);
        assert_eq!(t.promised_qty(&w), 3);
        assert_eq!(t.promised_qty(&PoolId::from("x")), 0);
    }

    #[test]
    fn promised_qty_matches_full_qty_demand_after_prune() {
        let mut t = PromiseTable::new();
        for i in 0..20u64 {
            rec(&mut t, if i % 2 == 0 { "w" } else { "x" }, i + 1, 100 + i);
        }
        t.take_expired(110);
        for pool in [PoolId::from("w"), PoolId::from("x")] {
            assert_eq!(
                t.promised_qty(&pool),
                t.qty_demand(&pool, 110, &[]),
                "aggregate equals recomputed live demand once pruned"
            );
        }
    }

    #[test]
    fn none_expired_tracks_earliest_expiry() {
        let mut t = PromiseTable::new();
        assert!(t.none_expired(u64::MAX), "empty table has nothing expired");
        let early = rec(&mut t, "w", 1, 10);
        let _late = rec(&mut t, "w", 1, 100);
        assert!(t.none_expired(9));
        assert!(
            !t.none_expired(10),
            "boundary: expired exactly at expires_at"
        );
        t.remove(early);
        assert!(
            t.none_expired(50),
            "removing the earliest re-raises the bound"
        );
        t.take_expired(100);
        assert!(t.none_expired(u64::MAX));
    }

    /// Regression: `insert` over an existing id used to index the new
    /// record and then unindex the old one, which — the two sharing an id —
    /// stripped the id from `by_pool` (and tripped the drift guard in
    /// debug builds).
    #[test]
    fn reinserting_a_record_keeps_every_index() {
        let mut t = PromiseTable::new();
        let w = PoolId::from("w");
        let id = rec(&mut t, "w", 5, 100);
        let same = PromiseRecord::clone(t.get(id).unwrap());
        t.insert(Arc::new(same));
        assert_eq!(t.len(), 1);
        let snap = t.snapshot_pools(0, std::slice::from_ref(&w), &[]);
        assert_eq!(snap.iter().map(|p| p.id).collect::<Vec<_>>(), vec![id]);
        assert_eq!(t.promised_qty(&w), 5);
        assert_eq!(t.expiry_histogram(), vec![(100, 1)]);
        assert_eq!(t.expired_ids(100), vec![id]);

        // Replacing it with a different pool and expiry moves every entry.
        let mut moved = PromiseRecord::clone(t.get(id).unwrap());
        moved.predicates = vec![Predicate::qty_at_least("x", 2)];
        moved.expires_at = 50;
        t.insert(Arc::new(moved));
        assert!(t
            .snapshot_pools(0, std::slice::from_ref(&w), &[])
            .is_empty());
        assert_eq!(t.promised_qty(&w), 0);
        assert_eq!(t.promised_qty(&PoolId::from("x")), 2);
        assert_eq!(t.expiry_histogram(), vec![(50, 1)]);
    }

    #[test]
    fn expired_ids_come_off_the_index_in_expiry_order() {
        let mut t = PromiseTable::new();
        let late = rec(&mut t, "w", 1, 30);
        let early = rec(&mut t, "x", 1, 10);
        let _live = rec(&mut t, "w", 1, 100);
        assert!(t.expired_ids(9).is_empty());
        assert_eq!(
            t.expired_ids(10),
            vec![early],
            "expired exactly at expires_at"
        );
        assert_eq!(t.expired_ids(99), vec![early, late]);
        t.remove(early);
        assert_eq!(t.expired_ids(99), vec![late]);
    }

    #[test]
    fn first_live_in_pool_is_the_lowest_eligible_id() {
        let mut t = PromiseTable::new();
        let w = PoolId::from("w");
        let dead = rec(&mut t, "w", 1, 10);
        let a = rec(&mut t, "w", 1, 100);
        let b = rec(&mut t, "w", 1, 100);
        let _other = rec(&mut t, "x", 1, 100);
        assert_eq!(t.first_live_in_pool(&w, 5, &[]), Some(dead));
        assert_eq!(t.first_live_in_pool(&w, 50, &[]), Some(a));
        assert_eq!(t.first_live_in_pool(&w, 50, &[a]), Some(b));
        assert_eq!(t.first_live_in_pool(&PoolId::from("zzz"), 50, &[]), None);
    }

    /// Copy-on-write: a snapshot shares the table's record, and
    /// `set_allocations` while the snapshot lives copies the record
    /// instead of changing what the snapshot reads.
    #[test]
    fn a_snapshot_keeps_the_allocations_it_took() {
        let mut t = PromiseTable::new();
        let w = PoolId::from("w");
        let id = rec(&mut t, "w", 1, 100);
        let snap = t.snapshot_pools(0, std::slice::from_ref(&w), &[]);
        assert!(
            Arc::ptr_eq(&snap[0], t.get(id).unwrap()),
            "shared, not copied"
        );

        let moved = vec![Allocation {
            pred_idx: 0,
            instance: InstanceId::from("i1"),
        }];
        assert!(t.set_allocations(id, moved.clone()));
        assert!(
            snap[0].allocations.is_empty(),
            "the snapshot still reads the old allocations"
        );
        assert_eq!(t.get(id).unwrap().allocations, moved);
        assert!(!Arc::ptr_eq(&snap[0], t.get(id).unwrap()));
    }

    #[test]
    fn expiry_boundary_is_exclusive() {
        let mut t = PromiseTable::new();
        let id = rec(&mut t, "w", 1, 100);
        assert!(t.get(id).unwrap().is_live(99));
        assert!(
            !t.get(id).unwrap().is_live(100),
            "expires exactly at expires_at"
        );
    }
}
