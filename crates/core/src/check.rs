//! Promise checking: "the most critical part of the promise manager is the
//! code that guarantees the validity of non-expired promises by ensuring
//! that sufficient resources are available to satisfy every active
//! predicate" (§8).
//!
//! Three checkers are implemented, one per resource view:
//!
//! * **anonymous** (quantity pools): the sum of quantities required by all
//!   unexpired promises must not exceed the quantity on hand;
//! * **named**: at most one unexpired promise per instance, and the
//!   instance must not be taken;
//! * **property**: a perfect bipartite matching must exist between promise
//!   slots and untaken instances (the check §8 says the original prototype
//!   left unimplemented).
//!
//! The named check is folded into the matching machinery (a named slot is
//! a slot whose only acceptable instance is the named one), which makes
//! the paper's cross-view exclusion automatic: a seat promised by name is
//! never double-counted toward an anonymous/economy-class promise on the
//! same flight.
//!
//! Under the tag strategies ([`CheckStrategy::AllocatedTags`] and
//! [`CheckStrategy::TentativeAllocation`]) the checker also reads/writes
//! the `_status` field on instance records inside the caller's transaction,
//! implementing §5's "allocated tags" / "tentative allocation" techniques.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

use promises_matching::assign_slots_seeded;
use promises_rm::{Record, ResourceManager, RmError, Txn};

use crate::catalog::{status, Catalog};
use crate::error::RejectReason;
use crate::ids::{InstanceId, PoolId, PromiseId};
use crate::predicate::Predicate;
use crate::promise::{qty_demand_on, Allocation, PromiseRecord};
use crate::schema::{CheckStrategy, PoolKind};

/// Failure modes of a check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// A new request cannot be granted.
    Reject(RejectReason),
    /// An existing promise can no longer be honoured (post-action check).
    Violation {
        /// The promise that would be broken.
        promise: PromiseId,
        /// Explanation.
        detail: String,
    },
    /// Underlying storage error (deadlock victims etc.).
    Rm(RmError),
}

impl From<RmError> for CheckError {
    fn from(e: RmError) -> Self {
        CheckError::Rm(e)
    }
}

/// What one checking pass actually looked at — lets callers (and tests)
/// verify that footprint scoping really narrowed the work done.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckerStats {
    /// Pools visited by [`Checker::post_check`], in visit order.
    pub pools_visited: Vec<PoolId>,
    /// Promise records cloned out of the table for the pass: the snapshot
    /// handed to [`Checker::grant`] or [`Checker::post_check`]. A pool
    /// checked from its cached demand alone contributes none.
    pub promises_considered: usize,
}

/// A checking context bound to one transaction.
pub struct Checker<'a> {
    /// The resource manager.
    pub rm: &'a ResourceManager,
    /// The transaction every read/write goes through.
    pub txn: &'a Txn,
    /// Pool schemas.
    pub catalog: &'a Catalog,
    /// Exact total `QtyAtLeast` demand per pool (including any
    /// candidate), computed by the manager from the promise table. A pool
    /// present here is checked against this figure alone — its records
    /// need not be in the snapshot at all; a pool absent from it is
    /// re-summed over the snapshot.
    qty_demand_hint: HashMap<PoolId, u64>,
    /// Names the promise a failed post-check blames for a pool none of
    /// whose records are in the snapshot.
    victim_of: Option<VictimLookup<'a>>,
    /// Promises whose allocations a client has *observed* (via
    /// [`crate::PromiseManager::promise`]) and may be acting on: their
    /// slots are restricted to the instances they currently hold, so no
    /// re-arrangement can move an allocation out from under a client that
    /// has already read it. Unpinned promises still re-arrange freely (§5).
    pinned: HashSet<PromiseId>,
    stats: RefCell<CheckerStats>,
}

/// One slot to be matched to a distinct instance.
struct Slot {
    owner: PromiseId,
    pred_idx: usize,
    /// Instances (by position in the scanned instance list) this slot accepts.
    allowed: Vec<usize>,
    /// The instance (by the same position) this slot currently holds, if
    /// any — the matcher keeps it unless an augmenting path must move it.
    seed: Option<usize>,
}

type SlotKey = (PromiseId, usize, u32);

type VictimLookup<'a> = &'a dyn Fn(&PoolId) -> Option<PromiseId>;

impl<'a> Checker<'a> {
    /// Creates a checker.
    pub fn new(rm: &'a ResourceManager, txn: &'a Txn, catalog: &'a Catalog) -> Self {
        Self {
            rm,
            txn,
            catalog,
            qty_demand_hint: HashMap::new(),
            victim_of: None,
            pinned: HashSet::new(),
            stats: RefCell::new(CheckerStats::default()),
        }
    }

    /// Supplies exact per-pool quantity demand (see
    /// [`Checker::qty_demand_hint`]); pools absent from the map fall back
    /// to summing over the snapshot.
    pub fn with_qty_demand(mut self, demand: HashMap<PoolId, u64>) -> Self {
        self.qty_demand_hint = demand;
        self
    }

    /// Supplies the lookup a failed post-check uses to name its victim
    /// for a pool whose records were left out of the snapshot (pools
    /// covered by [`Checker::with_qty_demand`]). Called on the error path
    /// only.
    pub fn with_victim_lookup(mut self, lookup: &'a dyn Fn(&PoolId) -> Option<PromiseId>) -> Self {
        self.victim_of = Some(lookup);
        self
    }

    /// Marks promises whose allocations have been observed by a client
    /// (see [`Checker::pinned`]): their slots are held to their current
    /// instances during matching instead of being re-arranged.
    pub fn with_pinned(mut self, pinned: HashSet<PromiseId>) -> Self {
        self.pinned = pinned;
        self
    }

    /// What this checker has looked at so far.
    pub fn stats(&self) -> CheckerStats {
        self.stats.borrow().clone()
    }

    /// Grant-time check of `candidate` against the other live promises in
    /// `existing`. On success, fills `candidate.allocations` (tag
    /// strategies), possibly re-arranges existing allocations (tentative
    /// strategy), writes instance statuses, and returns the ids of
    /// existing promises whose allocations changed.
    pub fn grant(
        &self,
        existing: &mut [PromiseRecord],
        candidate: &mut PromiseRecord,
    ) -> Result<Vec<PromiseId>, CheckError> {
        let mut changed = Vec::new();
        self.stats.borrow_mut().promises_considered += existing.len();
        for pool in candidate.pools().into_iter().cloned().collect::<Vec<_>>() {
            let schema = self
                .catalog
                .get(&pool)
                .map_err(|_| CheckError::Reject(RejectReason::UnknownPool(pool.clone())))?;
            match schema.kind {
                PoolKind::Quantity => self.check_quantity(&pool, existing, Some(candidate))?,
                PoolKind::Instances => match schema.strategy {
                    CheckStrategy::Satisfiability => {
                        self.match_or_err(&pool, existing, Some(&*candidate), true)
                            .map_err(|e| self.as_reject(e, &pool, candidate))?;
                    }
                    CheckStrategy::AllocatedTags => {
                        self.grant_tags_strict(&pool, candidate)?;
                    }
                    CheckStrategy::TentativeAllocation => {
                        let assignment = self
                            .match_or_err(&pool, existing, Some(&*candidate), true)
                            .map_err(|e| self.as_reject(e, &pool, candidate))?;
                        changed.extend(self.apply_assignment(
                            &pool,
                            existing,
                            Some(&mut *candidate),
                            &assignment,
                        )?);
                    }
                },
            }
        }
        Ok(changed)
    }

    /// Post-action check of live promises (§8 "Executing Actions").
    /// Under the tentative strategy, may re-arrange allocations to absorb
    /// the action's effects; returns ids of promises whose allocations
    /// changed. Errors with [`CheckError::Violation`] if some promise can
    /// no longer be honoured.
    ///
    /// When `scope` is `Some`, only those pools are re-checked — the
    /// caller asserts the action wrote nothing outside them, so promises
    /// over other pools cannot have been invalidated (`live` should then
    /// be a snapshot of just the intersecting promises). With `None`,
    /// every pool constrained by `live` is checked (the paper's original
    /// whole-table behaviour).
    pub fn post_check(
        &self,
        live: &mut [PromiseRecord],
        scope: Option<&[PoolId]>,
    ) -> Result<Vec<PromiseId>, CheckError> {
        let mut changed = Vec::new();
        let mut pools: Vec<PoolId> = match scope {
            Some(pools) => pools.to_vec(),
            None => live
                .iter()
                .flat_map(|p| p.pools().into_iter().cloned())
                .collect(),
        };
        pools.sort();
        pools.dedup();
        self.stats.borrow_mut().promises_considered += live.len();
        for pool in pools {
            self.stats.borrow_mut().pools_visited.push(pool.clone());
            let schema = match self.catalog.get(&pool) {
                Ok(s) => s,
                Err(_) => continue,
            };
            match schema.kind {
                PoolKind::Quantity => {
                    self.check_quantity(&pool, live, None)
                        .map_err(|e| self.as_violation(e, &pool, live))?;
                }
                PoolKind::Instances => match schema.strategy {
                    CheckStrategy::Satisfiability => {
                        self.match_or_err(&pool, live, None, true)
                            .map_err(|e| self.as_violation(e, &pool, live))?;
                    }
                    CheckStrategy::AllocatedTags => {
                        self.validate_tags(&pool, live)?;
                    }
                    CheckStrategy::TentativeAllocation => {
                        let assignment = self
                            .match_or_err(&pool, live, None, true)
                            .map_err(|e| self.as_violation(e, &pool, live))?;
                        changed.extend(self.apply_assignment(&pool, live, None, &assignment)?);
                    }
                },
            }
        }
        Ok(changed)
    }

    /// Releases the tag allocations of a promise being released or
    /// expired: every instance it held that is still `promised` goes back
    /// to `available`. Instances the releasing action just `took` stay
    /// taken.
    pub fn release_tags(&self, rec: &PromiseRecord) -> Result<(), RmError> {
        for alloc in &rec.allocations {
            let Some(pred) = rec.predicates.get(alloc.pred_idx) else {
                continue;
            };
            let pool = pred.pool();
            let table = Catalog::instance_table(pool);
            // Single conditional round-trip: read, test, and write under
            // one X lock; a missing instance or non-promised status is a
            // no-op (the releasing action may have just taken it).
            self.rm
                .update_if(self.txn, &table, &alloc.instance.0, |r| {
                    if r.str(Catalog::STATUS) == Some(status::PROMISED) {
                        r.set(Catalog::STATUS, status::AVAILABLE);
                        true
                    } else {
                        false
                    }
                })?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Anonymous view
    // ------------------------------------------------------------------

    fn check_quantity(
        &self,
        pool: &PoolId,
        existing: &[PromiseRecord],
        candidate: Option<&PromiseRecord>,
    ) -> Result<(), CheckError> {
        let on_hand = self
            .catalog
            .quantity(self.rm, self.txn, pool)
            .map_err(|e| match e {
                crate::error::PromiseError::Rm(rm) => CheckError::Rm(rm),
                _ => CheckError::Reject(RejectReason::UnknownPool(pool.clone())),
            })?;
        let demand: u64 = match self.qty_demand_hint.get(pool) {
            Some(&exact) => exact,
            None => existing
                .iter()
                .chain(candidate)
                .map(|p| qty_demand_on(&p.predicates, pool))
                .sum(),
        };
        if demand <= on_hand {
            Ok(())
        } else {
            Err(CheckError::Reject(RejectReason::InsufficientQuantity {
                pool: pool.clone(),
                on_hand,
                demanded: demand,
            }))
        }
    }

    // ------------------------------------------------------------------
    // Instance pools: matching machinery
    // ------------------------------------------------------------------

    /// Scans the pool and computes a full slot assignment for every
    /// promise in `existing` (plus `candidate`), or an error naming the
    /// failure. `include_promised` controls whether `promised`-status
    /// instances count as matchable (true for strategies that re-arrange).
    fn match_or_err(
        &self,
        pool: &PoolId,
        existing: &[PromiseRecord],
        candidate: Option<&PromiseRecord>,
        include_promised: bool,
    ) -> Result<HashMap<SlotKey, InstanceId>, CheckError> {
        let instances = self.scan_pool(pool)?;
        let matchable: Vec<bool> = instances
            .iter()
            .map(|(_, rec)| match rec.str(Catalog::STATUS) {
                Some(status::AVAILABLE) => true,
                Some(status::PROMISED) => include_promised,
                _ => false,
            })
            .collect();
        let slots = self.build_slots(pool, existing, candidate, &instances, &matchable)?;

        // Hand the pre-filtered per-slot allowed lists to the matching
        // crate. Current holdings seed the matching, so an assignment only
        // moves when an augmenting path genuinely needs the instance;
        // the rest is placed most-constrained-first and re-arranged via
        // augmenting paths.
        let allowed: Vec<Vec<usize>> = slots.iter().map(|s| s.allowed.clone()).collect();
        let seeds: Vec<Option<usize>> = slots.iter().map(|s| s.seed).collect();
        let rights = matchable
            .iter()
            .enumerate()
            .filter_map(|(idx, ok)| ok.then_some(idx));
        let assigned = assign_slots_seeded(rights, &allowed, &seeds).ok_or_else(|| {
            CheckError::Reject(RejectReason::Unsatisfiable { pool: pool.clone() })
        })?;

        // Expand slots back into per-slot instance assignments.
        let mut out = HashMap::new();
        let mut slot_counter: HashMap<(PromiseId, usize), u32> = HashMap::new();
        for (i, slot) in slots.iter().enumerate() {
            let k = slot_counter.entry((slot.owner, slot.pred_idx)).or_insert(0);
            out.insert(
                (slot.owner, slot.pred_idx, *k),
                instances[assigned[i]].0.clone(),
            );
            *k += 1;
        }
        Ok(out)
    }

    fn scan_pool(&self, pool: &PoolId) -> Result<Vec<(InstanceId, Record)>, CheckError> {
        self.catalog
            .instances(self.rm, self.txn, pool)
            .map_err(|e| match e {
                crate::error::PromiseError::Rm(rm) => CheckError::Rm(rm),
                _ => CheckError::Reject(RejectReason::UnknownPool(pool.clone())),
            })
    }

    /// Expands the predicates of all promises into matchable slots.
    fn build_slots(
        &self,
        pool: &PoolId,
        existing: &[PromiseRecord],
        candidate: Option<&PromiseRecord>,
        instances: &[(InstanceId, Record)],
        matchable: &[bool],
    ) -> Result<Vec<Slot>, CheckError> {
        let schema = self
            .catalog
            .get(pool)
            .map_err(|_| CheckError::Reject(RejectReason::UnknownPool(pool.clone())))?;
        let index_of: HashMap<&InstanceId, usize> = instances
            .iter()
            .enumerate()
            .map(|(i, (id, _))| (id, i))
            .collect();
        let mut slots = Vec::new();
        for p in existing.iter().chain(candidate) {
            // Current holdings per predicate, as positions in the scanned
            // instance list: the k-th slot of a predicate is seeded with
            // the k-th allocation (allocation order is canonical — sorted
            // by instance within a predicate). Allocations that are gone
            // or no longer matchable yield unseeded slots.
            let mut held: HashMap<usize, Vec<usize>> = HashMap::new();
            for a in &p.allocations {
                if p.predicates.get(a.pred_idx).map(Predicate::pool) != Some(pool) {
                    continue;
                }
                if let Some(&i) = index_of.get(&a.instance) {
                    if matchable[i] {
                        held.entry(a.pred_idx).or_default().push(i);
                    }
                }
            }
            let pinned = self.pinned.contains(&p.id);
            // A pinned slot accepts only the instance it currently holds:
            // the client has read the allocation and may already be acting
            // on it, so the matcher must not move it. A pinned slot whose
            // held instance is gone — or no longer satisfies the predicate
            // — accepts nothing (a genuine conflict).
            let push = |slots: &mut Vec<Slot>, pred_idx: usize, k: usize, allowed: Vec<usize>| {
                let seed = held.get(&pred_idx).and_then(|v| v.get(k)).copied();
                let allowed = if pinned {
                    seed.filter(|s| allowed.contains(s))
                        .map(|s| vec![s])
                        .unwrap_or_default()
                } else {
                    allowed
                };
                slots.push(Slot {
                    owner: p.id,
                    pred_idx,
                    allowed,
                    seed,
                });
            };
            for (pred_idx, pred) in p.predicates.iter().enumerate() {
                match pred {
                    Predicate::Named { pool: pp, instance } if pp == pool => {
                        let allowed = match index_of.get(instance) {
                            Some(&i) if matchable[i] => vec![i],
                            _ => Vec::new(),
                        };
                        push(&mut slots, pred_idx, 0, allowed);
                    }
                    Predicate::Property {
                        pool: pp,
                        expr,
                        count,
                    } if pp == pool => {
                        let allowed: Vec<usize> = instances
                            .iter()
                            .enumerate()
                            .filter(|(i, (_, rec))| matchable[*i] && expr.eval(rec, schema))
                            .map(|(i, _)| i)
                            .collect();
                        for k in 0..*count {
                            push(&mut slots, pred_idx, k as usize, allowed.clone());
                        }
                    }
                    // An anonymous quantity bound over an *instance* pool
                    // desugars to `count` unconstrained slots.
                    Predicate::QtyAtLeast { pool: pp, amount } if pp == pool => {
                        let allowed: Vec<usize> =
                            (0..instances.len()).filter(|i| matchable[*i]).collect();
                        for k in 0..*amount {
                            push(&mut slots, pred_idx, k as usize, allowed.clone());
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(slots)
    }

    /// Writes statuses and allocation lists so they agree with
    /// `assignment`. Returns ids of *existing* promises whose allocations
    /// changed (the candidate's allocations are always filled in place).
    fn apply_assignment(
        &self,
        pool: &PoolId,
        existing: &mut [PromiseRecord],
        candidate: Option<&mut PromiseRecord>,
        assignment: &HashMap<SlotKey, InstanceId>,
    ) -> Result<Vec<PromiseId>, CheckError> {
        let table = Catalog::instance_table(pool);
        // Previous PROMISED set for this pool.
        let before: HashSet<InstanceId> = self
            .scan_pool(pool)?
            .into_iter()
            .filter(|(_, r)| r.str(Catalog::STATUS) == Some(status::PROMISED))
            .map(|(id, _)| id)
            .collect();
        let after: HashSet<InstanceId> = assignment.values().cloned().collect();

        for id in after.difference(&before) {
            self.rm.update(self.txn, &table, &id.0, |r| {
                r.set(Catalog::STATUS, status::PROMISED);
            })?;
        }
        for id in before.difference(&after) {
            self.rm.update(self.txn, &table, &id.0, |r| {
                r.set(Catalog::STATUS, status::AVAILABLE);
            })?;
        }

        let mut changed = Vec::new();
        let rebuild = |p: &mut PromiseRecord| {
            let mut new_allocs: Vec<Allocation> = p
                .allocations
                .iter()
                .filter(|a| p.predicates.get(a.pred_idx).map(Predicate::pool) != Some(pool))
                .cloned()
                .collect();
            for ((owner, pred_idx, _k), inst) in assignment {
                if *owner == p.id {
                    new_allocs.push(Allocation {
                        pred_idx: *pred_idx,
                        instance: inst.clone(),
                    });
                }
            }
            new_allocs.sort_by(|a, b| (a.pred_idx, &a.instance).cmp(&(b.pred_idx, &b.instance)));
            if new_allocs != p.allocations {
                p.allocations = new_allocs;
                true
            } else {
                false
            }
        };
        for p in existing.iter_mut() {
            if rebuild(p) {
                changed.push(p.id);
            }
        }
        if let Some(c) = candidate {
            rebuild(c);
        }
        Ok(changed)
    }

    /// Strict allocated-tags grant: pick free instances for the candidate
    /// without disturbing existing allocations.
    fn grant_tags_strict(
        &self,
        pool: &PoolId,
        candidate: &mut PromiseRecord,
    ) -> Result<(), CheckError> {
        let schema = self
            .catalog
            .get(pool)
            .map_err(|_| CheckError::Reject(RejectReason::UnknownPool(pool.clone())))?;
        let instances = self.scan_pool(pool)?;
        let mut free: Vec<(InstanceId, Record)> = instances
            .into_iter()
            .filter(|(_, r)| r.str(Catalog::STATUS) == Some(status::AVAILABLE))
            .collect();
        let table = Catalog::instance_table(pool);
        let mut picks: Vec<Allocation> = Vec::new();

        for (pred_idx, pred) in candidate.predicates.iter().enumerate() {
            match pred {
                Predicate::Named { pool: pp, instance } if pp == pool => {
                    let pos = free.iter().position(|(id, _)| id == instance);
                    match pos {
                        Some(i) => {
                            let (id, _) = free.remove(i);
                            picks.push(Allocation {
                                pred_idx,
                                instance: id,
                            });
                        }
                        None => {
                            return Err(CheckError::Reject(RejectReason::InstanceUnavailable {
                                pool: pool.clone(),
                                instance: instance.clone(),
                            }))
                        }
                    }
                }
                Predicate::Property {
                    pool: pp,
                    expr,
                    count,
                } if pp == pool => {
                    for _ in 0..*count {
                        let pos = free.iter().position(|(_, r)| expr.eval(r, schema));
                        match pos {
                            Some(i) => {
                                let (id, _) = free.remove(i);
                                picks.push(Allocation {
                                    pred_idx,
                                    instance: id,
                                });
                            }
                            None => {
                                return Err(CheckError::Reject(RejectReason::Unsatisfiable {
                                    pool: pool.clone(),
                                }))
                            }
                        }
                    }
                }
                Predicate::QtyAtLeast { pool: pp, amount } if pp == pool => {
                    for _ in 0..*amount {
                        if free.is_empty() {
                            return Err(CheckError::Reject(RejectReason::Unsatisfiable {
                                pool: pool.clone(),
                            }));
                        }
                        let (id, _) = free.remove(0);
                        picks.push(Allocation {
                            pred_idx,
                            instance: id,
                        });
                    }
                }
                _ => {}
            }
        }
        for a in &picks {
            self.rm.update(self.txn, &table, &a.instance.0, |r| {
                r.set(Catalog::STATUS, status::PROMISED);
            })?;
        }
        candidate.allocations.extend(picks);
        Ok(())
    }

    /// Strict allocated-tags post-check: every stored allocation must
    /// still exist, be tagged `promised`, and satisfy its predicate.
    fn validate_tags(&self, pool: &PoolId, live: &[PromiseRecord]) -> Result<(), CheckError> {
        let schema = self
            .catalog
            .get(pool)
            .map_err(|_| CheckError::Reject(RejectReason::UnknownPool(pool.clone())))?;
        let table = Catalog::instance_table(pool);
        for p in live {
            for a in &p.allocations {
                let Some(pred) = p.predicates.get(a.pred_idx) else {
                    continue;
                };
                if pred.pool() != pool {
                    continue;
                }
                let rec = self.rm.get(self.txn, &table, &a.instance.0)?;
                let ok = match &rec {
                    None => false,
                    Some(r) => {
                        r.str(Catalog::STATUS) == Some(status::PROMISED)
                            && match pred {
                                Predicate::Property { expr, .. } => expr.eval(r, schema),
                                _ => true,
                            }
                    }
                };
                if !ok {
                    return Err(CheckError::Violation {
                        promise: p.id,
                        detail: format!(
                            "allocated instance {} in pool {pool} no longer satisfies {pred}",
                            a.instance
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Error shaping
    // ------------------------------------------------------------------

    /// At grant time failures blame the candidate; refine named conflicts.
    fn as_reject(&self, e: CheckError, pool: &PoolId, candidate: &PromiseRecord) -> CheckError {
        if let CheckError::Reject(RejectReason::Unsatisfiable { .. }) = &e {
            // If the candidate names a specific instance, report that.
            for pred in &candidate.predicates {
                if let Predicate::Named { pool: pp, instance } = pred {
                    if pp == pool {
                        return CheckError::Reject(RejectReason::InstanceUnavailable {
                            pool: pool.clone(),
                            instance: instance.clone(),
                        });
                    }
                }
            }
        }
        e
    }

    /// After an action, failures are violations of some live promise.
    fn as_violation(&self, e: CheckError, pool: &PoolId, live: &[PromiseRecord]) -> CheckError {
        match e {
            CheckError::Reject(reason) => {
                let victim = live
                    .iter()
                    .find(|p| p.pools().contains(&pool))
                    .map(|p| p.id)
                    .or_else(|| self.victim_of.and_then(|lookup| lookup(pool)))
                    .unwrap_or(PromiseId(0));
                CheckError::Violation {
                    promise: victim,
                    detail: reason.to_string(),
                }
            }
            other => other,
        }
    }
}
