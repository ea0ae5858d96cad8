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
//! An instance-pool check reads its pool in place, in one pass
//! ([`ResourceManager::scan_with`]): no instance record is copied out,
//! each *distinct* expression asked of the pool is evaluated once per
//! instance, and slots that ask the same thing share one accepted list.
//!
//! Under the tag strategies ([`CheckStrategy::AllocatedTags`] and
//! [`CheckStrategy::TentativeAllocation`]) the checker also fills and
//! re-arranges each promise's `allocations`, §5's "allocated tags" /
//! "tentative allocation" techniques. Those records are the one account of
//! who holds an instance: the checker writes nothing to the resource
//! manager, whose `_status` field says only whether an instance is taken.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::Arc;

use promises_matching::assign_slots_seeded;
use promises_rm::{ResourceManager, RmError, Txn};

use crate::catalog::{status, Catalog};
use crate::error::{PromiseError, RejectReason};
use crate::ids::{InstanceId, PoolId, PromiseId};
use crate::predicate::{Predicate, PropExpr};
use crate::promise::{Allocation, PromiseRecord};
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
    /// Promise records the pass read: the snapshot handed to
    /// [`Checker::grant`] or [`Checker::post_check`] — records the table
    /// shares, not copies — or, for a release or a prune, the records
    /// leaving. A pool checked from its cached demand alone contributes
    /// none.
    pub promises_considered: usize,
    /// Of those, records copied because the pass rewrote their
    /// allocations (a re-arrangement moved them); every other record is
    /// read where the table holds it.
    pub records_copied: usize,
    /// Passes made over an instance pool's table: one per instance pool
    /// per grant, and per post-check under the matching strategies.
    pub instance_passes: usize,
    /// Property expressions evaluated against an instance during those
    /// passes: distinct expressions × matchable instances, however many
    /// promises ask the same thing.
    pub predicate_evals: usize,
}

/// A checking context bound to one transaction.
pub struct Checker<'a> {
    /// The resource manager.
    pub rm: &'a ResourceManager,
    /// The transaction every read goes through.
    pub txn: &'a Txn,
    /// Pool schemas.
    pub catalog: &'a Catalog,
    /// Exact total `QtyAtLeast` demand per quantity pool (including any
    /// candidate), computed by the manager from the promise table: the
    /// only thing a quantity pool is checked against, so its records need
    /// not be in the snapshot at all. It holds every quantity pool the
    /// check visits.
    qty_demand: Vec<(&'a PoolId, u64)>,
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

/// What one predicate asks of an instance pool.
#[derive(Clone, Copy)]
enum Ask<'e> {
    /// This instance.
    Named(&'e InstanceId),
    /// That many distinct instances the expression accepts. An anonymous
    /// quantity bound over an *instance* pool asks for any instances at
    /// all.
    Matching(&'e PropExpr, u64),
}

impl<'e> Ask<'e> {
    fn of(pred: &'e Predicate, pool: &PoolId) -> Option<Self> {
        static ANY: PropExpr = PropExpr::True;
        match pred {
            Predicate::Named { pool: pp, instance } if pp == pool => Some(Ask::Named(instance)),
            Predicate::Property {
                pool: pp,
                expr,
                count,
            } if pp == pool => Some(Ask::Matching(expr, u64::from(*count))),
            Predicate::QtyAtLeast { pool: pp, amount } if pp == pool => {
                Some(Ask::Matching(&ANY, *amount))
            }
            _ => None,
        }
    }

    /// Slots the ask expands to, each needing an instance of its own.
    fn count(self) -> u64 {
        match self {
            Ask::Named(_) => 1,
            Ask::Matching(_, count) => count,
        }
    }
}

/// What each predicate of `p` over `pool` asks of it, by predicate index.
fn asks_of<'e>(
    p: &'e PromiseRecord,
    pool: &'e PoolId,
) -> impl Iterator<Item = (usize, Ask<'e>)> + 'e {
    (p.predicates.iter().enumerate())
        .filter_map(move |(pred_idx, pred)| Some((pred_idx, Ask::of(pred, pool)?)))
}

/// The expressions among `asks`, each once.
fn distinct_exprs<'e>(asks: impl Iterator<Item = Ask<'e>>) -> Vec<&'e PropExpr> {
    let mut exprs: Vec<&PropExpr> = Vec::new();
    for ask in asks {
        if let Ask::Matching(expr, _) = ask {
            if !exprs.contains(&expr) {
                exprs.push(expr);
            }
        }
    }
    exprs
}

/// What [`Checker::read_pool`] found. Instances are known by position in
/// id order, the order the table lends them in.
struct PoolPass<'e> {
    ids: Vec<InstanceId>,
    matchable: Vec<bool>,
    /// The distinct expressions asked of the pool and, for each, the
    /// matchable positions it accepts, ascending.
    exprs: Vec<&'e PropExpr>,
    accepted: Vec<Vec<usize>>,
}

impl PoolPass<'_> {
    /// `ids` is sorted: the table lends in key order and an id orders as
    /// its key does.
    fn position(&self, id: &InstanceId) -> Option<usize> {
        self.ids.binary_search(id).ok()
    }

    fn accepted_by(&self, expr: &PropExpr) -> &[usize] {
        let asked = self.exprs.iter().position(|e| *e == expr);
        &self.accepted[asked.expect("every expression asked of the pool was collected")]
    }
}

/// One slot to be matched to a distinct instance.
struct Slot<'v> {
    owner: PromiseId,
    pred_idx: usize,
    /// Positions this slot accepts: its expression's list, lent by the
    /// pass; only a named or pinned slot owns its (at most one) position.
    allowed: Cow<'v, [usize]>,
}

impl AsRef<[usize]> for Slot<'_> {
    fn as_ref(&self) -> &[usize] {
        &self.allowed
    }
}

/// A perfect matching over one pool, with what applying it needs from
/// the pass it was computed on.
struct Matched {
    /// `(owner, predicate, position)` per slot; a promise's slots are
    /// adjacent, promises in snapshot order, the candidate last.
    placed: Vec<(PromiseId, usize, usize)>,
    ids: Vec<InstanceId>,
}

fn lookup_failed(pool: &PoolId, e: PromiseError) -> CheckError {
    match e {
        PromiseError::Rm(rm) => CheckError::Rm(rm),
        _ => CheckError::Reject(RejectReason::UnknownPool(pool.clone())),
    }
}

type VictimLookup<'a> = &'a dyn Fn(&PoolId) -> Option<PromiseId>;

impl<'a> Checker<'a> {
    /// Creates a checker.
    pub fn new(rm: &'a ResourceManager, txn: &'a Txn, catalog: &'a Catalog) -> Self {
        Self {
            rm,
            txn,
            catalog,
            qty_demand: Vec::new(),
            victim_of: None,
            pinned: HashSet::new(),
            stats: RefCell::new(CheckerStats::default()),
        }
    }

    /// Supplies the exact live demand of every quantity pool the check
    /// visits (see [`Checker::qty_demand`]).
    pub fn with_qty_demand(mut self, demand: Vec<(&'a PoolId, u64)>) -> Self {
        self.qty_demand = demand;
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

    /// What this checker looked at.
    pub fn into_stats(self) -> CheckerStats {
        self.stats.into_inner()
    }

    /// Grant-time check of `candidate` against the other live promises in
    /// `existing`, pool by pool in `footprint`'s order (sorted; it holds
    /// every pool the candidate names). On success, fills
    /// `candidate.allocations` (tag strategies), possibly re-arranges
    /// existing allocations (tentative strategy), and returns the ids of
    /// existing promises whose allocations changed.
    pub fn grant(
        &self,
        existing: &mut [Arc<PromiseRecord>],
        candidate: &mut PromiseRecord,
        footprint: &[&PoolId],
    ) -> Result<Vec<PromiseId>, CheckError> {
        let mut changed = Vec::new();
        self.stats.borrow_mut().promises_considered += existing.len();
        let named = |pool: &PoolId, candidate: &PromiseRecord| {
            candidate.predicates.iter().any(|pred| pred.pool() == pool)
        };
        debug_assert!(
            (candidate.predicates.iter()).all(|pred| footprint.contains(&pred.pool())),
            "a grant's footprint holds every pool its candidate names"
        );
        for &pool in footprint {
            if !named(pool, candidate) {
                continue;
            }
            let schema = self
                .catalog
                .get(pool)
                .map_err(|_| CheckError::Reject(RejectReason::UnknownPool(pool.clone())))?;
            match schema.kind {
                PoolKind::Quantity => self.check_quantity(pool)?,
                PoolKind::Instances => match schema.strategy {
                    CheckStrategy::Satisfiability => {
                        self.match_or_err(pool, existing, Some(&*candidate))
                            .map_err(|e| self.as_reject(e, pool, candidate))?;
                    }
                    CheckStrategy::AllocatedTags => {
                        self.grant_tags_strict(pool, existing, candidate)?;
                    }
                    CheckStrategy::TentativeAllocation => {
                        let assignment = self
                            .match_or_err(pool, existing, Some(&*candidate))
                            .map_err(|e| self.as_reject(e, pool, candidate))?;
                        changed.extend(self.apply_assignment(
                            pool,
                            existing,
                            Some(&mut *candidate),
                            &assignment,
                        ));
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
    /// Only the `scope` pools (sorted and distinct) are re-checked, in
    /// order: the caller asserts the action wrote nothing outside them, so
    /// promises over other pools cannot have been invalidated, and `live`
    /// holds just the promises that intersect the scope's instance pools.
    pub fn post_check(
        &self,
        live: &mut [Arc<PromiseRecord>],
        scope: &[&PoolId],
    ) -> Result<Vec<PromiseId>, CheckError> {
        let mut changed = Vec::new();
        self.stats.borrow_mut().promises_considered += live.len();
        for &pool in scope {
            self.stats.borrow_mut().pools_visited.push(pool.clone());
            let schema = match self.catalog.get(pool) {
                Ok(s) => s,
                Err(_) => continue,
            };
            match schema.kind {
                PoolKind::Quantity => {
                    self.check_quantity(pool)
                        .map_err(|e| self.as_violation(e, pool, live))?;
                }
                PoolKind::Instances => match schema.strategy {
                    CheckStrategy::Satisfiability => {
                        self.match_or_err(pool, live, None)
                            .map_err(|e| self.as_violation(e, pool, live))?;
                    }
                    CheckStrategy::AllocatedTags => {
                        self.validate_tags(pool, live)?;
                    }
                    CheckStrategy::TentativeAllocation => {
                        let assignment = self
                            .match_or_err(pool, live, None)
                            .map_err(|e| self.as_violation(e, pool, live))?;
                        changed.extend(self.apply_assignment(pool, live, None, &assignment));
                    }
                },
            }
        }
        Ok(changed)
    }

    // ------------------------------------------------------------------
    // Anonymous view
    // ------------------------------------------------------------------

    /// The anonymous view: `pool`'s live demand, supplied by the caller,
    /// against its quantity on hand. No promise record is read.
    fn check_quantity(&self, pool: &PoolId) -> Result<(), CheckError> {
        let on_hand = self
            .catalog
            .quantity(self.rm, self.txn, pool)
            .map_err(|e| lookup_failed(pool, e))?;
        let demand = self.qty_demand.iter().find(|(p, _)| *p == pool);
        debug_assert!(
            demand.is_some(),
            "quantity pool {pool} checked without its demand"
        );
        let demand = demand.map_or(0, |(_, demand)| *demand);
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

    /// The one pass a check makes over `pool`'s instance table. Records
    /// are read where they lie ([`Catalog::scan_instances`]); what leaves
    /// is, per instance, its id and whether a slot may hold it (it is
    /// `available`, not taken); and per expression in `exprs`, the
    /// matchable instances it accepts.
    fn read_pool<'e>(
        &self,
        pool: &PoolId,
        exprs: Vec<&'e PropExpr>,
    ) -> Result<PoolPass<'e>, CheckError> {
        let failed = |e| lookup_failed(pool, e);
        let schema = self.catalog.get(pool).map_err(failed)?;
        let mut pass = PoolPass {
            ids: Vec::new(),
            matchable: Vec::new(),
            accepted: vec![Vec::new(); exprs.len()],
            exprs,
        };
        let mut evals = 0;
        self.catalog
            .scan_instances(self.rm, self.txn, pool, |id, rec| {
                let matchable = rec.str(Catalog::STATUS) == Some(status::AVAILABLE);
                if matchable {
                    evals += pass.exprs.len();
                    for (expr, accepted) in pass.exprs.iter().zip(&mut pass.accepted) {
                        if expr.eval(rec, schema) {
                            accepted.push(pass.ids.len());
                        }
                    }
                }
                pass.ids.push(InstanceId(id.to_owned()));
                pass.matchable.push(matchable);
            })
            .map_err(failed)?;
        let mut stats = self.stats.borrow_mut();
        stats.instance_passes += 1;
        stats.predicate_evals += evals;
        Ok(pass)
    }

    /// Reads the pool once and computes a full slot assignment for every
    /// promise in `existing` (plus `candidate`), or an error naming the
    /// failure.
    fn match_or_err(
        &self,
        pool: &PoolId,
        existing: &[Arc<PromiseRecord>],
        candidate: Option<&PromiseRecord>,
    ) -> Result<Matched, CheckError> {
        let unsatisfiable =
            || CheckError::Reject(RejectReason::Unsatisfiable { pool: pool.clone() });
        let promises = || existing.iter().map(Arc::as_ref).chain(candidate);
        let asks = || {
            promises()
                .flat_map(|p| asks_of(p, pool))
                .map(|(_, ask)| ask)
        };
        let pass = self.read_pool(pool, distinct_exprs(asks()))?;

        // Every slot needs an instance of its own, so an ask for more than
        // the pool can hold is refused before a single slot is built (§2:
        // "reject immediately") — `count` and `amount` come off the wire.
        let rights = || (0..pass.ids.len()).filter(|&i| pass.matchable[i]);
        let wanted = asks().fold(0u64, |n, ask| n.saturating_add(ask.count()));
        if wanted > rights().count() as u64 {
            return Err(unsatisfiable());
        }

        let mut slots: Vec<Slot<'_>> = Vec::new();
        let mut seeds: Vec<Option<usize>> = Vec::new();
        let mut held: Vec<(usize, usize)> = Vec::new();
        for p in promises() {
            // Current holdings as (predicate, position): the k-th slot of a
            // predicate is seeded with its k-th holding (allocation order
            // is canonical — sorted by instance within a predicate), so
            // the matcher moves it only when an augmenting path must.
            // Allocations that are gone or no longer matchable seed nothing.
            held.clear();
            held.extend(p.allocations.iter().filter_map(|a| {
                let here = p.predicates.get(a.pred_idx).map(Predicate::pool) == Some(pool);
                let i = pass.position(&a.instance).filter(|_| here)?;
                pass.matchable[i].then_some((a.pred_idx, i))
            }));
            let pinned = self.pinned.contains(&p.id);
            for (pred_idx, ask) in asks_of(p, pool) {
                let open: Cow<'_, [usize]> = match ask {
                    Ask::Named(instance) => {
                        let at = pass.position(instance).filter(|&i| pass.matchable[i]);
                        Cow::Owned(at.into_iter().collect())
                    }
                    Ask::Matching(expr, _) => Cow::Borrowed(pass.accepted_by(expr)),
                };
                let mut holdings = held.iter().filter(|(at, _)| *at == pred_idx);
                for _ in 0..ask.count() {
                    let seed = holdings.next().map(|&(_, i)| i);
                    // A pinned slot accepts only the instance it currently
                    // holds: the client has read the allocation and may
                    // already be acting on it, so the matcher must not
                    // move it. A pinned slot whose held instance is gone —
                    // or no longer satisfies the predicate — accepts
                    // nothing (a genuine conflict).
                    let allowed = if pinned {
                        Cow::Owned(seed.filter(|s| open.contains(s)).into_iter().collect())
                    } else {
                        open.clone()
                    };
                    slots.push(Slot {
                        owner: p.id,
                        pred_idx,
                        allowed,
                    });
                    seeds.push(seed);
                }
            }
        }

        // Augmenting paths re-arrange the unseeded rest, placed
        // most-constrained-first.
        let assigned = assign_slots_seeded(rights(), &slots, &seeds).ok_or_else(unsatisfiable)?;
        let placed = (slots.iter().zip(assigned))
            .map(|(slot, i)| (slot.owner, slot.pred_idx, i))
            .collect();
        Ok(Matched {
            placed,
            ids: pass.ids,
        })
    }

    /// Rewrites allocation lists so they agree with `matched` — the
    /// assignment [`Checker::match_or_err`] just computed over the same
    /// `existing` and `candidate`. Returns ids of *existing* promises whose
    /// allocations changed; each of those is copied out of the shared
    /// snapshot to take its new allocations ([`Arc::make_mut`]), and only
    /// those. The candidate's allocations are filled in place.
    fn apply_assignment(
        &self,
        pool: &PoolId,
        existing: &mut [Arc<PromiseRecord>],
        candidate: Option<&mut PromiseRecord>,
        matched: &Matched,
    ) -> Vec<PromiseId> {
        // Slots were built promise by promise in this same order, so each
        // promise's placements are the next run with its id.
        let mut placed = matched.placed.iter().peekable();
        // The promise's allocations under `matched`, if they differ from
        // what it holds.
        let mut rebuild = |p: &PromiseRecord| {
            let mut new_allocs: Vec<Allocation> = p
                .allocations
                .iter()
                .filter(|a| p.predicates.get(a.pred_idx).map(Predicate::pool) != Some(pool))
                .cloned()
                .collect();
            while let Some(&(_, pred_idx, i)) = placed.next_if(|(owner, ..)| *owner == p.id) {
                new_allocs.push(Allocation {
                    pred_idx,
                    instance: matched.ids[i].clone(),
                });
            }
            new_allocs.sort_by(|a, b| (a.pred_idx, &a.instance).cmp(&(b.pred_idx, &b.instance)));
            (new_allocs != p.allocations).then_some(new_allocs)
        };
        let mut changed = Vec::new();
        for p in existing.iter_mut() {
            if let Some(allocations) = rebuild(p) {
                if Arc::get_mut(p).is_none() {
                    self.stats.borrow_mut().records_copied += 1;
                }
                Arc::make_mut(p).allocations = allocations;
                changed.push(p.id);
            }
        }
        if let Some(c) = candidate {
            if let Some(allocations) = rebuild(c) {
                c.allocations = allocations;
            }
        }
        debug_assert!(placed.next().is_none(), "every placement has an owner");
        changed
    }

    /// Strict allocated-tags grant: pick free instances for the candidate
    /// without disturbing existing allocations — per predicate, the first
    /// ones in id order that it accepts. Free means `available` and
    /// allocated to no promise in `existing`, the live promises over the
    /// pool.
    fn grant_tags_strict(
        &self,
        pool: &PoolId,
        existing: &[Arc<PromiseRecord>],
        candidate: &mut PromiseRecord,
    ) -> Result<(), CheckError> {
        let exprs = distinct_exprs(asks_of(candidate, pool).map(|(_, ask)| ask));
        let pass = self.read_pool(pool, exprs)?;
        let mut free = pass.matchable.clone();
        let held = existing.iter().flat_map(|p| p.allocated_in(pool));
        for i in held.filter_map(|instance| pass.position(instance)) {
            free[i] = false;
        }
        let mut picks: Vec<Allocation> = Vec::new();
        for (pred_idx, ask) in asks_of(candidate, pool) {
            let named;
            let mut accepted = match ask {
                Ask::Named(instance) => {
                    named = pass.position(instance);
                    named.as_slice().iter()
                }
                Ask::Matching(expr, _) => pass.accepted_by(expr).iter(),
            };
            for _ in 0..ask.count() {
                let Some(&i) = accepted.find(|&&i| free[i]) else {
                    return Err(CheckError::Reject(match ask {
                        Ask::Named(instance) => RejectReason::InstanceUnavailable {
                            pool: pool.clone(),
                            instance: instance.clone(),
                        },
                        Ask::Matching(..) => RejectReason::Unsatisfiable { pool: pool.clone() },
                    }));
                };
                free[i] = false;
                picks.push(Allocation {
                    pred_idx,
                    instance: pass.ids[i].clone(),
                });
            }
        }
        candidate.allocations.extend(picks);
        Ok(())
    }

    /// Strict allocated-tags post-check: every stored allocation must
    /// still exist, not be taken, and satisfy its predicate.
    fn validate_tags(&self, pool: &PoolId, live: &[Arc<PromiseRecord>]) -> Result<(), CheckError> {
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
                        r.str(Catalog::STATUS) == Some(status::AVAILABLE)
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
    fn as_violation(
        &self,
        e: CheckError,
        pool: &PoolId,
        live: &[Arc<PromiseRecord>],
    ) -> CheckError {
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
