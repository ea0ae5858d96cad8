//! The one post-run audit. Every scenario that drives a [`PromiseCluster`]
//! sends its ops through [`ClientRun::step`] and ends in
//! [`audit_cluster`]; the single-manager fault sweeps call its
//! per-manager half, [`audit_manager`]. After the dust settles:
//!
//! * **no partial grants** — every op is all-or-nothing on the §3.3
//!   ladder: a confirmed grant's parts are all live committed holds and
//!   every rung below the granted one holds nothing; a rejected op (a 2PC
//!   round aborted for an unreachable shard included) and a crashed op
//!   whose commit was never logged (presumed abort) leave no committed hold
//!   on any shard, under a 2PC part's `rid@sN` nor under the bare `rid` a
//!   single-shard or lease-local grant is keyed by; a crashed op whose
//!   commit was logged has every part live. An unresolved *prepared* hold
//!   is in doubt, not a grant, and falls to the leak audit — as does a
//!   single-shard grant whose every reply was lost;
//! * **no double grants** — per manager, every `(client, request)` pair
//!   has at most one grant-like journal record, however many times the
//!   retrying client resent it;
//! * **no oversells** — per manager, quantity promised to live promises
//!   never exceeds quantity on hand (on a leased shard, what is left of
//!   its lease slice after its sales);
//! * **no minting** (leased clusters only) — per pool, the cluster-wide
//!   lease sum never exceeds the registered quantity;
//! * **no leaks** — after every duration passes, expiry reclaims every
//!   hold the run abandoned (crashed coordinators included, once recovery
//!   has run);
//! * **bounded state** — one grace period later, the coordinator's dedup
//!   index and every shard's tombstones are empty.

use std::collections::HashMap;
use std::ops::AddAssign;

use promises_cluster::{PromiseCluster, TxnId};
use promises_core::{
    ClientId, JournalOp, PoolId, PromiseId, PromiseJournal, PromiseManager, RequestId,
};
use promises_rm::ResourceManager;

use crate::clients::{rung_id, ClientRun, OpOutcome};

/// The always-zero columns of [`audit_cluster`] (see the module docs for
/// each guarantee). Audits of several clusters add up with `+=`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterAudit {
    /// Ops whose observable outcome was not all-or-nothing.
    pub partial_grants: u64,
    /// Per-manager `(client, request)` pairs with more than one
    /// grant-like journal record.
    pub double_grants: u64,
    /// Managers' pools whose promised quantity exceeded on-hand.
    pub oversells: u64,
    /// Promises still live after recovery + full expiry.
    pub live_after_reap: usize,
    /// Coordinator dedup entries plus shard tombstones surviving past
    /// every retry window and eviction grace.
    pub state_after_reap: usize,
    /// Pools whose cluster-wide lease sum exceeded the registered quantity.
    pub lease_sum_violations: u64,
}

impl ClusterAudit {
    /// True when every audited guarantee held.
    pub fn clean(&self) -> bool {
        *self == Self::default()
    }
}

impl AddAssign for ClusterAudit {
    fn add_assign(&mut self, o: Self) {
        self.partial_grants += o.partial_grants;
        self.double_grants += o.double_grants;
        self.oversells += o.oversells;
        self.live_after_reap += o.live_after_reap;
        self.state_after_reap += o.state_after_reap;
        self.lease_sum_violations += o.lease_sum_violations;
    }
}

/// The per-manager half: double grants from `journal`, oversells from the
/// books. It removes `rm`'s storage-fault hook first — the audit judges the
/// end state, and a fault injected into its own reads would count a failed
/// `quantity_on_hand` as an oversell.
pub(crate) fn audit_manager(
    pm: &PromiseManager,
    journal: &PromiseJournal,
    rm: &ResourceManager,
) -> ClusterAudit {
    rm.set_storage_fault_hook(None);
    let mut grant_counts: HashMap<(ClientId, RequestId), u32> = HashMap::new();
    for entry in journal.entries().unwrap_or_default() {
        if let JournalOp::Grant(rec) | JournalOp::Prepared(rec) = entry.op {
            *grant_counts.entry((rec.client, rec.request)).or_insert(0) += 1;
        }
    }
    ClusterAudit {
        double_grants: grant_counts.values().filter(|&&n| n > 1).count() as u64,
        oversells: oversells(pm),
        ..ClusterAudit::default()
    }
}

/// `pm`'s pools whose promised quantity exceeds the quantity on hand.
pub(crate) fn oversells(pm: &PromiseManager) -> u64 {
    let promised = pm.promised_quantities().into_iter();
    let oversold =
        |(pool, qty): &(PoolId, u64)| *qty > pm.quantity_on_hand(pool.clone()).unwrap_or(0);
    promised.filter(oversold).count() as u64
}

/// Audits every op `run` recorded against `cluster`'s observable state,
/// then reaps the cluster for the leak and bounded-state audits. Run it on
/// a quiet bus, after coordinator recovery.
pub(crate) fn audit_cluster(cluster: &PromiseCluster, run: &ClientRun) -> ClusterAudit {
    let log = cluster.coordinator.log().replay();
    let committed: HashMap<TxnId, Vec<usize>> = log
        .expect("coordinator log replays")
        .committed
        .into_iter()
        .collect();
    // The live *committed* hold `txn`'s client has under `key` on `shard`:
    // `Some` only when the shard holds it and it is no longer in doubt.
    let held = |shard: usize, txn: &TxnId, key: &str| {
        let pm = &cluster.nodes[shard].pm;
        let client = ClientId::from(txn.client.as_str());
        let id = pm.promise_for_request(&client, &RequestId::from(key))?;
        (!pm.is_prepared(id)).then_some(id)
    };
    // A 2PC part or a single-shard grant of this rung, on any shard.
    let holds_any = |txn: &TxnId| {
        (0..cluster.shard_count()).any(|s| {
            held(s, txn, &txn.sub_request(s)).is_some() || held(s, txn, &txn.request).is_some()
        })
    };

    let mut audit = ClusterAudit::default();
    for op in &run.outcomes {
        let rung = |d| TxnId::new(op.client.as_str(), rung_id(&op.rid, d));
        let last = op.rungs - 1;
        let partial = match &op.outcome {
            OpOutcome::Granted { parts, released } => {
                let txn = rung(last);
                let key = |shard| match parts.len() {
                    1 => txn.request.clone(),
                    _ => txn.sub_request(shard),
                };
                let live = |p: &promises_cluster::GrantPart| {
                    held(p.shard, &txn, &key(p.shard)) == Some(PromiseId(p.promise_id))
                };
                (0..last).any(|d| holds_any(&rung(d))) || !(*released || parts.iter().all(live))
            }
            OpOutcome::Rejected | OpOutcome::Crashed => (0..op.rungs).any(|d| {
                let txn = rung(d);
                match committed.get(&txn) {
                    // Logged commit: recovery must have landed every part.
                    Some(shards) => !shards
                        .iter()
                        .all(|&s| held(s, &txn, &txn.sub_request(s)).is_some()),
                    // Rejected or presumed aborted: nothing may survive.
                    None => holds_any(&txn),
                }
            }),
            OpOutcome::Unanswered => false,
        };
        audit.partial_grants += u64::from(partial);
    }

    for node in &cluster.nodes {
        audit += audit_manager(&node.pm, &node.journal, &node.rm);
    }
    if cluster.lease_directory().is_some() {
        audit += audit_leases(cluster);
    }

    // Leak audit: advance past every duration; expiry must reclaim
    // whatever the run abandoned (dropped releases, in-doubt holds of
    // decided-abort transactions whose abort message was lost, …).
    cluster.advance_and_prune(4_000_000);
    audit.live_after_reap = cluster.live_count();

    // Bounded-state audit: one more tick past every eviction grace and
    // both dedup disciplines must have drained — the coordinator's outcome
    // index and the shards' expiry tombstones alike.
    cluster.advance_and_prune(400_000);
    let tombstones: usize = cluster.nodes.iter().map(|n| n.pm.tombstone_count()).sum();
    audit.state_after_reap = cluster.coordinator.dedup_len() + tombstones;
    audit
}

/// Cluster-wide lease sum for one pool, read from the authoritative
/// per-shard managers (not the advisory directory).
pub(crate) fn lease_sum(cluster: &PromiseCluster, pool: &str) -> u64 {
    let lease = |n: &promises_cluster::ShardNode| n.pm.lease_of(pool).unwrap_or(0);
    cluster.nodes.iter().map(lease).sum()
}

/// The lease invariant, audited from authoritative shard state: per pool,
/// Σ leases never exceeds the registered quantity (rebalancing never mints
/// units — a crash between a withdraw and its deposit may only *lose*
/// headroom, which the heal pass re-credits). That escrow never oversells
/// is [`audit_manager`]'s `oversells`, read from the same shard stock.
pub(crate) fn audit_leases(cluster: &PromiseCluster) -> ClusterAudit {
    let mut audit = ClusterAudit::default();
    for (pool, total, _) in cluster.registered_pools() {
        audit.lease_sum_violations += u64::from(lease_sum(cluster, &pool) > total);
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::{ClientOp, Release};
    use crate::travel::host_rooms;
    use promises_core::{parse_predicate, PromiseRequestSpec};
    use rand::{rngs::StdRng, SeedableRng};

    const CROSS: [&str; 2] = ["qty('pool-0') >= 1", "qty('pool-1') >= 1"];
    const TOO_MUCH: [&str; 1] = ["qty('pool-0') >= 1000"];
    const VIEW_ROOM: [&str; 1] = ["prop('travel-rooms'): beds == 2 && desirable(view == true)"];

    /// Partial grants the audit counts after client `c` sends one op `r`
    /// for `predicates` — granted parts held, never released — and
    /// `tamper` then touches the shards behind the harness's back. The
    /// cluster: `pool-0` on shard 0, `pool-1` on shard 1, one twin room
    /// without a view on shard 0.
    fn partials(predicates: &[&str], tamper: impl Fn(&PromiseCluster, &ClientRun)) -> u64 {
        let cluster = PromiseCluster::build(2, 5);
        cluster.register_quantity_pool("pool-0", 100);
        cluster.register_quantity_pool("pool-1", 100);
        host_rooms(&cluster, 1, 0);

        let mut run = ClientRun::default();
        let op = ClientOp {
            rid: "r".into(),
            predicates: predicates.iter().map(|p| p.to_string()).collect(),
            release: Release::Never,
        };
        let seen = run.step(&cluster, &mut StdRng::seed_from_u64(0), "c", op);
        seen.expect("quiet bus");
        tamper(&cluster, &run);
        audit_cluster(&cluster, &run).partial_grants
    }

    /// Grants `c` a committed hold under request `r` on shard 0, without
    /// the coordinator.
    fn plant(cluster: &PromiseCluster, _: &ClientRun) {
        let predicate = parse_predicate("qty('pool-0') >= 1").expect("parses");
        let spec = PromiseRequestSpec::new("r", "c").predicate(predicate);
        let planted = cluster.nodes[0].pm.request(spec).expect("planted");
        assert!(planted.decision.is_granted(), "{planted:?}");
    }

    /// A single-shard hold is keyed by the bare request id; probing only
    /// the 2PC sub-ids `r@sN` misses it.
    #[test]
    fn a_hold_under_a_rejected_ops_bare_rid_is_partial() {
        assert_eq!(
            partials(&TOO_MUCH, |_, run| assert_eq!(run.tally.rejected, 1)),
            0
        );
        assert_eq!(partials(&TOO_MUCH, plant), 1);
    }

    #[test]
    fn a_granted_part_released_behind_the_harness_is_partial() {
        assert_eq!(partials(&CROSS, |_, _| {}), 0);
        let release_one = |cluster: &PromiseCluster, run: &ClientRun| {
            let OpOutcome::Granted { parts, .. } = &run.outcomes[0].outcome else {
                panic!("granted on both shards: {:?}", run.outcomes);
            };
            let pm = &cluster.nodes[parts[1].shard].pm;
            pm.release(PromiseId(parts[1].promise_id))
                .expect("released");
        };
        assert_eq!(partials(&CROSS, release_one), 1);
    }

    /// The room has no view, so the ladder grants on rung `r~d1`; rung `r`
    /// must then hold nothing.
    #[test]
    fn a_hold_on_a_rung_below_the_granted_one_is_partial() {
        let granted_on_d1 = |_: &PromiseCluster, run: &ClientRun| {
            let op = &run.outcomes[0];
            assert!(matches!(op.outcome, OpOutcome::Granted { .. }) && op.rungs == 2);
        };
        assert_eq!(partials(&VIEW_ROOM, granted_on_d1), 0);
        assert_eq!(partials(&VIEW_ROOM, plant), 1);
    }
}
