//! The one cluster client loop. Every cluster scenario has the same
//! inner loop: a client asks the coordinator for a grant, maybe releases
//! it or buys under it, and the harness records what it saw for the
//! audit.
//! [`ClientRun::step`] is that loop body — the only grant → tally →
//! release `match` in the harness — and [`drive_clients`] the only place
//! client threads are spawned around it. Scenarios differ in *which* op a
//! client sends, so threaded sweeps pass a per-(client, op) closure;
//! single-threaded scenarios that interleave their own steps (kills, armed
//! crashes, health ticks, an open-loop clock) call `step` directly.

use std::collections::BTreeMap;
use std::ops::{AddAssign, Range};

use promises_cluster::{
    ClusterDecision, CoordError, GrantPart, NegotiatedClusterGrant, PromiseCluster,
};
use promises_core::{parse_predicate, Predicate};
use promises_wire::{ActionRequest, EnvEntry, EnvRef, Envelope, EnvironmentHeader};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Duration of every driven grant: nothing expires mid-run, and the leak
/// audits advance the clock past it.
const GRANT_DURATION_MS: u64 = 3_600_000;

/// Whether the client hands a granted promise straight back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Release {
    /// Release every grant (no RNG draw).
    Always,
    /// Abandon every grant to expiry (no RNG draw).
    Never,
    /// Release with this probability — one draw from the client's RNG,
    /// taken *after* the grant returned and only when it was granted.
    Chance(f64),
    /// Keep with this probability — the same one draw as `Chance`,
    /// releasing when it comes up false.
    Keep(f64),
    /// Buy the first predicate's units under a grant one shard holds: one
    /// `merchant/purchase` to that shard, the promise released with it (no
    /// RNG draw). A grant of several parts, or a refused sale, is kept.
    Sell,
}

/// A `merchant/purchase` `<action>` taking `amount` from `pool` under
/// `promise`, released with it.
pub(crate) fn purchase_request(promise: u64, pool: &str, amount: u64) -> Envelope {
    Envelope::new()
        .with_environment(EnvironmentHeader {
            entries: vec![EnvEntry {
                reference: EnvRef::Id(promise),
                release_after: true,
            }],
        })
        .with_action(
            ActionRequest::new("merchant", "purchase")
                .param("pool", pool)
                .param("qty", amount),
        )
}

/// Buys `predicate`'s units under the one-part grant `parts` on the shard
/// that holds it, adding them to `sold`. False when the grant has several
/// parts, the predicate is not a quantity, or the shard did not sell.
fn sell(
    cluster: &PromiseCluster,
    parts: &[GrantPart],
    predicate: &str,
    sold: &mut BTreeMap<String, u64>,
) -> bool {
    let ([part], Ok(Predicate::QtyAtLeast { pool, amount })) = (parts, parse_predicate(predicate))
    else {
        return false;
    };
    let envelope = purchase_request(part.promise_id, &pool.0, amount);
    let reply = cluster
        .bus
        .send(&cluster.nodes[part.shard].endpoint, &envelope);
    let ok = reply.is_ok_and(|reply| reply.action_response.is_some_and(|resp| resp.ok));
    if ok {
        *sold.entry(pool.0).or_default() += amount;
    }
    ok
}

/// One grant attempt, as a sweep's per-(client, op) closure describes it.
#[derive(Debug, Clone)]
pub struct ClientOp {
    /// Request id (unique per client).
    pub rid: String,
    /// Predicates in the wire text syntax.
    pub predicates: Vec<String>,
    /// What to do with the promise if it is granted.
    pub release: Release,
}

/// What the driven clients observed, summed over every op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientTally {
    /// Grant attempts.
    pub attempts: u64,
    /// Unit grants confirmed (single- and cross-shard).
    pub granted: u64,
    /// Cross-shard grants among `granted`.
    pub cross_shard_granted: u64,
    /// Unit rejections.
    pub rejected: u64,
    /// Coordinator crashes injected (transactions left for recovery).
    pub crashed: u64,
    /// Transport-level failures surfaced by the coordinator.
    pub transport_failures: u64,
}

/// What one op observed, recorded for the post-run audit.
#[derive(Debug)]
pub(crate) enum OpOutcome {
    /// Granted on the op's last rung; `released` if the client then
    /// released the parts.
    Granted {
        parts: Vec<GrantPart>,
        released: bool,
    },
    /// A unit rejection on every rung — a 2PC round the coordinator
    /// aborted for an unreachable shard included.
    Rejected,
    /// The coordinator crashed mid-transaction; its log decides the
    /// expected outcome.
    Crashed,
    /// A single-shard grant whose every reply was lost: the shard may hold
    /// it, so only the leak audit judges it.
    Unanswered,
}

/// One op as the audit replays it.
#[derive(Debug)]
pub(crate) struct OpRecord {
    pub(crate) client: String,
    pub(crate) rid: String,
    /// §3.3 ladder rungs the op may have tried, named by [`rung_id`]: up to
    /// the granted or final one, or every rung its predicates allow when
    /// the coordinator answered with an error.
    pub(crate) rungs: usize,
    pub(crate) outcome: OpOutcome,
}

/// The request id of ladder rung `dropped` (desirable clauses dropped),
/// as [`promises_cluster::Coordinator::grant_negotiated`] names it.
pub(crate) fn rung_id(rid: &str, dropped: usize) -> String {
    match dropped {
        0 => rid.to_owned(),
        d => format!("{rid}~d{d}"),
    }
}

/// Rungs the ladder can walk for `predicates`: the request as asked, then
/// one more per desirable clause.
fn ladder_len(predicates: &[String]) -> usize {
    let desirables = |text: &String| match parse_predicate(text) {
        Ok(Predicate::Property { expr, .. }) => expr.desirable_count(),
        _ => 0,
    };
    1 + predicates.iter().map(desirables).sum::<usize>()
}

/// A tally plus the per-op record the audit replays.
#[derive(Debug, Default)]
pub struct ClientRun {
    /// The summed observations, one per [`step`](ClientRun::step).
    pub tally: ClientTally,
    /// Units sold under [`Release::Sell`], per pool.
    pub sold: BTreeMap<String, u64>,
    pub(crate) outcomes: Vec<OpRecord>,
}

impl ClientRun {
    /// Sends one request as `client` down the §3.3 ladder — a request
    /// with no desirable clause is one rung under its own id — and folds
    /// the result in. A resend under the same `(client, rid)` replaces the
    /// op's earlier record. Injected crashes and transport failures are
    /// legitimate on a faulty bus and are tallied; any other coordinator
    /// error is a harness bug. Returns what the op saw.
    pub fn step(
        &mut self,
        cluster: &PromiseCluster,
        rng: &mut StdRng,
        client: &str,
        op: ClientOp,
    ) -> Result<NegotiatedClusterGrant, CoordError> {
        let (tally, coordinator) = (&mut self.tally, &cluster.coordinator);
        tally.attempts += 1;
        let seen = coordinator.grant_negotiated(client, &op.rid, &op.predicates, GRANT_DURATION_MS);
        let (outcome, rungs) = match &seen {
            Ok(grant) => match &grant.decision {
                ClusterDecision::Granted { parts } => {
                    tally.granted += 1;
                    if parts.len() > 1 {
                        tally.cross_shard_granted += 1;
                    }
                    let released = match op.release {
                        Release::Always => true,
                        Release::Never | Release::Sell => false,
                        Release::Chance(p) => rng.random_bool(p),
                        Release::Keep(p) => !rng.random_bool(p),
                    };
                    if released {
                        coordinator.release(parts);
                    }
                    // A sale releases the promise with it.
                    let released = released
                        || (op.release == Release::Sell
                            && sell(cluster, parts, &op.predicates[0], &mut self.sold));
                    let parts = parts.clone();
                    (OpOutcome::Granted { parts, released }, grant.dropped + 1)
                }
                ClusterDecision::Rejected { .. } => {
                    tally.rejected += 1;
                    (OpOutcome::Rejected, grant.dropped + 1)
                }
            },
            Err(CoordError::Crashed(_)) => {
                tally.crashed += 1;
                (OpOutcome::Crashed, ladder_len(&op.predicates))
            }
            Err(CoordError::Transport(_)) => {
                tally.transport_failures += 1;
                (OpOutcome::Unanswered, ladder_len(&op.predicates))
            }
            Err(e) => panic!("unexpected coordinator error: {e}"),
        };
        let record = OpRecord {
            client: client.to_owned(),
            rid: op.rid,
            rungs,
            outcome,
        };
        let same = |r: &OpRecord| r.client == record.client && r.rid == record.rid;
        match self.outcomes.iter().rposition(same) {
            Some(earlier) => self.outcomes[earlier] = record,
            None => self.outcomes.push(record),
        }
        seen
    }

    /// Panics unless every op was answered granted-or-rejected, bar the
    /// `crashes` the scenario armed: on a quiet bus nothing else can happen.
    pub fn assert_quiet(&self, sweep: &str, crashes: u64) {
        let t = &self.tally;
        let quiet = (t.crashed, t.transport_failures) == (crashes, 0);
        assert!(quiet, "quiet-bus {sweep} errored: {t:?}");
    }
}

impl AddAssign for ClientRun {
    fn add_assign(&mut self, mut other: Self) {
        let (t, o) = (&mut self.tally, other.tally);
        t.attempts += o.attempts;
        t.granted += o.granted;
        t.cross_shard_granted += o.cross_shard_granted;
        t.rejected += o.rejected;
        t.crashed += o.crashed;
        t.transport_failures += o.transport_failures;
        for (pool, units) in other.sold {
            *self.sold.entry(pool).or_default() += units;
        }
        self.outcomes.append(&mut other.outcomes);
    }
}

/// Spawns `clients` concurrent client threads; client `c` (named
/// `client-{c}`) seeds its own RNG from `seed_of(c)`, then for each op
/// index in `ops` asks `next_op(c, op, rng)` what to send and
/// [`step`](ClientRun::step)s it. Per client the draw order is exactly
/// the closure's draws, then the release draw if granted — so a seeded
/// sweep replays the same op streams whatever the thread timing.
pub fn drive_clients<F>(
    cluster: &PromiseCluster,
    clients: usize,
    ops: Range<usize>,
    seed_of: impl Fn(usize) -> u64,
    next_op: F,
) -> ClientRun
where
    F: Fn(usize, usize, &mut StdRng) -> ClientOp + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (ops, next_op, seed) = (ops.clone(), &next_op, seed_of(c));
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let client = format!("client-{c}");
                    let mut run = ClientRun::default();
                    for op in ops {
                        let op = next_op(c, op, &mut rng);
                        let _ = run.step(cluster, &mut rng, &client, op);
                    }
                    run
                })
            })
            .collect();
        let mut total = ClientRun::default();
        for handle in handles {
            total += handle.join().expect("client thread panicked");
        }
        total
    })
}
