//! The one cluster client driver. Every cluster sweep and scaling
//! experiment has the same inner loop: a client asks the coordinator for
//! a grant, maybe releases it, and the harness tallies what it saw.
//! [`ClientRun::step`] is that loop body — the only grant → tally →
//! release `match` in the harness — and [`drive_clients`] the only place
//! client threads are spawned around it. Sweeps differ in *which* op a
//! client sends, so they pass a per-(client, op) closure; single-threaded
//! sweeps that interleave scenario steps (kills, armed crashes) between
//! ops call `step` directly with their own RNG.

use std::ops::{AddAssign, Range};

use promises_cluster::{ClusterDecision, CoordError, GrantPart, PromiseCluster};
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
    /// Unit grant; `released` if the client then released the parts.
    Granted {
        parts: Vec<GrantPart>,
        released: bool,
    },
    /// Unit rejection, or a transport failure the coordinator aborted.
    RejectedOrAborted,
    /// The coordinator crashed mid-transaction; the coordinator log
    /// decides the expected outcome.
    Crashed,
}

/// A tally plus the per-op `(client, request id, outcome)` record the
/// partial-grant audit replays.
#[derive(Debug, Default)]
pub struct ClientRun {
    /// The summed observations.
    pub tally: ClientTally,
    pub(crate) outcomes: Vec<(String, String, OpOutcome)>,
}

impl ClientRun {
    /// Sends one grant as `client` and folds the result in. Injected
    /// crashes and transport failures are legitimate on a faulty bus and
    /// are tallied; any other coordinator error is a harness bug.
    pub fn step(&mut self, cluster: &PromiseCluster, rng: &mut StdRng, client: &str, op: ClientOp) {
        let (tally, coordinator) = (&mut self.tally, &cluster.coordinator);
        tally.attempts += 1;
        let decision = coordinator.grant(client, &op.rid, &op.predicates, GRANT_DURATION_MS);
        let outcome = match decision {
            Ok(ClusterDecision::Granted { parts }) => {
                tally.granted += 1;
                if parts.len() > 1 {
                    tally.cross_shard_granted += 1;
                }
                let released = match op.release {
                    Release::Always => true,
                    Release::Never => false,
                    Release::Chance(p) => rng.random_bool(p),
                };
                if released {
                    coordinator.release(&parts);
                }
                OpOutcome::Granted { parts, released }
            }
            Ok(ClusterDecision::Rejected { .. }) => {
                tally.rejected += 1;
                OpOutcome::RejectedOrAborted
            }
            Err(CoordError::Crashed(_)) => {
                tally.crashed += 1;
                OpOutcome::Crashed
            }
            Err(CoordError::Transport(_)) => {
                tally.transport_failures += 1;
                OpOutcome::RejectedOrAborted
            }
            Err(e) => panic!("unexpected coordinator error: {e}"),
        };
        self.outcomes.push((client.to_owned(), op.rid, outcome));
    }

    /// Panics unless every op was answered granted-or-rejected: on a
    /// quiet bus with no crash armed, nothing else can happen.
    pub fn assert_quiet(&self, sweep: &str) {
        let errors = self.tally.crashed + self.tally.transport_failures;
        assert_eq!(errors, 0, "quiet-bus {sweep} errored: {:?}", self.tally);
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
                        run.step(cluster, &mut rng, &client, op);
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
