//! Cluster failure workloads: fault sweeps over the cross-shard
//! coordinator, shard crash–restart, escrow leases and fail-over.
//!
//! These drive a [`PromiseCluster`] — N autonomous shard nodes behind one
//! faulty bus, coordinated by the prepare/commit protocol — through
//! [`ClientRun::step`], and judge the §4 unit guarantee *as extended
//! across shards* with the one [`audit_cluster`] after the dust settles:
//! no partial, double or oversold grant, no leak, bounded state, and on
//! leased clusters no lease oversell and no minted lease unit.
//!
//! [`run_lease_sweep`] is the dedicated lease scenario: a Zipf-skewed
//! workload that buys under half its grants, interleaved with rebalance
//! cycles, an armed mid-rebalance crash, per-shard crash–restart with
//! digest comparison, and a heal check that the lease sum returns to the
//! pool total and no sold unit came back. [`run_failover_sweep`]
//! kills every leader mid-2PC and mid-rebalance and promotes its follower.

use std::ops::Deref;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use promises_cluster::{CoordError, CrashPoint, PromiseCluster, ShardNode};
use promises_core::{PromiseJournal, PromiseManager};
use promises_faults::{FaultInjector, FaultScenario};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::audit::{audit_cluster, audit_leases, lease_sum, oversells, ClusterAudit};
use crate::clients::{drive_clients, ClientOp, ClientRun, ClientTally, Release};
use crate::workload::pool_name;

/// Shape of a cluster fault-sweep workload.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSweepConfig {
    /// Shard count.
    pub shards: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Grant attempts per client.
    pub ops_per_client: usize,
    /// Quantity pools, spread round-robin over the shards.
    pub pools: usize,
    /// Units seeded per pool.
    pub qty: u64,
    /// Per-predicate amount is uniform in `1..=amount_max`.
    pub amount_max: u64,
    /// Probability an op requests a *cross-shard* footprint (two pools on
    /// different shards) instead of the single-shard fast path.
    pub cross_shard_probability: f64,
    /// Probability a cross-shard op arms an injected coordinator crash.
    pub crash_probability: f64,
    /// Probability a granted promise is released (the rest are abandoned,
    /// for the leak audit).
    pub release_probability: f64,
    /// Run the cluster with per-shard escrow leases: every pool is hosted
    /// on every shard, clients are pinned home shard `c % shards`, and the
    /// lease audits join the post-run checks.
    pub leases: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for ClusterSweepConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            clients: 4,
            ops_per_client: 25,
            pools: 4,
            qty: 100_000,
            amount_max: 3,
            cross_shard_probability: 0.4,
            crash_probability: 0.05,
            release_probability: 0.6,
            leases: false,
            seed: 42,
        }
    }
}

/// Outcome of one cluster sweep, including the post-run audits (read
/// through `Deref`: `report.partial_grants`, `report.clean()`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterRunReport {
    /// What the clients saw.
    pub tally: ClientTally,
    /// Undecided transactions recovery presumed aborted.
    pub presumed_aborted: u64,
    /// Committed transactions whose resolutions recovery resent.
    pub commits_resent: u64,
    /// The always-zero guarantee audits.
    pub audit: ClusterAudit,
    /// Orphan Abort records recovery replay tolerated (counted, not
    /// swallowed).
    pub orphan_aborts: u64,
    /// Wall-clock duration of the workload phase.
    pub elapsed: Duration,
}

impl Deref for ClusterRunReport {
    type Target = ClusterAudit;
    fn deref(&self) -> &ClusterAudit {
        &self.audit
    }
}

/// Builds a cluster per `cfg` with `scenario` installed on the bus. With
/// `cfg.leases` the cluster runs per-shard escrow leases and client `c` is
/// pinned to home shard `c % shards`.
pub fn cluster_harness(scenario: FaultScenario, cfg: &ClusterSweepConfig) -> PromiseCluster {
    let cluster = PromiseCluster::build(cfg.shards, cfg.seed);
    if cfg.leases {
        let dir = cluster.enable_leases();
        for c in 0..cfg.clients {
            dir.pin_home(&format!("client-{c}"), c % cfg.shards.max(1));
        }
    }
    for i in 0..cfg.pools {
        cluster.register_quantity_pool(&crate::workload::pool_name(i), cfg.qty);
    }
    cluster
        .bus
        .set_fault_injector(Some(Arc::new(FaultInjector::new(scenario))));
    cluster
}

/// Picks two pools owned by *different* shards (with pools spread
/// round-robin, pools `i` and `i+1` always differ when `shards > 1`).
fn cross_shard_pools(cfg: &ClusterSweepConfig, rng: &mut StdRng) -> (String, String) {
    let a = rng.random_range(0..cfg.pools);
    let b = (a + 1) % cfg.pools;
    (pool_name(a), pool_name(b))
}

/// Drives `cfg.clients` concurrent clients through the coordinator under
/// `scenario`, runs coordinator recovery, then audits partial grants,
/// double grants, oversells and leaks. Returns the report and the
/// quiesced cluster for further audits (spans, journals).
pub fn run_cluster_fault_sweep(
    scenario: FaultScenario,
    cfg: &ClusterSweepConfig,
) -> (ClusterRunReport, PromiseCluster) {
    let cluster = cluster_harness(scenario, cfg);
    let start = Instant::now();
    let run = drive_clients(
        &cluster,
        cfg.clients,
        0..cfg.ops_per_client,
        |c| cfg.seed.wrapping_add(c as u64 * 6151),
        |c, op, rng| {
            let cross = cfg.shards > 1 && rng.random_bool(cfg.cross_shard_probability);
            let amount = rng.random_range(1..=cfg.amount_max);
            let predicates = if cross {
                let (pa, pb) = cross_shard_pools(cfg, rng);
                let amount_b = rng.random_range(1..=cfg.amount_max);
                vec![
                    format!("qty('{pa}') >= {amount}"),
                    format!("qty('{pb}') >= {amount_b}"),
                ]
            } else {
                let pool = pool_name(rng.random_range(0..cfg.pools));
                vec![format!("qty('{pool}') >= {amount}")]
            };
            if cross && rng.random_bool(cfg.crash_probability) {
                let point = if rng.random_bool(0.5) {
                    CrashPoint::AfterPrepare
                } else {
                    CrashPoint::AfterCommitLogged
                };
                cluster.coordinator.set_crash_point(Some(point));
            }
            ClientOp {
                rid: format!("c{c}-o{op}"),
                predicates,
                release: Release::Chance(cfg.release_probability),
            }
        },
    );
    let elapsed = start.elapsed();

    // ---- Audits run on a quiet system. ----
    cluster.bus.set_fault_injector(None);
    let recovery = cluster
        .coordinator
        .recover()
        .expect("coordinator recovery succeeds");

    let report = ClusterRunReport {
        tally: run.tally,
        presumed_aborted: recovery.presumed_aborted as u64,
        commits_resent: recovery.commits_resent as u64,
        audit: audit_cluster(&cluster, &run),
        orphan_aborts: recovery.orphan_aborts as u64,
        elapsed,
    };
    (report, cluster)
}

/// Outcome of one [`run_lease_sweep`]: a Zipf-skewed grant/release/sale
/// workload over a leased cluster with rebalance cycles, an armed
/// mid-rebalance crash, per-shard crash–restart, and the cluster audit.
#[derive(Debug, Clone)]
pub struct LeaseSweepReport {
    /// What the clients saw.
    pub tally: ClientTally,
    /// Grants served by the client's home-shard lease — no coordinator.
    pub local_grants: u64,
    /// Grants that fell back to the ownership/2PC path.
    pub coordinator_fallbacks: u64,
    /// Multi-pool footprints the lease served locally, skipping the
    /// Begin/Commit records a 2PC round would have logged.
    pub coord_log_skips: u64,
    /// Lease units the rebalancer migrated between shards.
    pub rebalance_moved: u64,
    /// Whether the armed mid-rebalance crash actually fired (it needs
    /// observed demand on at least one pool — certain under Zipf skew).
    pub crash_fired: bool,
    /// Stranded units the post-crash heal cycle re-credited.
    pub healed_after_crash: u64,
    /// Per-shard `(pre-kill, post-recovery)` state: the state digest, then
    /// each pool's `(lease_of, quantity_on_hand)`, the lease split.
    pub digests: Vec<(String, String)>,
    /// Σ leases ≤ pool total on every pool right after the crashed cycle
    /// (the sum may shrink, never grow). **Always true.**
    pub lease_sum_ok_after_crash: bool,
    /// Σ leases == pool total on every pool after the heal cycle.
    /// **Always true.**
    pub lease_sum_restored: bool,
    /// Units the clients bought under their grants.
    pub sold: u64,
    /// Σ on hand over the shards + units sold == pool total on every pool
    /// after the heal cycle: no sale was undone. **Always true.**
    pub conserved: bool,
    /// The always-zero guarantee audits: the lease columns with holds
    /// still outstanding, then the full audit on the healed cluster.
    pub audit: ClusterAudit,
    /// Wall-clock duration of the workload phase.
    pub elapsed: Duration,
}

impl LeaseSweepReport {
    /// True when every shard's recovered state equals its pre-kill state.
    pub fn digests_match(&self) -> bool {
        self.digests.iter().all(|(pre, post)| pre == post)
    }

    /// Fraction of lease-routed decisions served locally:
    /// `local / (local + fallbacks)`.
    pub fn local_ratio(&self) -> f64 {
        let routed = self.local_grants + self.coordinator_fallbacks;
        if routed == 0 {
            return 0.0;
        }
        self.local_grants as f64 / routed as f64
    }

    /// True when every audited guarantee held.
    pub fn clean(&self) -> bool {
        self.audit.clean()
            && self.lease_sum_ok_after_crash
            && self.lease_sum_restored
            && self.digests_match()
    }
}

/// The dedicated lease scenario: drives `cfg.clients` threads of
/// Zipf-skewed grants (pool rank drawn ∝ 1/(i+1)^1.1; a
/// `cross_shard_probability` fraction add a second pool to the footprint)
/// against a leased cluster in rounds interleaved with
/// [`PromiseCluster::advance_and_prune`] rebalance cycles. Every
/// odd-numbered op buys its first pool's units under its grant when one
/// shard holds it ([`Release::Sell`]); the rest release by chance. Then:
///
/// 1. audits the lease invariants with holds still outstanding;
/// 2. arms a mid-rebalance crash (withdraws land, deposits don't) and
///    checks the lease sum only ever *shrinks*;
/// 3. kills and journal-restarts every shard, comparing state digests
///    and each pool's lease and stock on hand;
/// 4. runs the next rebalance cycle and checks the heal pass re-credits
///    the stranded headroom (Σ leases returns to the pool total) and that
///    Σ on hand + sold is the pool total;
/// 5. runs the cluster audit.
pub fn run_lease_sweep(cfg: &ClusterSweepConfig) -> (LeaseSweepReport, PromiseCluster) {
    let leased_cfg = ClusterSweepConfig {
        leases: true,
        ..*cfg
    };
    let mut cluster = cluster_harness(FaultScenario::quiet(cfg.seed), &leased_cfg);
    cluster.bus.set_fault_injector(None);

    let cdf = crate::workload::zipf_cdf(cfg.pools, 1.1);
    let rounds = 4usize;
    let per_round = cfg.ops_per_client.div_ceil(rounds).max(1);
    let mut run = ClientRun::default();
    let start = Instant::now();
    for round in 0..rounds {
        run += drive_clients(
            &cluster,
            cfg.clients,
            0..per_round,
            |c| cfg.seed ^ ((round * 8191 + c) as u64).wrapping_mul(0x9E3779B9),
            |c, op, rng| {
                let first = crate::workload::sample_zipf(&cdf, rng);
                let amount = rng.random_range(1..=cfg.amount_max);
                let mut predicates = vec![format!("qty('{}') >= {amount}", pool_name(first))];
                if cfg.pools > 1 && rng.random_bool(cfg.cross_shard_probability) {
                    let mut second = crate::workload::sample_zipf(&cdf, rng);
                    while second == first {
                        second = crate::workload::sample_zipf(&cdf, rng);
                    }
                    predicates.push(format!(
                        "qty('{}') >= {}",
                        pool_name(second),
                        rng.random_range(1..=cfg.amount_max)
                    ));
                }
                let release = match op % 2 {
                    1 => Release::Sell,
                    _ => Release::Chance(cfg.release_probability),
                };
                ClientOp {
                    rid: format!("r{round}-c{c}-o{op}"),
                    predicates,
                    release,
                }
            },
        );
        if round + 1 < rounds {
            // Rebalance between rounds: headroom chases the Zipf head.
            cluster.advance_and_prune(10_000);
        }
    }
    let elapsed = start.elapsed();
    run.assert_quiet("lease sweep", 0);

    // Audit with holds still outstanding (the interesting instant).
    let mut audit = audit_leases(&cluster);
    audit.oversells = cluster.nodes.iter().map(|n| oversells(&n.pm)).sum();

    // The mid-rebalance crash: final-round demand is still pending, so
    // the cycle withdraws surpluses and dies before any deposit.
    cluster.arm_rebalance_crash();
    let crash = cluster.rebalance_leases().expect("leases are enabled");
    let totals = cluster.registered_pools();
    let lease_sum_ok_after_crash = totals
        .iter()
        .all(|(pool, total, _)| lease_sum(&cluster, pool) <= *total);

    // Kill and journal-rebuild every shard: its promise state and the
    // (possibly shrunken) lease split must come back as they were.
    let shard_state = |node: &ShardNode| {
        let (pm, pools) = (&node.pm, totals.iter().map(|(pool, _, _)| pool.as_str()));
        let slices: Vec<_> = pools
            .map(|p| (pm.lease_of(p), pm.quantity_on_hand(p)))
            .collect();
        format!("{}{slices:?}", pm.state_digest())
    };
    let mut digests = Vec::new();
    for index in 0..cluster.shard_count() {
        let pre = shard_state(&cluster.nodes[index]);
        cluster.crash_restart_shard(index);
        digests.push((pre, shard_state(&cluster.nodes[index])));
    }

    // The next cycle's heal pass re-credits whatever the crash stranded;
    // what was sold stays sold.
    let heal = cluster.rebalance_leases().expect("leases are enabled");
    let lease_sum_restored = totals
        .iter()
        .all(|(pool, total, _)| lease_sum(&cluster, pool) == *total);
    let conserved = totals.iter().all(|(pool, total, _)| {
        let on_hand = |n: &ShardNode| n.pm.quantity_on_hand(pool.as_str()).unwrap_or(0);
        let sold = run.sold.get(pool).copied().unwrap_or(0);
        cluster.nodes.iter().map(on_hand).sum::<u64>() + sold == *total
    });

    audit += audit_cluster(&cluster, &run);

    let counter = |name: &str| cluster.telemetry.counter(name).load(Ordering::Relaxed);
    let report = LeaseSweepReport {
        tally: run.tally,
        local_grants: counter("cluster.lease.local_grants"),
        coordinator_fallbacks: counter("cluster.lease.coordinator_fallbacks"),
        coord_log_skips: counter("cluster.lease.coord_log_skips"),
        rebalance_moved: counter("cluster.lease.rebalance_moved"),
        crash_fired: crash.crashed,
        healed_after_crash: heal.healed,
        digests,
        lease_sum_ok_after_crash,
        lease_sum_restored,
        sold: run.sold.values().sum(),
        conserved,
        audit,
        elapsed,
    };
    (report, cluster)
}

/// Where a killed shard comes back from in the crash–restart harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartTarget {
    /// The PR 5 model: the node's process dies but its disk survives, so
    /// the same node restarts from its own journal.
    SameNode,
    /// The fail-over model: node *and* disk are lost; the shard's warm
    /// follower is promoted behind an epoch-fenced endpoint.
    Follower,
}

/// Outcome of a cluster crash–restart run.
#[derive(Debug, Clone)]
pub struct ClusterCrashReport {
    /// Per-shard: digest before the kill, digest after journal recovery.
    pub digests: Vec<(String, String)>,
    /// Per-shard in-doubt holds recovery found (the killed-mid-commit
    /// transaction's holds).
    pub in_doubt: Vec<usize>,
    /// Live promises after coordinator recovery resolved the in-doubt
    /// transaction.
    pub live_after_recovery: usize,
    /// Live promises from transactions committed before the kill.
    pub committed_before_kill: usize,
}

impl ClusterCrashReport {
    /// True when every shard's recovered state is byte-equivalent to its
    /// pre-kill state (prepared marks included).
    pub fn digests_match(&self) -> bool {
        self.digests.iter().all(|(pre, post)| pre == post)
    }
}

/// The satellite crash-restart scenario: commit some cross-shard grants,
/// then kill *every shard* between `Prepare` and `Commit` of one more
/// transaction (the coordinator crashes with them), bring each shard back
/// per `target` — same-node journal restart, or warm-follower promotion —
/// compare per-shard `state_digest()`s, and let coordinator recovery
/// resolve the in-doubt holds by presumed abort.
pub fn run_cluster_crash_restart(
    seed: u64,
    committed_grants: usize,
    target: RestartTarget,
) -> ClusterCrashReport {
    let mut cluster = PromiseCluster::build(2, seed);
    cluster.register_quantity_pool("alpha", 10_000);
    cluster.register_quantity_pool("beta", 10_000);
    if target == RestartTarget::Follower {
        cluster.enable_replication();
    }

    let mut committed = 0usize;
    for i in 0..committed_grants {
        let decision = cluster
            .coordinator
            .grant(
                "steady",
                &format!("pre{i}"),
                &[
                    format!("qty('alpha') >= {}", 1 + (i as u64 % 3)),
                    format!("qty('beta') >= {}", 1 + (i as u64 % 2)),
                ],
                10_000_000,
            )
            .expect("quiet grant");
        if decision.is_granted() {
            committed += 2;
        }
    }

    // The kill: prepares land on both shards, then everything dies before
    // any commit resolution is sent.
    cluster
        .coordinator
        .set_crash_point(Some(CrashPoint::AfterPrepare));
    let err = cluster
        .coordinator
        .grant(
            "doomed",
            "rx",
            &["qty('alpha') >= 5".into(), "qty('beta') >= 5".into()],
            10_000_000,
        )
        .expect_err("armed crash fires");
    assert!(matches!(err, CoordError::Crashed(_)), "{err:?}");

    let mut digests = Vec::new();
    let mut in_doubt = Vec::new();
    for index in 0..cluster.shard_count() {
        let pre = cluster.nodes[index].pm.state_digest();
        let recovery = match target {
            RestartTarget::SameNode => cluster.crash_restart_shard(index),
            RestartTarget::Follower => {
                cluster.kill_shard(index);
                cluster.promote_follower(index).recovery
            }
        };
        let post = cluster.nodes[index].pm.state_digest();
        digests.push((pre, post));
        in_doubt.push(recovery.in_doubt);
    }

    // The restarted coordinator (same durable log) resolves the in-doubt
    // transaction: undecided → presumed abort.
    let recovery = cluster
        .coordinator
        .recover()
        .expect("coordinator recovery succeeds");
    assert_eq!(recovery.presumed_aborted, 1);

    ClusterCrashReport {
        digests,
        in_doubt,
        live_after_recovery: cluster.live_count(),
        committed_before_kill: committed,
    }
}

/// The restart and fail-over equivalence reference: a *fresh* promise
/// manager recovered from a snapshot of `node`'s journal lines, exactly as
/// the promotion path rebuilds one from the follower's copy. Byte-equality
/// of this digest with a promoted follower's proves the replica carried
/// every record the leader's disk held — nothing dropped, nothing
/// invented; with a restarted node's, that replay is idempotent. Its pools
/// come from the node's own hosting record, filled as every rebuild fills
/// fresh storage.
pub(crate) fn clean_replay_digest(node: &ShardNode, lines: &[String]) -> String {
    let rm = Arc::new(promises_rm::ResourceManager::new());
    let pm = PromiseManager::new(rm, Arc::clone(&node.clock));
    node.rehost(&pm);
    let journal = Arc::new(PromiseJournal::from_lines(lines).expect("journal intact"));
    pm.recover(journal).expect("clean replay succeeds");
    pm.state_digest()
}

/// One fail-over's digest triple: the dead leader's would-be state, the
/// promoted follower's state, and the clean-replay reference.
#[derive(Debug, Clone)]
pub struct FailoverDigests {
    /// Which kill this was (`"2pc-s2"`, `"rebalance-s0"`, …).
    pub label: String,
    /// `state_digest()` of the leader at the instant it was killed.
    pub pre_kill: String,
    /// `state_digest()` of the promoted follower, before any new traffic.
    pub promoted: String,
    /// [`clean_replay_digest`] over the dead leader's journal lines.
    pub clean_replay: String,
}

impl FailoverDigests {
    /// True when all three digests are byte-identical.
    pub fn matches(&self) -> bool {
        self.pre_kill == self.promoted && self.promoted == self.clean_replay
    }
}

/// Outcome of one [`run_failover_sweep`]: every shard leader killed once
/// mid-2PC (phase A) and once mid-lease-rebalance (phase B), each time
/// promoted from its warm follower, with the full cluster audit suite on
/// both clusters.
#[derive(Debug, Clone)]
pub struct FailoverSweepReport {
    /// Grant attempts across both phases.
    pub attempts: u64,
    /// Unit grants confirmed.
    pub granted: u64,
    /// Unit rejections.
    pub rejected: u64,
    /// Coordinator crashes armed on doomed cross-shard grants (one per
    /// shard in phase A, alternating after-prepare / after-commit-logged).
    pub doomed_crashes: u64,
    /// Follower promotions performed (2 × shard count).
    pub failovers: u64,
    /// Prepared holds the promoted replicas reported in doubt.
    pub in_doubt_recovered: u64,
    /// Doomed transactions recovery presumed aborted.
    pub presumed_aborted: u64,
    /// Doomed transactions whose logged commits recovery resent — against
    /// the *promoted* follower's epoch-fenced endpoint.
    pub commits_resent: u64,
    /// Armed mid-rebalance crashes that fired in phase B.
    pub rebalance_crashes_fired: u64,
    /// Whether every pool's lease sum healed back to its registered total
    /// after each phase-B promotion. **Always true.**
    pub lease_sums_restored: bool,
    /// The digest triple for every fail-over. All must match.
    pub digests: Vec<FailoverDigests>,
    /// The always-zero guarantee audits, summed over both clusters (the
    /// lease columns only ever count in phase B).
    pub audit: ClusterAudit,
    /// Journal lines shipped over every replication link.
    pub repl_shipped_lines: u64,
    /// Shipments the `repl-drop` point lost in flight (each retried).
    pub repl_dropped_shipments: u64,
    /// Worst promotion MTTR observed (kill decision → promoted leader
    /// answering on its new endpoint).
    pub mttr_max: Duration,
    /// Mean promotion MTTR.
    pub mttr_mean: Duration,
    /// Wall-clock duration of the whole sweep.
    pub elapsed: Duration,
}

impl FailoverSweepReport {
    /// True when every fail-over's digest triple is byte-identical.
    pub fn digests_match(&self) -> bool {
        self.digests.iter().all(FailoverDigests::matches)
    }

    /// True when every audited guarantee held.
    pub fn clean(&self) -> bool {
        self.audit.clean() && self.digests_match() && self.lease_sums_restored
    }
}

/// One audited grant on the fail-over sweep's quiet bus, released with
/// probability one half.
fn sweep_op(rid: String, predicates: Vec<String>) -> ClientOp {
    ClientOp {
        rid,
        predicates,
        release: Release::Chance(0.5),
    }
}

/// Promotion duration for one shard, bookkept into the shared vectors.
fn fail_over(
    cluster: &mut PromiseCluster,
    index: usize,
    label: String,
    digests: &mut Vec<FailoverDigests>,
    mttrs: &mut Vec<Duration>,
) -> promises_core::RecoveryReport {
    cluster.kill_shard(index);
    let pre_kill = cluster.nodes[index].pm.state_digest();
    let leader_lines = cluster.nodes[index].journal.lines();
    let fo = cluster.promote_follower(index);
    let promoted = cluster.nodes[index].pm.state_digest();
    let clean_replay = clean_replay_digest(&cluster.nodes[index], &leader_lines);
    digests.push(FailoverDigests {
        label,
        pre_kill,
        promoted,
        clean_replay,
    });
    mttrs.push(fo.mttr);
    fo.recovery
}

/// The E16 fail-over sweep. Two phases, both with warm followers attached
/// and replication faults (segment drops and lagged acks) injected at
/// `repl_fault_rate`:
///
/// **Phase A — kill mid-2PC.** A non-leased 4-shard cluster (every
/// footprint really crosses the coordinator). For each shard `k`: steady
/// single- and cross-shard grants; then a doomed cross-shard grant
/// touching `k` with an armed coordinator crash (after-prepare for even
/// `k`, after-commit-logged for odd — the two sides of the commit point);
/// then leader `k` is killed and its follower promoted; then coordinator
/// recovery re-resolves the doomed transaction's in-doubt `rid@sN` holds
/// against the promoted node (presumed abort, or commit resend); then more
/// grants prove the epoch-fenced endpoint serves.
///
/// **Phase B — kill mid-lease-rebalance.** A leased 4-shard cluster. For
/// each shard `j`: a round of home-shard grants builds demand; an armed
/// mid-rebalance crash fires (withdraws landed, deposits lost); leader `j`
/// is killed in exactly that stranded-headroom state and its follower
/// promoted; the next rebalance cycle's heal pass must restore every
/// pool's lease sum to its registered total.
///
/// Every kill captures the digest triple (dead leader / promoted follower
/// / clean replay of the leader's journal); the full audit suite — partial
/// grants, double grants, oversells, lease invariants, leaks, bounded
/// state — runs on both clusters afterwards.
pub fn run_failover_sweep(seed: u64, repl_fault_rate: f64) -> FailoverSweepReport {
    const SHARDS: usize = 4;
    const CLIENTS: usize = 3;
    let repl_injector = |salt: u64| {
        Some(Arc::new(FaultInjector::new(
            FaultScenario::quiet(seed ^ salt)
                .with_replication_faults(repl_fault_rate, repl_fault_rate),
        )))
    };

    let mut digests: Vec<FailoverDigests> = Vec::new();
    let mut mttrs: Vec<Duration> = Vec::new();
    let mut in_doubt_recovered = 0u64;
    let mut presumed_aborted = 0u64;
    let mut commits_resent = 0u64;
    let start = Instant::now();

    // ---- Phase A: kill every leader mid-2PC. ----
    let cfg_a = ClusterSweepConfig {
        shards: SHARDS,
        clients: CLIENTS,
        pools: SHARDS,
        crash_probability: 0.0,
        leases: false,
        seed,
        ..ClusterSweepConfig::default()
    };
    let mut cluster = cluster_harness(FaultScenario::quiet(seed), &cfg_a);
    cluster.bus.set_fault_injector(None);
    cluster.enable_replication();
    cluster.set_replication_faults(repl_injector(0x5EED0A));
    let mut run_a = ClientRun::default();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0xFA11));
    for k in 0..SHARDS {
        let (pool, next) = (pool_name(k), pool_name((k + 1) % SHARDS));
        // Steady traffic: every client lands one single-shard grant on the
        // soon-to-die shard and one cross-shard grant spanning it.
        for c in 0..CLIENTS {
            let client = format!("client-{c}");
            let amount = rng.random_range(1..=3);
            let single = vec![format!("qty('{pool}') >= {amount}")];
            let op = sweep_op(format!("f{k}-c{c}-single"), single);
            let _ = run_a.step(&cluster, &mut rng, &client, op);
            let amount_b = rng.random_range(1..=3);
            let cross = vec![
                format!("qty('{pool}') >= {amount}"),
                format!("qty('{next}') >= {amount_b}"),
            ];
            let op = sweep_op(format!("f{k}-c{c}-cross"), cross);
            let _ = run_a.step(&cluster, &mut rng, &client, op);
        }
        // The doomed grant: crash the coordinator mid-2PC with shard k's
        // prepared hold outstanding, then kill shard k itself.
        let point = if k % 2 == 0 {
            CrashPoint::AfterPrepare
        } else {
            CrashPoint::AfterCommitLogged
        };
        cluster.coordinator.set_crash_point(Some(point));
        let doomed = ClientOp {
            rid: format!("kill{k}"),
            predicates: vec![format!("qty('{pool}') >= 5"), format!("qty('{next}') >= 5")],
            release: Release::Never,
        };
        let seen = run_a.step(&cluster, &mut rng, "doomed", doomed);
        assert!(matches!(seen, Err(CoordError::Crashed(_))), "{seen:?}");

        let recovery = fail_over(
            &mut cluster,
            k,
            format!("2pc-s{k}"),
            &mut digests,
            &mut mttrs,
        );
        in_doubt_recovered += recovery.in_doubt as u64;

        // The restarted coordinator re-resolves the doomed transaction's
        // rid@sN holds — shard k's against the promoted follower.
        let coord_recovery = cluster
            .coordinator
            .recover()
            .expect("coordinator recovery succeeds");
        presumed_aborted += coord_recovery.presumed_aborted as u64;
        commits_resent += coord_recovery.commits_resent as u64;

        // The promoted leader serves on its epoch-fenced endpoint.
        for c in 0..CLIENTS {
            let amount = rng.random_range(1..=3);
            let op = sweep_op(
                format!("p{k}-c{c}"),
                vec![format!("qty('{pool}') >= {amount}")],
            );
            let _ = run_a.step(&cluster, &mut rng, &format!("client-{c}"), op);
        }
    }
    let mut audit = audit_cluster(&cluster, &run_a);
    let counter_a = |name: &str| cluster.telemetry.counter(name).load(Ordering::Relaxed);
    let mut repl_shipped = counter_a("cluster.repl.shipped_lines");
    let mut repl_dropped = counter_a("cluster.repl.dropped_shipments");

    // ---- Phase B: kill every leader mid-lease-rebalance. ----
    let cfg_b = ClusterSweepConfig {
        shards: SHARDS,
        clients: SHARDS, // one client homed per shard
        pools: SHARDS,
        crash_probability: 0.0,
        leases: true,
        seed: seed ^ 0xB_000,
        ..ClusterSweepConfig::default()
    };
    let mut leased = cluster_harness(FaultScenario::quiet(cfg_b.seed), &cfg_b);
    leased.bus.set_fault_injector(None);
    leased.enable_replication();
    leased.set_replication_faults(repl_injector(0x5EED0B));
    let mut run_b = ClientRun::default();
    let mut rebalance_crashes_fired = 0u64;
    let mut lease_sums_restored = true;
    let totals = leased.registered_pools();
    for j in 0..SHARDS {
        // A round of home-shard traffic builds per-shard demand.
        for c in 0..cfg_b.clients {
            let client = format!("client-{c}");
            for op in 0..4 {
                let pool = pool_name(rng.random_range(0..cfg_b.pools));
                let amount = rng.random_range(1..=3);
                let op = sweep_op(
                    format!("L{j}-c{c}-o{op}"),
                    vec![format!("qty('{pool}') >= {amount}")],
                );
                let _ = run_b.step(&leased, &mut rng, &client, op);
            }
        }
        // The rebalance cycle dies between its withdraws and deposits —
        // and leader j dies with the cluster in that stranded state.
        leased.arm_rebalance_crash();
        let crash = leased.rebalance_leases().expect("leases are enabled");
        if crash.crashed {
            rebalance_crashes_fired += 1;
        }
        let _ = fail_over(
            &mut leased,
            j,
            format!("rebalance-s{j}"),
            &mut digests,
            &mut mttrs,
        );
        // The next cycle's heal pass re-credits what the crash stranded.
        leased.rebalance_leases().expect("leases are enabled");
        lease_sums_restored &= totals
            .iter()
            .all(|(pool, total, _)| lease_sum(&leased, pool) == *total);
    }
    audit += audit_cluster(&leased, &run_b);
    let counter_b = |name: &str| leased.telemetry.counter(name).load(Ordering::Relaxed);
    repl_shipped += counter_b("cluster.repl.shipped_lines");
    repl_dropped += counter_b("cluster.repl.dropped_shipments");

    // On this quiet bus the doomed grants are the only errors.
    run_a += run_b;
    run_a.assert_quiet("failover sweep", SHARDS as u64);
    let failovers = mttrs.len() as u64;
    let mttr_max = mttrs.iter().copied().max().unwrap_or_default();
    let mttr_mean = if mttrs.is_empty() {
        Duration::default()
    } else {
        mttrs.iter().sum::<Duration>() / mttrs.len() as u32
    };
    FailoverSweepReport {
        attempts: run_a.tally.attempts,
        granted: run_a.tally.granted,
        rejected: run_a.tally.rejected,
        doomed_crashes: run_a.tally.crashed,
        failovers,
        in_doubt_recovered,
        presumed_aborted,
        commits_resent,
        rebalance_crashes_fired,
        lease_sums_restored,
        digests,
        audit,
        repl_shipped_lines: repl_shipped,
        repl_dropped_shipments: repl_dropped,
        mttr_max,
        mttr_mean,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_cluster_sweep_is_clean() {
        let cfg = ClusterSweepConfig {
            shards: 4,
            clients: 3,
            ops_per_client: 15,
            crash_probability: 0.0,
            ..ClusterSweepConfig::default()
        };
        let (report, _) = run_cluster_fault_sweep(FaultScenario::quiet(1), &cfg);
        assert!(report.clean(), "{report:?}");
        assert!(report.tally.granted > 0);
        assert!(
            report.tally.cross_shard_granted > 0,
            "workload must cross shards"
        );
        assert_eq!(report.tally.crashed, 0);
    }

    #[test]
    fn faulty_cluster_sweep_holds_unit_guarantee() {
        let cfg = ClusterSweepConfig {
            shards: 4,
            clients: 4,
            ops_per_client: 20,
            crash_probability: 0.15,
            ..ClusterSweepConfig::default()
        };
        let (report, _) = run_cluster_fault_sweep(FaultScenario::uniform(7, 0.1), &cfg);
        assert_eq!(report.partial_grants, 0, "§4 must hold across shards");
        assert_eq!(report.double_grants, 0, "retries must dedup per shard");
        assert_eq!(report.oversells, 0, "no shard may oversell");
        assert_eq!(report.live_after_reap, 0, "expiry + recovery reclaim all");
        assert!(report.tally.granted > 0, "goodput survives faults");
    }

    #[test]
    fn leased_cluster_sweep_is_clean_and_serves_locally() {
        let cfg = ClusterSweepConfig {
            shards: 4,
            clients: 4,
            ops_per_client: 16,
            crash_probability: 0.0,
            leases: true,
            ..ClusterSweepConfig::default()
        };
        let (report, cluster) = run_cluster_fault_sweep(FaultScenario::quiet(3), &cfg);
        assert!(report.clean(), "{report:?}");
        assert!(report.tally.granted > 0);
        let local = cluster
            .telemetry
            .counter("cluster.lease.local_grants")
            .load(Ordering::Relaxed);
        assert!(local > 0, "lease path must serve grants locally");
    }

    #[test]
    fn faulty_leased_sweep_holds_lease_invariants() {
        let cfg = ClusterSweepConfig {
            shards: 4,
            clients: 4,
            ops_per_client: 20,
            crash_probability: 0.15,
            leases: true,
            ..ClusterSweepConfig::default()
        };
        let (report, _) = run_cluster_fault_sweep(FaultScenario::uniform(7, 0.1), &cfg);
        assert_eq!(report.partial_grants, 0, "§4 must hold across shards");
        assert_eq!(report.double_grants, 0, "retries must dedup per shard");
        assert_eq!(report.oversells, 0, "no shard may oversell");
        assert_eq!(report.lease_sum_violations, 0, "leases must not mint");
        assert_eq!(report.live_after_reap, 0, "expiry + recovery reclaim all");
        assert!(report.tally.granted > 0, "goodput survives faults");
    }

    #[test]
    fn lease_sweep_survives_mid_rebalance_crash() {
        let cfg = ClusterSweepConfig {
            shards: 4,
            clients: 4,
            ops_per_client: 24,
            pools: 8,
            cross_shard_probability: 0.25,
            ..ClusterSweepConfig::default()
        };
        let (report, _) = run_lease_sweep(&cfg);
        assert!(report.clean(), "{report:?}");
        assert!(report.sold > 0 && report.conserved, "{report:?}");
        assert!(report.crash_fired, "armed rebalance crash must fire");
        assert!(report.tally.granted > 0);
        assert!(
            report.rebalance_moved > 0,
            "rebalancer must chase the Zipf head: {report:?}"
        );
        assert!(
            report.local_ratio() > 0.5,
            "lease locality too low: {} ({report:?})",
            report.local_ratio()
        );
    }

    #[test]
    fn shard_kill_between_prepare_and_commit_recovers() {
        let report = run_cluster_crash_restart(11, 6, RestartTarget::SameNode);
        assert!(
            report.digests_match(),
            "per-shard state must survive the kill:\n{:?}",
            report
                .digests
                .iter()
                .map(|(a, b)| format!("pre:\n{a}\npost:\n{b}"))
                .collect::<Vec<_>>()
        );
        assert!(
            report.in_doubt.iter().all(|&n| n == 1),
            "each shard recovers exactly the doomed hold in doubt: {:?}",
            report.in_doubt
        );
        assert_eq!(
            report.live_after_recovery, report.committed_before_kill,
            "presumed abort frees the doomed holds, keeps the committed"
        );
    }

    #[test]
    fn shard_kill_promotes_follower_with_identical_state() {
        let report = run_cluster_crash_restart(13, 6, RestartTarget::Follower);
        assert!(
            report.digests_match(),
            "the promoted follower must be byte-identical to the dead leader:\n{:?}",
            report
                .digests
                .iter()
                .map(|(a, b)| format!("pre:\n{a}\npost:\n{b}"))
                .collect::<Vec<_>>()
        );
        assert!(
            report.in_doubt.iter().all(|&n| n == 1),
            "the promoted replica recovers exactly the doomed hold in doubt: {:?}",
            report.in_doubt
        );
        assert_eq!(
            report.live_after_recovery, report.committed_before_kill,
            "presumed abort against the promoted follower frees the doomed holds"
        );
    }

    #[test]
    fn failover_sweep_is_clean_on_quiet_replication() {
        let report = run_failover_sweep(2007, 0.0);
        assert!(report.clean(), "failover sweep must be clean: {report:#?}");
        assert_eq!(report.failovers, 8, "two kills per shard: {report:#?}");
        assert_eq!(report.doomed_crashes, 4);
        assert!(report.granted > 0);
        assert!(
            report.rebalance_crashes_fired > 0,
            "phase B must exercise the stranded-rebalance state: {report:#?}"
        );
        assert!(report.repl_shipped_lines > 0);
        assert_eq!(report.repl_dropped_shipments, 0);
    }

    /// Pinned to what the commit before the one-driver refactor produced:
    /// the sweep is single-threaded, so any change to the order RNG draws
    /// are taken in (amounts, then the release coin, per op) moves these.
    #[test]
    fn single_threaded_sweeps_replay_the_parent_op_streams() {
        let r = run_failover_sweep(2007, 0.0);
        assert_eq!((r.attempts, r.granted, r.rejected), (104, 97, 3));
        assert_eq!((r.in_doubt_recovered, r.presumed_aborted), (4, 2));
        assert_eq!((r.commits_resent, r.rebalance_crashes_fired), (34, 4));
        assert!(r.digests_match() && r.lease_sums_restored && r.clean());
    }

    #[test]
    fn failover_sweep_is_clean_under_replication_faults() {
        let report = run_failover_sweep(31337, 0.2);
        assert!(
            report.clean(),
            "lossy, laggy shipping must not change any outcome: {report:#?}"
        );
        assert_eq!(report.failovers, 8);
        assert!(
            report.repl_dropped_shipments > 0,
            "a 20% drop rate must actually drop shipments: {report:#?}"
        );
    }
}
