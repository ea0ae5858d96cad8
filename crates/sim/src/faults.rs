//! Failure workloads: fault sweeps, kill-the-client, and crash–restart.
//!
//! These drive the full wire pipeline — retrying client → faulty bus →
//! one promise node (the cluster's [`ShardNode`]: its worker, its
//! per-batch group commit and its queued restart) over a journalled
//! table and a fault-hooked resource manager — under a seeded
//! [`FaultScenario`], and then *audit* the paper's guarantees after the
//! dust settles, with the per-manager half of the one cluster audit:
//!
//! * **no violations** — per pool, quantity promised to live promises
//!   never exceeds quantity on hand;
//! * **no double grants** — a retried/duplicated grant request (same
//!   `(client, request-id)`) produces exactly one `Grant` journal record;
//! * **no leaks** — promises held by killed clients are reclaimed by
//!   expiry, so the table drains once their durations pass.
//!
//! Everything is deterministic per seed: the workload mix, the jitter, and
//! the entire fault sequence.

use std::sync::Arc;
use std::time::{Duration, Instant};

use promises_cluster::{PoolSeed, ShardNode};
use promises_core::{CompactionCrash, ManualClock, PoolSchema, PromiseError, RecoveryReport};
use promises_faults::{FaultInjector, FaultScenario, FaultStats};
use promises_wire::{
    Envelope, InMemoryBus, PromiseRequestHeader, PromiseResult, RetryPolicy, RetryingClient,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::audit::audit_manager;
use crate::clients::purchase_request;
use crate::cluster::clean_replay_digest;
use crate::workload::pool_name;

/// Everything a failure workload needs: one promise node on a faulty bus,
/// the injector, and the node's manual clock.
pub struct FaultHarness {
    /// The promise node: manager, journal, RM and telemetry registry
    /// behind its shard worker, answering on `node.endpoint`.
    pub node: ShardNode,
    /// The bus carrying every message (faults installed).
    pub bus: Arc<InMemoryBus>,
    /// The shared injector (bus + RM storage hook draw from it).
    pub injector: Arc<FaultInjector>,
    /// The node's clock (manual, so expiry is driven deterministically).
    pub clock: Arc<ManualClock>,
}

impl FaultHarness {
    /// Turns all fault injection off (bus and RM hook), so post-run audits
    /// and recovery run on a quiet system.
    pub fn quiesce(&self) {
        self.bus.set_fault_injector(None);
        self.node.rm.set_storage_fault_hook(None);
    }
}

/// Builds one promise node on a faulty bus, hosting `pools` quantity
/// pools of `qty` units each, with the bus recording into the node's
/// telemetry registry. Hosting happens before the fault hooks are
/// installed, so setup is always clean.
pub fn fault_harness(scenario: FaultScenario, pools: usize, qty: u64) -> FaultHarness {
    let bus = Arc::new(InMemoryBus::new());
    let clock = Arc::new(ManualClock::new());
    let node = ShardNode::build(0, &bus, Arc::clone(&clock) as _);
    for i in 0..pools {
        node.host(PoolSchema::quantity(pool_name(i)), PoolSeed::Quantity(qty));
    }
    let injector = Arc::new(FaultInjector::new(scenario));
    node.rm.set_storage_fault_hook(Some(injector.rm_hook()));
    bus.set_fault_injector(Some(Arc::clone(&injector)));
    bus.set_telemetry(Some(Arc::clone(&node.telemetry)));
    FaultHarness {
        node,
        bus,
        injector,
        clock,
    }
}

/// A plain single-predicate promise request for `qty('{pool}') >= amount`.
pub(crate) fn grant_request(
    request_id: &str,
    client: &str,
    pool: &str,
    amount: u64,
    duration_ms: u64,
) -> Envelope {
    Envelope::new().with_promise_request(PromiseRequestHeader {
        request_id: request_id.to_owned(),
        client: client.to_owned(),
        predicates: vec![format!("qty('{pool}') >= {amount}")],
        duration_ms,
        exchange: vec![],
        negotiate: false,
        prepare: false,
    })
}

/// Shape of a fault-sweep workload.
#[derive(Debug, Clone, Copy)]
pub struct FaultSweepConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Grant+purchase operations per client.
    pub ops_per_client: usize,
    /// Quantity pools.
    pub pools: usize,
    /// Units seeded per pool.
    pub qty: u64,
    /// Per-op amount is uniform in `1..=amount_max`.
    pub amount_max: u64,
    /// Probability a client "dies" after its grant (kill-the-client:
    /// never purchases, never releases — expiry must reclaim).
    pub kill_probability: f64,
    /// Master seed for workload mix and client jitter.
    pub seed: u64,
}

impl Default for FaultSweepConfig {
    fn default() -> Self {
        Self {
            clients: 4,
            ops_per_client: 25,
            pools: 2,
            qty: 100_000,
            amount_max: 3,
            kill_probability: 0.1,
            seed: 42,
        }
    }
}

/// Outcome of one fault-sweep run, including the post-run audits.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultRunReport {
    /// Grant requests attempted.
    pub attempts: u64,
    /// Grants confirmed to a client.
    pub granted: u64,
    /// Grants rejected by the manager (insufficient stock, overload, ...).
    pub rejected: u64,
    /// Purchases confirmed applied (client saw `ok`).
    pub purchased_ops: u64,
    /// Promises released standalone (no purchase): the client changed its
    /// mind and returned the reservation over the wire, exercising the
    /// `pm.release` path the action-attached `release_after` flag skips.
    pub released: u64,
    /// Units the clients confirmed purchasing.
    pub confirmed_units: u64,
    /// Retried actions answered "unknown promise": the first delivery had
    /// already applied the action and released the promise, so the retry
    /// confirms completion rather than re-applying.
    pub already_applied: u64,
    /// Operations that failed with "promise-expired".
    pub expired: u64,
    /// Actions that failed for any other reason.
    pub action_failed: u64,
    /// Sends abandoned after the retry budget was exhausted.
    pub gave_up: u64,
    /// Clients killed after their grant (leak test input).
    pub killed: u64,
    /// Units actually removed from the pools (server-side truth).
    pub units_taken: u64,
    /// Pools where promised quantity exceeded on-hand after the run — the
    /// paper's guarantee says this is **always zero**.
    pub violations: u64,
    /// `(client, request)` pairs with more than one `Grant` journal record
    /// — retried grants must dedup, so this is **always zero**.
    pub double_grants: u64,
    /// Grant requests answered from the manager's request-id index.
    pub deduped: u64,
    /// Transport retries performed by the client.
    pub retries: u64,
    /// Faults that actually fired.
    pub faults: FaultStats,
    /// Promises still live after the post-run expiry reap (leak audit —
    /// zero when expiry reclaims everything the killed clients held).
    pub live_after_reap: usize,
    /// Wall-clock duration of the workload phase.
    pub elapsed: Duration,
}

/// Drives `cfg.clients` concurrent grant→purchase clients through the full
/// wire pipeline under `scenario`, then audits violations, double grants
/// and leaks. See the module docs for the guarantees checked.
pub fn run_fault_sweep(scenario: FaultScenario, cfg: &FaultSweepConfig) -> FaultRunReport {
    run_fault_sweep_with(scenario, cfg).0
}

/// One sweep client's op stream against the node at `to`; returns its
/// share of the client-side tallies (the audit columns are filled in by
/// the caller).
fn fault_sweep_client(
    client: &RetryingClient,
    to: &str,
    cfg: &FaultSweepConfig,
    c: usize,
) -> FaultRunReport {
    let mut t = FaultRunReport::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(c as u64 * 7919));
    for op in 0..cfg.ops_per_client {
        let pool = pool_name(rng.random_range(0..cfg.pools));
        let amount = rng.random_range(1..=cfg.amount_max);
        let kill = rng.random_bool(cfg.kill_probability);
        let request_id = format!("c{c}-o{op}");
        // Killed clients get a short promise so expiry can reclaim it;
        // live clients a long one.
        let duration_ms = if kill { 10 } else { 3_600_000 };
        let who = format!("client-{c}");
        let grant = grant_request(&request_id, &who, &pool, amount, duration_ms);
        let reply = match client.send(to, &grant) {
            Ok(r) => r,
            Err(_) => {
                t.gave_up += 1;
                continue;
            }
        };
        let promise_id = match reply.response_for(&request_id) {
            Some(resp) if matches!(resp.result, PromiseResult::Rejected(_)) => {
                t.rejected += 1;
                continue;
            }
            Some(resp) => match resp.promise_id {
                Some(id) => {
                    t.granted += 1;
                    id
                }
                None => {
                    t.action_failed += 1;
                    continue;
                }
            },
            None => {
                t.gave_up += 1;
                continue;
            }
        };
        if kill {
            // The client dies holding its promise: no release,
            // no purchase. Expiry is the only way back.
            t.killed += 1;
            continue;
        }
        if op % 5 == 4 {
            // Every fifth op changes its mind: release the
            // promise standalone instead of purchasing, so the
            // pm.release histogram sees real wire traffic (the
            // action path's release_after flag bypasses it).
            match client.send(to, &Envelope::new().with_release(promise_id)) {
                Ok(_) => t.released += 1,
                Err(_) => t.gave_up += 1,
            }
            continue;
        }
        match client.send(to, &purchase_request(promise_id, &pool, amount)) {
            Err(_) => t.gave_up += 1,
            Ok(reply) => match reply.action_response {
                Some(resp) if resp.ok => {
                    t.purchased_ops += 1;
                    t.confirmed_units += amount;
                }
                Some(resp) => {
                    let msg = resp.error.unwrap_or_default();
                    if msg.contains("unknown promise") {
                        // The action+release already committed
                        // on a delivery whose reply was lost;
                        // the released promise id proves it.
                        t.already_applied += 1;
                        t.purchased_ops += 1;
                        t.confirmed_units += amount;
                    } else if msg.contains("promise-expired") {
                        t.expired += 1;
                    } else {
                        t.action_failed += 1;
                    }
                }
                None => t.action_failed += 1,
            },
        }
    }
    t
}

/// [`run_fault_sweep`], returning the quiesced harness so callers can
/// run further audits (journal, spans, commit counters) after the sweep.
/// Client, bus, PM and RM all record into the node's telemetry registry.
pub fn run_fault_sweep_with(
    scenario: FaultScenario,
    cfg: &FaultSweepConfig,
) -> (FaultRunReport, FaultHarness) {
    let h = fault_harness(scenario, cfg.pools, cfg.qty);
    let client = Arc::new(
        RetryingClient::new(Arc::clone(&h.bus), RetryPolicy::new(cfg.seed ^ 0xC1_1E57))
            .with_telemetry(Arc::clone(&h.node.telemetry)),
    );

    let to = h.node.endpoint.as_str();
    let start = Instant::now();
    let tallies: Vec<FaultRunReport> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let (client, cfg) = (Arc::clone(&client), *cfg);
                scope.spawn(move || fault_sweep_client(&client, to, &cfg, c))
            })
            .collect();
        let joined = clients.into_iter().map(|h| h.join().expect("sweep client"));
        joined.collect()
    });
    let elapsed = start.elapsed();

    // ---- Audits run on a quiet system. ----
    h.quiesce();
    let mut report = FaultRunReport {
        attempts: (cfg.clients * cfg.ops_per_client) as u64,
        deduped: h.node.pm.metrics().grants_deduped,
        retries: client.stats().retries,
        faults: h.injector.stats(),
        elapsed,
        ..FaultRunReport::default()
    };
    for t in tallies {
        report.granted += t.granted;
        report.rejected += t.rejected;
        report.purchased_ops += t.purchased_ops;
        report.released += t.released;
        report.confirmed_units += t.confirmed_units;
        report.already_applied += t.already_applied;
        report.expired += t.expired;
        report.action_failed += t.action_failed;
        report.gave_up += t.gave_up;
        report.killed += t.killed;
    }

    // The per-manager half of the one audit: oversells (violations) and
    // double grants, straight from the books and the journal.
    let books = audit_manager(&h.node.pm, &h.node.journal, &h.node.rm);
    report.violations = books.oversells;
    report.double_grants = books.double_grants;
    // Server-side truth of units taken.
    let on_hand = |i| h.node.pm.quantity_on_hand(pool_name(i)).unwrap_or(0);
    let final_total: u64 = (0..cfg.pools).map(on_hand).sum();
    report.units_taken = (cfg.pools as u64 * cfg.qty).saturating_sub(final_total);

    // Leak audit: advance past every duration; expiry must reclaim the
    // killed clients' promises (and any grants whose replies were lost).
    h.clock.advance(4_000_000);
    let _ = h.node.pm.prune_expired();
    report.live_after_reap = h.node.pm.live_count();
    (report, h)
}

/// Outcome of a crash–restart run.
#[derive(Debug, Clone)]
pub struct CrashRestartReport {
    /// Digest of the manager state immediately before the crash.
    pub pre_digest: String,
    /// Digest after [`ShardNode::crash_restart`] rebuilt the manager.
    pub post_digest: String,
    /// What recovery did.
    pub recovery: RecoveryReport,
    /// Promises that expired *while the manager was down* and were pruned
    /// during recovery.
    pub pruned_while_down: usize,
    /// Each pool's quantity on hand `(before the crash, after recovery)`.
    pub on_hand: Vec<(u64, u64)>,
}

impl CrashRestartReport {
    /// True if the recovered state is byte-equivalent to the pre-crash
    /// state (after accounting for down-time expiry) and every pool holds
    /// what it held before: no sale was lost.
    pub fn state_matches(&self) -> bool {
        self.pre_digest == self.post_digest
            && self.on_hand.iter().all(|(before, after)| before == after)
    }
}

/// Grants a mixed batch of promises across two pools through the wire,
/// every second one followed by a purchase released with it, crashes the
/// node and rebuilds it from its hosting record and journal alone
/// ([`ShardNode::crash_restart`]), and compares state digests and stock
/// on hand. With `down_ms > 0` the clock advances while the manager is
/// down, so promises with short durations expire in the gap and must be
/// pruned — not resurrected — by recovery.
pub fn run_crash_restart(seed: u64, grants: usize, down_ms: u64) -> CrashRestartReport {
    let mut h = fault_harness(FaultScenario::quiet(seed), 2, 10_000);
    let client = RetryingClient::new(Arc::clone(&h.bus), RetryPolicy::new(seed));
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..grants {
        let pool = pool_name(rng.random_range(0..2usize));
        let amount = rng.random_range(1..=4u64);
        // A third of the grants are short-lived so down-time can expire
        // them; the rest outlive any plausible down-time.
        let duration_ms = if i % 3 == 0 { 50 } else { 10_000_000 };
        let request_id = format!("r{i}");
        let envelope = grant_request(&request_id, "crash-client", &pool, amount, duration_ms);
        let granted = (client.send(&h.node.endpoint, &envelope).ok())
            .and_then(|reply| reply.response_for(&request_id)?.promise_id);
        if let Some(promise) = granted.filter(|_| i % 2 == 1) {
            let _ = client.send(&h.node.endpoint, &purchase_request(promise, &pool, amount));
        }
    }

    // "Crash": the node's manager and storage die with it. Only the
    // journal and the hosting record survive.
    let on_hand =
        |h: &FaultHarness| [0, 1].map(|i| h.node.pm.quantity_on_hand(pool_name(i)).unwrap_or(0));
    let before = on_hand(&h);
    let pre_digest_at_crash = h.node.pm.state_digest();
    h.clock.advance(down_ms);
    let recovery = h.node.crash_restart(&h.bus);
    let post_digest = h.node.pm.state_digest();

    // When nothing expired in the gap the recovered digest must equal the
    // pre-crash digest byte for byte. When down-time expired promises the
    // reference is a *second* recovery over the extended journal (now
    // carrying the new-generation Expire records): replay is idempotent,
    // so a clean re-recovery is the ground truth the first must match.
    let pre_digest = if recovery.pruned == 0 {
        pre_digest_at_crash
    } else {
        clean_replay_digest(&h.node, &h.node.journal.lines())
    };

    CrashRestartReport {
        pre_digest,
        post_digest,
        recovery,
        pruned_while_down: recovery.pruned,
        on_hand: before.into_iter().zip(on_hand(&h)).collect(),
    }
}

/// Outcome of a compaction crash–restart run.
#[derive(Debug, Clone)]
pub struct CompactionCrashReport {
    /// Digest of recovery over the *uncompacted* journal — the ground
    /// truth any post-compaction recovery must reproduce byte for byte.
    pub reference_digest: String,
    /// Digest of recovery over whatever the (possibly interrupted)
    /// compaction left behind.
    pub recovered_digest: String,
    /// Journal records before compaction ran.
    pub journal_len_before: usize,
    /// Journal records the recovery actually replayed.
    pub journal_len_after: usize,
    /// True when an armed [`CompactionCrash`] fired mid-compaction.
    pub interrupted: bool,
    /// Live promises after recovery.
    pub live: usize,
}

impl CompactionCrashReport {
    /// True when recovery after (interrupted) compaction is
    /// byte-equivalent to recovery over the full uncompacted history.
    pub fn state_matches(&self) -> bool {
        self.reference_digest == self.recovered_digest
    }
}

/// Builds real grant/release history through the wire pipeline, snapshots
/// the uncompacted journal as ground truth, then compacts — optionally
/// dying at an armed [`CompactionCrash`] point — crashes the manager, and
/// recovers a fresh one from whatever the journal holds. Whether the
/// crash fired before the swap (old journal intact) or after it (the
/// checkpoint is durable), the recovered digest must equal the
/// uncompacted reference.
pub fn run_compaction_crash_restart(
    seed: u64,
    grants: usize,
    crash: Option<CompactionCrash>,
) -> CompactionCrashReport {
    let mut h = fault_harness(FaultScenario::quiet(seed), 2, 10_000);
    let client = RetryingClient::new(Arc::clone(&h.bus), RetryPolicy::new(seed));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut held = Vec::new();
    for i in 0..grants {
        let pool = pool_name(rng.random_range(0..2usize));
        let amount = rng.random_range(1..=4u64);
        let request_id = format!("r{i}");
        let envelope = grant_request(&request_id, "compact-client", &pool, amount, 10_000_000);
        if let Ok(reply) = client.send(&h.node.endpoint, &envelope) {
            if let Some(id) = reply.response_for(&request_id).and_then(|r| r.promise_id) {
                held.push(id);
            }
        }
    }
    // Release roughly half the holds so the journal carries dead history
    // beyond the live set — the records compaction exists to drop.
    for id in held.iter().step_by(2) {
        let _ = client.send(&h.node.endpoint, &Envelope::new().with_release(*id));
    }
    let journal_len_before = h.node.journal.len();

    // Ground truth: a recovery over the full uncompacted history.
    let reference_digest = clean_replay_digest(&h.node, &h.node.journal.lines());

    if let Some(point) = crash {
        h.node.pm.arm_compaction_crash(point);
    }
    let interrupted = match h.node.pm.compact() {
        Ok(_) => false,
        Err(PromiseError::CompactionInterrupted) => true,
        Err(e) => panic!("unexpected compaction failure: {e}"),
    };
    assert_eq!(interrupted, crash.is_some(), "armed crashes must fire");

    // The real crash: only the journal, the hosting record and the clock
    // survive.
    h.node.crash_restart(&h.bus);
    CompactionCrashReport {
        reference_digest,
        recovered_digest: h.node.pm.state_digest(),
        journal_len_before,
        journal_len_after: h.node.journal.len(),
        interrupted,
        live: h.node.pm.live_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_sweep_is_clean() {
        let cfg = FaultSweepConfig {
            clients: 3,
            ops_per_client: 15,
            ..FaultSweepConfig::default()
        };
        let report = run_fault_sweep(FaultScenario::quiet(1), &cfg);
        assert_eq!(report.violations, 0);
        assert_eq!(report.double_grants, 0);
        assert_eq!(report.gave_up, 0);
        assert_eq!(
            report.live_after_reap, 0,
            "expiry reclaims kill-client promises"
        );
        assert!(report.purchased_ops > 0);
        assert_eq!(report.units_taken, report.confirmed_units);
    }

    #[test]
    fn faulty_sweep_holds_invariants() {
        let cfg = FaultSweepConfig {
            clients: 4,
            ops_per_client: 20,
            ..FaultSweepConfig::default()
        };
        let (report, h) = run_fault_sweep_with(
            FaultScenario::uniform(7, 0.15).with_storage_errors(0.05),
            &cfg,
        );
        assert_eq!(report.violations, 0, "promises must never be violated");
        assert_eq!(report.double_grants, 0, "retried grants must dedup");
        assert_eq!(report.live_after_reap, 0, "expiry reclaims everything");
        assert!(
            report.units_taken >= report.confirmed_units,
            "server cannot have taken less than clients confirmed"
        );
        // The `<action>` bodies ran through the node's shard worker: it led
        // commit batches, and purchases committed while the RM was
        // failing storage writes underneath them.
        assert!(h.node.server.commit_stats().batches > 0, "worker committed");
        assert!(report.faults.storage_faults > 0, "storage errors fired");
        assert!(report.purchased_ops > 0, "purchases commit under faults");
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let cfg = FaultSweepConfig {
            clients: 1,
            ops_per_client: 30,
            ..FaultSweepConfig::default()
        };
        let scenario = FaultScenario::uniform(11, 0.2);
        let a = run_fault_sweep(scenario.clone(), &cfg);
        let b = run_fault_sweep(scenario, &cfg);
        // Single-threaded: the whole run is a pure function of the seeds.
        assert_eq!(a.granted, b.granted);
        assert_eq!(a.purchased_ops, b.purchased_ops);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn crash_restart_preserves_state() {
        let report = run_crash_restart(5, 12, 0);
        assert_eq!(report.pruned_while_down, 0);
        assert!(report.recovery.recovered > 0);
        let sold = report.on_hand.iter().any(|(before, _)| *before < 10_000);
        assert!(sold, "purchases ran: {:?}", report.on_hand);
        assert!(
            report.state_matches(),
            "pre:\n{}\npost:\n{}\non hand (before, after): {:?}",
            report.pre_digest,
            report.post_digest,
            report.on_hand
        );
    }

    #[test]
    fn crash_restart_prunes_downtime_expiry() {
        let report = run_crash_restart(9, 12, 3_700_000);
        assert!(
            report.pruned_while_down > 0,
            "short grants expired in the gap"
        );
        assert!(report.state_matches());
    }

    #[test]
    fn compaction_then_crash_recovers_identical_state() {
        let report = run_compaction_crash_restart(13, 16, None);
        assert!(!report.interrupted);
        assert!(
            report.journal_len_after < report.journal_len_before,
            "compaction must shrink the journal: {} -> {}",
            report.journal_len_before,
            report.journal_len_after
        );
        assert!(
            report.state_matches(),
            "ref:\n{}\ngot:\n{}",
            report.reference_digest,
            report.recovered_digest
        );
        assert!(report.live > 0, "live holds survive compaction");
    }

    #[test]
    fn crash_before_swap_leaves_old_journal_recoverable() {
        let report = run_compaction_crash_restart(17, 16, Some(CompactionCrash::BeforeSwap));
        assert!(report.interrupted);
        assert_eq!(
            report.journal_len_after, report.journal_len_before,
            "the swap never happened: old journal intact"
        );
        assert!(report.state_matches());
    }

    #[test]
    fn crash_after_swap_recovers_from_the_checkpoint() {
        let report = run_compaction_crash_restart(19, 16, Some(CompactionCrash::AfterSwap));
        assert!(report.interrupted);
        assert!(
            report.journal_len_after < report.journal_len_before,
            "the swap was durable before the crash"
        );
        assert!(report.state_matches());
    }
}
