//! One promise-manager shard: an autonomous node owning a subset of the
//! pools, with its own resource manager, journal, telemetry registry, and
//! wire gateway. Shards share nothing but the bus and the cluster clock —
//! cooperation happens only through explicit promise messages, never
//! shared state.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};
use promises_core::{Catalog, Clock, PoolSchema, PromiseJournal, PromiseManager, RecoveryReport};
use promises_rm::ResourceManager;
use promises_telemetry::{FlightRecorder, JournalFacts, ShardEvidence, Telemetry};
use promises_wire::{Envelope, Fulfiller, InMemoryBus, Pending, PromiseGateway, Service};

use crate::commit::{CommitStats, GroupCommitter};
use crate::replica::{ReplicationLink, ShardFollower};
use crate::router::shard_endpoint;

/// The live incarnation of a shard node: the gateway (wrapping the
/// promise manager) and the journal it appends to. Both live in one
/// swap slot so a reader can never observe a torn pairing — a new
/// gateway with the old incarnation's journal or vice versa.
struct NodeState {
    gateway: Arc<PromiseGateway>,
    journal: Arc<PromiseJournal>,
}

/// One queued request: the envelope plus the reply its caller holds a
/// [`Pending`] for. The worker that pops the job owns the reply: it fulfils
/// it, or — if the handler panics — drops it, which re-raises the panic in
/// the waiter, so a failing assertion in a handler still fails the test
/// that sent the message instead of deadlocking it.
struct Job {
    envelope: Envelope,
    reply: Fulfiller,
}

/// State shared between the server facade and its worker threads. Workers
/// hold `Arc<ServerInner>` — never `Arc<ShardServer>` — so the facade's
/// `Drop` (which joins the workers) is actually reachable.
struct ServerInner {
    queue: Mutex<VecDeque<Job>>,
    arrived: Condvar,
    /// Release-stored by `Drop`, Acquire-loaded by workers: the store
    /// must happen-before a woken worker's decision to exit, or a worker
    /// could miss jobs queued before shutdown.
    shutdown: AtomicBool,
    state: RwLock<NodeState>,
    /// Incarnation counter, bumped under the `state` write lock on every
    /// swap. Release/Acquire so an observer that reads epoch N is
    /// guaranteed to see incarnation N's state if it then takes the read
    /// lock — the epoch-checked access the restart-under-load test pins.
    epoch: AtomicU64,
    /// Modeled per-message service time. Relaxed is deliberate: this is a
    /// standalone configuration value — no other data is published
    /// through it, so no happens-before edge is load-bearing.
    service_us: AtomicU64,
    replication: Mutex<Option<Arc<ReplicationLink>>>,
    committer: GroupCommitter,
}

impl ServerInner {
    /// One worker iteration's request lifecycle: modeled service time,
    /// then the handler under the incarnation read lock, then the
    /// group-commit barrier before the reply is released.
    fn process(&self, envelope: Envelope) -> Envelope {
        let us = self.service_us.load(Ordering::Relaxed);
        if us > 0 {
            // The sleep models the node's service time on its own thread
            // (not under any lock): sleeps overlap across shard threads,
            // which is what makes cluster throughput scale with shard
            // count in wall-clock time even on a small test box.
            std::thread::sleep(Duration::from_micros(us));
        }
        // Hold the incarnation read lock across the whole handler: a
        // crash–restart's swap (write lock) now *waits for in-flight
        // requests to drain* before recovery replays the journal, so a
        // request can never run — or journal — against a dead
        // incarnation after its replacement was built. (This closes the
        // race where the old code cloned the gateway and dropped the
        // lock before handling.)
        let (reply, seq, journal) = {
            let state = self.state.read();
            let reply = state.gateway.handle(envelope);
            // Everything this message appended is covered by the tip.
            (reply, state.journal.tip_seq(), Arc::clone(&state.journal))
        };
        // Group-commit barrier, outside the incarnation lock so a pending
        // swap only waits for handling, never for replication: the reply
        // may not leave until the batch containing this message's records
        // is flushed and shipped (DESIGN §19).
        let link = self.replication.lock().clone();
        self.committer.commit_through(seq, &journal, link.as_ref());
        reply
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock();
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    self.arrived.wait(&mut queue);
                }
            };
            if let Ok(reply) = catch_unwind(AssertUnwindSafe(|| self.process(job.envelope))) {
                job.reply.fulfil(reply);
            }
        }
    }
}

/// The bus-facing front of a shard: a real executor. The bus posts each
/// envelope from the caller's thread; `submit` enqueues it on the shard's
/// inbound queue and the caller blocks on the returned [`Pending`] until a
/// shard worker has processed it. Each shard runs one dedicated worker thread by default —
/// the thread-per-shard model, preserving the one-core-per-node service
/// discipline E13 assumes — and can grow a small pool
/// ([`ShardServer::set_workers`]) where intra-shard concurrency is wanted;
/// the PR 1 footprint-scoped locks, not a node-wide loop mutex, provide
/// isolation inside the shard.
///
/// The gateway (and on promotion, the journal) behind the server is
/// swappable, so a crash–restart replaces the shard's promise manager
/// without re-registering the endpoint; the swap quiesces in-flight
/// requests first (see [`ServerInner::process`]).
pub struct ShardServer {
    inner: Arc<ServerInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ShardServer {
    fn new(gateway: Arc<PromiseGateway>, journal: Arc<PromiseJournal>) -> Self {
        let server = Self {
            inner: Arc::new(ServerInner {
                queue: Mutex::new(VecDeque::new()),
                arrived: Condvar::new(),
                shutdown: AtomicBool::new(false),
                state: RwLock::new(NodeState { gateway, journal }),
                epoch: AtomicU64::new(0),
                service_us: AtomicU64::new(0),
                replication: Mutex::new(None),
                committer: GroupCommitter::new(),
            }),
            workers: Mutex::new(Vec::new()),
        };
        server.spawn_worker();
        server
    }

    fn spawn_worker(&self) {
        let inner = Arc::clone(&self.inner);
        self.workers
            .lock()
            .push(std::thread::spawn(move || inner.worker_loop()));
    }

    /// Grows the worker pool to `n` threads (never shrinks — workers are
    /// parked on the queue condvar and cost nothing idle). More than one
    /// worker lets requests overlap *inside* a shard, isolated by the
    /// footprint-scoped manager locks; the default of one preserves the
    /// one-core-per-node model.
    pub fn set_workers(&self, n: usize) {
        let current = self.workers.lock().len();
        for _ in current..n {
            self.spawn_worker();
        }
    }

    /// Current worker-pool size.
    pub fn worker_count(&self) -> usize {
        self.workers.lock().len()
    }

    /// Requests queued but not yet claimed by a worker.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Sets the modeled per-message service time (0 disables the model).
    pub fn set_service_us(&self, us: u64) {
        self.inner.service_us.store(us, Ordering::Relaxed);
    }

    /// The incarnation epoch: how many times the gateway/journal slot has
    /// been swapped (crash–restarts plus promotions).
    pub fn incarnation_epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Group-commit counters for this shard (batches led, bounded
    /// semi-sync give-ups).
    pub fn commit_stats(&self) -> CommitStats {
        self.inner.committer.stats()
    }

    /// Quiesces the shard (write-locking the incarnation slot, which
    /// drains in-flight handlers), runs `build` to construct the next
    /// incarnation — journal recovery happens *inside* the quiesced
    /// window, so no request can append between replay and install —
    /// then installs it and bumps the epoch.
    fn swap_state<R>(
        &self,
        build: impl FnOnce() -> (Arc<PromiseGateway>, Arc<PromiseJournal>, R),
    ) -> R {
        let mut slot = self.inner.state.write();
        let (gateway, journal, result) = build();
        slot.gateway = gateway;
        slot.journal = journal;
        // Bumped while still exclusive: any reader that subsequently
        // acquires the slot sees the new epoch with the new incarnation.
        self.inner.epoch.fetch_add(1, Ordering::Release);
        drop(slot);
        result
    }

    /// Installs (or clears) the replication link enforced by the
    /// group-commit barrier: no reply leaves the node until the batch
    /// containing its records is flushed and shipped (DESIGN §19).
    pub fn set_replication(&self, link: Option<Arc<ReplicationLink>>) {
        *self.inner.replication.lock() = link;
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        // Release pairs with the workers' Acquire load: a worker woken by
        // the notify below must observe the flag (and it drains the queue
        // before exiting, so nothing queued is abandoned).
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.arrived.notify_all();
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Service for ShardServer {
    fn handle(&self, envelope: Envelope) -> Envelope {
        self.submit(envelope).wait()
    }

    /// Enqueues the message for a shard worker and returns at once, so a
    /// caller with legs for several shards has them all working before it
    /// waits on the first.
    fn submit(&self, envelope: Envelope) -> Pending {
        let (reply, pending) = Pending::slot();
        self.inner.queue.lock().push_back(Job { envelope, reply });
        self.inner.arrived.notify_one();
        pending
    }
}

/// Registers the shard's quantity-purchase action handler (the same
/// merchant/purchase contract the single-node harnesses expose). A free
/// function so it can run inside [`ShardServer::swap_state`]'s quiesced
/// window when a restart or promotion builds a fresh gateway.
fn register_handlers(gateway: &PromiseGateway) {
    gateway.register_handler(
        "merchant",
        "purchase",
        Arc::new(|rm, txn, action| {
            let pool = action
                .get("pool")
                .ok_or_else(|| promises_core::ActionError::App("missing pool".into()))?
                .to_owned();
            let qty: i64 = action
                .get("qty")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| promises_core::ActionError::App("missing qty".into()))?;
            rm.update(txn, Catalog::QTY_TABLE, &pool, |r| {
                let q = r.int("qty").unwrap_or(0);
                r.set("qty", q - qty);
            })?;
            Ok(vec![("taken".into(), qty.to_string())])
        }),
    );
}

/// One shard node. The promise manager (and with it the in-memory promise
/// table) can be killed and rebuilt from the journal; the resource
/// manager, journal, and telemetry registry survive a restart, exactly as
/// durable storage would.
pub struct ShardNode {
    /// Shard index within the cluster.
    pub index: usize,
    /// Bus endpoint this shard's gateway answers on.
    pub endpoint: String,
    /// The shard's private resource manager.
    pub rm: Arc<ResourceManager>,
    /// The shard's durable promise journal.
    pub journal: Arc<PromiseJournal>,
    /// The shard's promise manager.
    pub pm: Arc<PromiseManager>,
    /// The wire gateway wrapping `pm`.
    pub gateway: Arc<PromiseGateway>,
    /// The bus-facing server loop fronting `gateway`.
    pub server: Arc<ShardServer>,
    /// The shard's private telemetry registry.
    pub telemetry: Arc<Telemetry>,
    /// The warm standby, when the cluster enabled replication.
    pub follower: Option<Arc<ShardFollower>>,
    /// The shipping channel feeding `follower`.
    pub replication: Option<Arc<ReplicationLink>>,
    /// Flight recorder for this node's state transitions (crash/restart,
    /// promotion, compaction swaps) — shares the cluster epoch.
    pub recorder: Arc<FlightRecorder>,
    clock: Arc<dyn Clock>,
}

impl ShardNode {
    /// Builds shard `index` on `bus` with fresh storage. Pools are
    /// registered later by the cluster builder ([`ShardNode::host_pool`]).
    pub fn build(index: usize, bus: &InMemoryBus, clock: Arc<dyn Clock>) -> Self {
        let rm = Arc::new(ResourceManager::new());
        let journal = Arc::new(PromiseJournal::new());
        let telemetry = Telemetry::shared();
        let pm = Arc::new(
            PromiseManager::new(Arc::clone(&rm), Arc::clone(&clock))
                .with_journal(Arc::clone(&journal)),
        );
        rm.set_telemetry(Some(Arc::clone(&telemetry)));
        pm.set_telemetry(Some(Arc::clone(&telemetry)));
        let gateway = Arc::new(PromiseGateway::new(Arc::clone(&pm)));
        register_handlers(&gateway);
        let node = Self {
            index,
            endpoint: shard_endpoint(index),
            rm,
            server: Arc::new(ShardServer::new(Arc::clone(&gateway), Arc::clone(&journal))),
            journal,
            gateway,
            pm,
            telemetry,
            follower: None,
            replication: None,
            recorder: FlightRecorder::new(shard_endpoint(index)),
            clock,
        };
        bus.register(&node.endpoint, Arc::clone(&node.server) as _);
        node
    }

    /// Registers and seeds a quantity pool on this shard.
    pub fn host_pool(&self, pool: &str, qty: u64) {
        self.pm.register_pool(PoolSchema::quantity(pool));
        self.pm.seed_quantity(pool, qty).expect("seed shard pool");
    }

    /// Registers a quantity pool on this shard with an escrow `lease` as
    /// its on-hand quantity (the shard's slice of the cluster-wide pool;
    /// journalled as an `L` record so the split survives crash/restart).
    pub fn host_leased_pool(&self, pool: &str, lease: u64) {
        self.pm.register_pool(PoolSchema::quantity(pool));
        self.pm.install_lease(pool, lease).expect("install lease");
    }

    /// Kills the shard's promise manager (the in-memory table dies) and
    /// rebuilds it from the journal, re-registering on `bus`. Returns the
    /// recovery report — `in_doubt` counts prepared holds awaiting the
    /// coordinator. `pools` must list the pool names this shard hosts
    /// (schema registration is not journalled, matching the single-node
    /// crash–restart harness).
    ///
    /// The rebuild runs inside the server's quiesced swap window:
    /// in-flight requests drain *before* recovery replays the journal,
    /// and requests arriving during the restart queue until the new
    /// incarnation is installed — so nothing can race into the dead
    /// manager or journal a record the replay has already passed.
    pub fn crash_restart(&mut self, bus: &InMemoryBus, pools: &[String]) -> RecoveryReport {
        let (pm, gateway, report) = self.server.swap_state(|| {
            let pm = Arc::new(PromiseManager::new(
                Arc::clone(&self.rm),
                Arc::clone(&self.clock),
            ));
            pm.set_telemetry(Some(Arc::clone(&self.telemetry)));
            for pool in pools {
                pm.register_pool(PoolSchema::quantity(pool.as_str()));
            }
            let report = pm
                .recover(Arc::clone(&self.journal))
                .expect("shard recovery succeeds");
            let gateway = Arc::new(PromiseGateway::new(Arc::clone(&pm)));
            register_handlers(&gateway);
            (
                Arc::clone(&gateway),
                Arc::clone(&self.journal),
                (pm, gateway, report),
            )
        });
        self.recorder.record(
            "node.restart",
            format!(
                "{} replayed={} recovered={} in_doubt={}",
                self.endpoint, report.replayed, report.recovered, report.in_doubt
            ),
        );
        self.pm = pm;
        self.gateway = gateway;
        bus.register(&self.endpoint, Arc::clone(&self.server) as _);
        report
    }

    /// Promotes this shard's warm follower over a dead leader: the
    /// leader's RM, journal, and promise table are all treated as lost
    /// with the node. The follower's journal copy becomes the shard's
    /// journal; a fresh RM is rebuilt (`schemas` re-registered, `seeds`
    /// restoring the on-hand quantities of non-leased pools — leased
    /// pools re-sync on-hand from their journalled `L` records during
    /// recovery), the standard recovery path replays the replica, and the
    /// reused server loop answers on `new_endpoint` (the epoch-fenced
    /// address minted by the router). The caller attaches a fresh
    /// follower afterwards so the promoted leader is itself protected.
    pub fn promote(
        &mut self,
        bus: &InMemoryBus,
        schemas: &[String],
        seeds: &[(String, u64)],
        new_endpoint: String,
    ) -> RecoveryReport {
        let follower = self
            .follower
            .take()
            .expect("promotion requires replication to be enabled");
        self.replication = None;
        self.server.set_replication(None);

        let journal = Arc::clone(&follower.journal);
        let (rm, pm, gateway, report) = self.server.swap_state(|| {
            let rm = Arc::new(ResourceManager::new());
            rm.set_telemetry(Some(Arc::clone(&self.telemetry)));
            let pm = Arc::new(PromiseManager::new(
                Arc::clone(&rm),
                Arc::clone(&self.clock),
            ));
            pm.set_telemetry(Some(Arc::clone(&self.telemetry)));
            for pool in schemas {
                pm.register_pool(PoolSchema::quantity(pool.as_str()));
            }
            for (pool, qty) in seeds {
                pm.seed_quantity(pool.as_str(), *qty)
                    .expect("re-seed promoted pool");
            }
            let report = pm
                .recover(Arc::clone(&journal))
                .expect("follower journal replays cleanly");
            let gateway = Arc::new(PromiseGateway::new(Arc::clone(&pm)));
            register_handlers(&gateway);
            (
                Arc::clone(&gateway),
                Arc::clone(&journal),
                (rm, pm, gateway, report),
            )
        });

        self.rm = rm;
        self.journal = journal;
        self.pm = pm;
        self.gateway = gateway;
        self.endpoint = new_endpoint;
        bus.register(&self.endpoint, Arc::clone(&self.server) as _);
        self.recorder.record(
            "failover.promote",
            format!(
                "{} replayed={} recovered={} in_doubt={}",
                self.endpoint, report.replayed, report.recovered, report.in_doubt
            ),
        );
        report
    }

    /// Ground truth for the lifecycle auditor, digested from the journal.
    pub fn journal_facts(&self) -> JournalFacts {
        let mut facts = JournalFacts::default();
        if let Ok(entries) = self.journal.entries() {
            for entry in entries {
                match entry.op {
                    promises_core::JournalOp::Grant(rec) => {
                        facts.granted.insert(rec.id.0);
                    }
                    promises_core::JournalOp::Prepared(rec) => {
                        facts.granted.insert(rec.id.0);
                    }
                    promises_core::JournalOp::Release(id) => {
                        facts.released.insert(id.0);
                    }
                    promises_core::JournalOp::Expire(id) => {
                        facts.expired.insert(id.0);
                    }
                    promises_core::JournalOp::Checkpoint(cp) => {
                        // A checkpoint *is* the journal prefix: every live
                        // record it carries was granted (compaction already
                        // folded released/expired history away).
                        for item in cp.live {
                            facts.granted.insert(item.record.id.0);
                        }
                    }
                    _ => {}
                }
            }
        }
        facts
    }

    /// This shard's spans + journal truth, packaged for
    /// [`promises_telemetry::audit_cluster_lifecycles`].
    pub fn evidence(&self) -> ShardEvidence {
        ShardEvidence {
            label: self.endpoint.clone(),
            spans: self.telemetry.spans(),
            journal: self.journal_facts(),
        }
    }
}
