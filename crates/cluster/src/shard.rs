//! One promise-manager shard: an autonomous node owning a subset of the
//! pools, with its own resource manager, journal, telemetry registry, and
//! wire gateway. Shards share nothing but the bus and the cluster clock —
//! cooperation happens only through explicit promise messages, never
//! shared state.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use promises_core::{
    Catalog, Clock, InstanceId, PoolSchema, PromiseJournal, PromiseManager, RecoveryReport,
};
use promises_rm::{Record, ResourceManager};
use promises_telemetry::{FlightRecorder, ShardEvidence, Telemetry};
use promises_wire::{Envelope, Fulfiller, InMemoryBus, Pending, PromiseGateway, Service};

use crate::commit::{CommitCounters, CommitStats};
use crate::replica::{ReplicationLink, ShardFollower};
use crate::router::shard_endpoint;

/// The live incarnation of a shard node: the gateway (wrapping the
/// promise manager), the journal it appends to, and the link shipping that
/// journal to the follower. The shard's worker owns it and lends it out
/// only through a [`Job::Control`]: a restart, a promotion or a new link
/// borrows it between messages, so no message ever sees a torn pairing
/// or a dead incarnation.
struct NodeState {
    gateway: Arc<PromiseGateway>,
    journal: Arc<PromiseJournal>,
    link: Option<Arc<ReplicationLink>>,
}

/// One unit of work on the shard's queue, run in arrival order.
// A message is held by value so a submit allocates nothing but its reply
// slot.
#[allow(clippy::large_enum_variant)]
enum Job {
    /// An envelope plus the reply its caller holds a [`Pending`] for. The
    /// worker owns the reply: it fulfils it once the batch has committed,
    /// or — if the handler panics — drops it, which re-raises the panic in
    /// the waiter, so a failing assertion in a handler still fails the
    /// test that sent the message instead of deadlocking it.
    Message {
        envelope: Envelope,
        reply: Fulfiller,
    },
    /// A control call borrowing the incarnation: the worker sends it on
    /// `lend` once every message queued ahead has been handled and
    /// committed — FIFO order is the quiesce a swap needs — and waits for
    /// it on `back`.
    Control {
        lend: SyncSender<NodeState>,
        back: Receiver<NodeState>,
    },
}

/// State shared between the server facade and its worker. The worker
/// holds `Arc<ServerInner>` — never `Arc<ShardServer>` — so the facade's
/// `Drop` (which joins the worker) is actually reachable.
struct ServerInner {
    queue: Mutex<VecDeque<Job>>,
    arrived: Condvar,
    /// Written and read under the `queue` lock, so the lock orders it; the
    /// worker drains the queue before it exits.
    shutdown: AtomicBool,
    /// Incarnation counter, bumped by every swap. Relaxed: it publishes
    /// nothing, and a swap's caller reads it on its own thread.
    epoch: AtomicU64,
    /// Modeled per-message service time. Relaxed is deliberate: this is a
    /// standalone configuration value — no other data is published
    /// through it, so no happens-before edge is load-bearing.
    service_us: AtomicU64,
    commits: CommitCounters,
}

impl ServerInner {
    /// The worker. Each wake swaps the whole queue into a buffer it owns
    /// (so the drain allocates nothing), handles every message in it,
    /// commits once for the batch and then releases the batch's replies.
    /// A control job first commits and releases what is ahead of it, then
    /// lends the incarnation out until the control call hands it back.
    fn run(&self, mut state: NodeState) {
        let mut batch = VecDeque::new();
        let mut replies = Vec::new();
        loop {
            {
                let mut queue = self.queue.lock();
                while queue.is_empty() {
                    if self.shutdown.load(Ordering::Relaxed) {
                        return;
                    }
                    self.arrived.wait(&mut queue);
                }
                std::mem::swap(&mut *queue, &mut batch);
            }
            for job in batch.drain(..) {
                match job {
                    Job::Message { envelope, reply } => {
                        let handled =
                            catch_unwind(AssertUnwindSafe(|| self.handle(&state, envelope)));
                        if let Ok(answer) = handled {
                            replies.push((reply, answer));
                        }
                    }
                    Job::Control { lend, back } => {
                        self.release(&state, &mut replies);
                        lend.send(state).expect("the control call waits");
                        state = back
                            .recv()
                            .expect("a control call hands the incarnation back");
                    }
                }
            }
            self.release(&state, &mut replies);
        }
    }

    fn handle(&self, state: &NodeState, envelope: Envelope) -> Envelope {
        let us = self.service_us.load(Ordering::Relaxed);
        if us > 0 {
            // The sleep models the node's service time on its own thread:
            // sleeps overlap across shard threads, which is what makes
            // cluster throughput scale with shard count in wall-clock time
            // even on a small test box.
            std::thread::sleep(Duration::from_micros(us));
        }
        state.gateway.handle(envelope)
    }

    /// The group-commit barrier (DESIGN §19): no reply leaves until the
    /// records its batch appended are flushed and shipped.
    fn release(&self, state: &NodeState, replies: &mut Vec<(Fulfiller, Envelope)>) {
        if replies.is_empty() {
            return;
        }
        self.commits
            .commit(&state.journal, state.link.as_deref(), replies.len());
        for (reply, answer) in replies.drain(..) {
            reply.fulfil(answer);
        }
    }
}

/// The bus-facing front of a shard: a real executor. The bus posts each
/// envelope from the caller's thread; `submit` enqueues it on the shard's
/// inbound queue and the caller blocks on the returned [`Pending`] until
/// the shard's one worker thread has handled and committed it — the
/// thread-per-shard model, preserving the one-core-per-node service
/// discipline E13 assumes.
///
/// The incarnation behind the server is swappable, so a crash–restart or
/// a promotion replaces the shard's promise manager without
/// re-registering the endpoint; the swap is a job on the same queue (see
/// [`Job::Control`]).
pub struct ShardServer {
    inner: Arc<ServerInner>,
    worker: Option<JoinHandle<()>>,
}

impl ShardServer {
    fn new(gateway: Arc<PromiseGateway>, journal: Arc<PromiseJournal>) -> Self {
        let inner = Arc::new(ServerInner {
            queue: Mutex::new(VecDeque::new()),
            arrived: Condvar::new(),
            shutdown: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            service_us: AtomicU64::new(0),
            commits: CommitCounters::default(),
        });
        let state = NodeState {
            gateway,
            journal,
            link: None,
        };
        let worker = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || inner.run(state))
        };
        Self {
            inner,
            worker: Some(worker),
        }
    }

    /// Requests queued but not yet claimed by the worker.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Sets the modeled per-message service time (0 disables the model).
    pub fn set_service_us(&self, us: u64) {
        self.inner.service_us.store(us, Ordering::Relaxed);
    }

    /// The incarnation epoch: how many times the incarnation has been
    /// swapped (crash–restarts plus promotions).
    pub fn incarnation_epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Relaxed)
    }

    /// Group-commit counters for this shard (rounds led, replies released
    /// behind the follower).
    pub fn commit_stats(&self) -> CommitStats {
        self.inner.commits.stats()
    }

    /// Installs the replication link enforced by the group-commit
    /// barrier: no reply leaves the node until the batch containing its
    /// records is flushed and shipped (DESIGN §19). The link is synced
    /// inside its control call, before it is kept.
    pub fn set_replication(&self, link: Arc<ReplicationLink>) {
        self.control(move |state| {
            link.sync();
            state.link = Some(link);
        });
    }

    /// Runs `job` on the calling thread against the incarnation, borrowed
    /// from the worker after every job queued ahead of it has been handled
    /// and committed; messages queued behind it wait until it returns. A
    /// panic in `job` hands the incarnation back before it is re-raised.
    fn control<R>(&self, job: impl FnOnce(&mut NodeState) -> R) -> R {
        let (lend, lent) = sync_channel(1);
        let (give_back, back) = sync_channel(1);
        self.push(Job::Control { lend, back });
        let mut state = lent.recv().expect("the worker runs every queued job");
        let result = catch_unwind(AssertUnwindSafe(|| job(&mut state)));
        give_back
            .send(state)
            .expect("the worker waits for the incarnation");
        result.unwrap_or_else(|panic| resume_unwind(panic))
    }

    fn push(&self, job: Job) {
        self.inner.queue.lock().push_back(job);
        self.inner.arrived.notify_one();
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        // Set under the queue lock, so the worker cannot read the flag
        // and then sleep through the notify below.
        let queue = self.inner.queue.lock();
        self.inner.shutdown.store(true, Ordering::Relaxed);
        drop(queue);
        self.inner.arrived.notify_one();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Service for ShardServer {
    fn handle(&self, envelope: Envelope) -> Envelope {
        self.submit(envelope).wait()
    }

    /// Enqueues the message for the shard worker and returns at once, so
    /// a caller with legs for several shards has them all working before
    /// it waits on the first.
    fn submit(&self, envelope: Envelope) -> Pending {
        let (reply, pending) = Pending::slot();
        self.push(Job::Message { envelope, reply });
        pending
    }
}

/// Registers the shard's quantity-purchase action handler (the
/// merchant/purchase contract the fault sweeps' `<action>` bodies call).
/// A free function so it can run inside the control call in which a
/// restart or promotion builds a fresh gateway.
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

/// How a hosted pool was first filled: what every rebuild puts back
/// before recovery replays the journal over it.
#[derive(Debug, Clone)]
pub enum PoolSeed {
    /// Units on hand.
    Quantity(u64),
    /// This shard's escrow slice of a cluster-wide pool: a row with this
    /// many units on hand, all of them leased. Lease moves and sales are
    /// `W` records, so recovery, not the seed, restores the row's current
    /// value.
    Lease(u64),
    /// Instance records by id.
    Instances(Vec<(InstanceId, Record)>),
}

impl PoolSeed {
    /// Fills `schema`'s pool on `pm`, journalling nothing.
    fn apply(&self, pm: &PromiseManager, schema: &PoolSchema) {
        let pool = &schema.id;
        match self {
            Self::Quantity(qty) => pm.seed_quantity(pool.clone(), *qty),
            Self::Lease(lease) => pm.seed_lease(pool.clone(), *lease),
            Self::Instances(instances) => instances.iter().try_for_each(|(id, record)| {
                pm.seed_instance(pool.clone(), id.clone(), record.clone())
            }),
        }
        .expect("seed hosted pool");
    }
}

/// One shard node. The promise manager and the resource manager (and with
/// them the in-memory promise table and rows) can be killed and rebuilt:
/// the pools come back from the node's record of what it hosts, and
/// everything since from the journal, which carries the promise
/// operations and every action's writes. The journal and the telemetry
/// registry survive a restart.
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
    /// Every pool this node was given ([`ShardNode::host`]), in hosting
    /// order: the one record a restart or promotion rebuilds from.
    hosting: Mutex<Vec<(PoolSchema, PoolSeed)>>,
    /// The clock every incarnation of the manager reads.
    pub clock: Arc<dyn Clock>,
}

impl ShardNode {
    /// Builds shard `index` on `bus` with fresh storage. Pools are
    /// hosted later ([`ShardNode::host`]).
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
            hosting: Mutex::new(Vec::new()),
            clock,
        };
        bus.register(&node.endpoint, Arc::clone(&node.server) as _);
        node
    }

    /// Hosts a pool on this shard: registers `schema`, fills it from
    /// `seed`, and keeps both in the node's hosting record, which
    /// outlives the promise and resource managers as the journal does.
    pub fn host(&self, schema: PoolSchema, seed: PoolSeed) {
        self.pm.register_pool(schema.clone());
        seed.apply(&self.pm, &schema);
        self.hosting.lock().push((schema, seed));
    }

    /// Registers and seeds every pool this node hosts on `pm`, as it was
    /// first filled; recovering `pm` from the journal then brings it up
    /// to date.
    pub fn rehost(&self, pm: &PromiseManager) {
        for (schema, seed) in self.hosting.lock().iter() {
            pm.register_pool(schema.clone());
            seed.apply(pm, schema);
        }
    }

    /// Kills the shard's promise and resource managers (the in-memory
    /// table and rows die) and rebuilds both from the hosting record and
    /// the node's own journal, re-registering on `bus`. Returns the
    /// recovery report — `in_doubt` counts prepared holds awaiting the
    /// coordinator.
    ///
    /// The rebuild is a job on the server's queue: messages ahead of it
    /// are handled and committed *before* recovery replays the journal,
    /// and messages behind it wait for the new incarnation — so nothing
    /// can race into the dead manager or journal a record the replay has
    /// already passed.
    pub fn crash_restart(&mut self, bus: &InMemoryBus) -> RecoveryReport {
        let journal = Arc::clone(&self.journal);
        self.reincarnate(bus, journal, "node.restart")
    }

    /// Promotes this shard's warm follower over a dead leader: the
    /// leader's RM, journal, and promise table are all treated as lost
    /// with the node. The follower's journal copy becomes the shard's
    /// journal, the node is rebuilt from it as a restart rebuilds from its
    /// own, and the reused server loop answers on `new_endpoint` (the
    /// epoch-fenced address minted by the router). The old link is
    /// dropped only after every message queued ahead of the promotion has
    /// committed through it. The caller attaches a fresh follower
    /// afterwards so the promoted leader is itself protected.
    pub fn promote(&mut self, bus: &InMemoryBus, new_endpoint: String) -> RecoveryReport {
        let follower = self
            .follower
            .take()
            .expect("promotion requires replication to be enabled");
        self.replication = None;
        self.endpoint = new_endpoint;
        self.reincarnate(bus, Arc::clone(&follower.journal), "failover.promote")
    }

    /// Swaps in a fresh incarnation recovered from `journal`, bumps the
    /// epoch and answers on `bus` again: a fresh resource manager and
    /// promise manager, filled from the hosting record, recovered from
    /// `journal` behind a new gateway. The rebuild runs as one control
    /// call, so no message can append between replay and install. A link
    /// ships the journal it was built over, so a new journal (a
    /// promotion) drops it.
    fn reincarnate(
        &mut self,
        bus: &InMemoryBus,
        journal: Arc<PromiseJournal>,
        event: &'static str,
    ) -> RecoveryReport {
        let (rm, pm, gateway, report) = self.server.control(|state| {
            let rm = Arc::new(ResourceManager::new());
            rm.set_telemetry(Some(Arc::clone(&self.telemetry)));
            let pm = Arc::new(PromiseManager::new(
                Arc::clone(&rm),
                Arc::clone(&self.clock),
            ));
            pm.set_telemetry(Some(Arc::clone(&self.telemetry)));
            self.rehost(&pm);
            let report = pm
                .recover(Arc::clone(&journal))
                .expect("shard journal replays cleanly");
            let gateway = Arc::new(PromiseGateway::new(Arc::clone(&pm)));
            register_handlers(&gateway);
            if !Arc::ptr_eq(&journal, &state.journal) {
                state.link = None;
            }
            state.gateway = Arc::clone(&gateway);
            state.journal = Arc::clone(&journal);
            self.server.inner.epoch.fetch_add(1, Ordering::Relaxed);
            (rm, pm, gateway, report)
        });
        (self.rm, self.journal, self.pm, self.gateway) = (rm, journal, pm, gateway);
        bus.register(&self.endpoint, Arc::clone(&self.server) as _);
        self.recorder.record(
            event,
            format!(
                "{} replayed={} recovered={} in_doubt={}",
                self.endpoint, report.replayed, report.recovered, report.in_doubt
            ),
        );
        report
    }

    /// This shard's spans + journal truth, packaged for
    /// [`promises_telemetry::audit_cluster_lifecycles`].
    pub fn evidence(&self) -> ShardEvidence {
        ShardEvidence {
            label: self.endpoint.clone(),
            spans: self.telemetry.spans(),
            journal: self.journal.facts(),
        }
    }
}
