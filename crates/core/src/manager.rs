//! The Promise Manager (paper §2, §8).
//!
//! "A promise manager sits between clients and application services and
//! implements Promise functionality on behalf of a number of services and
//! resource managers. The job of a promise manager is to work with
//! application services and resource managers to grant or deny promise
//! requests, check on resource availability and ensure that promises are
//! not violated."
//!
//! # Concurrency design (following §8, footprint-refined)
//!
//! Every promise operation — grant, release, modify, expiry pruning, and
//! the post-action check of [`PromiseManager::execute`] — runs inside one
//! short local RM transaction, following the prototype's design: "The
//! solution we adopted here was to wrap each promise operation in a
//! transaction... This transaction covers all of the action code executed
//! inside the application as well as the subsequent promise checking code
//! (including modifications to the promise table)."
//!
//! The prototype serialised those transactions on a *single* exclusive
//! synchronisation point, making every promise operation conflict with
//! every other one. That behaviour is kept as [`LockingMode::Global`]
//! (the benchmark baseline). The default, [`LockingMode::Footprint`],
//! instead derives each operation's *footprint* — the pools its
//! predicates constrain, its released promises cover, or its action
//! actually wrote — and locks one synchronisation point per pool
//! (`promise-ops/<pool>`), acquired in canonical sorted order so promise
//! operations never deadlock against one another (§9). Operations over
//! disjoint pools proceed fully in parallel; the checker then re-checks
//! only the footprint's pools against the promises that intersect them
//! (see [`crate::promise::PromiseTable`]'s per-pool indexes).
//!
//! Because the synchronisation points are RM locks, a cycle between a
//! promise check and an in-flight application action is visible to the
//! RM's wait-for graph and broken by victimising one transaction; the
//! manager transparently retries deadlock victims a bounded number of
//! times. The promise layer itself **never blocks a client on promise
//! availability**: unfulfillable requests are rejected immediately (§9),
//! which is why the promise layer introduces no deadlocks of its own.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use promises_rm::{Record, ResourceManager, RmError, Txn};
use promises_telemetry::{
    current_trace, Histogram, HistogramSnapshot, SpanKind, SpanOutcome, Telemetry,
};

use crate::catalog::Catalog;
use crate::check::{CheckError, Checker, CheckerStats};
use crate::clock::Clock;
use crate::environment::Environment;
use crate::error::{ActionError, PromiseError, RejectReason};
use crate::ids::{ClientId, InstanceId, PoolId, PromiseId, RequestId};
use crate::journal::{JournalOp, PromiseJournal};
use crate::predicate::Predicate;
use crate::promise::{qty_demand_on, PromiseRecord, PromiseTable};
use crate::schema::{PoolKind, PoolSchema};
use crate::tombstones::Tombstones;

/// RM synchronisation point serialising promise operations: locked whole
/// under [`LockingMode::Global`]; suffixed with `/<pool>` per footprint
/// pool under [`LockingMode::Footprint`].
const PM_OPS: &str = "promise-ops";

/// Default tombstone lifetime past the reap: long enough that any client
/// still retrying against an expired promise sees "promise-expired", short
/// enough that the tombstone map stays proportional to *recent* expiries.
const DEFAULT_TOMBSTONE_GRACE_MS: u64 = 300_000;

/// Default [`PromiseManager::maybe_compact`] trigger: journals shorter
/// than this are cheap to replay wholesale, so compaction isn't worth a
/// checkpoint write.
const DEFAULT_COMPACTION_THRESHOLD: usize = 1_024;

/// How promise operations serialise against one another.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LockingMode {
    /// One global synchronisation point; every promise operation conflicts
    /// with every other one (the paper prototype's design — kept as the
    /// benchmark baseline).
    Global,
    /// One synchronisation point per pool, acquired in sorted order over
    /// the operation's footprint; operations on disjoint pools run in
    /// parallel and post-action checks cover only the written pools.
    #[default]
    Footprint,
}

/// Upstream promise references held by a delegated promise.
type UpstreamRefs = Vec<(Arc<PromiseManager>, PromiseId)>;

/// A promise request as specified in §6: identifier, predicates,
/// duration, and optionally existing promises handed back in exchange.
#[derive(Debug, Clone)]
pub struct PromiseRequestSpec {
    /// Client-chosen correlation identifier.
    pub request: RequestId,
    /// The requesting client.
    pub client: ClientId,
    /// Predicates to be maintained — granted atomically or not at all (§4).
    pub predicates: Vec<Predicate>,
    /// Requested duration; the manager "might offer a guarantee that
    /// expires sooner than the client wished" (§6).
    pub duration_ms: u64,
    /// Existing promises released atomically iff this request is granted
    /// (§4 "Modify the predicate whose preservation is promised").
    pub exchange: Vec<PromiseId>,
}

impl PromiseRequestSpec {
    /// Starts a spec with defaults (1 hour duration, no exchange).
    pub fn new(request: impl Into<RequestId>, client: impl Into<ClientId>) -> Self {
        Self {
            request: request.into(),
            client: client.into(),
            predicates: Vec::new(),
            duration_ms: 3_600_000,
            exchange: Vec::new(),
        }
    }

    /// Adds a predicate.
    pub fn predicate(mut self, p: Predicate) -> Self {
        self.predicates.push(p);
        self
    }

    /// Sets the requested duration.
    pub fn duration_ms(mut self, ms: u64) -> Self {
        self.duration_ms = ms;
        self
    }

    /// Hands back an existing promise in exchange.
    pub fn exchanging(mut self, id: PromiseId) -> Self {
        self.exchange.push(id);
        self
    }
}

/// Outcome of a promise request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PromiseDecision {
    /// Granted: the predicates will hold until release or expiry.
    Granted {
        /// The new promise's identifier.
        promise: PromiseId,
        /// Expiry on the manager's clock (may be sooner than requested).
        expires_at: u64,
    },
    /// Rejected immediately (never blocks).
    Rejected {
        /// Why.
        reason: RejectReason,
    },
}

impl PromiseDecision {
    /// The granted promise id, if granted.
    pub fn granted_id(&self) -> Option<PromiseId> {
        match self {
            PromiseDecision::Granted { promise, .. } => Some(*promise),
            PromiseDecision::Rejected { .. } => None,
        }
    }

    /// True if granted.
    pub fn is_granted(&self) -> bool {
        matches!(self, PromiseDecision::Granted { .. })
    }
}

/// The §6 promise response: decision plus correlation identifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromiseResponse {
    /// Echo of the request identifier.
    pub correlation: RequestId,
    /// Grant or rejection.
    pub decision: PromiseDecision,
}

#[derive(Debug, Default)]
struct OpLatencyMetrics {
    lock_wait: Histogram,
    check: Histogram,
}

impl OpLatencyMetrics {
    fn add_lock_wait(&self, since: Instant) {
        self.lock_wait.record_duration(since.elapsed());
    }

    /// Records the checking time and hands the measurement back so the
    /// telemetry mirror ([`PromiseManager::record_check`]) doesn't read
    /// the clock a second time for the same interval.
    fn add_check(&self, since: Instant) -> std::time::Duration {
        let dur = since.elapsed();
        self.check.record_duration(dur);
        dur
    }

    fn snapshot(&self) -> OpLatency {
        OpLatency {
            lock_wait: self.lock_wait.snapshot(),
            check: self.check.snapshot(),
        }
    }
}

/// Lock-wait and checking latency distributions for one kind of promise
/// operation. Formerly mean-only totals; now full log-scale histograms
/// (p50/p95/p99/max via [`HistogramSnapshot`]) with total/count accessors
/// kept for callers of the old shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpLatency {
    /// Time spent acquiring the operation's synchronisation point(s) —
    /// the contention cost footprint scoping attacks.
    pub lock_wait: HistogramSnapshot,
    /// Time spent in promise checking (tag release, grant matching,
    /// post-action re-check).
    pub check: HistogramSnapshot,
}

impl OpLatency {
    /// Total nanoseconds spent waiting on sync points.
    pub fn lock_wait_ns(&self) -> u64 {
        self.lock_wait.sum
    }

    /// Number of sync-point acquisitions measured.
    pub fn lock_wait_ops(&self) -> u64 {
        self.lock_wait.count
    }

    /// Total nanoseconds spent in promise checking.
    pub fn check_ns(&self) -> u64 {
        self.check.sum
    }

    /// Number of checking passes measured.
    pub fn check_ops(&self) -> u64 {
        self.check.count
    }
}

#[derive(Debug, Default)]
struct PmMetrics {
    granted: AtomicU64,
    rejected: AtomicU64,
    released: AtomicU64,
    expired_reaped: AtomicU64,
    executions: AtomicU64,
    action_failures: AtomicU64,
    violations_rolled_back: AtomicU64,
    expired_errors: AtomicU64,
    deadlock_retries: AtomicU64,
    grants_deduped: AtomicU64,
    overload_rejections: AtomicU64,
    grant_lat: OpLatencyMetrics,
    release_lat: OpLatencyMetrics,
    execute_lat: OpLatencyMetrics,
    prune_lat: OpLatencyMetrics,
}

/// Snapshot of manager counters for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmMetricsSnapshot {
    /// Promise requests granted.
    pub granted: u64,
    /// Promise requests rejected.
    pub rejected: u64,
    /// Promises explicitly released.
    pub released: u64,
    /// Promises reaped by expiry.
    pub expired_reaped: u64,
    /// Actions executed and committed.
    pub executions: u64,
    /// Actions that failed at the application level.
    pub action_failures: u64,
    /// Actions rolled back for violating an unreleased promise.
    pub violations_rolled_back: u64,
    /// Operations refused because a promise had expired.
    pub expired_errors: u64,
    /// Internal deadlock-victim retries.
    pub deadlock_retries: u64,
    /// Retried grant requests answered from the request-id index instead
    /// of being granted a second time.
    pub grants_deduped: u64,
    /// Requests fail-fasted because the manager was degraded/overloaded.
    pub overload_rejections: u64,
    /// Lock-wait / check latency of grant operations.
    pub grant_lat: OpLatency,
    /// Lock-wait / check latency of release operations.
    pub release_lat: OpLatency,
    /// Lock-wait / check latency of execute operations.
    pub execute_lat: OpLatency,
    /// Lock-wait / check latency of expiry pruning.
    pub prune_lat: OpLatency,
}

impl PmMetricsSnapshot {
    /// Deduplicated grant answers as a fraction of all successful grant
    /// answers (fresh grants + dedup hits): how much retry traffic the
    /// request-id index absorbed. `None` when nothing was granted at all —
    /// never a fabricated zero.
    pub fn dedup_ratio(&self) -> Option<f64> {
        let total = self.granted + self.grants_deduped;
        (total > 0).then(|| self.grants_deduped as f64 / total as f64)
    }
}

/// Short machine-readable cause slug, and the pool when the cause names
/// one, for a grant rejection — used as telemetry counter keys
/// (`pm.reject.<cause>`, `pm.pool.<pool>.rejected`).
fn reject_cause(reason: &RejectReason) -> (&'static str, Option<&PoolId>) {
    match reason {
        RejectReason::InsufficientQuantity { pool, .. } => ("insufficient_quantity", Some(pool)),
        RejectReason::InstanceUnavailable { pool, .. } => ("instance_unavailable", Some(pool)),
        RejectReason::Unsatisfiable { pool } => ("unsatisfiable", Some(pool)),
        RejectReason::UnknownExchange(_) => ("unknown_exchange", None),
        RejectReason::UnknownPool(pool) => ("unknown_pool", Some(pool)),
        RejectReason::UpstreamRejected { pool } => ("upstream_rejected", Some(pool)),
        RejectReason::Overloaded => ("overloaded", None),
    }
}

/// Telemetry registry plus pre-resolved handles for every fixed-name
/// metric the manager's hot path touches. Resolving once at attach time
/// keeps per-operation recording to a handful of relaxed atomic ops —
/// no name formatting, no registry map lookups — which is what keeps the
/// instrumented/uninstrumented throughput gap inside the §12 budget.
/// Per-pool counters are formatted once per pool and cached.
struct PmTel {
    tel: Arc<Telemetry>,
    grant_hist: Arc<Histogram>,
    check_hist: Arc<Histogram>,
    execute_hist: Arc<Histogram>,
    release_hist: Arc<Histogram>,
    granted: Arc<AtomicU64>,
    deduped: Arc<AtomicU64>,
    grant_error: Arc<AtomicU64>,
    retry_deadlock: Arc<AtomicU64>,
    expired: Arc<AtomicU64>,
    compact_runs: Arc<AtomicU64>,
    compact_dropped: Arc<AtomicU64>,
    /// `pm.journal.records` gauge: journal length as of the latest
    /// compaction or reaper tick.
    journal_records: Arc<AtomicU64>,
    /// `pm.pool.<pool>.granted` / `pm.pool.<pool>.rejected` handles.
    pool_counters: RwLock<HashMap<PoolId, PoolCounters>>,
}

/// `(granted, rejected)` counter handles for one pool.
type PoolCounters = (Arc<AtomicU64>, Arc<AtomicU64>);

impl PmTel {
    fn attach(tel: Arc<Telemetry>) -> Arc<Self> {
        Arc::new(Self {
            grant_hist: tel.histogram("pm.grant"),
            check_hist: tel.histogram("pm.check"),
            execute_hist: tel.histogram("pm.execute"),
            release_hist: tel.histogram("pm.release"),
            granted: tel.counter("pm.grant.granted"),
            deduped: tel.counter("pm.grant.deduped"),
            grant_error: tel.counter("pm.grant.error"),
            retry_deadlock: tel.counter("pm.retry.deadlock"),
            expired: tel.counter("pm.expired"),
            compact_runs: tel.counter("pm.compact.runs"),
            compact_dropped: tel.counter("pm.compact.dropped"),
            journal_records: tel.gauge("pm.journal.records"),
            pool_counters: RwLock::new(HashMap::new()),
            tel,
        })
    }

    /// Bumps `pm.pool.<pool>.granted` (or `.rejected`), formatting the
    /// counter names only on each pool's first sighting.
    fn bump_pool(&self, pool: &PoolId, granted: bool) {
        if let Some((g, r)) = self.pool_counters.read().get(pool) {
            (if granted { g } else { r }).fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut cache = self.pool_counters.write();
        let (g, r) = cache.entry(pool.clone()).or_insert_with(|| {
            (
                self.tel.counter(&format!("pm.pool.{pool}.granted")),
                self.tel.counter(&format!("pm.pool.{pool}.rejected")),
            )
        });
        (if granted { g } else { r }).fetch_add(1, Ordering::Relaxed);
    }
}

impl std::ops::Deref for PmTel {
    type Target = Telemetry;

    fn deref(&self) -> &Telemetry {
        &self.tel
    }
}

/// The promise manager.
pub struct PromiseManager {
    rm: Arc<ResourceManager>,
    catalog: RwLock<Catalog>,
    table: Mutex<PromiseTable>,
    clock: Arc<dyn Clock>,
    locking: LockingMode,
    max_duration_ms: u64,
    retry_limit: usize,
    /// What the most recent grant check, execute post-check or prune
    /// actually looked at; lets tests and experiments verify footprint
    /// scoping narrowed the work.
    last_check_stats: Mutex<CheckerStats>,
    upstreams: RwLock<HashMap<PoolId, Arc<PromiseManager>>>,
    delegations: Mutex<HashMap<PromiseId, UpstreamRefs>>,
    /// Ids of promises reaped by expiry, kept so operations under them can
    /// be answered with the paper's distinct "promise-expired" error (§2)
    /// instead of "unknown promise". *Bounded*: each tombstone carries an
    /// eviction deadline (reap time plus [`Self::tombstone_grace_ms`]) and
    /// is dropped by the next prune after it passes — so the set tracks
    /// recently-expired promises, not all of history.
    expired_tombstones: Mutex<Tombstones>,
    /// Durable journal of promise-table transitions; `None` disables
    /// journalling (the pre-durability behaviour).
    journal: RwLock<Option<Arc<PromiseJournal>>>,
    /// `(client, request)` → granted promise, so a *retried* grant request
    /// (duplicate delivery, reply lost) is answered with the original
    /// promise instead of being granted — and charged — twice.
    request_index: Mutex<HashMap<(ClientId, RequestId), PromiseId>>,
    /// Promises whose allocations a client has observed via
    /// [`PromiseManager::promise`]. Once observed, an allocation is never
    /// moved by re-arrangement — the client may already be acting on the
    /// specific instances it read. Pins are volatile: not journalled, not
    /// part of [`PromiseManager::state_digest`], cleared on recovery, and
    /// dropped when the promise leaves the table. Locking order is always
    /// table → pinned.
    pinned: Mutex<HashSet<PromiseId>>,
    /// Promises granted as *prepared holds* for a cross-shard transaction
    /// ([`PromiseManager::request_prepared`]): resources are reserved like
    /// any grant, but the hold awaits its coordinator's commit/abort.
    /// Unlike pins, prepared marks are durable — journalled as `P`/`C`
    /// records, rebuilt by recovery, and part of
    /// [`PromiseManager::state_digest`]. Locking order is table → prepared.
    prepared: Mutex<HashSet<PromiseId>>,
    /// Administratively degraded: fail-fast all new grant requests.
    degraded: AtomicBool,
    /// Live-promise count above which new grants are refused (0 = no cap).
    overload_limit: AtomicUsize,
    metrics: PmMetrics,
    /// Lifecycle spans + per-stage histograms land here when attached;
    /// `None` (the default) makes every recording site a cheap check.
    telemetry: RwLock<Option<Arc<PmTel>>>,
    /// How long (ms) an expired-promise tombstone outlives its reap before
    /// eviction — the window during which a stale client still gets the
    /// distinct "promise-expired" error.
    tombstone_grace_ms: AtomicU64,
    /// [`PromiseManager::maybe_compact`] compacts only once the journal
    /// holds at least this many records (0 = never auto-compact).
    compaction_threshold: AtomicUsize,
    /// Armed fault-injection point inside [`PromiseManager::compact`];
    /// consumed by the next compaction.
    compaction_crash: Mutex<Option<CompactionCrash>>,
    /// Per-pool *escrow leases*: the slice of a cluster-wide quantity this
    /// manager may grant locally (O'Neil-style escrow applied at the
    /// cluster layer). Empty for standalone managers. Leases are durable —
    /// journalled as absolute-value `L` records, folded into checkpoints,
    /// rebuilt by recovery (which also forces each leased pool's on-hand
    /// quantity back to its lease slice), and part of
    /// [`PromiseManager::state_digest`]. Locking order is table → leases.
    leases: Mutex<BTreeMap<PoolId, u64>>,
}

/// Where an armed [`PromiseManager::compact`] crash fires. Models a
/// process dying mid-compaction: with temp-file-plus-rename semantics the
/// on-disk journal is either the untouched old log or the fully swapped
/// checkpointed one — never a torn mixture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionCrash {
    /// Die after building the checkpoint but before the swap: recovery
    /// sees the full pre-compaction history.
    BeforeSwap,
    /// Die immediately after the atomic swap: recovery sees the compacted
    /// journal (checkpoint only).
    AfterSwap,
}

/// What [`PromiseManager::compact`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// History lines the checkpoint swap dropped.
    pub dropped: usize,
    /// Live promises captured in the checkpoint.
    pub live: usize,
    /// Of `live`, prepared (in-doubt) holds preserved with their marks.
    pub prepared: usize,
    /// Sequence number assigned to the checkpoint record.
    pub seq: u64,
}

/// What [`PromiseManager::recover`] did, for assertions and logging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal entries replayed.
    pub replayed: usize,
    /// Promises live in the rebuilt table (before expiry pruning).
    pub recovered: usize,
    /// Promises that expired while the manager was down and were pruned
    /// (their `Expire` records carry the new generation).
    pub pruned: usize,
    /// Prepared holds recovered *in doubt* — journalled `P` records with no
    /// later commit/release/expiry. Their resources stay reserved until the
    /// coordinator resolves them or their expiry reaps them.
    pub in_doubt: usize,
    /// The journal generation after the bump.
    pub generation: u64,
}

/// What one check reads from the promise table (see
/// [`PromiseManager::check_inputs`]).
struct CheckInputs {
    /// Clones of the records the checker may re-arrange.
    snapshot: Vec<PromiseRecord>,
    /// Exact demand for every pool checked without its records.
    qty_demand: HashMap<PoolId, u64>,
    /// Observation pins as of the snapshot.
    pinned: HashSet<PromiseId>,
}

impl PromiseManager {
    /// Creates a manager over `rm` with the given clock.
    pub fn new(rm: Arc<ResourceManager>, clock: Arc<dyn Clock>) -> Self {
        Self {
            rm,
            catalog: RwLock::new(Catalog::new()),
            table: Mutex::new(PromiseTable::new()),
            clock,
            locking: LockingMode::default(),
            max_duration_ms: u64::MAX,
            retry_limit: 64,
            last_check_stats: Mutex::new(CheckerStats::default()),
            upstreams: RwLock::new(HashMap::new()),
            delegations: Mutex::new(HashMap::new()),
            expired_tombstones: Mutex::new(Tombstones::default()),
            journal: RwLock::new(None),
            request_index: Mutex::new(HashMap::new()),
            pinned: Mutex::new(HashSet::new()),
            prepared: Mutex::new(HashSet::new()),
            degraded: AtomicBool::new(false),
            overload_limit: AtomicUsize::new(0),
            metrics: PmMetrics::default(),
            telemetry: RwLock::new(None),
            tombstone_grace_ms: AtomicU64::new(DEFAULT_TOMBSTONE_GRACE_MS),
            compaction_threshold: AtomicUsize::new(DEFAULT_COMPACTION_THRESHOLD),
            compaction_crash: Mutex::new(None),
            leases: Mutex::new(BTreeMap::new()),
        }
    }

    /// Attaches a telemetry registry: promise operations record lifecycle
    /// spans (grant/check/release/expire, joining the ambient trace
    /// context) and per-stage latency histograms into it.
    pub fn with_telemetry(self, tel: Arc<Telemetry>) -> Self {
        *self.telemetry.write() = Some(PmTel::attach(tel));
        self
    }

    /// Attaches or detaches the telemetry registry at runtime.
    pub fn set_telemetry(&self, tel: Option<Arc<Telemetry>>) {
        *self.telemetry.write() = tel.map(PmTel::attach);
    }

    /// Attaches a durable journal: every grant/release/expiry/allocation
    /// change is appended, enabling [`PromiseManager::recover`].
    pub fn with_journal(self, journal: Arc<PromiseJournal>) -> Self {
        *self.journal.write() = Some(journal);
        self
    }

    /// Caps the number of live promises; requests beyond the cap are
    /// rejected immediately with [`RejectReason::Overloaded`] (0 = no
    /// cap). A runtime setter, so operators (and the workload plane's
    /// admission experiments) can tighten or lift fail-fast admission on
    /// a live manager.
    pub fn set_overload_limit(&self, limit: usize) {
        self.overload_limit.store(limit, Ordering::Relaxed);
    }

    /// Sets how long expired-promise tombstones outlive their reap before
    /// eviction. Within the window a stale client gets the paper's
    /// distinct "promise-expired" error; afterwards the id reads as
    /// unknown and the map stays bounded.
    pub fn with_tombstone_grace_ms(self, ms: u64) -> Self {
        self.tombstone_grace_ms.store(ms, Ordering::Relaxed);
        self
    }

    /// Sets the journal length at which [`PromiseManager::maybe_compact`]
    /// triggers a compaction (0 disables auto-compaction).
    pub fn with_compaction_threshold(self, records: usize) -> Self {
        self.compaction_threshold.store(records, Ordering::Relaxed);
        self
    }

    /// Arms a one-shot crash inside the next [`PromiseManager::compact`]
    /// (fault-injection hook for the crash-restart harnesses).
    pub fn arm_compaction_crash(&self, point: CompactionCrash) {
        *self.compaction_crash.lock() = Some(point);
    }

    /// Number of expired-promise tombstones currently held — boundedness
    /// audits assert this stays proportional to recent expiries, not to
    /// all of history.
    pub fn tombstone_count(&self) -> usize {
        self.expired_tombstones.lock().len()
    }

    /// Caps every granted duration at `ms` (§6: the manager may "offer a
    /// guarantee that expires sooner than the client wished").
    pub fn with_max_duration_ms(mut self, ms: u64) -> Self {
        self.max_duration_ms = ms;
        self
    }

    /// Selects how promise operations serialise (default
    /// [`LockingMode::Footprint`]).
    pub fn with_locking_mode(mut self, mode: LockingMode) -> Self {
        self.locking = mode;
        self
    }

    /// The underlying resource manager.
    pub fn rm(&self) -> &Arc<ResourceManager> {
        &self.rm
    }

    /// The manager's clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<Arc<PromiseJournal>> {
        self.journal.read().clone()
    }

    /// Enters or leaves degraded mode. While degraded, new grant requests
    /// are rejected immediately with [`RejectReason::Overloaded`]; checks,
    /// executes, releases and expiry pruning continue normally, so existing
    /// promises are still honored (§9's never-block stance under overload).
    ///
    /// `Relaxed` is deliberate (threaded-runtime atomics audit): the flag
    /// is a standalone admission gate — no other data is published
    /// through it, so there is no happens-before edge to carry. A handler
    /// thread observing the flip a few loads late admits or rejects a
    /// borderline request either way, which the health plane already
    /// tolerates (degraded mode engages on sustained pressure, not a
    /// single op).
    pub fn set_degraded(&self, degraded: bool) {
        self.degraded.store(degraded, Ordering::Relaxed);
    }

    /// True if the manager is administratively degraded.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Registers a pool schema (creates its backing tables).
    pub fn register_pool(&self, schema: PoolSchema) {
        self.catalog.write().register(&self.rm, schema);
    }

    /// Routes promise requests for `pool` to an upstream manager — the
    /// §5 *delegation* technique ("promises are made that rely on the
    /// promises of third parties").
    pub fn delegate_pool(&self, pool: impl Into<PoolId>, upstream: Arc<PromiseManager>) {
        self.upstreams.write().insert(pool.into(), upstream);
    }

    /// Re-points an existing delegation at a replacement upstream manager
    /// — the fail-over case where the upstream's leader died and a warm
    /// follower was promoted behind a new manager instance. Backing
    /// promise ids survive journal replay unchanged, so live delegation
    /// chains stay valid: every stored upstream reference that pointed at
    /// the displaced manager is rewritten to the replacement, keeping its
    /// promise id, and later releases cascade to the promoted node.
    pub fn rebind_upstream(&self, pool: impl Into<PoolId>, upstream: Arc<PromiseManager>) {
        let old = self
            .upstreams
            .write()
            .insert(pool.into(), Arc::clone(&upstream));
        let Some(old) = old else { return };
        let mut delegations = self.delegations.lock();
        for refs in delegations.values_mut() {
            for (manager, _) in refs.iter_mut() {
                if Arc::ptr_eq(manager, &old) {
                    *manager = Arc::clone(&upstream);
                }
            }
        }
    }

    /// Sets the quantity on hand of a quantity pool (setup/admin).
    pub fn seed_quantity(&self, pool: impl Into<PoolId>, qty: u64) -> Result<(), PromiseError> {
        let pool = pool.into();
        let catalog = self.catalog.read();
        let txn = self.rm.begin();
        match catalog.set_quantity(&self.rm, &txn, &pool, qty) {
            Ok(()) => {
                self.rm.commit(txn)?;
                Ok(())
            }
            Err(e) => Err(self.abort_with(txn, e)),
        }
    }

    /// Adds an available instance to an instance pool (setup/admin).
    pub fn seed_instance(
        &self,
        pool: impl Into<PoolId>,
        id: impl Into<InstanceId>,
        properties: Record,
    ) -> Result<(), PromiseError> {
        let pool = pool.into();
        let id = id.into();
        let catalog = self.catalog.read();
        let txn = self.rm.begin();
        match catalog.add_instance(&self.rm, &txn, &pool, &id, properties) {
            Ok(()) => {
                self.rm.commit(txn)?;
                Ok(())
            }
            Err(e) => Err(self.abort_with(txn, e)),
        }
    }

    // ==================================================================
    // Escrow leases
    // ==================================================================

    /// Installs this manager's escrow lease for `pool` at an absolute
    /// quantity, setting the pool's on-hand quantity to the lease slice
    /// (setup/admin: a cluster partitions a pool's total across shards).
    /// The pool's schema must already be registered. Journalled as an `L`
    /// record so the split survives crash/restart.
    pub fn install_lease(&self, pool: impl Into<PoolId>, qty: u64) -> Result<(), PromiseError> {
        let pool = pool.into();
        let catalog = self.catalog.read();
        let txn = self.rm.begin();
        match catalog.set_quantity(&self.rm, &txn, &pool, qty) {
            Ok(()) => {
                let tbl = self.table.lock();
                self.leases.lock().insert(pool.clone(), qty);
                self.journal_append(JournalOp::Lease { pool, qty });
                drop(tbl);
                self.rm.commit(txn)?;
                Ok(())
            }
            Err(e) => Err(self.abort_with(txn, e)),
        }
    }

    /// Withdraws up to `want` units of lease *headroom* (lease minus
    /// quantity promised) from this manager, shrinking both the lease and
    /// the pool's on-hand quantity. Returns how much was actually moved —
    /// clamped to the available headroom, so a withdraw can never strand
    /// already-promised units. Runs under the pool's promise-ops
    /// synchronisation point, serialising against concurrent grants.
    ///
    /// A rebalance is withdraw-then-deposit: the donor's `L` record lands
    /// before the receiver's, so a crash between them loses headroom
    /// (recoverable by a later top-up) but never mints it.
    pub fn lease_withdraw(&self, pool: impl Into<PoolId>, want: u64) -> Result<u64, PromiseError> {
        let pool = pool.into();
        if want == 0 {
            return Ok(0);
        }
        self.with_retries(|| {
            let txn = self.rm.begin();
            if let Err(e) = self.lock_lease_ops(&txn, &pool) {
                return Err(self.abort_with(txn, e.into()));
            }
            // Crate-wide lock order: catalog → table.
            let catalog = self.catalog.read();
            let tbl = self.table.lock();
            let lease = self.leases.lock().get(&pool).copied().unwrap_or(0);
            let headroom = lease.saturating_sub(tbl.promised_qty(&pool));
            let moved = want.min(headroom);
            if moved == 0 {
                drop(tbl);
                return self.abort_then(txn, 0);
            }
            let qty = lease - moved;
            if let Err(e) = catalog.set_quantity(&self.rm, &txn, &pool, qty) {
                drop(tbl);
                return Err(self.abort_with(txn, e));
            }
            drop(catalog);
            self.leases.lock().insert(pool.clone(), qty);
            self.journal_append(JournalOp::Lease {
                pool: pool.clone(),
                qty,
            });
            drop(tbl);
            self.rm.commit(txn)?;
            Ok(moved)
        })
    }

    /// Deposits `delta` units of lease headroom into this manager, growing
    /// both the lease and the pool's on-hand quantity. Returns the new
    /// lease. The caller (the cluster rebalancer) is responsible for only
    /// depositing units previously withdrawn from another shard.
    pub fn lease_deposit(&self, pool: impl Into<PoolId>, delta: u64) -> Result<u64, PromiseError> {
        let pool = pool.into();
        self.with_retries(|| {
            let txn = self.rm.begin();
            if let Err(e) = self.lock_lease_ops(&txn, &pool) {
                return Err(self.abort_with(txn, e.into()));
            }
            // Crate-wide lock order: catalog → table.
            let catalog = self.catalog.read();
            let tbl = self.table.lock();
            let lease = self.leases.lock().get(&pool).copied().unwrap_or(0);
            let qty = lease.saturating_add(delta);
            if let Err(e) = catalog.set_quantity(&self.rm, &txn, &pool, qty) {
                drop(tbl);
                return Err(self.abort_with(txn, e));
            }
            drop(catalog);
            self.leases.lock().insert(pool.clone(), qty);
            self.journal_append(JournalOp::Lease {
                pool: pool.clone(),
                qty,
            });
            drop(tbl);
            self.rm.commit(txn)?;
            Ok(qty)
        })
    }

    /// This manager's escrow lease for `pool`, if one is installed.
    pub fn lease_of(&self, pool: impl Into<PoolId>) -> Option<u64> {
        self.leases.lock().get(&pool.into()).copied()
    }

    /// All escrow leases held by this manager (sorted by pool).
    pub fn leases(&self) -> Vec<(PoolId, u64)> {
        self.leases
            .lock()
            .iter()
            .map(|(p, q)| (p.clone(), *q))
            .collect()
    }

    /// Unpromised lease headroom for `pool`: lease minus quantity promised
    /// (0 when no lease is installed).
    pub fn lease_headroom(&self, pool: impl Into<PoolId>) -> u64 {
        let pool = pool.into();
        let tbl = self.table.lock();
        let lease = self.leases.lock().get(&pool).copied().unwrap_or(0);
        lease.saturating_sub(tbl.promised_qty(&pool))
    }

    /// Quantity promised against `pool` by live promises.
    pub fn promised_qty(&self, pool: impl Into<PoolId>) -> u64 {
        self.table.lock().promised_qty(&pool.into())
    }

    /// The lease ops' synchronisation point: the same one grants over the
    /// pool take, so lease moves serialise with grant/release traffic.
    fn lock_lease_ops(&self, txn: &Txn, pool: &PoolId) -> Result<(), RmError> {
        match self.locking {
            LockingMode::Global => self.rm.lock_exclusive(txn, PM_OPS),
            LockingMode::Footprint => {
                let names = vec![format!("{PM_OPS}/{pool}")];
                self.rm.lock_exclusive_many(txn, &names)
            }
        }
    }

    // ==================================================================
    // Promise operations
    // ==================================================================

    /// Requests a promise (§6 `<promise-request>`). All predicates are
    /// granted atomically or the whole request is rejected; promises in
    /// `spec.exchange` are released atomically iff the grant succeeds.
    /// Predicates on pools registered with
    /// [`PromiseManager::delegate_pool`] are backed by promises obtained
    /// from the upstream manager, released again if the overall request
    /// cannot be granted.
    pub fn request(&self, spec: PromiseRequestSpec) -> Result<PromiseResponse, PromiseError> {
        self.request_with(spec, false)
    }

    /// Requests a *prepared hold*: the grant path runs exactly as in
    /// [`PromiseManager::request`] — immediate reject if unfulfillable,
    /// resources reserved if not — but the promise is journalled as a `P`
    /// record and marked prepared, awaiting a cross-shard coordinator's
    /// [`PromiseManager::commit_prepared`] or
    /// [`PromiseManager::abort_prepared`]. A prepared hold reserves
    /// resources against every other request (so a committed cross-shard
    /// grant can never be oversold) and expires like any promise (so a
    /// coordinator that dies never leaks capacity forever).
    pub fn request_prepared(
        &self,
        spec: PromiseRequestSpec,
    ) -> Result<PromiseResponse, PromiseError> {
        self.request_with(spec, true)
    }

    fn request_with(
        &self,
        spec: PromiseRequestSpec,
        prepared: bool,
    ) -> Result<PromiseResponse, PromiseError> {
        // One registry read up front, cloned out of the lock, so the hot
        // path acquires the telemetry lock at most once per request and
        // allocates nothing. Per-pool attribution and exchanged-promise
        // lifecycle events happen on the fresh-grant branch inside
        // `try_grant_local`, where the spec is still in scope — they are
        // per-grant costs, not per-request costs.
        let tel = self.telemetry.read().clone();
        let Some(tel) = tel else {
            return self.request_inner(spec, prepared).map(|(resp, _)| resp);
        };
        let started = Instant::now();
        let result = self.request_inner(spec, prepared);
        let dur = started.elapsed();
        tel.grant_hist.record_duration(dur);
        // Spans are trace artifacts (DESIGN §12): a clean grant outside
        // any ambient trace joins nothing downstream, and the journal —
        // not the ring — is lifecycle ground truth, so it is elided.
        // Failures are always recorded for diagnosis.
        let traced = current_trace().is_some();
        match &result {
            Ok((resp, deduped)) => match &resp.decision {
                PromiseDecision::Granted { promise, .. } if *deduped => {
                    tel.deduped.fetch_add(1, Ordering::Relaxed);
                    if traced {
                        tel.span_since(SpanKind::PmGrant, started)
                            .promise(promise.0)
                            .outcome(SpanOutcome::Deduped)
                            .finish_with(dur);
                    }
                }
                PromiseDecision::Granted { promise, .. } => {
                    tel.granted.fetch_add(1, Ordering::Relaxed);
                    if traced {
                        tel.span_since(SpanKind::PmGrant, started)
                            .promise(promise.0)
                            .finish_with(dur);
                    }
                }
                PromiseDecision::Rejected { reason } => {
                    let (cause, pool) = reject_cause(reason);
                    tel.incr(&format!("pm.reject.{cause}"));
                    if let Some(pool) = pool {
                        tel.bump_pool(pool, false);
                    }
                    tel.span_since(SpanKind::PmGrant, started)
                        .outcome(SpanOutcome::Rejected)
                        .note(cause)
                        .finish_with(dur);
                }
            },
            Err(e) => {
                tel.grant_error.fetch_add(1, Ordering::Relaxed);
                tel.span_since(SpanKind::PmGrant, started)
                    .outcome(SpanOutcome::Error)
                    .note(e.to_string())
                    .finish_with(dur);
            }
        }
        result.map(|(resp, _)| resp)
    }

    /// The grant path behind [`PromiseManager::request`]. The boolean in
    /// the success value is true when the response was answered from the
    /// request-id index (a deduplicated retry) rather than freshly granted.
    fn request_inner(
        &self,
        spec: PromiseRequestSpec,
        prepared: bool,
    ) -> Result<(PromiseResponse, bool), PromiseError> {
        self.prune_expired()?;

        // Duplicate-request fast path: a retried grant (lost reply, network
        // duplicate) whose original succeeded is answered with the original
        // promise — before delegation, so no duplicate upstream grants are
        // acquired either. The authoritative re-check happens again inside
        // `try_grant_local` under the footprint locks.
        if let Some(resp) = self.dedup_hit(&spec) {
            self.metrics.grants_deduped.fetch_add(1, Ordering::Relaxed);
            return Ok((resp, true));
        }

        // Degraded/overload fail-fast (after dedup: answering a retry from
        // the index adds no load). New grants are the only thing refused.
        let over_limit = {
            let limit = self.overload_limit.load(Ordering::Relaxed);
            limit > 0 && self.table.lock().len() >= limit
        };
        if self.degraded.load(Ordering::Relaxed) || over_limit {
            self.metrics
                .overload_rejections
                .fetch_add(1, Ordering::Relaxed);
            self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Ok((
                PromiseResponse {
                    correlation: spec.request,
                    decision: PromiseDecision::Rejected {
                        reason: RejectReason::Overloaded,
                    },
                },
                false,
            ));
        }

        // Split predicates between local pools and delegated pools.
        let upstream_map = self.upstreams.read().clone();
        let mut local = Vec::new();
        let mut remote: HashMap<PoolId, Vec<Predicate>> = HashMap::new();
        for p in &spec.predicates {
            match upstream_map.get(p.pool()) {
                Some(_) => remote.entry(p.pool().clone()).or_default().push(p.clone()),
                None => local.push(p.clone()),
            }
        }

        // Acquire upstream promises first (delegation); compensate on any
        // later failure so the whole request stays atomic to the caller.
        let mut upstream_refs: UpstreamRefs = Vec::new();
        let mut upstream_duration = u64::MAX;
        let mut remote_pools: Vec<_> = remote.into_iter().collect();
        remote_pools.sort_by(|a, b| a.0.cmp(&b.0));
        for (pool, preds) in remote_pools {
            let upstream = upstream_map.get(&pool).expect("partitioned above");
            let mut up_spec = PromiseRequestSpec::new(
                RequestId(format!("{}::delegated::{pool}", spec.request)),
                spec.client.clone(),
            )
            .duration_ms(spec.duration_ms);
            up_spec.predicates = preds;
            match upstream.request(up_spec) {
                Ok(resp) => match resp.decision {
                    PromiseDecision::Granted {
                        promise,
                        expires_at,
                    } => {
                        // Upstream clocks are independent; bound our own
                        // expiry by the *duration* the upstream granted.
                        let up_dur = expires_at.saturating_sub(upstream.clock.now_ms());
                        upstream_duration = upstream_duration.min(up_dur);
                        upstream_refs.push((Arc::clone(upstream), promise));
                    }
                    PromiseDecision::Rejected { .. } => {
                        self.release_refs(&upstream_refs);
                        self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                        return Ok((
                            PromiseResponse {
                                correlation: spec.request,
                                decision: PromiseDecision::Rejected {
                                    reason: RejectReason::UpstreamRejected { pool },
                                },
                            },
                            false,
                        ));
                    }
                },
                Err(e) => {
                    self.release_refs(&upstream_refs);
                    return Err(e);
                }
            }
        }

        let effective_duration = spec.duration_ms.min(upstream_duration);
        let result = self.with_retries(|| {
            self.try_grant_local(&spec, local.clone(), effective_duration, prepared)
        });
        match &result {
            Ok((resp, deduped)) => match &resp.decision {
                PromiseDecision::Granted { promise, .. } if *deduped => {
                    // The original grant already owns its delegation refs;
                    // the ones acquired for this retry are surplus.
                    let _ = promise;
                    self.metrics.grants_deduped.fetch_add(1, Ordering::Relaxed);
                    self.release_refs(&upstream_refs);
                }
                PromiseDecision::Granted { promise, .. } => {
                    self.metrics.granted.fetch_add(1, Ordering::Relaxed);
                    if !upstream_refs.is_empty() {
                        self.delegations
                            .lock()
                            .insert(*promise, std::mem::take(&mut upstream_refs));
                    }
                }
                PromiseDecision::Rejected { .. } => {
                    self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                    self.release_refs(&upstream_refs);
                }
            },
            Err(_) => self.release_refs(&upstream_refs),
        }
        result
    }

    /// Releases a promise (§6 promise release). Cascades to delegated
    /// upstream promises.
    pub fn release(&self, id: PromiseId) -> Result<(), PromiseError> {
        let started = Instant::now();
        let result = self.with_retries(|| self.try_release(id));
        if let Some(tel) = self.telemetry.read().as_deref() {
            let dur = started.elapsed();
            tel.release_hist.record_duration(dur);
            match &result {
                // Clean untraced releases are elided like clean untraced
                // grants (DESIGN §12); failures always get a span.
                Ok(()) => {
                    if current_trace().is_some() {
                        tel.span_since(SpanKind::PmRelease, started)
                            .promise(id.0)
                            .finish_with(dur);
                    }
                }
                Err(e) => tel
                    .span_since(SpanKind::PmRelease, started)
                    .promise(id.0)
                    .outcome(SpanOutcome::Error)
                    .note(e.to_string())
                    .finish_with(dur),
            }
        }
        result?;
        self.cascade_release(id);
        self.metrics.released.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Commits a prepared hold: the promise becomes an ordinary grant
    /// (journalled as a `C` record). Idempotent — committing an
    /// already-committed promise returns `Ok(false)`, so a coordinator's
    /// retried commit (lost ack) is harmless. Committing a hold that has
    /// already expired or was never granted fails, letting the coordinator
    /// treat the transaction as aborted.
    pub fn commit_prepared(&self, id: PromiseId) -> Result<bool, PromiseError> {
        let tbl = self.table.lock();
        if tbl.get(id).is_none() {
            return Err(if self.expired_tombstones.lock().contains(id) {
                PromiseError::PromiseExpired(id)
            } else {
                PromiseError::UnknownPromise(id)
            });
        }
        let mut prepared = self.prepared.lock();
        if !prepared.remove(&id) {
            return Ok(false);
        }
        self.journal_append(JournalOp::CommitPrepared(id));
        Ok(true)
    }

    /// Aborts a prepared hold, releasing its resources. Idempotent — a
    /// hold already released, expired, or never granted is reported as
    /// `Ok(false)`, so a coordinator's retried abort is harmless.
    pub fn abort_prepared(&self, id: PromiseId) -> Result<bool, PromiseError> {
        match self.release(id) {
            Ok(()) => Ok(true),
            Err(PromiseError::UnknownPromise(_) | PromiseError::PromiseExpired(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// True if `id` is a prepared hold still awaiting its coordinator's
    /// decision (in doubt).
    pub fn is_prepared(&self, id: PromiseId) -> bool {
        self.prepared.lock().contains(&id)
    }

    /// The prepared holds still awaiting a decision, sorted by id — the
    /// in-doubt set a recovering coordinator must resolve.
    pub fn prepared_ids(&self) -> Vec<PromiseId> {
        let mut ids: Vec<PromiseId> = self.prepared.lock().iter().copied().collect();
        ids.sort();
        ids
    }

    /// Age in clock milliseconds of the oldest prepared hold still in
    /// doubt, or `None` when no hold is in doubt. This is the health
    /// plane's in-doubt-age signal: a coordinator stuck (or dead) between
    /// prepare and resolution shows up as this value climbing.
    pub fn oldest_in_doubt_age_ms(&self) -> Option<u64> {
        // Locks taken one at a time (prepared, then table) — never nested,
        // matching the table → prepared order used on the grant path.
        let ids: Vec<PromiseId> = self.prepared.lock().iter().copied().collect();
        if ids.is_empty() {
            return None;
        }
        let now = self.clock.now_ms();
        let tbl = self.table.lock();
        ids.iter()
            .filter_map(|id| tbl.get(*id).map(|rec| now.saturating_sub(rec.granted_at)))
            .max()
    }

    /// The live promise held by `(client, request)`, if any. A recovering
    /// coordinator that lost a prepare reply resolves the hold by request
    /// key instead of promise id.
    pub fn promise_for_request(&self, client: &ClientId, request: &RequestId) -> Option<PromiseId> {
        let key = (client.clone(), request.clone());
        let id = *self.request_index.lock().get(&key)?;
        let tbl = self.table.lock();
        let rec = tbl.get(id)?;
        if !rec.is_live(self.clock.now_ms()) {
            return None;
        }
        Some(id)
    }

    /// Atomically upgrades or weakens existing promises: grants `spec`'s
    /// predicates and releases `old` iff the grant succeeds; otherwise the
    /// old promises are retained unchanged (§4). Sugar over
    /// [`PromiseManager::request`] with `exchange`.
    pub fn modify(
        &self,
        old: &[PromiseId],
        mut spec: PromiseRequestSpec,
    ) -> Result<PromiseResponse, PromiseError> {
        spec.exchange.extend_from_slice(old);
        self.request(spec)
    }

    /// Executes an application action inside one ACID transaction, then
    /// re-checks every live promise; if the action's state changes would
    /// violate a promise it is not releasing, the whole action is rolled
    /// back (§8 "Executing Actions"). Promises listed in `env` with
    /// [`crate::ReleaseOption::ReleaseAfter`] are released atomically with
    /// a successful action (§4's release+action atomic unit).
    ///
    /// The closure may be re-run if its transaction is chosen as a
    /// deadlock victim; all its effects are transactional, so retries are
    /// invisible to the application.
    pub fn execute<R>(
        &self,
        env: &Environment,
        mut action: impl FnMut(&ResourceManager, &Txn) -> Result<R, ActionError>,
    ) -> Result<R, PromiseError> {
        self.prune_expired()?;
        let started = Instant::now();
        let result = self.with_retries(|| self.try_execute(env, &mut action, false));
        self.note_execute(env, started, result.as_ref().err());
        let out = result?;
        for id in env.releases() {
            self.cascade_release(id);
        }
        self.metrics.executions.fetch_add(1, Ordering::Relaxed);
        Ok(out)
    }

    /// Like [`PromiseManager::execute`], but additionally *enforces*
    /// promise scoping (§2): the action may only modify promise-protected
    /// pools that its environment's promises actually cover. Writes to
    /// tables that are not pool-backed (order logs etc.) are always
    /// allowed. A write outside the scope rolls the action back with
    /// [`PromiseError::ScopeViolation`].
    pub fn execute_scoped<R>(
        &self,
        env: &Environment,
        mut action: impl FnMut(&ResourceManager, &Txn) -> Result<R, crate::error::ActionError>,
    ) -> Result<R, PromiseError> {
        self.prune_expired()?;
        let started = Instant::now();
        let result = self.with_retries(|| self.try_execute(env, &mut action, true));
        self.note_execute(env, started, result.as_ref().err());
        let out = result?;
        for id in env.releases() {
            self.cascade_release(id);
        }
        self.metrics.executions.fetch_add(1, Ordering::Relaxed);
        Ok(out)
    }

    /// Records the `pm.execute` histogram and span — plus a `pm.release`
    /// lifecycle event per promise released with the action — when
    /// telemetry is attached. Rollbacks for promise violations are tagged
    /// with the violated promise.
    fn note_execute(&self, env: &Environment, started: Instant, err: Option<&PromiseError>) {
        let guard = self.telemetry.read();
        let Some(tel) = guard.as_deref() else { return };
        let dur = started.elapsed();
        tel.execute_hist.record_duration(dur);
        match err {
            None => {
                // A clean execute outside any ambient trace joins nothing
                // an auditor could correlate — the journal carries the
                // release ground truth and the histogram above already has
                // the latency sample — so only traced executions earn ring
                // slots (DESIGN §12).
                if current_trace().is_some() {
                    for id in env.releases() {
                        tel.event(SpanKind::PmRelease, id.0);
                    }
                    tel.span_since(SpanKind::PmExecute, started)
                        .finish_with(dur);
                }
            }
            Some(PromiseError::ViolationRolledBack { violated, detail }) => tel
                .span_since(SpanKind::PmExecute, started)
                .promise(violated.0)
                .outcome(SpanOutcome::RolledBack)
                .note(detail.clone())
                .finish_with(dur),
            Some(e) => tel
                .span_since(SpanKind::PmExecute, started)
                .outcome(SpanOutcome::Error)
                .note(e.to_string())
                .finish_with(dur),
        }
    }

    /// Reaps expired promises, freeing their tag allocations. Called
    /// lazily by every operation; callable explicitly (e.g. on a timer).
    /// Returns the number reaped.
    pub fn prune_expired(&self) -> Result<usize, PromiseError> {
        let reaped = self.with_retries(|| self.try_prune())?;
        {
            let now = self.clock.now_ms();
            let evict_at = now.saturating_add(self.tombstone_grace_ms.load(Ordering::Relaxed));
            let mut tombs = self.expired_tombstones.lock();
            for rec in &reaped {
                tombs.insert(rec.id, evict_at);
            }
            // Evict tombstones whose grace window has passed, so the set
            // tracks recent expiries instead of growing with history.
            tombs.evict_due(now);
        }
        for rec in &reaped {
            self.cascade_release(rec.id);
        }
        if !reaped.is_empty() {
            if let Some(tel) = self.telemetry.read().as_deref() {
                for rec in &reaped {
                    tel.event(SpanKind::PmExpire, rec.id.0);
                }
                tel.expired
                    .fetch_add(reaped.len() as u64, Ordering::Relaxed);
            }
        }
        self.metrics
            .expired_reaped
            .fetch_add(reaped.len() as u64, Ordering::Relaxed);
        Ok(reaped.len())
    }

    /// Rebuilds the promise table, per-pool indexes, quantity aggregates
    /// and request-id index from `journal` after a (simulated) crash, then
    /// installs the journal for continued appends.
    ///
    /// Replay is *idempotent*: `Grant` inserts (replacing any stale copy),
    /// `Release`/`Expire` of an absent id is a no-op, and `Allocations`
    /// rewrites in place — so replaying the same journal twice yields the
    /// same table. Recovery first bumps the journal generation; promises
    /// that expired while the manager was down are pruned immediately and
    /// their `Expire` records carry the new generation, so a second
    /// recovery over the extended journal never re-admits them.
    pub fn recover(&self, journal: Arc<PromiseJournal>) -> Result<RecoveryReport, PromiseError> {
        let generation = journal.bump_generation();
        let entries = journal
            .entries()
            .map_err(|e| PromiseError::JournalCorrupt(e.to_string()))?;
        let replayed = entries.len();

        let mut table = PromiseTable::new();
        let mut tombstones: HashSet<PromiseId> = HashSet::new();
        let mut prepared: HashSet<PromiseId> = HashSet::new();
        let mut lease_map: BTreeMap<PoolId, u64> = BTreeMap::new();
        let mut max_id = 0u64;
        for entry in entries {
            match entry.op {
                JournalOp::Grant(rec) => {
                    max_id = max_id.max(rec.id.0);
                    tombstones.remove(&rec.id);
                    prepared.remove(&rec.id);
                    table.insert(rec);
                }
                JournalOp::Prepared(rec) => {
                    max_id = max_id.max(rec.id.0);
                    tombstones.remove(&rec.id);
                    prepared.insert(rec.id);
                    table.insert(rec);
                }
                JournalOp::CommitPrepared(id) => {
                    prepared.remove(&id);
                }
                JournalOp::Release(id) => {
                    table.remove(id);
                    prepared.remove(&id);
                }
                JournalOp::Expire(id) => {
                    table.remove(id);
                    prepared.remove(&id);
                    tombstones.insert(id);
                }
                JournalOp::Allocations { id, allocations } => {
                    if let Some(rec) = table.get_mut(id) {
                        rec.allocations = allocations;
                    }
                }
                JournalOp::Lease { pool, qty } => {
                    // Absolute values: last write wins, exactly the state
                    // the pre-crash manager last made durable.
                    lease_map.insert(pool, qty);
                }
                JournalOp::Checkpoint(cp) => {
                    // A checkpoint is a full snapshot of live state: reset
                    // the fold and continue replay from it. Everything
                    // before it is compacted-away history.
                    table = PromiseTable::new();
                    tombstones.clear();
                    prepared.clear();
                    lease_map = cp.leases.into_iter().collect();
                    max_id = max_id.max(cp.next_id);
                    for item in cp.live {
                        max_id = max_id.max(item.record.id.0);
                        if item.prepared {
                            prepared.insert(item.record.id);
                        }
                        table.insert(item.record);
                    }
                }
            }
        }
        table.bump_next_to(max_id);
        let recovered = table.len();

        let mut index: HashMap<(ClientId, RequestId), PromiseId> = HashMap::new();
        for rec in table.records() {
            index.insert((rec.client.clone(), rec.request.clone()), rec.id);
        }

        // Install rebuilt state. Locks are taken one at a time — recovery
        // runs before the manager serves traffic, so no consistency window
        // matters here.
        *self.table.lock() = table;
        *self.request_index.lock() = index;
        // Observation pins are volatile: any pre-crash observer's session
        // is gone, so recovered promises re-arrange freely again.
        self.pinned.lock().clear();
        *self.prepared.lock() = prepared;
        // Replayed Expire records carry no wall-clock, so recovered
        // tombstones restart their grace window at recovery time.
        let evict_at = self
            .clock
            .now_ms()
            .saturating_add(self.tombstone_grace_ms.load(Ordering::Relaxed));
        {
            let mut tombs = self.expired_tombstones.lock();
            for id in tombstones {
                tombs.insert(id, evict_at);
            }
        }
        *self.journal.write() = Some(journal);

        // The journal is the durable truth for escrow leases: force each
        // leased pool's on-hand quantity back to its lease slice, healing
        // any divergence from a crash between the RM write and the `L`
        // append. Pools whose schema the caller has not re-registered are
        // skipped (schema registration is not journalled).
        {
            let catalog = self.catalog.read();
            for (pool, qty) in &lease_map {
                if !catalog.contains(pool) {
                    continue;
                }
                let txn = self.rm.begin();
                match catalog.set_quantity(&self.rm, &txn, pool, *qty) {
                    Ok(()) => self.rm.commit(txn)?,
                    Err(e) => return Err(self.abort_with(txn, e)),
                }
            }
        }
        *self.leases.lock() = lease_map;

        // Reap promises that expired while the manager was down; their
        // Expire entries are appended under the new generation and their
        // ids become tombstones, so post-recovery operations under them get
        // the paper's "promise-expired" error, never "unknown promise".
        // Surviving prepared marks (minus any the prune just reaped) are
        // the in-doubt holds: their resources stay reserved — no other
        // client can be oversold against them — until the coordinator
        // commits/aborts them or their expiry reaps them.
        let pruned = self.prune_expired()?;
        Ok(RecoveryReport {
            replayed,
            recovered,
            pruned,
            in_doubt: self.prepared.lock().len(),
            generation,
        })
    }

    /// Compacts the attached journal: captures the live table, prepared
    /// marks, and id high-water into one checkpoint record and atomically
    /// swaps it in for the accumulated history
    /// ([`PromiseJournal::install_checkpoint`]). The snapshot is built and
    /// swapped under the table lock — the same lock every journal append
    /// holds — so the checkpoint is a consistent cut and no concurrent
    /// transition can fall between snapshot and swap. Recovery replays the
    /// checkpoint plus whatever suffix accumulates after it, making
    /// restart cost O(live promises), not O(history). `state_digest()` is
    /// byte-identical across compact → crash → recover.
    ///
    /// Returns `Ok(None)` when no journal is attached; returns
    /// [`PromiseError::CompactionInterrupted`] when an armed crash hook
    /// fires ([`PromiseManager::arm_compaction_crash`]).
    pub fn compact(&self) -> Result<Option<CompactionReport>, PromiseError> {
        let journal = match self.journal.read().as_ref() {
            Some(j) => Arc::clone(j),
            None => return Ok(None),
        };
        let started = Instant::now();
        // Crate-wide lock order: table → prepared.
        let table = self.table.lock();
        let prepared_set = self.prepared.lock();
        let mut live: Vec<(bool, &PromiseRecord)> = table
            .records()
            .map(|record| (prepared_set.contains(&record.id), record))
            .collect();
        drop(prepared_set);
        // Canonical order keeps the checkpoint line deterministic for a
        // given table state (table iteration order is not).
        live.sort_by_key(|(_, record)| record.id);
        let prepared_count = live.iter().filter(|(prepared, _)| *prepared).count();
        // BTreeMap iteration is sorted, keeping the line deterministic.
        let leases: Vec<(PoolId, u64)> = self
            .leases
            .lock()
            .iter()
            .map(|(p, q)| (p.clone(), *q))
            .collect();
        let crash = self.compaction_crash.lock().take();
        if crash == Some(CompactionCrash::BeforeSwap) {
            // Modeled crash while writing the checkpoint temp file: the
            // real journal was never touched.
            return Err(PromiseError::CompactionInterrupted);
        }
        let stats = journal.install_checkpoint(table.id_high_water(), &live, &leases);
        let report = CompactionReport {
            dropped: stats.dropped,
            live: table.len(),
            prepared: prepared_count,
            seq: stats.seq,
        };
        drop(table);
        if crash == Some(CompactionCrash::AfterSwap) {
            // Modeled crash right after the rename: the swap is durable.
            return Err(PromiseError::CompactionInterrupted);
        }
        if let Some(tel) = self.telemetry.read().as_deref() {
            tel.compact_runs.fetch_add(1, Ordering::Relaxed);
            tel.compact_dropped
                .fetch_add(report.dropped as u64, Ordering::Relaxed);
            tel.journal_records
                .store(journal.len() as u64, Ordering::Relaxed);
            tel.span_since(SpanKind::PmCompact, started)
                .note(format!("dropped={} live={}", report.dropped, report.live))
                .finish();
        }
        Ok(Some(report))
    }

    /// Compacts when the journal has outgrown its worth as raw history:
    /// at least [`PromiseManager::with_compaction_threshold`] records long
    /// *and* several times larger than the live table (a journal that is
    /// mostly live promises would shrink little). Cheap when nothing is
    /// due — the expiry reaper calls this on its cadence. Also refreshes
    /// the `pm.journal.records` gauge.
    pub fn maybe_compact(&self) -> Result<Option<CompactionReport>, PromiseError> {
        let journal_len = match self.journal.read().as_ref() {
            Some(j) => j.len(),
            None => return Ok(None),
        };
        if let Some(tel) = self.telemetry.read().as_deref() {
            tel.journal_records
                .store(journal_len as u64, Ordering::Relaxed);
        }
        let threshold = self.compaction_threshold.load(Ordering::Relaxed);
        if threshold == 0 || journal_len < threshold {
            return Ok(None);
        }
        if journal_len < 4 * (self.live_count() + 1) {
            return Ok(None);
        }
        self.compact()
    }

    // ==================================================================
    // Introspection
    // ==================================================================

    /// Number of promises currently in the table.
    pub fn live_count(&self) -> usize {
        self.table.lock().len()
    }

    /// A copy of a promise's record, if present.
    ///
    /// Reading a record *pins* its allocations: the returned instances
    /// will not be moved by later re-arrangements (the caller may act on
    /// exactly what it read — e.g. book the room the manager allocated).
    /// The pin is taken under the table lock, atomically with the read, so
    /// a re-arrangement in flight either already shows in the returned
    /// record or detects the pin at write-back and recomputes. Pins drop
    /// when the promise is released, expired, or exchanged. Unobserved
    /// promises keep the paper's full §5 re-arrangement freedom.
    pub fn promise(&self, id: PromiseId) -> Option<PromiseRecord> {
        let tbl = self.table.lock();
        let rec = tbl.get(id).cloned()?;
        if !rec.allocations.is_empty() {
            self.pinned.lock().insert(id);
        }
        Some(rec)
    }

    /// A copy of a promise's record without pinning its allocations —
    /// for audits and introspection that will never act on the specific
    /// instances (re-arrangement stays free afterwards).
    pub fn peek_promise(&self, id: PromiseId) -> Option<PromiseRecord> {
        self.table.lock().get(id).cloned()
    }

    /// Per-pool totals of quantity promised by live promises (sorted by
    /// pool). An external audit can cross-check these against quantities
    /// on hand: promised exceeding on-hand is a promise violation.
    pub fn promised_quantities(&self) -> Vec<(PoolId, u64)> {
        self.table.lock().qty_aggregates()
    }

    /// The quantity on hand in a quantity pool (audit/introspection).
    pub fn quantity_on_hand(&self, pool: impl Into<PoolId>) -> Result<u64, PromiseError> {
        let pool = pool.into();
        let catalog = self.catalog.read();
        let txn = self.rm.begin();
        match catalog.quantity(&self.rm, &txn, &pool) {
            Ok(q) => self.abort_then(txn, q),
            Err(e) => Err(self.abort_with(txn, e)),
        }
    }

    /// Counter snapshot.
    pub fn metrics(&self) -> PmMetricsSnapshot {
        let m = &self.metrics;
        PmMetricsSnapshot {
            granted: m.granted.load(Ordering::Relaxed),
            rejected: m.rejected.load(Ordering::Relaxed),
            released: m.released.load(Ordering::Relaxed),
            expired_reaped: m.expired_reaped.load(Ordering::Relaxed),
            executions: m.executions.load(Ordering::Relaxed),
            action_failures: m.action_failures.load(Ordering::Relaxed),
            violations_rolled_back: m.violations_rolled_back.load(Ordering::Relaxed),
            expired_errors: m.expired_errors.load(Ordering::Relaxed),
            deadlock_retries: m.deadlock_retries.load(Ordering::Relaxed),
            grants_deduped: m.grants_deduped.load(Ordering::Relaxed),
            overload_rejections: m.overload_rejections.load(Ordering::Relaxed),
            grant_lat: m.grant_lat.snapshot(),
            release_lat: m.release_lat.snapshot(),
            execute_lat: m.execute_lat.snapshot(),
            prune_lat: m.prune_lat.snapshot(),
        }
    }

    /// What the most recent checking pass looked at: the pools a
    /// [`PromiseManager::execute`] post-check visited, and the promise
    /// records a grant check, post-check or prune cloned out of the table.
    /// Test/experiment hook for verifying footprint scoping; racy under
    /// concurrent operations.
    pub fn last_check_stats(&self) -> CheckerStats {
        self.last_check_stats.lock().clone()
    }

    /// A canonical string over the full promise-table state: every record
    /// (sorted by id, predicates in `Display` form, allocations in slot
    /// order), the per-pool promised-quantity aggregates, and the expiry
    /// histogram. Two managers with byte-equal digests hold equivalent
    /// promise state — the crash-recovery tests compare a pre-crash digest
    /// against the post-[`PromiseManager::recover`] digest.
    pub fn state_digest(&self) -> String {
        let tbl = self.table.lock();
        let mut records: Vec<&PromiseRecord> = tbl.records().collect();
        records.sort_by_key(|r| r.id);
        let mut out = String::new();
        for rec in records {
            out.push_str(&format!(
                "promise {} client={} request={} granted={} expires={}\n",
                rec.id, rec.client, rec.request, rec.granted_at, rec.expires_at
            ));
            for pred in &rec.predicates {
                out.push_str(&format!("  pred {pred}\n"));
            }
            for alloc in &rec.allocations {
                out.push_str(&format!("  alloc {}:{}\n", alloc.pred_idx, alloc.instance));
            }
        }
        for (pool, qty) in tbl.qty_aggregates() {
            out.push_str(&format!("qty {pool}={qty}\n"));
        }
        for (at, n) in tbl.expiry_histogram() {
            out.push_str(&format!("expiry {at}={n}\n"));
        }
        // Prepared marks are durable state (journalled, recovered), so two
        // equivalent managers must agree on them — unlike volatile pins.
        // Read under the table lock (table → prepared) for a consistent cut.
        let mut prepared: Vec<PromiseId> = self.prepared.lock().iter().copied().collect();
        prepared.sort();
        for id in prepared {
            out.push_str(&format!("prepared {id}\n"));
        }
        // Escrow leases are durable state as well (journalled `L` records,
        // checkpointed, recovered); read under the table lock
        // (table → leases) for a consistent cut.
        for (pool, qty) in self.leases.lock().iter() {
            out.push_str(&format!("lease {pool}={qty}\n"));
        }
        out
    }

    // ==================================================================
    // Internals
    // ==================================================================

    fn with_retries<R>(
        &self,
        mut body: impl FnMut() -> Result<R, PromiseError>,
    ) -> Result<R, PromiseError> {
        let mut attempt: u32 = 0;
        loop {
            match body() {
                Err(ref e) if e.retryable() && (attempt as usize) < self.retry_limit => {
                    attempt += 1;
                    self.metrics
                        .deadlock_retries
                        .fetch_add(1, Ordering::Relaxed);
                    if let Some(tel) = self.telemetry.read().as_deref() {
                        tel.retry_deadlock.fetch_add(1, Ordering::Relaxed);
                    }
                    // Short bounded backoff breaks retry lockstep between
                    // symmetric victims (exponential, capped at ~3ms).
                    let exp = attempt.min(5);
                    std::thread::sleep(std::time::Duration::from_micros(100u64 << exp));
                }
                other => return other,
            }
        }
    }

    /// Aborts `txn` on an error path, folding a failed rollback into the
    /// returned error: [`RmError::RollbackIncomplete`] (store possibly
    /// inconsistent) takes precedence over the error that triggered the
    /// abort, because state integrity trumps the original failure.
    fn abort_with(&self, txn: Txn, err: PromiseError) -> PromiseError {
        match self.rm.abort(txn) {
            Ok(()) => err,
            Err(abort_err) => PromiseError::Rm(abort_err),
        }
    }

    /// Aborts a transaction whose outcome is a normal (non-error) value;
    /// a failed rollback converts the outcome into an error.
    fn abort_then<T>(&self, txn: Txn, value: T) -> Result<T, PromiseError> {
        self.rm.abort(txn)?;
        Ok(value)
    }

    /// Appends to the journal if one is attached. Called while holding the
    /// table lock, so journal order matches table-mutation order.
    fn journal_append(&self, op: JournalOp) {
        if let Some(j) = self.journal.read().as_ref() {
            j.append(op);
            // Keep the `pm.journal.records` gauge live on every append so
            // health monitors see journal growth between compaction and
            // reaper ticks, not just the post-compaction plateau.
            if let Some(tel) = self.telemetry.read().as_deref() {
                tel.journal_records.store(j.len() as u64, Ordering::Relaxed);
            }
        }
    }

    /// Answers a grant request from the request-id index if the same
    /// `(client, request)` already holds a live promise. Locks are taken
    /// one at a time (index, then table) — never nested.
    fn dedup_hit(&self, spec: &PromiseRequestSpec) -> Option<PromiseResponse> {
        let key = (spec.client.clone(), spec.request.clone());
        let id = *self.request_index.lock().get(&key)?;
        let expires_at = {
            let tbl = self.table.lock();
            let rec = tbl.get(id)?;
            if !rec.is_live(self.clock.now_ms()) {
                return None;
            }
            rec.expires_at
        };
        Some(PromiseResponse {
            correlation: spec.request.clone(),
            decision: PromiseDecision::Granted {
                promise: id,
                expires_at,
            },
        })
    }

    /// Drops request-index entries for promises leaving the table, keyed
    /// conditionally so a newer grant under a reused request id survives.
    /// Also drops their observation pins — a promise that left the table
    /// can never be re-arranged again, so the pin is moot.
    fn unindex_requests(&self, removed: &[PromiseRecord]) {
        if removed.is_empty() {
            return;
        }
        {
            let mut pins = self.pinned.lock();
            for rec in removed {
                pins.remove(&rec.id);
            }
        }
        {
            // A prepared hold leaving the table (released by abort,
            // consumed by exchange, or reaped by expiry) is resolved; its
            // mark goes with it.
            let mut prepared = self.prepared.lock();
            for rec in removed {
                prepared.remove(&rec.id);
            }
        }
        let mut idx = self.request_index.lock();
        for rec in removed {
            let key = (rec.client.clone(), rec.request.clone());
            if idx.get(&key) == Some(&rec.id) {
                idx.remove(&key);
            }
        }
    }

    /// Acquires the operation's synchronisation point(s), recording the
    /// wait in `lat`. In [`LockingMode::Global`] this is the single
    /// whole-manager point; in [`LockingMode::Footprint`] it is one point
    /// per footprint pool, taken in canonical sorted order (handled by
    /// [`ResourceManager::lock_exclusive_many`]) so two promise operations
    /// can never deadlock on sync points alone.
    fn lock_ops(
        &self,
        txn: &Txn,
        footprint: &[PoolId],
        lat: &OpLatencyMetrics,
    ) -> Result<(), RmError> {
        let started = Instant::now();
        let result = match self.locking {
            LockingMode::Global => self.rm.lock_exclusive(txn, PM_OPS),
            LockingMode::Footprint => {
                let names: Vec<String> = footprint
                    .iter()
                    .map(|pool| format!("{PM_OPS}/{pool}"))
                    .collect();
                self.rm.lock_exclusive_many(txn, &names)
            }
        };
        lat.add_lock_wait(started);
        result
    }

    /// Mirrors one checking pass into the attached telemetry registry:
    /// the `pm.check` stage histogram plus a `pm.check` span with the
    /// pass's outcome (joining the ambient trace, so a check shows up
    /// under the client operation that triggered it).
    fn record_check(&self, started: Instant, dur: std::time::Duration, outcome: SpanOutcome) {
        let guard = self.telemetry.read();
        let Some(tel) = guard.as_deref() else { return };
        tel.check_hist.record_duration(dur);
        // An Ok check outside any ambient trace carries no promise id and
        // no causal edge, so nothing downstream can join it; the histogram
        // sample above is the whole signal. Only traced or failed checks
        // earn a ring slot — this also keeps tracing off the fast path of
        // uninstrumented-by-wire workloads.
        if outcome != SpanOutcome::Ok || current_trace().is_some() {
            tel.span_since(SpanKind::PmCheck, started)
                .outcome(outcome)
                .finish_with(dur);
        }
    }

    /// Gathers, under the table lock, what the checker reads for an
    /// operation over `footprint` that takes `excluded` out of the table
    /// (exchanged or released promises) and adds `candidate` predicates.
    ///
    /// Under footprint locking the table is read per pool kind. A pool
    /// that is not an instance pool is checked from one number, its exact
    /// live demand: the cached aggregate less `excluded` when nothing is
    /// expired-but-unpruned, otherwise a re-sum over the pool's own
    /// records, borrowed in place. Only the *instance* pools' promises are
    /// cloned — matching rewrites their allocations — and only then is
    /// the observation-pin set copied. So a quantity-only operation clones
    /// no record at all, however many promises its pools hold.
    ///
    /// Under global locking every live record and every pin is copied and
    /// no demand is supplied, so the checker re-sums the snapshot: the
    /// prototype's whole-table check, kept as the baseline.
    fn check_inputs(
        &self,
        tbl: &PromiseTable,
        catalog: &Catalog,
        now: u64,
        footprint: &[PoolId],
        excluded: &[PromiseRecord],
        candidate: &[Predicate],
    ) -> CheckInputs {
        let except: Vec<PromiseId> = excluded.iter().map(|rec| rec.id).collect();
        if self.locking == LockingMode::Global {
            return CheckInputs {
                snapshot: tbl.snapshot(now, &except),
                qty_demand: HashMap::new(),
                // Read under the table lock so the pins are consistent
                // with the snapshot's allocations (table → pinned).
                pinned: self.pinned.lock().clone(),
            };
        }
        let (instance_pools, counted_pools): (Vec<PoolId>, Vec<PoolId>) =
            footprint.iter().cloned().partition(|pool| {
                catalog
                    .get(pool)
                    .is_ok_and(|schema| schema.kind == PoolKind::Instances)
            });
        let nothing_expired = tbl.none_expired(now);
        let qty_demand = counted_pools
            .into_iter()
            .map(|pool| {
                let held = if nothing_expired {
                    let leaving: u64 = excluded
                        .iter()
                        .map(|rec| qty_demand_on(&rec.predicates, &pool))
                        .sum();
                    tbl.promised_qty(&pool).saturating_sub(leaving)
                } else {
                    tbl.qty_demand(&pool, now, &except)
                };
                let demand = held.saturating_add(qty_demand_on(candidate, &pool));
                (pool, demand)
            })
            .collect();
        let (snapshot, pinned) = if instance_pools.is_empty() {
            (Vec::new(), HashSet::new())
        } else {
            (
                tbl.snapshot_pools(now, &instance_pools, &except),
                self.pinned.lock().clone(),
            )
        };
        CheckInputs {
            snapshot,
            qty_demand,
            pinned,
        }
    }

    /// Pools this manager protects that `txn` has written so far — the
    /// action's write footprint, mapped from the RM write-set the same way
    /// scope enforcement maps it.
    fn written_pools(&self, txn: &Txn) -> Result<Vec<PoolId>, PromiseError> {
        let catalog = self.catalog.read();
        let mut pools = Vec::new();
        for (table, key) in self.rm.write_set(txn)? {
            let touched: Option<PoolId> = if table == Catalog::QTY_TABLE {
                Some(PoolId(key))
            } else {
                table.strip_prefix("inst:").map(|p| PoolId(p.to_owned()))
            };
            if let Some(pool) = touched {
                if catalog.contains(&pool) {
                    pools.push(pool);
                }
            }
        }
        pools.sort();
        pools.dedup();
        Ok(pools)
    }

    /// One grant attempt. The boolean in the success value is true when the
    /// response was answered from the request-id index (a deduplicated
    /// retry) rather than freshly granted.
    fn try_grant_local(
        &self,
        spec: &PromiseRequestSpec,
        local_predicates: Vec<Predicate>,
        duration_ms: u64,
        prepared: bool,
    ) -> Result<(PromiseResponse, bool), PromiseError> {
        let txn = self.rm.begin();

        // Footprint: the candidate's pools plus the pools of exchanged
        // promises (read before locking — predicate sets are immutable, so
        // an exchange record's pools cannot change while we wait; if the
        // record vanishes meanwhile, the post-lock validation rejects).
        let footprint: Vec<PoolId> = {
            let tbl = self.table.lock();
            let mut pools: Vec<PoolId> =
                local_predicates.iter().map(|p| p.pool().clone()).collect();
            for ex in &spec.exchange {
                if let Some(rec) = tbl.get(*ex) {
                    pools.extend(rec.pools().into_iter().cloned());
                }
            }
            pools.sort();
            pools.dedup();
            pools
        };
        if let Err(e) = self.lock_ops(&txn, &footprint, &self.metrics.grant_lat) {
            return Err(self.abort_with(txn, e.into()));
        }
        // Authoritative dedup under the footprint locks: a racing duplicate
        // of this request may have been granted while we waited.
        if let Some(resp) = self.dedup_hit(spec) {
            return self.abort_then(txn, (resp, true));
        }
        let now = self.clock.now_ms();

        // Validate and capture exchanged promises (now serialised against
        // releases/prunes over their pools).
        let mut exchanged: Vec<PromiseRecord> = Vec::new();
        {
            let tbl = self.table.lock();
            for ex in &spec.exchange {
                match tbl.get(*ex) {
                    Some(r) if r.is_live(now) => exchanged.push(r.clone()),
                    _ => {
                        drop(tbl);
                        return self.abort_then(
                            txn,
                            (
                                PromiseResponse {
                                    correlation: spec.request.clone(),
                                    decision: PromiseDecision::Rejected {
                                        reason: RejectReason::UnknownExchange(*ex),
                                    },
                                },
                                false,
                            ),
                        );
                    }
                }
            }
        }

        // Crate-wide lock order: catalog → table.
        let catalog = self.catalog.read();
        let (id, inputs) = {
            let mut tbl = self.table.lock();
            let inputs = self.check_inputs(
                &tbl,
                &catalog,
                now,
                &footprint,
                &exchanged,
                &local_predicates,
            );
            (tbl.next_id(), inputs)
        };
        let mut existing = inputs.snapshot;
        let mut candidate = PromiseRecord {
            id,
            client: spec.client.clone(),
            request: spec.request.clone(),
            predicates: local_predicates,
            granted_at: now,
            expires_at: now.saturating_add(duration_ms.min(self.max_duration_ms)),
            allocations: Vec::new(),
        };

        // Free exchanged tag allocations inside the txn: if the grant
        // fails the txn aborts and the old promises keep their resources
        // (§4: "the previous one should be retained").
        let check_started = Instant::now();
        let (grant_result, check_stats) = {
            let checker = Checker::new(&self.rm, &txn, &catalog)
                .with_qty_demand(inputs.qty_demand)
                .with_pinned(inputs.pinned);
            let mut r = Ok(Vec::new());
            for rec in &exchanged {
                if let Err(e) = checker.release_tags(rec) {
                    r = Err(CheckError::Rm(e));
                    break;
                }
            }
            if r.is_ok() {
                r = checker.grant(&mut existing, &mut candidate);
            }
            (r, checker.stats())
        };
        let check_dur = self.metrics.grant_lat.add_check(check_started);
        self.record_check(
            check_started,
            check_dur,
            match &grant_result {
                Ok(_) => SpanOutcome::Ok,
                Err(CheckError::Reject(_)) => SpanOutcome::Rejected,
                Err(_) => SpanOutcome::Error,
            },
        );
        drop(catalog);
        *self.last_check_stats.lock() = check_stats;

        match grant_result {
            Ok(changed) => {
                let expires_at = candidate.expires_at;
                let mut removed: Vec<PromiseRecord> = Vec::new();
                {
                    let mut tbl = self.table.lock();
                    // A promise pinned *at snapshot time* is never in
                    // `changed` (its slots were held in place), so any
                    // pinned id here means an observation raced in while
                    // this grant was matching: abort and recompute against
                    // the pinned state (table → pinned lock order matches
                    // the pin-on-observe path, so this is race-free).
                    if !changed.is_empty() {
                        let pins = self.pinned.lock();
                        if changed.iter().any(|id| pins.contains(id)) {
                            drop(pins);
                            drop(tbl);
                            return Err(self.abort_with(txn, PromiseError::ObservationConflict));
                        }
                    }
                    for ex in &spec.exchange {
                        if let Some(old) = tbl.remove(*ex) {
                            self.journal_append(JournalOp::Release(old.id));
                            removed.push(old);
                        }
                    }
                    for cid in changed {
                        if let Some(new_rec) = existing.iter().find(|p| p.id == cid) {
                            if let Some(slot) = tbl.get_mut(cid) {
                                slot.allocations = new_rec.allocations.clone();
                                self.journal_append(JournalOp::Allocations {
                                    id: cid,
                                    allocations: new_rec.allocations.clone(),
                                });
                            }
                        }
                    }
                    if prepared {
                        // One atomic record: the grant and its prepared
                        // mark are a single journal entry, so recovery can
                        // never see the hold without knowing it is in
                        // doubt (table → prepared lock order).
                        self.journal_append(JournalOp::Prepared(candidate.clone()));
                        self.prepared.lock().insert(id);
                    } else {
                        self.journal_append(JournalOp::Grant(candidate.clone()));
                    }
                    tbl.insert(candidate);
                }
                self.unindex_requests(&removed);
                self.request_index
                    .lock()
                    .insert((spec.client.clone(), spec.request.clone()), id);
                self.rm
                    .commit(txn)
                    .expect("grant commit cannot fail after lock acquisition");
                // Per-pool attribution and exchanged-promise lifecycle
                // terminals are recorded here, on the fresh-grant branch
                // only — deduped/rejected requests never pay for them.
                if let Some(tel) = self.telemetry.read().as_deref() {
                    let mut pools: Vec<&PoolId> =
                        spec.predicates.iter().map(|p| p.pool()).collect();
                    pools.sort();
                    pools.dedup();
                    for pool in pools {
                        tel.bump_pool(pool, true);
                    }
                    // Exchanged promises were released atomically with the
                    // fresh grant (§4); record their lifecycle terminal.
                    for ex in &spec.exchange {
                        tel.event(SpanKind::PmRelease, ex.0);
                    }
                }
                for ex in &spec.exchange {
                    self.cascade_release(*ex);
                }
                Ok((
                    PromiseResponse {
                        correlation: spec.request.clone(),
                        decision: PromiseDecision::Granted {
                            promise: id,
                            expires_at,
                        },
                    },
                    false,
                ))
            }
            Err(CheckError::Reject(reason)) => self.abort_then(
                txn,
                (
                    PromiseResponse {
                        correlation: spec.request.clone(),
                        decision: PromiseDecision::Rejected { reason },
                    },
                    false,
                ),
            ),
            Err(CheckError::Rm(e)) => Err(self.abort_with(txn, e.into())),
            Err(CheckError::Violation { promise, detail }) => Err(self.abort_with(
                txn,
                PromiseError::ViolationRolledBack {
                    violated: promise,
                    detail,
                },
            )),
        }
    }

    fn try_release(&self, id: PromiseId) -> Result<(), PromiseError> {
        let txn = self.rm.begin();
        // Footprint: the released promise's pools (immutable once granted,
        // so the pre-lock read stays exact while we wait for the locks).
        let footprint: Vec<PoolId> = match self.table.lock().get(id) {
            Some(r) => r.pools().into_iter().cloned().collect(),
            None => return Err(self.abort_with(txn, PromiseError::UnknownPromise(id))),
        };
        if let Err(e) = self.lock_ops(&txn, &footprint, &self.metrics.release_lat) {
            return Err(self.abort_with(txn, e.into()));
        }
        // Re-read under the lock: a concurrent prune may have reaped it.
        let rec = match self.table.lock().get(id) {
            Some(r) => r.clone(),
            None => return Err(self.abort_with(txn, PromiseError::UnknownPromise(id))),
        };
        let catalog = self.catalog.read();
        let check_started = Instant::now();
        let release_result = Checker::new(&self.rm, &txn, &catalog).release_tags(&rec);
        let check_dur = self.metrics.release_lat.add_check(check_started);
        self.record_check(
            check_started,
            check_dur,
            if release_result.is_ok() {
                SpanOutcome::Ok
            } else {
                SpanOutcome::Error
            },
        );
        drop(catalog);
        if let Err(e) = release_result {
            return Err(self.abort_with(txn, e.into()));
        }
        {
            let mut tbl = self.table.lock();
            if tbl.remove(id).is_some() {
                self.journal_append(JournalOp::Release(id));
            }
        }
        self.unindex_requests(std::slice::from_ref(&rec));
        self.rm
            .commit(txn)
            .expect("release commit cannot fail after lock acquisition");
        Ok(())
    }

    fn try_prune(&self) -> Result<Vec<PromiseRecord>, PromiseError> {
        let now = self.clock.now_ms();
        // The expired ids come off the table's expiry index: a first-key
        // probe when nothing expired (the common case), otherwise a read
        // of exactly the expired entries — never a pass over the table.
        // Footprint: the union of the expired promises' pools. The set is
        // re-read under the lock but only ever *shrinks* (concurrent
        // releases); `now` is fixed above so nothing new expires, and a
        // concurrent grant can only insert records live past `now`.
        let (expired_ids, footprint) = {
            let tbl = self.table.lock();
            let ids = tbl.expired_ids(now);
            if ids.is_empty() {
                return Ok(Vec::new());
            }
            let mut pools: Vec<PoolId> = ids
                .iter()
                .filter_map(|id| tbl.get(*id))
                .flat_map(|rec| rec.pools().into_iter().cloned())
                .collect();
            pools.sort();
            pools.dedup();
            (ids, pools)
        };
        let txn = self.rm.begin();
        if let Err(e) = self.lock_ops(&txn, &footprint, &self.metrics.prune_lat) {
            return Err(self.abort_with(txn, e.into()));
        }
        let expired: Vec<PromiseRecord> = {
            let tbl = self.table.lock();
            expired_ids
                .iter()
                .filter_map(|id| tbl.get(*id))
                .cloned()
                .collect()
        };
        if expired.is_empty() {
            return self.abort_then(txn, Vec::new());
        }
        *self.last_check_stats.lock() = CheckerStats {
            promises_considered: expired.len(),
            ..CheckerStats::default()
        };
        let catalog = self.catalog.read();
        let check_started = Instant::now();
        let release_result = {
            let checker = Checker::new(&self.rm, &txn, &catalog);
            expired.iter().try_for_each(|rec| checker.release_tags(rec))
        };
        let check_dur = self.metrics.prune_lat.add_check(check_started);
        self.record_check(
            check_started,
            check_dur,
            if release_result.is_ok() {
                SpanOutcome::Ok
            } else {
                SpanOutcome::Error
            },
        );
        drop(catalog);
        if let Err(e) = release_result {
            return Err(self.abort_with(txn, e.into()));
        }
        {
            let mut tbl = self.table.lock();
            for rec in &expired {
                if tbl.remove(rec.id).is_some() {
                    self.journal_append(JournalOp::Expire(rec.id));
                }
            }
        }
        self.unindex_requests(&expired);
        self.rm
            .commit(txn)
            .expect("prune commit cannot fail after lock acquisition");
        Ok(expired)
    }

    fn try_execute<R>(
        &self,
        env: &Environment,
        action: &mut impl FnMut(&ResourceManager, &Txn) -> Result<R, ActionError>,
        enforce_scope: bool,
    ) -> Result<R, PromiseError> {
        let txn = self.rm.begin();
        // Pre-validate the environment (cheap fail-fast; re-checked after
        // the action because time passes while it runs).
        if let Err(e) = self.validate_env(env, self.clock.now_ms()) {
            return Err(self.abort_with(txn, e));
        }

        // The application action itself.
        let out = match action(&self.rm, &txn) {
            Ok(v) => v,
            Err(ActionError::App(msg)) => {
                self.metrics.action_failures.fetch_add(1, Ordering::Relaxed);
                return Err(self.abort_with(txn, PromiseError::ActionFailed(msg)));
            }
            Err(ActionError::Rm(e)) => {
                // Storage failures (deadlock victims in particular) are not
                // business failures; bubble them so with_retries re-runs the
                // whole transactional attempt.
                return Err(self.abort_with(txn, PromiseError::Rm(e)));
            }
        };

        // Promise phase: derive the footprint (the pools the action wrote
        // plus the pools of promises being released), serialise on it,
        // re-validate, release tags, post-check.
        let releases = env.releases();
        let written = match self.written_pools(&txn) {
            Ok(pools) => pools,
            Err(e) => return Err(self.abort_with(txn, e)),
        };
        let footprint: Vec<PoolId> = {
            let tbl = self.table.lock();
            let mut pools = written.clone();
            pools.extend(
                releases
                    .iter()
                    .filter_map(|id| tbl.get(*id))
                    .flat_map(|rec| rec.pools().into_iter().cloned()),
            );
            pools.sort();
            pools.dedup();
            pools
        };
        if let Err(e) = self.lock_ops(&txn, &footprint, &self.metrics.execute_lat) {
            return Err(self.abort_with(txn, e.into()));
        }
        let now = self.clock.now_ms();
        if let Err(e) = self.validate_env(env, now) {
            return Err(self.abort_with(txn, e));
        }
        if enforce_scope {
            if let Err(e) = self.check_scope(env, &written) {
                self.metrics
                    .violations_rolled_back
                    .fetch_add(1, Ordering::Relaxed);
                return Err(self.abort_with(txn, e));
            }
        }
        // Crate-wide lock order: catalog → table.
        let catalog = self.catalog.read();
        let (release_recs, inputs) = {
            let tbl = self.table.lock();
            let recs: Vec<PromiseRecord> = releases
                .iter()
                .filter_map(|id| tbl.get(*id).cloned())
                .collect();
            let inputs = self.check_inputs(&tbl, &catalog, now, &footprint, &recs, &[]);
            (recs, inputs)
        };
        let mut live = inputs.snapshot;
        // Only the written pools can have been invalidated by the action;
        // released promises never constrain others tighter. Under global
        // locking keep the prototype's full re-check of every live pool.
        let scope = match self.locking {
            LockingMode::Global => None,
            LockingMode::Footprint => Some(footprint.as_slice()),
        };
        // A failed check of a pool whose records were not snapshotted
        // names its victim from the pool index, on that path only.
        let victim_of = |pool: &PoolId| self.table.lock().first_live_in_pool(pool, now, &releases);
        let check_started = Instant::now();
        let (check_result, check_stats) = {
            let checker = Checker::new(&self.rm, &txn, &catalog)
                .with_qty_demand(inputs.qty_demand)
                .with_pinned(inputs.pinned)
                .with_victim_lookup(&victim_of);
            let mut r = Ok(Vec::new());
            for rec in &release_recs {
                if let Err(e) = checker.release_tags(rec) {
                    r = Err(CheckError::Rm(e));
                    break;
                }
            }
            if r.is_ok() {
                r = checker.post_check(&mut live, scope);
            }
            (r, checker.stats())
        };
        let check_dur = self.metrics.execute_lat.add_check(check_started);
        self.record_check(
            check_started,
            check_dur,
            match &check_result {
                Ok(_) => SpanOutcome::Ok,
                Err(CheckError::Rm(_)) => SpanOutcome::Error,
                Err(_) => SpanOutcome::RolledBack,
            },
        );
        drop(catalog);
        *self.last_check_stats.lock() = check_stats;

        match check_result {
            Ok(changed) => {
                let mut removed: Vec<PromiseRecord> = Vec::new();
                {
                    let mut tbl = self.table.lock();
                    // Same pin-race guard as the grant write-back: a pinned
                    // id in `changed` means a client observed its
                    // allocations while this post-check was re-arranging;
                    // recompute against the pinned state.
                    if !changed.is_empty() {
                        let pins = self.pinned.lock();
                        if changed.iter().any(|id| pins.contains(id)) {
                            drop(pins);
                            drop(tbl);
                            return Err(self.abort_with(txn, PromiseError::ObservationConflict));
                        }
                    }
                    for id in &releases {
                        if let Some(old) = tbl.remove(*id) {
                            self.journal_append(JournalOp::Release(old.id));
                            removed.push(old);
                        }
                    }
                    for cid in changed {
                        if let Some(new_rec) = live.iter().find(|p| p.id == cid) {
                            if let Some(slot) = tbl.get_mut(cid) {
                                slot.allocations = new_rec.allocations.clone();
                                self.journal_append(JournalOp::Allocations {
                                    id: cid,
                                    allocations: new_rec.allocations.clone(),
                                });
                            }
                        }
                    }
                }
                self.unindex_requests(&removed);
                self.rm
                    .commit(txn)
                    .expect("execute commit cannot fail after post-check");
                Ok(out)
            }
            Err(CheckError::Violation { promise, detail }) => {
                self.metrics
                    .violations_rolled_back
                    .fetch_add(1, Ordering::Relaxed);
                Err(self.abort_with(
                    txn,
                    PromiseError::ViolationRolledBack {
                        violated: promise,
                        detail,
                    },
                ))
            }
            Err(CheckError::Rm(e)) => Err(self.abort_with(txn, e.into())),
            Err(CheckError::Reject(reason)) => {
                // Post-checks normally surface as violations; a reject here
                // means a pool vanished mid-flight — treat as violation.
                self.metrics
                    .violations_rolled_back
                    .fetch_add(1, Ordering::Relaxed);
                Err(self.abort_with(
                    txn,
                    PromiseError::ViolationRolledBack {
                        violated: PromiseId(0),
                        detail: reason.to_string(),
                    },
                ))
            }
        }
    }

    /// Scope enforcement: every pool-backed write (`written`, from
    /// [`PromiseManager::written_pools`]) must be covered by one of the
    /// environment's promises.
    fn check_scope(&self, env: &Environment, written: &[PoolId]) -> Result<(), PromiseError> {
        let covered: HashSet<PoolId> = {
            let tbl = self.table.lock();
            env.promise_ids()
                .into_iter()
                .filter_map(|id| tbl.get(id).cloned())
                .flat_map(|rec| rec.pools().into_iter().cloned().collect::<Vec<_>>())
                .collect()
        };
        for pool in written {
            if !covered.contains(pool) {
                return Err(PromiseError::ScopeViolation { pool: pool.clone() });
            }
        }
        Ok(())
    }

    fn validate_env(&self, env: &Environment, now: u64) -> Result<(), PromiseError> {
        let tbl = self.table.lock();
        for id in env.promise_ids() {
            match tbl.get(id) {
                None if self.expired_tombstones.lock().contains(id) => {
                    self.metrics.expired_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(PromiseError::PromiseExpired(id));
                }
                None => return Err(PromiseError::UnknownPromise(id)),
                Some(r) if !r.is_live(now) => {
                    self.metrics.expired_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(PromiseError::PromiseExpired(id));
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    fn release_refs(&self, refs: &[(Arc<PromiseManager>, PromiseId)]) {
        for (pm, id) in refs {
            let _ = pm.release(*id);
        }
    }

    fn cascade_release(&self, id: PromiseId) {
        let refs = self.delegations.lock().remove(&id);
        if let Some(refs) = refs {
            self.release_refs(&refs);
        }
    }
}
