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
//! (including modifications to the promise table)." That pattern is
//! written once, as `PromiseManager::transition`; the operations differ
//! only in which promises leave the table, which candidate enters it and
//! what is checked in between (§4's atomic units: request + exchange,
//! action + release).
//!
//! Everything the manager records per promise — the table, the request-id
//! index, prepared marks, observation pins, tombstones — is one
//! value behind one mutex (`crate::state`), so every reader sees one
//! consistent cut and the journal, appended under that mutex, is in
//! table-mutation order. The check itself runs on a snapshot *outside*
//! the mutex. Lock order: RM synchronisation points, then the catalog,
//! then the state.
//!
//! The prototype serialised those transactions on a *single* exclusive
//! synchronisation point, making every promise operation conflict with
//! every other one. Here each operation instead derives its *footprint* —
//! the pools its predicates constrain, its released promises cover, or its
//! action actually wrote — and locks one synchronisation point per pool,
//! named by the pool and acquired in canonical sorted order so promise
//! operations never deadlock against one another (§9). The footprint
//! borrows the pool names from the predicates and records it covers, so
//! an uncontended operation allocates little beyond what it keeps: the
//! record, its journal line, its request-index key. Operations over
//! disjoint pools proceed fully in parallel; the checker then re-checks
//! only the footprint's pools: a quantity pool from its exact live demand,
//! an instance pool against the promises that intersect it (see
//! [`crate::promise::PromiseTable`]'s per-pool indexes). The decisions are
//! the prototype's; `tests/support/model.rs` states them as a brute-force
//! model that judges this manager step by step.
//!
//! One lock order holds on the promise path: **sync points before rows**.
//! Grants, releases, prunes and lease moves lock before they read a row;
//! [`PromiseManager::execute`] locks its environment's *scope* (the pools
//! of the promises it names) before the action runs, and an action that
//! wrote outside it is undone and re-run with those pools locked first.
//! Two paths stay outside the order (DESIGN.md §10), their deadlock victim
//! reaching the caller unretried. The promise layer itself **never blocks
//! a client on promise availability**: unfulfillable requests are
//! rejected immediately (§9), so it introduces no deadlocks of its own.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use promises_rm::{Record, ResourceManager, RmError, RowImages, Txn};
use promises_telemetry::{
    current_trace, Histogram, HistogramSnapshot, SpanKind, SpanOutcome, Telemetry,
};

use crate::catalog::{status, Catalog};
use crate::check::{CheckError, Checker, CheckerStats};
use crate::clock::Clock;
use crate::environment::Environment;
use crate::error::{ActionError, PromiseError, RejectReason};
use crate::ids::{ClientId, InstanceId, PoolId, PromiseId, RequestId};
use crate::journal::{JournalOp, PromiseJournal};
use crate::predicate::Predicate;
use crate::promise::{qty_demand_on, PromiseRecord};
use crate::schema::{PoolKind, PoolSchema};
use crate::state::{footprint, PromiseState};

/// Default tombstone lifetime past the reap: long enough that any client
/// still retrying against an expired promise sees "promise-expired", short
/// enough that the tombstone map stays proportional to *recent* expiries.
const DEFAULT_TOMBSTONE_GRACE_MS: u64 = 300_000;

/// [`PromiseManager::maybe_compact`] trigger: journals shorter than this
/// are cheap to replay wholesale, so compaction isn't worth a checkpoint
/// write.
const DEFAULT_COMPACTION_THRESHOLD: usize = 1_024;

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
    /// Records the checking time and hands the measurement back so the
    /// telemetry mirror ([`PmTel::note_check`]) doesn't read the clock a
    /// second time for the same interval.
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
    /// Time spent in promise checking (grant matching, post-action
    /// re-check).
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
    expired: Arc<AtomicU64>,
    compact_runs: Arc<AtomicU64>,
    compact_dropped: Arc<AtomicU64>,
    /// `pm.journal.records` gauge: journal length as of the latest append
    /// or [`PromiseManager::maybe_compact`] call.
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

    /// Records one finished operation: its duration into `hist`, and a
    /// `kind` span. Spans are trace artifacts (DESIGN §12): a clean
    /// operation outside any ambient trace joins nothing downstream — the
    /// journal, not the ring, is lifecycle ground truth — so it is elided;
    /// failures are always recorded for diagnosis.
    fn note_op(
        &self,
        hist: &Histogram,
        kind: SpanKind,
        started: Instant,
        promise: Option<PromiseId>,
        outcome: SpanOutcome,
        note: Option<String>,
    ) {
        let dur = started.elapsed();
        hist.record_duration(dur);
        let clean = matches!(outcome, SpanOutcome::Ok | SpanOutcome::Deduped);
        if clean && current_trace().is_none() {
            return;
        }
        let mut span = self.span_since(kind, started).outcome(outcome);
        if let Some(id) = promise {
            span = span.promise(id.0);
        }
        if let Some(note) = note {
            span = span.note(note);
        }
        span.finish_with(dur);
    }

    /// Mirrors one checking pass: the `pm.check` stage histogram plus a
    /// `pm.check` span with the pass's outcome (joining the ambient trace,
    /// so a check shows up under the client operation that triggered it).
    /// An Ok check outside any trace carries no promise id and no causal
    /// edge, so the histogram sample is its whole signal.
    fn note_check(&self, started: Instant, dur: std::time::Duration, outcome: SpanOutcome) {
        self.check_hist.record_duration(dur);
        if outcome != SpanOutcome::Ok || current_trace().is_some() {
            self.span_since(SpanKind::PmCheck, started)
                .outcome(outcome)
                .finish_with(dur);
        }
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
    /// The promise table with every per-promise mark, the tombstones and
    /// the journalled rows: one value behind one lock (see
    /// [`PromiseState`]). Every journal append happens under it, so
    /// journal order is table-mutation order. Taken after `catalog` when
    /// both are held.
    state: Mutex<PromiseState>,
    clock: Arc<dyn Clock>,
    max_duration_ms: u64,
    retry_limit: usize,
    /// What the most recent grant check, execute post-check or prune
    /// actually looked at; lets tests and experiments verify footprint
    /// scoping narrowed the work.
    last_check_stats: Mutex<CheckerStats>,
    /// The upstream manager of each delegated pool. Which upstream promise
    /// backs a delegated one is recorded only upstream, in its request
    /// index (see [`delegated_request`]).
    upstreams: RwLock<HashMap<PoolId, Arc<PromiseManager>>>,
    /// Durable journal of promise-table transitions; `None` disables
    /// journalling (the pre-durability behaviour).
    journal: RwLock<Option<Arc<PromiseJournal>>>,
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
    /// Armed fault-injection point inside [`PromiseManager::compact`];
    /// consumed by the next compaction.
    compaction_crash: Mutex<Option<CompactionCrash>>,
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
#[derive(Default)]
struct CheckInputs<'f> {
    /// The records the checker may re-arrange, shared with the table.
    snapshot: Vec<Arc<PromiseRecord>>,
    /// Exact demand for every pool checked without its records.
    qty_demand: Vec<(&'f PoolId, u64)>,
    /// Observation pins as of the snapshot.
    pinned: HashSet<PromiseId>,
}

/// How the promises a transaction takes out of the table leave it.
#[derive(Clone, Copy)]
enum Leave {
    /// Released, or handed back in exchange (journalled `R`).
    Release,
    /// Reaped by expiry (journalled `E`, tombstoned).
    Expire,
}

/// What a transaction checks, the leaving promises set aside.
enum Check<'a> {
    /// Nothing: a release or an expiry sweep only gives resources back.
    Nothing,
    /// A candidate promise against the live ones (§6): `predicates` for
    /// `duration_ms` on behalf of `spec`, as a prepared hold if `prepared`.
    Grant {
        spec: &'a PromiseRequestSpec,
        predicates: &'a [Predicate],
        duration_ms: u64,
        prepared: bool,
    },
    /// The live promises against what an action wrote in the transaction
    /// (§8 "Executing Actions"), the rows it wrote journalled with it.
    Action { writes: RowImages },
}

/// One §8 transaction over the promise table; see
/// [`PromiseManager::transition`].
struct Transition<'a> {
    /// The pools whose synchronisation points serialise it, sorted and
    /// distinct.
    footprint: &'a [&'a PoolId],
    /// Where its lock wait and checking time are recorded.
    lat: &'a OpLatencyMetrics,
    /// The promises it takes out of the table when it commits; ids no
    /// longer there are skipped.
    leaving: &'a [PromiseId],
    leave: Leave,
    check: Check<'a>,
}

/// What a committed transition did to the table.
struct Committed {
    /// The promises that left.
    left: Vec<Arc<PromiseRecord>>,
    /// The grant of the candidate, if there was one.
    granted: Option<PromiseDecision>,
}

/// Why a transition rolled back instead of committing.
enum Halt {
    /// The candidate's request already holds a live promise, granted
    /// thus: a retried grant.
    Deduped(PromiseDecision),
    /// The candidate cannot be granted.
    Rejected(RejectReason),
    /// The operation failed; [`PromiseManager::with_retries`] re-runs the
    /// transient ones.
    Failed(PromiseError),
}

impl From<PromiseError> for Halt {
    fn from(e: PromiseError) -> Self {
        Halt::Failed(e)
    }
}

impl Halt {
    /// The error of a transition that had no candidate. A reject there is
    /// a post-check that found its pool gone mid-flight — a violation with
    /// no promise to name.
    fn into_error(self) -> PromiseError {
        match self {
            Halt::Failed(e) => e,
            Halt::Rejected(reason) => PromiseError::ViolationRolledBack {
                violated: PromiseId(0),
                detail: reason.to_string(),
            },
            Halt::Deduped(..) => unreachable!("only a grant's admission deduplicates"),
        }
    }
}

fn answer(spec: &PromiseRequestSpec, decision: PromiseDecision) -> PromiseResponse {
    PromiseResponse {
        correlation: spec.request.clone(),
        decision,
    }
}

fn rejection(spec: &PromiseRequestSpec, reason: RejectReason) -> PromiseResponse {
    answer(spec, PromiseDecision::Rejected { reason })
}

fn granted(rec: &PromiseRecord) -> PromiseDecision {
    PromiseDecision::Granted {
        promise: rec.id,
        expires_at: rec.expires_at,
    }
}

impl PromiseManager {
    /// Creates a manager over `rm` with the given clock.
    pub fn new(rm: Arc<ResourceManager>, clock: Arc<dyn Clock>) -> Self {
        Self {
            rm,
            catalog: RwLock::new(Catalog::new()),
            state: Mutex::new(PromiseState::default()),
            clock,
            max_duration_ms: u64::MAX,
            retry_limit: 64,
            last_check_stats: Mutex::new(CheckerStats::default()),
            upstreams: RwLock::new(HashMap::new()),
            journal: RwLock::new(None),
            degraded: AtomicBool::new(false),
            overload_limit: AtomicUsize::new(0),
            metrics: PmMetrics::default(),
            telemetry: RwLock::new(None),
            tombstone_grace_ms: AtomicU64::new(DEFAULT_TOMBSTONE_GRACE_MS),
            compaction_crash: Mutex::new(None),
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

    /// Arms a one-shot crash inside the next [`PromiseManager::compact`]
    /// (fault-injection hook for the crash-restart harnesses).
    pub fn arm_compaction_crash(&self, point: CompactionCrash) {
        *self.compaction_crash.lock() = Some(point);
    }

    /// Number of expired-promise tombstones currently held — boundedness
    /// audits assert this stays proportional to recent expiries, not to
    /// all of history.
    pub fn tombstone_count(&self) -> usize {
        self.state.lock().tombstones.len()
    }

    /// Caps every granted duration at `ms` (§6: the manager may "offer a
    /// guarantee that expires sooner than the client wished").
    pub fn with_max_duration_ms(mut self, ms: u64) -> Self {
        self.max_duration_ms = ms;
        self
    }

    /// The underlying resource manager.
    pub fn rm(&self) -> &Arc<ResourceManager> {
        &self.rm
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
    /// promises of third parties"). Refused with
    /// [`PromiseError::DelegationCycle`] when `upstream`'s chain for
    /// `pool` leads back to this manager: delegation is a DAG, and a
    /// request on a cycle would recurse forever.
    ///
    /// Delegating a pool again re-points it — the fail-over case, where
    /// the upstream's leader died and a promoted replica serves behind a
    /// new manager. The backing promises live in the upstream's request
    /// index, which the replica recovered, and releases look their
    /// upstream up here when they happen, so chains granted before the
    /// fail-over cascade into the replica.
    pub fn delegate_pool(
        &self,
        pool: impl Into<PoolId>,
        upstream: Arc<PromiseManager>,
    ) -> Result<(), PromiseError> {
        let pool = pool.into();
        // One process-wide lock serialises every delegation change, so two
        // managers pointed at each other concurrently cannot both pass the
        // walk.
        static DELEGATING: Mutex<()> = Mutex::new(());
        let _serialised = DELEGATING.lock();
        let mut hop = Some(Arc::clone(&upstream));
        while let Some(manager) = hop {
            if std::ptr::eq(Arc::as_ptr(&manager), self) {
                return Err(PromiseError::DelegationCycle { pool });
            }
            hop = manager.upstreams.read().get(&pool).cloned();
        }
        self.upstreams.write().insert(pool, upstream);
        Ok(())
    }

    /// Sets the quantity on hand of a quantity pool (setup/admin).
    pub fn seed_quantity(&self, pool: impl Into<PoolId>, qty: u64) -> Result<(), PromiseError> {
        let pool = pool.into();
        self.write_txn(|catalog, txn| catalog.set_quantity(&self.rm, txn, &pool, qty))
    }

    /// Adds an available instance to an instance pool (setup/admin).
    pub fn seed_instance(
        &self,
        pool: impl Into<PoolId>,
        id: impl Into<InstanceId>,
        properties: Record,
    ) -> Result<(), PromiseError> {
        let (pool, id) = (pool.into(), id.into());
        self.write_txn(|catalog, txn| catalog.add_instance(&self.rm, txn, &pool, &id, properties))
    }

    // ==================================================================
    // Escrow leases
    // ==================================================================

    /// Seeds `pool` as this manager's escrow slice of a cluster-wide
    /// quantity: `qty` on hand, all of it leased (setup/admin: a cluster
    /// partitions a pool's total across shards). Like
    /// [`seed_quantity`](Self::seed_quantity) it writes no journal line.
    /// The pool's schema must already be registered.
    pub fn seed_lease(&self, pool: impl Into<PoolId>, qty: u64) -> Result<(), PromiseError> {
        let pool = pool.into();
        self.write_txn(|catalog, txn| {
            catalog.set_quantity(&self.rm, txn, &pool, qty)?;
            let lease = |row: &mut Record| row.set(Catalog::LEASE, qty as i64);
            Ok(self.rm.update(txn, Catalog::QTY_TABLE, &pool.0, lease)?)
        })
    }

    /// Withdraws up to `want` units of lease *headroom* from this manager:
    /// at most `min(on hand − promised, lease)`, so a withdraw never
    /// strands promised units and never moves units this shard was not
    /// leased (a restock above the lease stays here). The pool row's
    /// `qty` and `lease` both shrink by what moved, which is returned.
    /// Runs under the pool's synchronisation point,
    /// serialising against concurrent grants.
    ///
    /// A rebalance is withdraw-then-deposit: the donor's `W` record lands
    /// before the receiver's, so a crash between them loses headroom
    /// (recoverable by a later top-up) but never mints it.
    pub fn lease_withdraw(&self, pool: impl Into<PoolId>, want: u64) -> Result<u64, PromiseError> {
        self.move_lease(&pool.into(), |qty, lease, promised| {
            let moved = want.min(qty.saturating_sub(promised)).min(lease);
            -(moved as i64)
        })
        .map(i64::unsigned_abs)
    }

    /// Deposits `delta` units into this manager's lease: the pool row's
    /// `qty` and `lease` both grow by it. The caller (the cluster
    /// rebalancer) is responsible for only depositing units previously
    /// withdrawn from another shard.
    pub fn lease_deposit(&self, pool: impl Into<PoolId>, delta: u64) -> Result<(), PromiseError> {
        self.move_lease(&pool.into(), |_, _, _| delta as i64)
            .map(drop)
    }

    /// One lease move, under the same synchronisation point grants over
    /// `pool` take: `decide(qty, lease, promised)` names how many units
    /// move in (negative: out), added to both the `qty` and the `lease` of
    /// the pool's row in one read-modify-write and journalled as a `W`
    /// record. A move of nothing is rolled back unjournalled. Returns what
    /// moved.
    fn move_lease(
        &self,
        pool: &PoolId,
        decide: impl Fn(u64, u64, u64) -> i64,
    ) -> Result<i64, PromiseError> {
        let tel = self.tel();
        let tel = tel.as_deref();
        self.with_retries(|| {
            let txn = self.rm.begin();
            if let Err(e) = self.lock_ops(&txn, &[pool]) {
                return Err(self.abort_with(txn, e.into()));
            }
            // Nothing else moves this pool's promised quantity while its
            // synchronisation point is held.
            let promised = self.state.lock().table().promised_qty(pool);
            let mut delta = 0;
            let moved = self.rm.update(&txn, Catalog::QTY_TABLE, &pool.0, |row| {
                let [qty, lease] = ["qty", Catalog::LEASE].map(|f| row.int(f).unwrap_or(0));
                delta = decide(qty.max(0) as u64, lease.max(0) as u64, promised);
                row.set("qty", qty + delta);
                row.set(Catalog::LEASE, lease + delta);
            });
            let writes = match moved.and_then(|()| self.rm.write_set(&txn)) {
                Ok(_) if delta == 0 => return self.abort_then(txn, 0),
                Ok(writes) => writes,
                Err(e) => return Err(self.abort_with(txn, e.into())),
            };
            self.journal_writes(&mut self.state.lock(), tel, writes);
            self.rm.commit(txn)?;
            Ok(delta)
        })
    }

    /// This manager's escrow lease for `pool`: the lease field of the
    /// pool's row, `None` when the pool is not leased here (or its row
    /// cannot be read).
    pub fn lease_of(&self, pool: impl Into<PoolId>) -> Option<u64> {
        self.qty_field(pool.into(), Catalog::LEASE).ok().flatten()
    }

    /// Unpromised headroom in `pool`: quantity on hand minus quantity
    /// promised (0 when the pool cannot be read).
    pub fn lease_headroom(&self, pool: impl Into<PoolId>) -> u64 {
        let pool = pool.into();
        let on_hand = self.quantity_on_hand(pool.clone()).unwrap_or(0);
        on_hand.saturating_sub(self.promised_qty(pool))
    }

    /// Quantity promised against `pool` by live promises.
    pub fn promised_qty(&self, pool: impl Into<PoolId>) -> u64 {
        self.state.lock().table().promised_qty(&pool.into())
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
        let tel = self.tel();
        let started = Instant::now();
        let result = self.request_inner(tel.as_deref(), spec, prepared);
        if let Ok((resp, deduped)) = &result {
            let counter = match resp.decision {
                PromiseDecision::Granted { .. } if *deduped => &self.metrics.grants_deduped,
                PromiseDecision::Granted { .. } => &self.metrics.granted,
                PromiseDecision::Rejected { .. } => &self.metrics.rejected,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(tel) = tel.as_deref() {
            let (promise, outcome, note) = match &result {
                Ok((resp, deduped)) => match &resp.decision {
                    PromiseDecision::Granted { promise, .. } if *deduped => {
                        tel.deduped.fetch_add(1, Ordering::Relaxed);
                        (Some(*promise), SpanOutcome::Deduped, None)
                    }
                    PromiseDecision::Granted { promise, .. } => {
                        tel.granted.fetch_add(1, Ordering::Relaxed);
                        (Some(*promise), SpanOutcome::Ok, None)
                    }
                    PromiseDecision::Rejected { reason } => {
                        let (cause, pool) = reject_cause(reason);
                        tel.incr(&format!("pm.reject.{cause}"));
                        if let Some(pool) = pool {
                            tel.bump_pool(pool, false);
                        }
                        (None, SpanOutcome::Rejected, Some(cause.to_owned()))
                    }
                },
                Err(e) => {
                    tel.grant_error.fetch_add(1, Ordering::Relaxed);
                    (None, SpanOutcome::Error, Some(e.to_string()))
                }
            };
            tel.note_op(
                &tel.grant_hist,
                SpanKind::PmGrant,
                started,
                promise,
                outcome,
                note,
            );
        }
        result.map(|(resp, _)| resp)
    }

    /// The grant path behind [`PromiseManager::request`], which counts its
    /// outcomes. The boolean in the success value is true when the response
    /// was answered from the request-id index (a deduplicated retry) rather
    /// than freshly granted.
    fn request_inner(
        &self,
        tel: Option<&PmTel>,
        spec: PromiseRequestSpec,
        prepared: bool,
    ) -> Result<(PromiseResponse, bool), PromiseError> {
        self.prune(tel)?;

        // Duplicate-request fast path: a retried grant (lost reply, network
        // duplicate) whose original succeeded is answered with the original
        // promise — before delegation, so no duplicate upstream grants are
        // acquired either. The authoritative re-check happens again in the
        // grant transition's admission, under the footprint locks.
        let now = self.clock.now_ms();
        let held = {
            let st = self.state.lock();
            st.for_request(&spec.client, &spec.request, now)
                .map(granted)
        };
        if let Some(decision) = held {
            return Ok((answer(&spec, decision), true));
        }

        // Degraded/overload fail-fast (after dedup: answering a retry from
        // the index adds no load). New grants are the only thing refused.
        let over_limit = {
            let limit = self.overload_limit.load(Ordering::Relaxed);
            limit > 0 && self.live_count() >= limit
        };
        if self.degraded.load(Ordering::Relaxed) || over_limit {
            self.metrics
                .overload_rejections
                .fetch_add(1, Ordering::Relaxed);
            return Ok((rejection(&spec, RejectReason::Overloaded), false));
        }

        // Split predicates between local pools and delegated pools; with
        // no pool delegated, the request's own list is the local one.
        let upstream_map = self.upstreams.read().clone();
        let mut remote: HashMap<PoolId, Vec<Predicate>> = HashMap::new();
        let local: Cow<'_, [Predicate]> = if upstream_map.is_empty() {
            Cow::Borrowed(&spec.predicates)
        } else {
            let mut local = Vec::new();
            for p in &spec.predicates {
                match upstream_map.get(p.pool()) {
                    Some(_) => remote.entry(p.pool().clone()).or_default().push(p.clone()),
                    None => local.push(p.clone()),
                }
            }
            Cow::Owned(local)
        };

        // Acquire upstream promises first (delegation); give them back on
        // any later failure so the whole request stays atomic to the
        // caller.
        let mut acquired = Vec::new();
        let mut upstream_duration = u64::MAX;
        let mut remote_pools: Vec<_> = remote.into_iter().collect();
        remote_pools.sort_by(|a, b| a.0.cmp(&b.0));
        for (pool, preds) in remote_pools {
            let upstream = upstream_map.get(&pool).expect("partitioned above");
            let mut up_spec = PromiseRequestSpec::new(
                delegated_request(&spec.request, &pool),
                spec.client.clone(),
            )
            .duration_ms(spec.duration_ms);
            up_spec.predicates = preds;
            match upstream.request(up_spec) {
                Ok(resp) => match resp.decision {
                    PromiseDecision::Granted { expires_at, .. } => {
                        // Upstream clocks are independent; bound our own
                        // expiry by the *duration* the upstream granted.
                        let up_dur = expires_at.saturating_sub(upstream.clock.now_ms());
                        upstream_duration = upstream_duration.min(up_dur);
                        acquired.push(pool);
                    }
                    PromiseDecision::Rejected { .. } => {
                        self.release_backing(&spec.client, &spec.request, &acquired);
                        let reason = RejectReason::UpstreamRejected { pool };
                        return Ok((rejection(&spec, reason), false));
                    }
                },
                Err(e) => {
                    self.release_backing(&spec.client, &spec.request, &acquired);
                    return Err(e);
                }
            }
        }

        let duration_ms = spec.duration_ms.min(upstream_duration);
        let result =
            self.with_retries(|| self.grant_local(tel, &spec, &local, duration_ms, prepared));
        // A granted attempt keeps what it acquired, and so does a
        // deduplicated one: the upstream answered it from the same keys,
        // so its holds are its original's.
        if !matches!(
            result.as_ref().map(|(resp, _)| &resp.decision),
            Ok(PromiseDecision::Granted { .. })
        ) {
            self.release_backing(&spec.client, &spec.request, &acquired);
        }
        result
    }

    /// One attempt at granting `predicates` (the request's local ones) in
    /// exchange for `spec.exchange` (§4: request + exchange is one atomic
    /// unit; if the grant fails the old promises keep their resources).
    /// The boolean is as in [`PromiseManager::request_inner`].
    fn grant_local(
        &self,
        tel: Option<&PmTel>,
        spec: &PromiseRequestSpec,
        predicates: &[Predicate],
        duration_ms: u64,
        prepared: bool,
    ) -> Result<(PromiseResponse, bool), PromiseError> {
        // The candidate's pools plus the exchanged promises' (read before
        // locking — predicate sets are immutable, so an exchange record's
        // pools cannot change while we wait; if the record vanishes
        // meanwhile, admission rejects).
        let exchanged = self.state.lock().shared(spec.exchange.iter().copied());
        let footprint = footprint(predicates.iter().map(Predicate::pool), &exchanged);
        let transition = Transition {
            footprint: &footprint,
            lat: &self.metrics.grant_lat,
            leaving: &spec.exchange,
            leave: Leave::Release,
            check: Check::Grant {
                spec,
                predicates,
                duration_ms,
                prepared,
            },
        };
        let done = self.transition(self.rm.begin(), tel, transition, |st, now| {
            // A racing duplicate of this request may have been granted
            // while we waited for the locks.
            if let Some(rec) = st.for_request(&spec.client, &spec.request, now) {
                return Err(Halt::Deduped(granted(rec)));
            }
            let live = |ex: &PromiseId| st.table().get(*ex).is_some_and(|r| r.is_live(now));
            match spec.exchange.iter().find(|ex| !live(ex)) {
                Some(ex) => Err(Halt::Rejected(RejectReason::UnknownExchange(*ex))),
                None => Ok(()),
            }
        });
        let done = match done {
            Ok(done) => done,
            Err(Halt::Deduped(decision)) => return Ok((answer(spec, decision), true)),
            Err(Halt::Rejected(reason)) => return Ok((rejection(spec, reason), false)),
            Err(Halt::Failed(e)) => return Err(e),
        };
        // Per-pool attribution and exchanged-promise lifecycle terminals
        // are recorded on the fresh-grant branch only — deduped/rejected
        // requests never pay for them.
        if let Some(tel) = tel {
            let mut pools: Vec<&PoolId> = spec.predicates.iter().map(|p| p.pool()).collect();
            pools.sort();
            pools.dedup();
            for pool in pools {
                tel.bump_pool(pool, true);
            }
            for ex in &spec.exchange {
                tel.event(SpanKind::PmRelease, ex.0);
            }
        }
        self.cascade_release(&done.left);
        let decision = done.granted.expect("a grant transition has a candidate");
        Ok((answer(spec, decision), false))
    }

    /// Releases a promise (§6 promise release). Cascades to delegated
    /// upstream promises.
    pub fn release(&self, id: PromiseId) -> Result<(), PromiseError> {
        let tel = self.tel();
        let tel = tel.as_deref();
        let started = Instant::now();
        let present = |st: &PromiseState| match st.table().get(id) {
            Some(_) => Ok(()),
            None => Err(st.absent(id)),
        };
        let result = self.with_retries(|| {
            // The released promise's pools (immutable once granted, so the
            // pre-lock read stays exact while we wait for the locks).
            let released = {
                let st = self.state.lock();
                match st.table().get(id) {
                    Some(rec) => [Arc::clone(rec)],
                    None => return Err(st.absent(id)),
                }
            };
            let footprint = footprint([], &released);
            let transition = Transition {
                footprint: &footprint,
                lat: &self.metrics.release_lat,
                leaving: &[id],
                leave: Leave::Release,
                check: Check::Nothing,
            };
            // Re-read under the locks: a concurrent prune may have reaped it.
            self.transition(self.rm.begin(), tel, transition, |st, _| Ok(present(st)?))
                .map(|done| done.left)
                .map_err(Halt::into_error)
        });
        if let Some(tel) = tel {
            let (outcome, note) = match &result {
                Ok(_) => (SpanOutcome::Ok, None),
                Err(e) => (SpanOutcome::Error, Some(e.to_string())),
            };
            tel.note_op(
                &tel.release_hist,
                SpanKind::PmRelease,
                started,
                Some(id),
                outcome,
                note,
            );
        }
        self.cascade_release(&result?);
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
        let tel = self.tel();
        let mut st = self.state.lock();
        if st.table().get(id).is_none() {
            return Err(st.absent(id));
        }
        if !st.commit_prepared(id) {
            return Ok(false);
        }
        self.journal_append(tel.as_deref(), |j| j.append(JournalOp::CommitPrepared(id)));
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
        self.state.lock().prepared().contains(&id)
    }

    /// The prepared holds still awaiting a decision, sorted by id — the
    /// in-doubt set a recovering coordinator must resolve.
    pub fn prepared_ids(&self) -> Vec<PromiseId> {
        let mut ids: Vec<PromiseId> = self.state.lock().prepared().iter().copied().collect();
        ids.sort();
        ids
    }

    /// Age in clock milliseconds of the oldest prepared hold still in
    /// doubt, or `None` when no hold is in doubt. This is the health
    /// plane's in-doubt-age signal: a coordinator stuck (or dead) between
    /// prepare and resolution shows up as this value climbing.
    pub fn oldest_in_doubt_age_ms(&self) -> Option<u64> {
        let st = self.state.lock();
        if st.prepared().is_empty() {
            return None;
        }
        let now = self.clock.now_ms();
        st.prepared()
            .iter()
            .filter_map(|id| st.table().get(*id))
            .map(|rec| now.saturating_sub(rec.granted_at))
            .max()
    }

    /// The live promise held by `(client, request)`, if any. A recovering
    /// coordinator that lost a prepare reply resolves the hold by request
    /// key instead of promise id.
    pub fn promise_for_request(&self, client: &ClientId, request: &RequestId) -> Option<PromiseId> {
        let now = self.clock.now_ms();
        let st = self.state.lock();
        st.for_request(client, request, now).map(|rec| rec.id)
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
    /// The closure runs again, its first run undone, if it wrote a pool
    /// outside the environment's scope; all its effects are transactional,
    /// so re-runs are invisible to the application.
    pub fn execute<R>(
        &self,
        env: &Environment,
        action: impl FnMut(&ResourceManager, &Txn) -> Result<R, ActionError>,
    ) -> Result<R, PromiseError> {
        self.execute_with(env, action, false)
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
        action: impl FnMut(&ResourceManager, &Txn) -> Result<R, ActionError>,
    ) -> Result<R, PromiseError> {
        self.execute_with(env, action, true)
    }

    fn execute_with<R>(
        &self,
        env: &Environment,
        mut action: impl FnMut(&ResourceManager, &Txn) -> Result<R, ActionError>,
        enforce_scope: bool,
    ) -> Result<R, PromiseError> {
        let tel = self.tel();
        let tel = tel.as_deref();
        self.prune(tel)?;
        let started = Instant::now();
        let releases = env.releases();
        // Pools earlier attempts wrote; each re-run adds one, so there are
        // at most as many as the catalog has pools.
        let mut wrote = Vec::new();
        let result = self.with_retries(|| loop {
            let attempt =
                self.try_action(tel, env, &releases, &mut action, enforce_scope, &mut wrote);
            if let Some(done) = attempt? {
                return Ok(done);
            }
        });
        if let Err(PromiseError::ViolationRolledBack { .. } | PromiseError::ScopeViolation { .. }) =
            &result
        {
            self.metrics
                .violations_rolled_back
                .fetch_add(1, Ordering::Relaxed);
        }
        if let Some(tel) = tel {
            // Rollbacks for promise violations are tagged with the
            // violated promise; a clean traced execute also records a
            // `pm.release` lifecycle event per promise released with it.
            let (promise, outcome, note) = match &result {
                Ok(_) => {
                    if current_trace().is_some() {
                        for id in &releases {
                            tel.event(SpanKind::PmRelease, id.0);
                        }
                    }
                    (None, SpanOutcome::Ok, None)
                }
                Err(PromiseError::ViolationRolledBack { violated, detail }) => (
                    Some(*violated),
                    SpanOutcome::RolledBack,
                    Some(detail.clone()),
                ),
                Err(e) => (None, SpanOutcome::Error, Some(e.to_string())),
            };
            tel.note_op(
                &tel.execute_hist,
                SpanKind::PmExecute,
                started,
                promise,
                outcome,
                note,
            );
        }
        let (out, done) = result?;
        self.cascade_release(&done.left);
        self.metrics.executions.fetch_add(1, Ordering::Relaxed);
        Ok(out)
    }

    /// One attempt at an action and the promise transition that follows it
    /// in the same transaction (§4: action + release is one atomic unit).
    /// The sync points of the scope and of `wrote` are taken before the
    /// action runs. `None`: it wrote a pool outside them, so the attempt
    /// was undone and `wrote` grew (a scoped execute refuses it instead).
    fn try_action<R>(
        &self,
        tel: Option<&PmTel>,
        env: &Environment,
        releases: &[PromiseId],
        action: &mut impl FnMut(&ResourceManager, &Txn) -> Result<R, ActionError>,
        enforce_scope: bool,
        wrote: &mut Vec<PoolId>,
    ) -> Result<Option<(R, Committed)>, PromiseError> {
        let txn = self.rm.begin();
        // Pre-validate the environment (cheap fail-fast; re-checked after
        // the action because time passes while it runs) and read its scope
        // — promises' pools are immutable, so the read stays exact while
        // the points are awaited, outside the state lock.
        let now = self.clock.now_ms();
        let named = {
            let st = self.state.lock();
            let valid = self.validate_env(&st, env, now);
            valid.map(|()| st.shared(env.entries().iter().map(|(id, _)| *id)))
        };
        let named = match named {
            Ok(named) => named,
            Err(e) => return Err(self.abort_with(txn, e)),
        };
        let scope = footprint(wrote.iter(), &named);
        let wait_started = Instant::now();
        let locked = self.lock_ops(&txn, &scope);
        let lock_wait = wait_started.elapsed();
        if let Err(e) = locked {
            return Err(self.abort_with(txn, e.into()));
        }
        let out = match action(&self.rm, &txn) {
            Ok(v) => v,
            Err(ActionError::App(msg)) => {
                self.metrics.action_failures.fetch_add(1, Ordering::Relaxed);
                return Err(self.abort_with(txn, PromiseError::ActionFailed(msg)));
            }
            // Storage failures are not business failures; bubble them so
            // with_retries re-runs the whole transactional attempt.
            Err(ActionError::Rm(e)) => return Err(self.abort_with(txn, PromiseError::Rm(e))),
        };
        // What the action wrote, as it will commit; the pools among it
        // plus the pools of the promises being released, all in the scope.
        let writes = match self.rm.write_set(&txn) {
            Ok(writes) => writes,
            Err(e) => return Err(self.abort_with(txn, e.into())),
        };
        let outside = self.pools_outside(&writes, &scope);
        if let Some(pool) = outside.first() {
            if enforce_scope {
                let pool = pool.clone();
                return Err(self.abort_with(txn, PromiseError::ScopeViolation { pool }));
            }
            wrote.extend(outside);
            return self.abort_then(txn, None);
        }
        let lat = &self.metrics.execute_lat;
        lat.lock_wait.record_duration(lock_wait);
        let released = |pool: &PoolId| {
            (named.iter().filter(|rec| releases.contains(&rec.id)))
                .any(|rec| rec.predicates.iter().any(|pred| pred.pool() == pool))
        };
        let written = |pool: &PoolId| {
            (writes.keys()).any(|(table, key)| row_pool(table, key) == Some(pool.0.as_str()))
        };
        let footprint: Vec<&PoolId> = (scope.iter().copied())
            .filter(|pool| written(pool) || released(pool))
            .collect();
        let transition = Transition {
            footprint: &footprint,
            lat,
            leaving: releases,
            leave: Leave::Release,
            check: Check::Action { writes },
        };
        let done = self
            .transition(txn, tel, transition, |st, now| {
                Ok(self.validate_env(st, env, now)?)
            })
            .map_err(Halt::into_error)?;
        Ok(Some((out, done)))
    }

    /// Reaps expired promises, freeing what they held. Called
    /// lazily by every operation; callable explicitly (e.g. on a timer).
    /// Returns the number reaped.
    pub fn prune_expired(&self) -> Result<usize, PromiseError> {
        self.prune(self.tel().as_deref())
    }

    fn prune(&self, tel: Option<&PmTel>) -> Result<usize, PromiseError> {
        let reaped = self.with_retries(|| {
            let now = self.clock.now_ms();
            // The expired ids come off the table's expiry index: a
            // first-key probe when nothing expired (the common case),
            // otherwise a read of exactly the expired entries — never a
            // pass over the table. The set is re-read under the locks but
            // only ever *shrinks* (concurrent releases): `now` is fixed, so
            // nothing new expires, and a concurrent grant can only insert
            // records live past it.
            let (expired, records) = {
                let mut st = self.state.lock();
                let expired = st.table().expired_ids(now);
                if expired.is_empty() {
                    // Tombstones whose grace has passed go on every prune,
                    // so the set tracks recent expiries, not history.
                    st.tombstones.evict_due(now);
                    return Ok(Vec::new());
                }
                let records = st.shared(expired.iter().copied());
                (expired, records)
            };
            let footprint = footprint([], &records);
            let transition = Transition {
                footprint: &footprint,
                lat: &self.metrics.prune_lat,
                leaving: &expired,
                leave: Leave::Expire,
                check: Check::Nothing,
            };
            self.transition(self.rm.begin(), tel, transition, |_, _| Ok(()))
                .map(|done| done.left)
                .map_err(Halt::into_error)
        })?;
        self.cascade_release(&reaped);
        if let Some(tel) = tel {
            for rec in &reaped {
                tel.event(SpanKind::PmExpire, rec.id.0);
            }
            tel.expired
                .fetch_add(reaped.len() as u64, Ordering::Relaxed);
        }
        self.metrics
            .expired_reaped
            .fetch_add(reaped.len() as u64, Ordering::Relaxed);
        Ok(reaped.len())
    }

    /// Rebuilds the promise state — table, per-pool indexes, quantity
    /// aggregates, request-id index, prepared marks, tombstones —
    /// from `journal` after a (simulated) crash, writes every row an
    /// action or a lease move wrote back into the RM (over the pools the
    /// caller registered and seeded), installs the state with one store,
    /// then installs the journal for continued appends.
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

        // The fold goes through the same `insert`/`take` as live traffic,
        // so the rebuilt marks agree with the rebuilt table by
        // construction. It takes each line as it is decoded, so at most
        // one line is held decoded beside the table it rebuilds.
        // Observation pins are volatile — any pre-crash observer's session
        // is gone — and start empty.
        let mut state = PromiseState::default();
        let mut reaped: HashSet<PromiseId> = HashSet::new();
        let mut max_id = 0u64;
        let replayed = journal
            .replay(|op| match op {
                JournalOp::Grant(rec) => {
                    max_id = max_id.max(rec.id.0);
                    reaped.remove(&rec.id);
                    state.insert(Arc::new(rec), false);
                }
                JournalOp::Prepared(rec) => {
                    max_id = max_id.max(rec.id.0);
                    reaped.remove(&rec.id);
                    state.insert(Arc::new(rec), true);
                }
                JournalOp::CommitPrepared(id) => {
                    state.commit_prepared(id);
                }
                JournalOp::Release(id) => {
                    state.take(id);
                }
                JournalOp::Expire(id) => {
                    state.take(id);
                    reaped.insert(id);
                }
                JournalOp::Allocations { id, allocations } => {
                    state.set_allocations(id, allocations);
                }
                JournalOp::Write(rows) => state.rows.extend(rows),
                JournalOp::Checkpoint(cp) => {
                    // A checkpoint is a full snapshot of live state: reset
                    // the fold, sized for its records, and continue replay
                    // from it. Everything before it is compacted-away
                    // history.
                    state = PromiseState::with_capacity(cp.live.len());
                    reaped.clear();
                    state.rows = cp.rows;
                    max_id = max_id.max(cp.next_id);
                    for item in cp.live {
                        max_id = max_id.max(item.record.id.0);
                        state.insert(Arc::new(item.record), item.prepared);
                    }
                }
            })
            .map_err(|e| PromiseError::JournalCorrupt(e.to_string()))?;
        state.bump_next_to(max_id);
        let recovered = state.table().len();
        // Replayed Expire records carry no wall-clock, so recovered
        // tombstones restart their grace window at recovery time.
        let evict_at = self
            .clock
            .now_ms()
            .saturating_add(self.tombstone_grace_ms.load(Ordering::Relaxed));
        for id in reaped {
            state.tombstones.insert(id, evict_at, ());
        }
        // The journal is the durable truth for the RM's application state,
        // written back in one transaction over what the caller seeded (a
        // no-op over an RM that already holds it): each row's last image,
        // a leased pool's row with its lease (creating any table the RM
        // lacks; a gone row is deleted).
        self.write_txn(|_, txn| {
            for ((table, key), image) in &state.rows {
                self.rm.create_table(table);
                match image {
                    Some(record) => drop(self.rm.put(txn, table, key, record.clone())?),
                    None => match self.rm.delete(txn, table, key) {
                        Ok(()) | Err(RmError::NoSuchKey { .. }) => {}
                        Err(e) => return Err(e.into()),
                    },
                }
            }
            Ok(())
        })?;
        *self.state.lock() = state;
        *self.journal.write() = Some(journal);

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
            in_doubt: self.state.lock().prepared().len(),
            generation,
        })
    }

    /// Compacts the attached journal: captures the live table, prepared
    /// marks, journalled rows and id high-water into one checkpoint record and
    /// atomically swaps it in for the accumulated history
    /// ([`PromiseJournal::install_checkpoint`]). The snapshot is built and
    /// swapped under the state lock — the same lock every journal append
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
        let Some(journal) = self.journal() else {
            return Ok(None);
        };
        let started = Instant::now();
        let st = self.state.lock();
        let live = st.records();
        let crash = self.compaction_crash.lock().take();
        if crash == Some(CompactionCrash::BeforeSwap) {
            // Modeled crash while writing the checkpoint temp file: the
            // real journal was never touched.
            return Err(PromiseError::CompactionInterrupted);
        }
        let stats = journal.install_checkpoint(st.table().id_high_water(), &live, &st.rows);
        let report = CompactionReport {
            dropped: stats.dropped,
            live: live.len(),
            prepared: live.iter().filter(|(prepared, _)| *prepared).count(),
            seq: stats.seq,
        };
        drop(st);
        if crash == Some(CompactionCrash::AfterSwap) {
            // Modeled crash right after the rename: the swap is durable.
            return Err(PromiseError::CompactionInterrupted);
        }
        if let Some(tel) = self.tel() {
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
    /// at least 1 024 records long *and* at least four times the live
    /// table (a journal that is mostly live promises would shrink little).
    /// Cheap when nothing is due — the cluster's housekeeping pass
    /// (`PromiseCluster::advance_and_prune`) calls it on every shard. Also
    /// refreshes the `pm.journal.records` gauge.
    pub fn maybe_compact(&self) -> Result<Option<CompactionReport>, PromiseError> {
        let journal_len = match self.journal.read().as_ref() {
            Some(j) => j.len(),
            None => return Ok(None),
        };
        if let Some(tel) = self.tel() {
            tel.journal_records
                .store(journal_len as u64, Ordering::Relaxed);
        }
        if journal_len < DEFAULT_COMPACTION_THRESHOLD {
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
        self.state.lock().table().len()
    }

    /// A copy of a promise's record, if present.
    ///
    /// Reading a record *pins* its allocations: the returned instances
    /// will not be moved by later re-arrangements (the caller may act on
    /// exactly what it read — e.g. book the room the manager allocated).
    /// The pin is taken under the state lock, atomically with the read, so
    /// a re-arrangement in flight either already shows in the returned
    /// record or detects the pin at write-back and recomputes. Pins drop
    /// when the promise is released, expired, or exchanged. Unobserved
    /// promises keep the paper's full §5 re-arrangement freedom.
    pub fn promise(&self, id: PromiseId) -> Option<PromiseRecord> {
        self.state.lock().observe(id)
    }

    /// A copy of a promise's record without pinning its allocations —
    /// for audits and introspection that will never act on the specific
    /// instances (re-arrangement stays free afterwards).
    pub fn peek_promise(&self, id: PromiseId) -> Option<PromiseRecord> {
        let st = self.state.lock();
        st.table().get(id).map(|rec| PromiseRecord::clone(rec))
    }

    /// Per-pool totals of quantity promised by live promises (sorted by
    /// pool). An external audit can cross-check these against quantities
    /// on hand: promised exceeding on-hand is a promise violation.
    pub fn promised_quantities(&self) -> Vec<(PoolId, u64)> {
        self.state.lock().table().qty_aggregates()
    }

    /// The instances of `pool` a new promise could be allocated now, in id
    /// order: not taken, and held by no live promise's allocations (§5's
    /// free instances). What a service lists as on offer.
    pub fn free_instances(&self, pool: impl Into<PoolId>) -> Result<Vec<InstanceId>, PromiseError> {
        let pool = pool.into();
        let now = self.clock.now_ms();
        let catalog = self.catalog.read();
        let live =
            (self.state.lock().table()).snapshot_pools(now, std::slice::from_ref(&pool), &[]);
        let held: HashSet<&str> = (live.iter())
            .flat_map(|rec| rec.allocated_in(&pool))
            .map(|instance| instance.0.as_str())
            .collect();
        let mut free = Vec::new();
        let txn = self.rm.begin();
        let scanned = catalog.scan_instances(&self.rm, &txn, &pool, |id, rec| {
            if rec.str(Catalog::STATUS) == Some(status::AVAILABLE) && !held.contains(id) {
                free.push(InstanceId(id.to_owned()));
            }
        });
        match scanned {
            Ok(()) => self.abort_then(txn, free),
            Err(e) => Err(self.abort_with(txn, e)),
        }
    }

    /// The quantity on hand in a quantity pool (audit/introspection).
    pub fn quantity_on_hand(&self, pool: impl Into<PoolId>) -> Result<u64, PromiseError> {
        Ok(self.qty_field(pool.into(), "qty")?.unwrap_or(0))
    }

    /// Reads field `name` of a quantity pool's row in a transaction of
    /// its own (`None` if unset).
    fn qty_field(&self, pool: PoolId, name: &str) -> Result<Option<u64>, PromiseError> {
        let catalog = self.catalog.read();
        let txn = self.rm.begin();
        match catalog.qty_field(&self.rm, &txn, &pool, name) {
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
            grants_deduped: m.grants_deduped.load(Ordering::Relaxed),
            overload_rejections: m.overload_rejections.load(Ordering::Relaxed),
            grant_lat: m.grant_lat.snapshot(),
            release_lat: m.release_lat.snapshot(),
            execute_lat: m.execute_lat.snapshot(),
            prune_lat: m.prune_lat.snapshot(),
        }
    }

    /// What the most recent checking pass looked at: the pools a
    /// [`PromiseManager::execute`] post-check visited, the promise records
    /// a grant check, post-check, release or prune read from the table,
    /// and how many of them it copied to rewrite their allocations.
    /// Test/experiment hook for verifying footprint scoping; racy under
    /// concurrent operations.
    pub fn last_check_stats(&self) -> CheckerStats {
        self.last_check_stats.lock().clone()
    }

    /// A canonical string over the full promise-table state: every record
    /// (sorted by id, predicates in `Display` form, allocations in slot
    /// order), the per-pool promised-quantity aggregates, the expiry
    /// histogram and the prepared marks — one consistent cut under the
    /// state lock. Two managers with byte-equal
    /// digests hold equivalent promise state — the crash-recovery tests
    /// compare a pre-crash digest against the
    /// post-[`PromiseManager::recover`] digest.
    pub fn state_digest(&self) -> String {
        self.state.lock().digest()
    }

    // ==================================================================
    // Internals
    // ==================================================================

    /// The attached telemetry, read once per public operation and handed
    /// down, so no operation takes the registry lock twice.
    fn tel(&self) -> Option<Arc<PmTel>> {
        self.telemetry.read().clone()
    }

    /// Runs `body`, again at once (up to the retry limit) on the transient
    /// outcomes no lock order removes: a storage fault, and an observation
    /// pinning allocations mid-check. A deadlock reaches the caller.
    fn with_retries<R>(
        &self,
        mut body: impl FnMut() -> Result<R, PromiseError>,
    ) -> Result<R, PromiseError> {
        for _ in 0..self.retry_limit {
            match body() {
                Err(PromiseError::Rm(RmError::StorageFault { .. }))
                | Err(PromiseError::ObservationConflict) => {}
                done => return done,
            }
        }
        body()
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

    /// Runs `write` in a transaction of its own, under the catalog: commits
    /// it if `write` succeeds, rolls it back if not.
    fn write_txn(
        &self,
        write: impl FnOnce(&Catalog, &Txn) -> Result<(), PromiseError>,
    ) -> Result<(), PromiseError> {
        let catalog = self.catalog.read();
        let txn = self.rm.begin();
        match write(&catalog, &txn) {
            Ok(()) => Ok(self.rm.commit(txn)?),
            Err(e) => Err(self.abort_with(txn, e)),
        }
    }

    /// Aborts a transaction whose outcome is a normal (non-error) value;
    /// a failed rollback converts the outcome into an error.
    fn abort_then<T>(&self, txn: Txn, value: T) -> Result<T, PromiseError> {
        self.rm.abort(txn)?;
        Ok(value)
    }

    /// Appends to the journal, through `append`, if one is attached, and
    /// says whether it was. Called while holding the state lock, so
    /// journal order matches table-mutation order.
    fn journal_append(
        &self,
        tel: Option<&PmTel>,
        append: impl FnOnce(&PromiseJournal) -> u64,
    ) -> bool {
        let journal = self.journal.read();
        if let Some(j) = journal.as_ref() {
            append(j);
            // Keep the `pm.journal.records` gauge live on every append so
            // health monitors see journal growth between housekeeping
            // passes, not just the post-compaction plateau.
            if let Some(tel) = tel {
                tel.journal_records.store(j.len() as u64, Ordering::Relaxed);
            }
        }
        journal.is_some()
    }

    /// Journals `writes` as one `W` record and folds them into the state's
    /// rows, when a journal is attached. Called under the state lock.
    fn journal_writes(&self, st: &mut PromiseState, tel: Option<&PmTel>, writes: RowImages) {
        if !writes.is_empty() && self.journal_append(tel, |j| j.append_writes(&writes)) {
            st.rows.extend(writes);
        }
    }

    /// Acquires an operation's synchronisation points: one per footprint
    /// pool, named by the pool, taken in canonical sorted order (handled
    /// by [`ResourceManager::lock_exclusive_many`]) so two promise
    /// operations can never deadlock on sync points alone.
    fn lock_ops(&self, txn: &Txn, footprint: &[&PoolId]) -> Result<(), RmError> {
        self.rm.lock_exclusive_many(txn, footprint)
    }

    /// Gathers, under the state lock, what the checker reads for an
    /// operation over `footprint` that takes `excluded` out of the table
    /// (exchanged or released promises) and adds `candidate` predicates.
    ///
    /// The table is read per pool kind. A pool that is not an instance
    /// pool is checked from one number, its exact live demand: the cached
    /// aggregate less `excluded` when nothing is expired-but-unpruned,
    /// otherwise a re-sum over the pool's own records, borrowed in place.
    /// Only the *instance* pools' promises are snapshotted — shared with
    /// the table, copied by the checker only if matching moves them — and
    /// only then is the observation-pin set copied. So a quantity-only
    /// operation reads no record at all, however many promises its pools
    /// hold.
    fn check_inputs<'f>(
        &self,
        st: &PromiseState,
        catalog: &Catalog,
        now: u64,
        footprint: &[&'f PoolId],
        excluded: &[Arc<PromiseRecord>],
        candidate: &[Predicate],
    ) -> CheckInputs<'f> {
        let tbl = st.table();
        let except = || excluded.iter().map(|rec| rec.id).collect::<Vec<_>>();
        let is_instances = |pool: &PoolId| {
            (catalog.get(pool)).is_ok_and(|schema| schema.kind == PoolKind::Instances)
        };
        let nothing_expired = tbl.none_expired(now);
        let mut instance_pools = Vec::new();
        let mut qty_demand = Vec::new();
        for &pool in footprint {
            if is_instances(pool) {
                instance_pools.push(pool);
                continue;
            }
            let held = if nothing_expired {
                let leaving: u64 = excluded
                    .iter()
                    .map(|rec| qty_demand_on(&rec.predicates, pool))
                    .sum();
                tbl.promised_qty(pool).saturating_sub(leaving)
            } else {
                tbl.qty_demand(pool, now, &except())
            };
            qty_demand.push((pool, held.saturating_add(qty_demand_on(candidate, pool))));
        }
        let (snapshot, pinned) = if instance_pools.is_empty() {
            (Vec::new(), HashSet::new())
        } else {
            (
                tbl.snapshot_pools(now, &instance_pools, &except()),
                st.pinned().clone(),
            )
        };
        CheckInputs {
            snapshot,
            qty_demand,
            pinned,
        }
    }

    /// The pools this manager protects among the rows an action wrote
    /// that `scope` does not hold, sorted and distinct: none when the
    /// action stayed in its scope. The rows map to pools as scope
    /// enforcement maps them (see [`row_pool`]).
    fn pools_outside(&self, writes: &RowImages, scope: &[&PoolId]) -> Vec<PoolId> {
        let catalog = self.catalog.read();
        let mut outside = Vec::new();
        for name in writes
            .keys()
            .filter_map(|(table, key)| row_pool(table, key))
        {
            if scope
                .binary_search_by(|pool| pool.0.as_str().cmp(name))
                .is_err()
            {
                let pool = PoolId(name.to_owned());
                if catalog.contains(&pool) {
                    outside.push(pool);
                }
            }
        }
        outside.sort();
        outside.dedup();
        outside
    }

    /// The §8 transaction every promise operation is: inside `txn`, lock
    /// the footprint's synchronisation points (an action's transaction
    /// holds them already, see `try_action`); under the state lock, ask
    /// `admit` whether the operation may go ahead as of `now` and read
    /// what the check needs, the leaving promises left out; *outside* it —
    /// so operations over disjoint pools check in parallel — run the check
    /// against that snapshot; then, under the state lock again,
    /// take the leaving promises out, write re-arranged allocations back,
    /// put the candidate in, journal each step in that order, and commit.
    /// Any other ending rolls `txn` back, the table untouched.
    fn transition(
        &self,
        txn: Txn,
        tel: Option<&PmTel>,
        t: Transition<'_>,
        admit: impl FnOnce(&PromiseState, u64) -> Result<(), Halt>,
    ) -> Result<Committed, Halt> {
        // An action's transaction took its points before the action ran.
        if !matches!(t.check, Check::Action { .. }) {
            let wait_started = Instant::now();
            let locked = self.lock_ops(&txn, t.footprint);
            t.lat.lock_wait.record_duration(wait_started.elapsed());
            if let Err(e) = locked {
                return Err(self.halted(txn, Halt::Failed(e.into())));
            }
        }
        let now = self.clock.now_ms();

        // Crate-wide lock order: catalog → state.
        let catalog = self.catalog.read();
        let mut st = self.state.lock();
        if let Err(halt) = admit(&st, now) {
            drop(st);
            return Err(self.halted(txn, halt));
        }
        let mut leaving = st.shared(t.leaving.iter().copied());
        let post_check = matches!(t.check, Check::Action { .. });
        let (inputs, mut candidate, writes) = match t.check {
            Check::Nothing => (CheckInputs::default(), None, RowImages::new()),
            Check::Action { writes } => {
                let inputs = self.check_inputs(&st, &catalog, now, t.footprint, &leaving, &[]);
                (inputs, None, writes)
            }
            Check::Grant {
                spec,
                predicates,
                duration_ms,
                prepared,
            } => {
                let inputs =
                    self.check_inputs(&st, &catalog, now, t.footprint, &leaving, predicates);
                let record = PromiseRecord {
                    id: st.next_id(),
                    client: spec.client.clone(),
                    request: spec.request.clone(),
                    predicates: predicates.to_vec(),
                    granted_at: now,
                    expires_at: now.saturating_add(duration_ms.min(self.max_duration_ms)),
                    allocations: Vec::new(),
                };
                (inputs, Some((record, prepared)), RowImages::new())
            }
        };
        drop(st);
        let mut snapshot = inputs.snapshot;

        // A failed check of a pool whose records were not snapshotted
        // names its victim from the pool index, on that path only.
        let victim_of = |pool: &PoolId| {
            let st = self.state.lock();
            st.table().first_live_in_pool(pool, now, t.leaving)
        };
        let check_started = Instant::now();
        let (result, stats) = {
            let checker = Checker::new(&self.rm, &txn, &catalog)
                .with_qty_demand(inputs.qty_demand)
                .with_pinned(inputs.pinned)
                .with_victim_lookup(&victim_of);
            // The leaving promises are out of the snapshot, so the check
            // already sees what they held as free; they leave the table
            // only once it passes (§4: "the previous one should be
            // retained" if it does not).
            let result = if let Some((record, _)) = &mut candidate {
                checker.grant(&mut snapshot, record, t.footprint)
            } else if post_check {
                // Only the footprint's pools can have been invalidated by
                // the action; released promises never constrain others
                // tighter.
                checker.post_check(&mut snapshot, t.footprint)
            } else {
                Ok(Vec::new())
            };
            let mut stats = checker.into_stats();
            if candidate.is_none() && !post_check {
                stats.promises_considered = leaving.len();
            }
            (result, stats)
        };
        let check_dur = t.lat.add_check(check_started);
        if let Some(tel) = tel {
            let outcome = match &result {
                Ok(_) => SpanOutcome::Ok,
                Err(CheckError::Rm(_)) => SpanOutcome::Error,
                Err(CheckError::Reject(_)) if candidate.is_some() => SpanOutcome::Rejected,
                Err(_) => SpanOutcome::RolledBack,
            };
            tel.note_check(check_started, check_dur, outcome);
        }
        drop(catalog);
        *self.last_check_stats.lock() = stats;

        let changed = match result {
            Ok(changed) => changed,
            Err(e) => {
                let halt = match e {
                    CheckError::Reject(reason) => Halt::Rejected(reason),
                    CheckError::Rm(e) => Halt::Failed(e.into()),
                    CheckError::Violation { promise, detail } => {
                        Halt::Failed(PromiseError::ViolationRolledBack {
                            violated: promise,
                            detail,
                        })
                    }
                };
                return Err(self.halted(txn, halt));
            }
        };

        let mut st = self.state.lock();
        // A promise pinned *at snapshot time* is never in `changed` (its
        // slots were held in place), so a pinned id here means a client
        // observed its allocations while this check was re-arranging them:
        // roll back and recompute against the pinned state.
        if changed.iter().any(|id| st.pinned().contains(id)) {
            drop(st);
            return Err(self.halted(txn, PromiseError::ObservationConflict.into()));
        }
        // The action's writes go first, in the same batch as the releases
        // that ride with them (§8: one transaction).
        self.journal_writes(&mut st, tel, writes);
        // The leaving records, in `t.leaving`'s order, become the ones
        // that left: those the table still holds (an id listed twice
        // leaves once).
        leaving.retain(|rec| {
            let Some(rec) = st.take(rec.id) else {
                return false;
            };
            let op = match t.leave {
                Leave::Release => JournalOp::Release(rec.id),
                Leave::Expire => JournalOp::Expire(rec.id),
            };
            self.journal_append(tel, |j| j.append(op));
            true
        });
        let left = leaving;
        if let Leave::Expire = t.leave {
            let evict_at = now.saturating_add(self.tombstone_grace_ms.load(Ordering::Relaxed));
            for rec in &left {
                st.tombstones.insert(rec.id, evict_at, ());
            }
            st.tombstones.evict_due(now);
        }
        for id in changed {
            let Some(rec) = snapshot.iter().find(|p| p.id == id) else {
                continue;
            };
            if st.set_allocations(id, rec.allocations.clone()) {
                let allocations = rec.allocations.clone();
                self.journal_append(tel, |j| {
                    j.append(JournalOp::Allocations { id, allocations })
                });
            }
        }
        let granted = candidate.map(|(record, prepared)| {
            // One atomic record: a prepared grant and its mark are a
            // single journal entry, so recovery can never see the hold
            // without knowing it is in doubt.
            let held = granted(&record);
            self.journal_append(tel, |j| j.append_grant(&record, prepared));
            st.insert(Arc::new(record), prepared);
            held
        });
        drop(st);
        self.rm
            .commit(txn)
            .expect("a promise transaction commits once its locks are held");
        Ok(Committed { left, granted })
    }

    /// Rolls back a transition's transaction and passes `halt` on — or the
    /// rollback's own failure, which outranks it (see
    /// [`PromiseManager::abort_with`]).
    fn halted(&self, txn: Txn, halt: Halt) -> Halt {
        match self.rm.abort(txn) {
            Ok(()) => halt,
            Err(abort_err) => Halt::Failed(abort_err.into()),
        }
    }

    /// Every promise in `env` must be in the table and live at `now`.
    fn validate_env(
        &self,
        st: &PromiseState,
        env: &Environment,
        now: u64,
    ) -> Result<(), PromiseError> {
        let verdict = (env.entries().iter()).try_for_each(|&(id, _)| match st.table().get(id) {
            None => Err(st.absent(id)),
            Some(r) if !r.is_live(now) => Err(PromiseError::PromiseExpired(id)),
            Some(_) => Ok(()),
        });
        if let Err(PromiseError::PromiseExpired(_)) = verdict {
            self.metrics.expired_errors.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    /// Gives back, on each of `pools`' upstreams, the promise backing
    /// `client`'s `request` there: the one under [`delegated_request`] in
    /// the request index of the upstream delegated to now, even if it
    /// expired and awaits its reap. A backing promise that already left
    /// upstream has nothing to give back, so errors are discarded.
    fn release_backing(&self, client: &ClientId, request: &RequestId, pools: &[PoolId]) {
        for pool in pools {
            let Some(upstream) = self.upstreams.read().get(pool).cloned() else {
                continue;
            };
            let key = delegated_request(request, pool);
            let backing = upstream
                .state
                .lock()
                .indexed(client, &key)
                .map(|rec| rec.id);
            if let Some(id) = backing {
                let _ = upstream.release(id);
            }
        }
    }

    /// Cascades the departure of `left` — released, expired, exchanged or
    /// released by an action — to the upstream promises backing them.
    fn cascade_release(&self, left: &[Arc<PromiseRecord>]) {
        let pools: Vec<PoolId> = {
            let upstreams = self.upstreams.read();
            if upstreams.is_empty() || left.is_empty() {
                return;
            }
            upstreams.keys().cloned().collect()
        };
        for rec in left {
            self.release_backing(&rec.client, &rec.request, &pools);
        }
    }
}

/// The request under which the promise backing `request`'s predicates on
/// the delegated `pool` is held upstream: `{request}::delegated::{pool}`.
/// This key in the upstream's request index — journalled and replicated
/// with the upstream's table — is the one record of which upstream promise
/// backs a delegated one. A cascade looks the backing promise up by the
/// leaving record's own client and this key, so it only ever releases
/// promises of the same client.
fn delegated_request(request: &RequestId, pool: &PoolId) -> RequestId {
    RequestId(format!("{request}::delegated::{pool}"))
}

/// The pool whose state the RM row `(table, key)` holds, if any: a
/// quantity pool's row, or an instance of an instance pool.
fn row_pool<'r>(table: &'r str, key: &'r str) -> Option<&'r str> {
    if table == Catalog::QTY_TABLE {
        Some(key)
    } else {
        table.strip_prefix("inst:")
    }
}
