//! The cross-shard grant coordinator: prepare/commit over the wire bus.
//!
//! A multi-predicate request whose predicates span shards is granted or
//! rejected *as a unit* (paper §4) without any shared state between
//! shards:
//!
//! 1. **Begin** is logged, then per-shard *prepare* requests fan out —
//!    posted in shard order, collected in shard order, all on the calling
//!    thread (the shards' own workers do the overlapping) — each a normal
//!    grant on its shard (resources reserved immediately) journalled as
//!    an in-doubt hold. Any shard that cannot hold rejects
//!    immediately; nothing ever blocks, so there is no distributed
//!    deadlock to detect.
//! 2. If every shard held, **Commit** is logged — the commit point — and
//!    commit resolutions fan out. If any shard rejected (or a prepare was
//!    lost to the transport), the coordinator aborts the rest and logs
//!    **Abort**.
//! 3. Crash recovery replays the log with *presumed abort*: an undecided
//!    transaction's holds are aborted (by request key, covering lost
//!    prepare replies); a committed transaction's resolutions are resent
//!    (shard-side resolution is idempotent).
//!
//! Grant dedup is cluster-wide: the coordinator answers a retried
//! `(client, request-id)` from its own outcome index, and the per-shard
//! sub-request ids (`rid@sN`) make the shards' own dedup indexes back the
//! coordinator up even across a coordinator restart.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use promises_core::{ladder, parse_predicate, request_key, Clock, DeadlineMap, Predicate};
use promises_telemetry::{
    push_trace, FlightRecorder, SpanKind, SpanOutcome, Telemetry, TraceContext,
};
use promises_wire::{
    BusError, Envelope, PromiseRequestHeader, PromiseResult, ResolutionOp, ResolveRef,
    RetryingClient,
};

use crate::lease::LeaseDirectory;
use crate::log::{CoordRecord, CoordinatorLog, LogCompaction, TxnId};
use crate::router::ShardMap;

/// How long a dedup entry outlives its promise duration before eviction.
/// A retry arriving after the promise expired *and* this grace elapsed is
/// treated as a fresh request — the same bound the per-shard grant index
/// uses, so coordinator and shard dedup stay in step.
const DEDUP_GRACE_MS: u64 = 300_000;

/// Where an injected coordinator crash fires, for crash–restart tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die after every shard prepared but before the decision is logged —
    /// recovery must presume abort and free every hold.
    AfterPrepare,
    /// Die after the Commit record is logged but before any resolution is
    /// sent — recovery must resend the commits.
    AfterCommitLogged,
}

/// One shard's slice of a granted cross-shard promise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrantPart {
    /// Owning shard.
    pub shard: usize,
    /// The promise id on that shard.
    pub promise_id: u64,
    /// The shard-granted expiry (shard clock = cluster clock, ms).
    pub expires_at: u64,
}

/// Outcome of a cluster grant: every predicate held (with per-shard
/// parts), or the unit rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterDecision {
    /// All shards hold; `parts` lists one entry per participating shard.
    Granted {
        /// Per-shard promises, ascending shard order.
        parts: Vec<GrantPart>,
    },
    /// At least one shard could not hold; nothing is retained anywhere.
    Rejected {
        /// Human-readable reason from the first rejecting shard.
        reason: String,
    },
}

impl ClusterDecision {
    /// True when granted.
    pub fn is_granted(&self) -> bool {
        matches!(self, ClusterDecision::Granted { .. })
    }
}

/// Outcome of a negotiated cluster grant
/// ([`Coordinator::grant_negotiated`]): the final decision plus how far
/// down the §3.3 weakening ladder the coordinator had to go to reach it.
#[derive(Debug, Clone)]
pub struct NegotiatedClusterGrant {
    /// The decision at the final rung — granted, or the essential-only
    /// rejection.
    pub decision: ClusterDecision,
    /// Total desirable clauses dropped to reach the decision (0 = granted
    /// as asked).
    pub dropped: usize,
    /// The predicates as actually decided, in the wire text syntax
    /// (weakened forms when `dropped > 0`).
    pub granted_predicates: Vec<String>,
}

/// Coordinator failures that are not unit rejections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordError {
    /// A predicate failed to parse.
    BadPredicate(String),
    /// The request named no predicates.
    EmptyRequest,
    /// Transport to a shard failed beyond the retry budget during a phase
    /// where the transaction could still be aborted cleanly (and was).
    Transport(String),
    /// An injected [`CrashPoint`] fired: the coordinator "died" here and
    /// [`Coordinator::recover`] must clean up.
    Crashed(&'static str),
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::BadPredicate(m) => write!(f, "bad predicate: {m}"),
            CoordError::EmptyRequest => write!(f, "request names no predicates"),
            CoordError::Transport(m) => write!(f, "transport: {m}"),
            CoordError::Crashed(p) => write!(f, "coordinator crashed at {p}"),
        }
    }
}

impl std::error::Error for CoordError {}

/// What a recovery pass did. See [`Coordinator::recover`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordRecovery {
    /// Undecided transactions presumed aborted (holds freed).
    pub presumed_aborted: usize,
    /// Committed transactions whose commit resolutions were resent.
    pub commits_resent: usize,
    /// Individual shard holds the abort pass actually freed.
    pub holds_freed: usize,
    /// Abort records with no matching Begin — tolerated no-ops (dead
    /// history after compaction, or a double-logged recovery abort).
    pub orphan_aborts: usize,
}

/// How shard `shard` answered the grant or prepare `request_id`: the part
/// it granted, or why it did not.
fn grant_part(reply: &Envelope, request_id: &str, shard: usize) -> Result<GrantPart, String> {
    let Some(resp) = reply.response_for(request_id) else {
        return Err("shard reply carried no response".into());
    };
    match (&resp.result, resp.promise_id) {
        (PromiseResult::Rejected(reason), _) => Err(reason.clone()),
        (_, Some(promise_id)) => Ok(GrantPart {
            shard,
            promise_id,
            expires_at: resp.expires_at,
        }),
        (_, None) => Err("malformed shard response".into()),
    }
}

/// The cross-shard grant coordinator. Cheap to rebuild: all durable state
/// lives in the [`CoordinatorLog`] and the shards' journals.
pub struct Coordinator {
    map: Arc<ShardMap>,
    client: Arc<RetryingClient>,
    log: Arc<CoordinatorLog>,
    clock: Arc<dyn Clock>,
    telemetry: Option<Arc<Telemetry>>,
    /// Flight recorder for 2PC phase-change events (DESIGN §17); state
    /// transitions only, never per-message work.
    recorder: RwLock<Option<Arc<FlightRecorder>>>,
    /// Decisions by [`request_key`], each until its retry window closes.
    dedup: Mutex<DeadlineMap<Arc<str>, ClusterDecision>>,
    /// Committed transactions every shard acknowledged resolving — the
    /// only commits log compaction may drop. Rebuilt empty after a crash;
    /// the next [`Coordinator::recover`] repopulates it from resend acks.
    resolved: Mutex<HashSet<TxnId>>,
    crash_point: Mutex<Option<CrashPoint>>,
    /// Advisory lease directory (see [`LeaseDirectory`]). When installed,
    /// an all-quantity grant covered by the requesting client's home-shard
    /// lease headroom is routed there as one local grant — no coordinator
    /// log record, no 2PC — falling back to the ownership path when the
    /// lease cannot cover it.
    leases: RwLock<Option<Arc<LeaseDirectory>>>,
}

impl Coordinator {
    /// Builds a coordinator over `map`, speaking through `client`, logging
    /// decisions to `log`, reading time from `clock`.
    pub fn new(
        map: Arc<ShardMap>,
        client: Arc<RetryingClient>,
        log: Arc<CoordinatorLog>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Self {
            map,
            client,
            log,
            clock,
            telemetry: None,
            recorder: RwLock::new(None),
            dedup: Mutex::default(),
            resolved: Mutex::new(HashSet::new()),
            crash_point: Mutex::new(None),
            leases: RwLock::new(None),
        }
    }

    /// Installs (or removes) the advisory lease directory, switching the
    /// lease-local grant route on (or off).
    pub fn set_lease_directory(&self, directory: Option<Arc<LeaseDirectory>>) {
        *self.leases.write() = directory;
    }

    /// Builder: attaches a telemetry registry; grants then record
    /// [`SpanKind::CoordPrepare`] / [`SpanKind::CoordCommit`] /
    /// [`SpanKind::CoordAbort`] spans and every shard hop joins the same
    /// trace.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The decision log (for tests and recovery harnesses).
    pub fn log(&self) -> &Arc<CoordinatorLog> {
        &self.log
    }

    /// Installs (or removes) the flight recorder that receives 2PC
    /// phase-change events.
    pub fn set_recorder(&self, recorder: Option<Arc<FlightRecorder>>) {
        *self.recorder.write() = recorder;
    }

    fn record_event(&self, kind: &'static str, detail: String) {
        if let Some(rec) = self.recorder.read().as_ref() {
            rec.record(kind, detail);
        }
    }

    /// Arms an injected crash for the *next* cross-shard grant.
    pub fn set_crash_point(&self, point: Option<CrashPoint>) {
        *self.crash_point.lock() = point;
    }

    fn crash_armed(&self, at: CrashPoint) -> bool {
        let mut cp = self.crash_point.lock();
        if *cp == Some(at) {
            *cp = None;
            return true;
        }
        false
    }

    /// Grants `predicates` (text syntax) to `(client, request_id)` for
    /// `duration_ms`, atomically across however many shards the predicate
    /// footprint spans. Retried requests (same client + request id) are
    /// answered from the coordinator's outcome index without touching the
    /// shards.
    pub fn grant(
        &self,
        client: &str,
        request_id: &str,
        predicates: &[String],
        duration_ms: u64,
    ) -> Result<ClusterDecision, CoordError> {
        let key = request_key(client, request_id);
        if let Some(decision) = self.dedup.lock().get(&*key) {
            return Ok(decision.clone());
        }
        if predicates.is_empty() {
            return Err(CoordError::EmptyRequest);
        }
        // Split the footprint: each predicate names its pool; the router
        // names the pool's owner. All-quantity footprints also aggregate
        // per-pool demand for the lease route.
        let mut with_pools = Vec::with_capacity(predicates.len());
        let mut qty_demands: Option<Vec<(String, u64)>> = Some(Vec::new());
        for text in predicates {
            let p = parse_predicate(text)
                .map_err(|e| CoordError::BadPredicate(format!("{text:?}: {e}")))?;
            match (&p, qty_demands.as_mut()) {
                (Predicate::QtyAtLeast { pool, amount }, Some(demands)) => {
                    match demands.iter_mut().find(|(name, _)| *name == pool.0) {
                        Some((_, total)) => *total += *amount,
                        None => demands.push((pool.0.clone(), *amount)),
                    }
                }
                _ => qty_demands = None,
            }
            with_pools.push((p.pool().0.clone(), text.clone()));
        }
        let groups = self.map.split_by_shard(with_pools);

        // Trace: one per logical cluster grant; shard hops join it.
        let trace_guard = self.telemetry.as_ref().map(|tel| {
            let ctx = TraceContext {
                trace: tel.mint_trace(),
                parent: tel.mint_span(),
            };
            push_trace(ctx)
        });

        // Lease route: if the client's home shard holds enough lease
        // headroom for the whole footprint, the grant is one ordinary
        // local grant there — regardless of which shards *own* the pools,
        // and with no coordinator log record. The directory is advisory;
        // the home shard's own escrow check (promised ≤ on hand) is the
        // authority, so a stale estimate costs a round trip, never an
        // oversell.
        let mut decision: Option<ClusterDecision> = None;
        let lease_route = self.leases.read().clone();
        if let (Some(dir), Some(demands)) = (lease_route.as_ref(), qty_demands.as_ref()) {
            if !demands.is_empty() {
                let home = dir.home_shard(client);
                dir.note_demand(home, demands);
                if dir.covers(home, demands) {
                    match self.single_shard_grant(
                        client,
                        request_id,
                        home,
                        predicates,
                        duration_ms,
                    )? {
                        granted @ ClusterDecision::Granted { .. } => {
                            dir.consume(home, demands);
                            if let Some(tel) = &self.telemetry {
                                tel.incr("cluster.lease.local_grants");
                                for (pool, _) in demands {
                                    tel.incr(&format!("cluster.lease.local.{pool}"));
                                }
                                if groups.len() > 1 {
                                    // The ownership split would have cost a
                                    // full 2PC round with Begin/Commit
                                    // records; the lease saved it.
                                    tel.incr("cluster.lease.coord_log_skips");
                                }
                            }
                            decision = Some(granted);
                        }
                        ClusterDecision::Rejected { reason } => {
                            if let Some(tel) = &self.telemetry {
                                tel.incr("cluster.lease.local_rejects");
                            }
                            // The home shard's authoritative check said no.
                            // If home *is* the sole owner shard there is no
                            // one better to ask — the rejection is final;
                            // otherwise retry through the ownership path.
                            if groups.len() == 1 && groups.keys().next() == Some(&home) {
                                decision = Some(ClusterDecision::Rejected { reason });
                            }
                        }
                    }
                }
                if decision.is_none() {
                    if let Some(tel) = &self.telemetry {
                        tel.incr("cluster.lease.coordinator_fallbacks");
                        for (pool, _) in demands {
                            tel.incr(&format!("cluster.lease.fallback.{pool}"));
                        }
                    }
                }
            }
        }

        let decision = match decision {
            Some(d) => d,
            None if groups.len() == 1 => {
                // Fast path: single-shard footprint — an ordinary grant
                // with the original request id; the shard's atomicity (§4)
                // and dedup cover it without any coordination round.
                let (&shard, preds) = groups.iter().next().expect("one group");
                self.single_shard_grant(client, request_id, shard, preds, duration_ms)?
            }
            None => self.cross_shard_grant(client, request_id, &groups, duration_ms)?,
        };
        drop(trace_guard);

        // The dedup index is bounded: entries are only useful while a
        // retry of the same request could still arrive, so they carry an
        // eviction deadline (promise duration + grace).
        let now = self.clock.now_ms();
        let evict_at = now
            .saturating_add(duration_ms)
            .saturating_add(DEDUP_GRACE_MS);
        let mut dedup = self.dedup.lock();
        dedup.evict_due(now);
        dedup.insert(Arc::from(key), evict_at, decision.clone());
        let len = dedup.len();
        drop(dedup);
        if let Some(tel) = &self.telemetry {
            tel.set_gauge("coord.dedup.size", len as u64);
        }
        Ok(decision)
    }

    /// Requests a cluster grant, negotiating away desirable clauses when
    /// the full request cannot be granted (§3.3 driven over the
    /// coordinator instead of a single gateway). The ladder is computed
    /// coordinator-side with the same weakening discipline as the local
    /// [`promises_core::PromiseManager::request_negotiated`] loop
    /// ([`ladder`], last predicate's desirables first), so a
    /// multi-predicate footprint that spans shards negotiates through full
    /// 2PC rounds: rung 0 is the request as asked under the original
    /// request id; rung `n > 0` retries under the deterministic sub-id
    /// `rid~dn`. Every rung's outcome lands in the cluster-wide dedup
    /// index, so a client retrying the whole ladder replays the same
    /// decisions and converges on the same promise — duplicated or
    /// re-driven ladders can neither double-drop clauses nor double-grant.
    pub fn grant_negotiated(
        &self,
        client: &str,
        request_id: &str,
        predicates: &[String],
        duration_ms: u64,
    ) -> Result<NegotiatedClusterGrant, CoordError> {
        let mut parsed = Vec::with_capacity(predicates.len());
        for text in predicates {
            parsed.push(
                parse_predicate(text)
                    .map_err(|e| CoordError::BadPredicate(format!("{text:?}: {e}")))?,
            );
        }
        for rung in ladder(&parsed) {
            let total_drop: usize = rung.dropped.iter().sum();
            let texts: Vec<String> = rung.predicates.iter().map(ToString::to_string).collect();
            let rung_id = if total_drop == 0 {
                request_id.to_owned()
            } else {
                format!("{request_id}~d{total_drop}")
            };
            let decision = self.grant(client, &rung_id, &texts, duration_ms)?;
            if matches!(decision, ClusterDecision::Granted { .. }) || rung.last {
                if let Some(tel) = &self.telemetry {
                    if total_drop > 0 && decision.is_granted() {
                        tel.incr("coord.negotiate.weakened_grants");
                        tel.add("coord.negotiate.dropped_clauses", total_drop as u64);
                    }
                }
                return Ok(NegotiatedClusterGrant {
                    decision,
                    dropped: total_drop,
                    granted_predicates: texts,
                });
            }
        }
        unreachable!("the ladder always returns on its last rung")
    }

    /// Number of live entries in the grant dedup index (boundedness
    /// assertions in fault sweeps).
    pub fn dedup_len(&self) -> usize {
        self.dedup.lock().len()
    }

    /// Evicts dedup entries whose retry window has passed. Every grant
    /// does this too; an idle coordinator can call it from the same
    /// cadence that drives shard pruning.
    pub fn sweep_dedup(&self) {
        let now = self.clock.now_ms();
        let mut dedup = self.dedup.lock();
        dedup.evict_due(now);
        let len = dedup.len();
        drop(dedup);
        if let Some(tel) = &self.telemetry {
            tel.set_gauge("coord.dedup.size", len as u64);
        }
    }

    fn single_shard_grant(
        &self,
        client: &str,
        request_id: &str,
        shard: usize,
        predicates: &[String],
        duration_ms: u64,
    ) -> Result<ClusterDecision, CoordError> {
        let envelope = Envelope::new().with_promise_request(PromiseRequestHeader {
            request_id: request_id.to_owned(),
            client: client.to_owned(),
            predicates: predicates.to_vec(),
            duration_ms,
            exchange: vec![],
            negotiate: false,
            prepare: false,
        });
        let reply = self
            .client
            .send(&self.map.endpoint_of(shard), &envelope)
            .map_err(|e| CoordError::Transport(e.to_string()))?;
        Ok(match grant_part(&reply, request_id, shard) {
            Ok(part) => ClusterDecision::Granted { parts: vec![part] },
            Err(reason) => ClusterDecision::Rejected { reason },
        })
    }

    fn cross_shard_grant(
        &self,
        client: &str,
        request_id: &str,
        groups: &std::collections::BTreeMap<usize, Vec<String>>,
        duration_ms: u64,
    ) -> Result<ClusterDecision, CoordError> {
        let txn = TxnId::new(client, request_id);
        let shards: Vec<usize> = groups.keys().copied().collect();
        self.log.append(CoordRecord::Begin {
            txn: txn.clone(),
            shards: shards.clone(),
        });
        self.record_event("2pc.begin", format!("{} shards={shards:?}", txn.request));

        let prepare_started = Instant::now();
        // Pipelined prepare: every shard's leg is posted before any reply
        // is awaited. Replies are matched by the `rid@sN` sub-request id
        // and by leg position, never by arrival order. Every hop joins the
        // grant's trace through the ambient context of this one thread
        // (the lifecycle auditor replays it).
        let outcomes = self.send_to_shards(groups.iter().map(|(&shard, preds)| {
            let prepare = PromiseRequestHeader {
                request_id: txn.sub_request(shard),
                client: client.to_owned(),
                predicates: preds.clone(),
                duration_ms,
                exchange: vec![],
                negotiate: false,
                prepare: true,
            };
            (shard, Envelope::new().with_promise_request(prepare))
        }));

        let mut parts: Vec<GrantPart> = Vec::with_capacity(groups.len());
        let mut reject: Option<String> = None;
        // Shards that may hold something we must abort: everything that
        // prepared, plus any shard whose outcome we could not learn (lost
        // reply — abort by request key). Outcomes are judged in ascending
        // shard order (`send_all` preserved `groups`' order), so the
        // recorded reject reason is deterministic.
        let mut to_abort: Vec<(usize, ResolveRef)> = Vec::new();
        for (&shard, result) in shards.iter().zip(outcomes) {
            let sub = txn.sub_request(shard);
            match result {
                Ok(reply) => match grant_part(&reply, &sub, shard) {
                    Ok(part) => {
                        to_abort.push((shard, ResolveRef::Id(part.promise_id)));
                        parts.push(part);
                    }
                    // Immediate, non-blocking rejection (paper §4). Sibling
                    // shards were posted to as well — whatever they
                    // prepared is aborted below.
                    Err(reason) => {
                        reject.get_or_insert(reason);
                    }
                },
                Err(e @ (BusError::DroppedRequest | BusError::DroppedReply)) => {
                    // Retries exhausted; the shard *may* hold (reply lost
                    // after granting). Abort it by request key — resolved
                    // against the shard's dedup index if the hold exists,
                    // a no-op if it never granted.
                    to_abort.push((
                        shard,
                        ResolveRef::Request {
                            client: client.to_owned(),
                            request: sub,
                        },
                    ));
                    reject.get_or_insert_with(|| format!("shard {shard} unreachable: {e}"));
                }
                Err(e) => {
                    reject.get_or_insert_with(|| format!("shard {shard} failed: {e}"));
                }
            }
        }

        if reject.is_none() {
            // Holds that expired while the fan-out ran cannot be
            // committed; treat the transaction as rejected.
            let now = self.clock.now_ms();
            if let Some(stale) = parts.iter().find(|p| p.expires_at <= now) {
                reject = Some(format!(
                    "hold on shard {} expired before commit",
                    stale.shard
                ));
            }
        }
        if let Some(tel) = &self.telemetry {
            let draft = tel.span_since(SpanKind::CoordPrepare, prepare_started);
            let draft = draft.note(format!("shards={}", shards.len()));
            match &reject {
                None => draft.finish(),
                Some(r) => draft
                    .outcome(SpanOutcome::Rejected)
                    .note(r.clone())
                    .finish(),
            }
        }

        if let Some(reason) = reject {
            self.abort_txn(&txn, &to_abort);
            return Ok(ClusterDecision::Rejected { reason });
        }

        if self.crash_armed(CrashPoint::AfterPrepare) {
            // Undecided: every hold stays in doubt until recovery.
            self.record_event("2pc.crash", format!("{} after-prepare", txn.request));
            return Err(CoordError::Crashed("after-prepare"));
        }

        // The commit point: once this record is durable the transaction IS
        // committed, whatever happens to the resolution sends below.
        self.log.append(CoordRecord::Commit { txn: txn.clone() });
        self.record_event(
            "2pc.commit",
            format!("{} shards={}", txn.request, parts.len()),
        );

        if self.crash_armed(CrashPoint::AfterCommitLogged) {
            self.record_event("2pc.crash", format!("{} after-commit-logged", txn.request));
            return Err(CoordError::Crashed("after-commit-logged"));
        }

        let commit_started = Instant::now();
        // Commit resolutions are posted the same way. Idempotent
        // shard-side; a lost resolution leaves the hold in doubt for
        // recover() to resend, never half-committed.
        let holds: Vec<(usize, ResolveRef)> = parts
            .iter()
            .map(|part| (part.shard, ResolveRef::Id(part.promise_id)))
            .collect();
        let (acked, _) = self.resolve_all(&holds, ResolutionOp::Commit);
        if acked == parts.len() {
            // Every shard acknowledged: the transaction is fully resolved
            // and its log records are compaction fodder.
            self.resolved.lock().insert(txn.clone());
        }
        if let Some(tel) = &self.telemetry {
            tel.span_since(SpanKind::CoordCommit, commit_started)
                .note(format!("parts={}", parts.len()))
                .finish();
        }
        Ok(ClusterDecision::Granted { parts })
    }

    /// Compacts the decision log: aborted transactions and fully-resolved
    /// commits are dropped, in-doubt Begins and unacknowledged Commits
    /// survive. See [`CoordinatorLog::compact`]. The resolved set is
    /// cleared afterwards — everything in it was just dropped.
    pub fn compact_log(&self) -> Result<LogCompaction, CoordError> {
        let mut resolved = self.resolved.lock();
        let report = self
            .log
            .compact(&resolved)
            .map_err(|e| CoordError::Transport(e.to_string()))?;
        resolved.clear();
        drop(resolved);
        if let Some(tel) = &self.telemetry {
            tel.incr("coord.log.compactions");
            tel.add("coord.log.dropped", report.dropped as u64);
            tel.set_gauge("coord.log.records", self.log.len() as u64);
        }
        Ok(report)
    }

    /// One envelope per shard through the retrying client: every leg posted
    /// in the order given, then every reply collected in that order, all on
    /// this thread.
    fn send_to_shards(
        &self,
        legs: impl Iterator<Item = (usize, Envelope)>,
    ) -> Vec<Result<Envelope, BusError>> {
        let legs: Vec<(String, Envelope)> = legs
            .map(|(shard, envelope)| (self.map.endpoint_of(shard), envelope))
            .collect();
        self.client.send_all(&legs)
    }

    /// Sends `op` for every `(shard, hold)` in `refs` — posted in order,
    /// collected in order — and returns `(acked, applied)`. A reply that
    /// names the resolution is the shard's acknowledgement: the resolution
    /// was processed (applied, idempotent repeat, or definitively
    /// unresolvable), so a resend could never change the outcome. `applied`
    /// counts the acknowledgements that changed state.
    fn resolve_all(&self, refs: &[(usize, ResolveRef)], op: ResolutionOp) -> (usize, usize) {
        let replies = self.send_to_shards(refs.iter().map(|(shard, reference)| {
            (
                *shard,
                Envelope::new().with_resolution(reference.clone(), op),
            )
        }));
        let (mut acked, mut applied) = (0, 0);
        for ((_, reference), result) in refs.iter().zip(replies) {
            if let Some(resolution) = result
                .as_ref()
                .ok()
                .and_then(|reply| reply.resolution_for(reference))
            {
                acked += 1;
                applied += usize::from(resolution.applied);
            }
        }
        (acked, applied)
    }

    /// Aborts every hold in `refs` and logs the Abort decision.
    fn abort_txn(&self, txn: &TxnId, refs: &[(usize, ResolveRef)]) {
        let started = Instant::now();
        self.resolve_all(refs, ResolutionOp::Abort);
        self.log.append(CoordRecord::Abort { txn: txn.clone() });
        self.record_event("2pc.abort", format!("{} holds={}", txn.request, refs.len()));
        if let Some(tel) = &self.telemetry {
            tel.span_since(SpanKind::CoordAbort, started)
                .note(format!("holds={}", refs.len()))
                .finish();
        }
    }

    /// Releases every part of a granted cross-shard promise. A release
    /// carries no reply element, so the reply envelope itself is the
    /// acknowledgement; a part whose release got none (transport failed
    /// beyond the retry budget, or the shard is gone) stays held until it
    /// expires and is counted in `coord.release.unacked`.
    pub fn release(&self, parts: &[GrantPart]) {
        let unacked = self
            .send_to_shards(
                parts
                    .iter()
                    .map(|part| (part.shard, Envelope::new().with_release(part.promise_id))),
            )
            .iter()
            .filter(|result| result.is_err())
            .count();
        if let Some(tel) = self.telemetry.as_ref().filter(|_| unacked > 0) {
            tel.add("coord.release.unacked", unacked as u64);
        }
    }

    /// Crash recovery: replays the decision log, presumes undecided
    /// transactions aborted (freeing their holds by request key), and
    /// resends commit resolutions for decided transactions whose sends may
    /// never have left. Safe to run any number of times — every message it
    /// sends is idempotent shard-side.
    pub fn recover(&self) -> Result<CoordRecovery, CoordError> {
        let summary = self
            .log
            .replay()
            .map_err(|e| CoordError::Transport(e.to_string()))?;
        self.record_event(
            "2pc.recover",
            format!(
                "undecided={} committed={} orphan_aborts={}",
                summary.undecided.len(),
                summary.committed.len(),
                summary.orphan_aborts.len()
            ),
        );
        let mut report = CoordRecovery {
            orphan_aborts: summary.orphan_aborts.len(),
            ..CoordRecovery::default()
        };
        if report.orphan_aborts > 0 {
            if let Some(tel) = &self.telemetry {
                tel.add("coord.replay.orphan_abort", report.orphan_aborts as u64);
                // One marked span per orphan so the cluster lifecycle
                // auditor can surface the tolerated no-ops.
                for txn in &summary.orphan_aborts {
                    tel.span_since(SpanKind::CoordAbort, Instant::now())
                        .outcome(SpanOutcome::Deduped)
                        .note(format!("orphan-abort {}", txn.request))
                        .finish();
                }
            }
        }
        // Recovery names holds by the prepare's request key: the ids died
        // with the coordinator, and a lost prepare reply never had one.
        let by_request_key = |txn: &TxnId, shards: &[usize]| -> Vec<(usize, ResolveRef)> {
            shards
                .iter()
                .map(|&shard| {
                    let reference = ResolveRef::Request {
                        client: txn.client.clone(),
                        request: txn.sub_request(shard),
                    };
                    (shard, reference)
                })
                .collect()
        };
        for (txn, shards) in &summary.undecided {
            let started = Instant::now();
            let (_, freed) = self.resolve_all(&by_request_key(txn, shards), ResolutionOp::Abort);
            self.log.append(CoordRecord::Abort { txn: txn.clone() });
            report.presumed_aborted += 1;
            report.holds_freed += freed;
            if let Some(tel) = &self.telemetry {
                tel.span_since(SpanKind::CoordAbort, started)
                    .note(format!("recovery presumed-abort {}", txn.request))
                    .finish();
            }
        }
        for (txn, shards) in &summary.committed {
            let started = Instant::now();
            let (acked, _) = self.resolve_all(&by_request_key(txn, shards), ResolutionOp::Commit);
            if acked == shards.len() {
                self.resolved.lock().insert(txn.clone());
            }
            report.commits_resent += 1;
            if let Some(tel) = &self.telemetry {
                tel.span_since(SpanKind::CoordCommit, started)
                    .note(format!("recovery resend {}", txn.request))
                    .finish();
            }
        }
        Ok(report)
    }
}
