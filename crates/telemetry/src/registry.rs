//! The [`Telemetry`] registry: named histograms and counters, the span
//! ring, and id minting — one handle threaded through the whole stack.
//!
//! The registry is designed so the *disabled* path costs nothing: every
//! component holds an `Option<Arc<Telemetry>>` which defaults to `None`,
//! and all recording sites are behind that check. Enabled-path recording
//! is a few relaxed atomics (histograms/counters) or one ring push
//! (spans); snapshots copy atomics without pausing writers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use crate::hist::{Histogram, HistogramSnapshot};
use crate::ring::SpanRing;
use crate::span::{
    current_trace, FaultTag, SpanId, SpanKind, SpanOutcome, SpanRecord, TraceContext, TraceId,
};

/// Default span-ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 8_192;

/// The telemetry registry. See the module docs.
pub struct Telemetry {
    epoch: Instant,
    ring: SpanRing,
    hists: RwLock<BTreeMap<String, Arc<Histogram>>>,
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    next_trace: AtomicU64,
    next_span: AtomicU64,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("ring", &self.ring)
            .field("histograms", &self.hists.read().len())
            .field("counters", &self.counters.read().len())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A registry with the default ring capacity.
    pub fn new() -> Self {
        Self::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A registry whose span ring retains at most `capacity` spans.
    fn with_ring_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            ring: SpanRing::new(capacity),
            hists: RwLock::new(BTreeMap::new()),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
        }
    }

    /// Convenience: a shared registry handle.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Mints a fresh trace id (one per logical client operation).
    pub fn mint_trace(&self) -> TraceId {
        TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// Mints a fresh span id.
    pub fn mint_span(&self) -> SpanId {
        SpanId(self.next_span.fetch_add(1, Ordering::Relaxed))
    }

    /// The span ring (for auditors and tests).
    pub fn ring(&self) -> &SpanRing {
        &self.ring
    }

    /// The retained spans, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.ring.snapshot()
    }

    /// Get-or-create the named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.hists.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.hists
                .write()
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Records `ns` into the named histogram.
    pub fn record_ns(&self, name: &str, ns: u64) {
        self.histogram(name).record(ns);
    }

    /// Records a duration into the named histogram.
    pub fn record_duration(&self, name: &str, d: std::time::Duration) {
        self.histogram(name).record_duration(d);
    }

    /// Get-or-create the named counter.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Adds 1 to the named counter.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Get-or-create the named gauge — a last-value-wins level (journal
    /// length, live-promise count), unlike the monotone counters.
    pub fn gauge(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            self.gauges
                .write()
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Stores `value` into the named gauge.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.gauge(name).store(value, Ordering::Relaxed);
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).fetch_add(n, Ordering::Relaxed);
    }

    /// Starts a span draft for a step that began at `started`. The draft
    /// joins the ambient trace context ([`crate::push_trace`]) if one is
    /// installed, otherwise it roots a fresh trace. Call
    /// [`SpanDraft::finish`] to time and record it.
    pub fn span_since(&self, kind: SpanKind, started: Instant) -> SpanDraft<'_> {
        let (trace, parent) = match current_trace() {
            Some(ctx) => (ctx.trace, Some(ctx.parent)),
            None => (self.mint_trace(), None),
        };
        SpanDraft {
            tel: self,
            started,
            rec: SpanRecord {
                trace,
                span: self.mint_span(),
                parent,
                kind,
                start_ns: 0,
                dur_ns: 0,
                promise: None,
                outcome: SpanOutcome::Ok,
                fault: None,
                note: None,
            },
        }
    }

    /// Starts a span draft whose step begins now.
    pub fn span(&self, kind: SpanKind) -> SpanDraft<'_> {
        self.span_since(kind, Instant::now())
    }

    /// Records an instantaneous lifecycle event (zero-duration span).
    pub fn event(&self, kind: SpanKind, promise: u64) {
        self.span(kind).promise(promise).finish();
    }

    /// Nanoseconds between the registry epoch and `t` (0 if `t` precedes
    /// the epoch).
    fn since_epoch_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A point-in-time copy of every histogram and counter. Traffic keeps
    /// flowing; see [`Histogram::snapshot`] for the consistency model.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let histograms = self
            .hists
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let counters = self
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        TelemetrySnapshot {
            histograms,
            counters,
            gauges,
            spans_recorded: self.ring.recorded(),
            spans_dropped: self.ring.dropped(),
        }
    }
}

/// A span being assembled; records itself into the ring on
/// [`SpanDraft::finish`].
#[derive(Debug)]
pub struct SpanDraft<'a> {
    tel: &'a Telemetry,
    started: Instant,
    rec: SpanRecord,
}

impl SpanDraft<'_> {
    /// This span's id.
    pub fn id(&self) -> SpanId {
        self.rec.span
    }

    /// A context naming this span as the parent, for nesting child spans.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace: self.rec.trace,
            parent: self.rec.span,
        }
    }

    /// Sets the promise this span is about.
    pub fn promise(mut self, id: u64) -> Self {
        self.rec.promise = Some(id);
        self
    }

    /// Overrides the causal parent (defaults to the ambient context).
    pub fn parent(mut self, parent: SpanId) -> Self {
        self.rec.parent = Some(parent);
        self
    }

    /// Sets the outcome (defaults to [`SpanOutcome::Ok`]).
    pub fn outcome(mut self, outcome: SpanOutcome) -> Self {
        self.rec.outcome = outcome;
        self
    }

    /// Tags the span with an observed injected fault.
    pub fn fault(mut self, tag: FaultTag) -> Self {
        self.rec.fault = Some(tag);
        self
    }

    /// Attaches free-form detail (pool, cause, attempt number).
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.rec.note = Some(note.into());
        self
    }

    /// Times the span (start → now) and pushes it into the ring.
    pub fn finish(self) {
        let dur = self.started.elapsed();
        self.finish_with(dur);
    }

    /// Pushes the span with an already-measured duration, for sites that
    /// share one clock read between a histogram sample and the span.
    pub fn finish_with(mut self, dur: std::time::Duration) {
        self.rec.start_ns = self.tel.since_epoch_ns(self.started);
        self.rec.dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        self.tel.ring.push(self.rec);
    }
}

/// A point-in-time copy of a registry's metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges (last-value-wins levels) by name.
    pub gauges: BTreeMap<String, u64>,
    /// Total spans pushed over the ring's lifetime.
    pub spans_recorded: u64,
    /// Spans overwritten by newer ones.
    pub spans_dropped: u64,
}

impl TelemetrySnapshot {
    /// Histogram by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Folds `other`'s metrics into this snapshot under `label.`-prefixed
    /// names (`shard1.pm.grant`, …). A cluster harness snapshots each
    /// shard's private registry and absorbs them all into one snapshot
    /// whose per-shard series stay distinguishable; ring totals accumulate.
    pub fn absorb_prefixed(&mut self, label: &str, other: &TelemetrySnapshot) {
        for (k, v) in &other.histograms {
            self.histograms.insert(format!("{label}.{k}"), *v);
        }
        for (k, v) in &other.counters {
            self.counters.insert(format!("{label}.{k}"), *v);
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(format!("{label}.{k}"), *v);
        }
        self.spans_recorded += other.spans_recorded;
        self.spans_dropped += other.spans_dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push_trace;

    #[test]
    fn histograms_and_counters_are_get_or_create() {
        let tel = Telemetry::new();
        tel.record_ns("stage.a", 100);
        tel.record_ns("stage.a", 200);
        tel.incr("hits");
        tel.add("hits", 2);
        let snap = tel.snapshot();
        assert_eq!(snap.histogram("stage.a").unwrap().count, 2);
        assert_eq!(snap.counter("hits"), 3);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn gauges_are_last_value_wins_and_absorb_with_prefix() {
        let tel = Telemetry::new();
        tel.set_gauge("pm.journal.records", 40);
        tel.set_gauge("pm.journal.records", 7);
        let snap = tel.snapshot();
        assert_eq!(snap.gauge("pm.journal.records"), 7);
        assert_eq!(snap.gauge("missing"), 0);
        let mut merged = TelemetrySnapshot::default();
        merged.absorb_prefixed("shard0", &snap);
        assert_eq!(merged.gauge("shard0.pm.journal.records"), 7);
    }

    #[test]
    fn spans_join_ambient_context_or_root_fresh_traces() {
        let tel = Telemetry::new();
        // No ambient context: roots its own trace.
        tel.span(SpanKind::PmGrant).promise(7).finish();
        // Ambient context: joins it.
        let ctx = TraceContext {
            trace: tel.mint_trace(),
            parent: tel.mint_span(),
        };
        {
            let _g = push_trace(ctx);
            tel.span(SpanKind::PmRelease).promise(7).finish();
        }
        let spans = tel.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].trace, ctx.trace);
        assert_eq!(spans[1].parent, Some(ctx.parent));
        assert_ne!(spans[0].trace, spans[1].trace);
    }

    #[test]
    fn snapshot_reports_ring_pressure() {
        let tel = Telemetry::with_ring_capacity(2);
        for i in 0..5 {
            tel.event(SpanKind::PmExpire, i);
        }
        let snap = tel.snapshot();
        assert_eq!(snap.spans_recorded, 5);
        assert_eq!(snap.spans_dropped, 3);
        assert_eq!(tel.spans().len(), 2);
    }
}
