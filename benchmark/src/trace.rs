//! The benchmark's own span recorder: spans are taken from outside, around
//! the calls into each layer, kept in memory and written out at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

/// One recorded interval. Spans of one business op share `trace` (the op
/// index); `parent` is filled in by [`Tracer::link`].
#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// ns since the tracer was created.
    pub start: u64,
    pub end: u64,
}

pub const CLIENT_OP: &str = "client.op";
pub const COORD_GRANT: &str = "coord.grant";
pub const COORD_RELEASE: &str = "coord.release";
pub const SHARD_HANDLE: &str = "shard.handle";
pub const PM_CALL: &str = "pm.call";

pub struct Tracer {
    t0: Instant,
    // Relaxed: ids only need to be distinct.
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            t0: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 18)),
        }
    }
}

impl Tracer {
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn record(&self, trace: u64, name: &'static str, start: u64, end: u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans
            .lock()
            .expect("no recorder panics while holding the span list")
            .push(Span {
                trace,
                id,
                parent: 0,
                name,
                start,
                end,
            });
    }

    /// Times `f` as a span of `trace`.
    pub fn span<R>(&self, trace: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        self.record(trace, name, start, self.now());
        out
    }

    /// Takes the spans out, grouped per trace and with parents resolved:
    /// a span's parent is the tightest span of the same trace that
    /// encloses it in time (fan-out legs run on threads of their own, so
    /// nesting cannot be read off a call stack).
    pub fn link(&self) -> BTreeMap<u64, Vec<Span>> {
        let spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no recorder panics while holding the span list"),
        );
        let mut by_trace: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
        for s in spans {
            by_trace.entry(s.trace).or_default().push(s);
        }
        for group in by_trace.values_mut() {
            group.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
            for i in 0..group.len() {
                let (start, end) = (group[i].start, group[i].end);
                group[i].parent = group[..i]
                    .iter()
                    .rev()
                    .find(|p| p.start <= start && end <= p.end)
                    .map_or(0, |p| p.id);
            }
        }
        by_trace
    }
}

/// Length of the union of `children` clipped to `[start, end]`.
fn covered(start: u64, end: u64, children: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .map(|(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (a, b) in iv {
        if b > reach {
            total += b - a.max(reach);
            reach = b;
        }
    }
    total
}

/// Medians (µs) of each span kind's duration and self time — duration
/// minus the part its children cover — plus how many spans of each kind
/// an op has.
#[derive(Debug, Default)]
pub struct TraceSummary {
    pub ops: usize,
    /// name → (p50 duration, p50 self time, spans per op).
    pub kinds: BTreeMap<&'static str, (f64, f64, f64)>,
    /// p50 over ops of the time an op spent inside its innermost spans
    /// (the shards' `handle`, or the manager call), overlaps counted once.
    pub in_leaves_us: f64,
}

impl TraceSummary {
    pub fn duration_us(&self, name: &str) -> f64 {
        self.kinds.get(name).map_or(0.0, |k| k.0)
    }
    pub fn self_us(&self, name: &str) -> f64 {
        self.kinds.get(name).map_or(0.0, |k| k.1)
    }
    pub fn per_op(&self, name: &str) -> f64 {
        self.kinds.get(name).map_or(0.0, |k| k.2)
    }
}

pub fn summarise(traces: &BTreeMap<u64, Vec<Span>>) -> TraceSummary {
    let mut dur: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut own: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut in_leaves: Vec<u64> = Vec::new();
    let mut ops = 0usize;
    for group in traces.values() {
        let Some(op) = group.iter().find(|s| s.name == CLIENT_OP) else {
            // Housekeeping and messages of ops that began before tracing.
            continue;
        };
        ops += 1;
        let leaves = group
            .iter()
            .filter(|s| !group.iter().any(|c| c.parent == s.id))
            .map(|s| (s.start, s.end));
        in_leaves.push(covered(op.start, op.end, leaves));
        for s in group {
            let kids = group
                .iter()
                .filter(|c| c.parent == s.id)
                .map(|c| (c.start, c.end));
            let d = s.end - s.start;
            dur.entry(s.name).or_default().push(d);
            own.entry(s.name)
                .or_default()
                .push(d - covered(s.start, s.end, kids));
        }
    }
    let mut kinds = BTreeMap::new();
    for (name, mut d) in dur {
        let per_op = d.len() as f64 / ops.max(1) as f64;
        let mut o = own.remove(name).unwrap_or_default();
        kinds.insert(
            name,
            (
                stats::percentile(&mut d, 0.5) as f64 / 1e3,
                stats::percentile(&mut o, 0.5) as f64 / 1e3,
                per_op,
            ),
        );
    }
    let in_leaves_us = if in_leaves.is_empty() {
        0.0
    } else {
        stats::percentile(&mut in_leaves, 0.5) as f64 / 1e3
    };
    TraceSummary {
        ops,
        kinds,
        in_leaves_us,
    }
}

/// At most this many spans are written out; the summary uses all of them.
pub const MAX_WRITTEN_SPANS: usize = 100_000;

/// The trace as one JSON document.
pub fn to_json(traces: &BTreeMap<u64, Vec<Span>>) -> String {
    let mut out = String::from("{\"unit\":\"ns\",\"spans\":[\n");
    let mut written = 0usize;
    'all: for group in traces.values() {
        for s in group {
            if written == MAX_WRITTEN_SPANS {
                break 'all;
            }
            if written > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
                s.trace, s.id, s.parent, s.name, s.start, s.end
            );
            written += 1;
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let tracer = Tracer::default();
        // op 0..1000; grant 100..700 with two overlapping legs; release
        // 750..950 with one leg.
        tracer.record(7, CLIENT_OP, 0, 1_000);
        tracer.record(7, COORD_GRANT, 100, 700);
        tracer.record(7, SHARD_HANDLE, 200, 500);
        tracer.record(7, SHARD_HANDLE, 300, 600);
        tracer.record(7, COORD_RELEASE, 750, 950);
        tracer.record(7, SHARD_HANDLE, 800, 900);
        let traces = tracer.link();
        let group = &traces[&7];
        let id_of = |name: &str| group.iter().find(|s| s.name == name).unwrap().id;
        let legs: Vec<&Span> = group.iter().filter(|s| s.name == SHARD_HANDLE).collect();
        assert_eq!(legs[0].parent, id_of(COORD_GRANT));
        assert_eq!(legs[1].parent, id_of(COORD_GRANT));
        assert_eq!(legs[2].parent, id_of(COORD_RELEASE));

        let sum = summarise(&traces);
        assert_eq!(sum.ops, 1);
        // op: 1000 − (600 + 200); grant: 600 − union(200..600) = 200.
        assert_eq!(sum.self_us(CLIENT_OP), 0.2);
        assert_eq!(sum.self_us(COORD_GRANT), 0.2);
        assert_eq!(sum.self_us(COORD_RELEASE), 0.1);
        assert_eq!(sum.per_op(SHARD_HANDLE), 3.0);
        // Legs 200..600 (overlap counted once) and 800..900.
        assert_eq!(sum.in_leaves_us, 0.5);
        assert!(crate::json::parse(&to_json(&traces)).is_ok());
    }
}
