//! The durable promise journal.
//!
//! The paper's promise table (§8) is the manager's *only* record of
//! outstanding promises; a crashed manager that forgot it would silently
//! break every guarantee it had granted. This module makes the table
//! recoverable: every state transition — grant, release, expiry, allocation
//! rewrite — is appended to a [`PromiseJournal`] as a generation-stamped
//! [`JournalEntry`], and [`crate::PromiseManager::recover`] rebuilds the
//! table (with its per-pool indexes and quantity aggregates) by replaying
//! the journal idempotently. An action's RM writes ride the same journal
//! (`W`), so §8's one transaction is durable as one unit.
//!
//! # Record format
//!
//! Entries are encoded one per line, tab-separated, through the
//! [`LineStore`] and field codec of `line_store.rs`, so the journal is
//! human-inspectable and trivially file-backed. Variable-length string
//! fields (client, request, predicate, instance) are percent-escaped for
//! `%`, tab, CR and LF; predicates use their canonical [`std::fmt::Display`]
//! form, which the crate's parser round-trips (property-tested).
//!
//! ```text
//! seq  gen  G  id  client  request  granted_at  expires_at  np  pred…  na  (idx inst)…
//! seq  gen  P  id  client  request  granted_at  expires_at  np  pred…  na  (idx inst)…
//! seq  gen  C  id                       — commit of a prepared hold
//! seq  gen  R  id                       — release
//! seq  gen  E  id                       — expiry
//! seq  gen  A  id  na  (idx inst)…      — allocation rewrite
//! seq  gen  W  n  (table key f (name value)…)…  — an action's or a lease move's row writes
//! seq  gen  K  next  n  (G|P record…)…  r  (row…)…  — checkpoint snapshot
//! ```
//!
//! The cluster coordinator's decision log (`cluster/src/log.rs`) writes
//! its records through the same store and codec, one line each, every
//! one ending in the end mark `.` so that no cut line decodes:
//!
//! ```text
//! seq  gen  B  client  request  n  shard…  .   — prepare fan-out begins
//! seq  gen  C  client  request  .              — the commit point
//! seq  gen  A  client  request  .              — abort
//! ```
//!
//! `W` carries the after-image of every row one committed action wrote,
//! sorted by `(table, key)`: `f` typed fields (`I` integer, `B` boolean,
//! `S` escaped text), or `-` for a deleted row. It precedes the action's
//! `R` records; recovery writes each row's last image back into the RM.
//! A lease move — units of a leased pool's escrow slice moved to or from
//! this shard — is a `W` of the pool's one `qty_pools` row, whose `qty`
//! and `lease` fields it changes by the same amount.
//!
//! `P` records a *prepared hold* — a cross-shard grant awaiting its
//! coordinator's decision; it carries the same payload as `G`. `C` marks
//! the hold committed. A `P` with no later `C`/`R`/`E` is an in-doubt hold:
//! recovery keeps it (resources stay reserved, so no other client can be
//! oversold) until the coordinator resolves it or its expiry reaps it.
//!
//! # Checkpoints and compaction
//!
//! A `K` record is a full snapshot of live manager state at one instant:
//! the promise-id high-water mark (`next`), then `n` embedded records each
//! prefixed by a `G`/`P` sub-tag (the `P` sub-tag preserves the in-doubt
//! prepared mark). One optional trailing group follows, omitted when it
//! is empty: the `r` rows every `W` left (a `W` payload).
//! [`PromiseJournal::install_checkpoint`] swaps the whole journal for a
//! single checkpoint entry under the journal lock — the in-memory
//! analogue of writing a checkpoint to a temp file and renaming it over
//! the log. Entries appended afterwards form the post-checkpoint suffix;
//! replay restarts its fold whenever it meets a `K` record, so recovery
//! cost is O(live promises + suffix), not O(history). The id high-water
//! mark is carried explicitly because compaction drops the `G`/`R`
//! history of released high-id promises — without it a recovering
//! manager would re-issue their ids.
//!
//! # Generations
//!
//! The journal carries a *generation* counter, bumped at the start of every
//! recovery. Entries a recovering manager appends (in particular `E` records
//! for promises that expired while it was down) carry the new generation, so
//! a journal records how many incarnations of the manager produced it and
//! which entries are recovery decisions rather than client operations.

use std::convert::Infallible;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use promises_telemetry::JournalFacts;

use promises_rm::{Record, RowImages, Value};

use crate::ids::{ClientId, InstanceId, PromiseId, RequestId};
use crate::line_store::{
    escape_into, needs_escape, push_num, push_text, unescape, FieldReader, JournalError, LineStore,
};
use crate::parser::parse_predicate;
use crate::promise::{Allocation, PromiseRecord};

/// One journalled promise-table transition.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// A promise was granted; carries the full record.
    Grant(PromiseRecord),
    /// A promise was granted as a *prepared hold* for a cross-shard
    /// transaction: resources are reserved exactly like a grant, but the
    /// hold awaits a coordinator commit/abort decision. A `Prepared` record
    /// with no later `CommitPrepared`/`Release`/`Expire` is an *in-doubt*
    /// hold at recovery time.
    Prepared(PromiseRecord),
    /// A coordinator committed a prepared hold: the promise becomes an
    /// ordinary grant.
    CommitPrepared(PromiseId),
    /// A promise was released (explicitly, or consumed by exchange).
    Release(PromiseId),
    /// A promise was reaped by expiry.
    Expire(PromiseId),
    /// A promise's tentative allocations were rewritten by the checker.
    Allocations {
        /// The promise whose allocations changed.
        id: PromiseId,
        /// The new allocation set (replaces the old one wholesale).
        allocations: Vec<Allocation>,
    },
    /// An action or a lease move committed these row writes (`None`:
    /// deleted). Appended before the action's releases.
    Write(RowImages),
    /// A compaction checkpoint: the full live state at one instant.
    /// Replay resets its fold here, so everything before the checkpoint
    /// is dead history.
    Checkpoint(CheckpointState),
}

/// One live promise captured inside a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRecord {
    /// True if the promise was a prepared (in-doubt) hold at checkpoint
    /// time — encoded with the `P` sub-tag so recovery restores the mark.
    pub prepared: bool,
    /// The full promise record.
    pub record: PromiseRecord,
}

/// The payload of a [`JournalOp::Checkpoint`]: everything recovery needs
/// to rebuild the table without replaying pre-checkpoint history.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Promise-id high-water mark (the table's last-used id) at checkpoint
    /// time. Carried explicitly so ids of compacted-away promises are
    /// never re-issued after recovery.
    pub next_id: u64,
    /// Every live promise (granted or prepared) at checkpoint time.
    pub live: Vec<CheckpointRecord>,
    /// The last image of every row a `W` named: the `W` history folded,
    /// as an optional trailing group.
    pub rows: RowImages,
}

/// What [`PromiseJournal::install_checkpoint`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Sequence number assigned to the checkpoint entry.
    pub seq: u64,
    /// Journal lines the swap dropped (the compacted-away history).
    pub dropped: usize,
}

/// One journal entry: sequence number, generation stamp, and the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Strictly increasing append order.
    pub seq: u64,
    /// Manager incarnation that wrote the entry (bumped on every recovery).
    pub generation: u64,
    /// The recorded transition.
    pub op: JournalOp,
}

fn encode_allocs(out: &mut String, allocations: &[Allocation]) {
    push_num(out, allocations.len() as u64);
    for a in allocations {
        push_num(out, a.pred_idx as u64);
        push_text(out, &a.instance.0);
    }
}

fn encode_record(out: &mut String, tag: &str, rec: &PromiseRecord) {
    out.push_str(tag);
    push_num(out, rec.id.0);
    push_text(out, &rec.client.0);
    push_text(out, &rec.request.0);
    push_num(out, rec.granted_at);
    push_num(out, rec.expires_at);
    push_num(out, rec.predicates.len() as u64);
    for p in &rec.predicates {
        // Written by its `Display` straight into the line, and escaped
        // in place only when the text needs it.
        out.push('\t');
        let start = out.len();
        let _ = write!(out, "{p}");
        if needs_escape(&out[start..]) {
            let text = out.split_off(start);
            escape_into(out, &text);
        }
    }
    encode_allocs(out, &rec.allocations);
}

/// Encodes what follows a line's `seq` and `gen` fields.
fn encode_op(out: &mut String, op: &JournalOp) {
    match op {
        JournalOp::Grant(rec) => encode_record(out, "\tG", rec),
        JournalOp::Prepared(rec) => encode_record(out, "\tP", rec),
        JournalOp::CommitPrepared(id) => encode_id(out, "\tC", *id),
        JournalOp::Release(id) => encode_id(out, "\tR", *id),
        JournalOp::Expire(id) => encode_id(out, "\tE", *id),
        JournalOp::Allocations { id, allocations } => {
            encode_id(out, "\tA", *id);
            encode_allocs(out, allocations);
        }
        JournalOp::Write(rows) => encode_write(out, rows),
        JournalOp::Checkpoint(cp) => encode_checkpoint(
            out,
            cp.next_id,
            cp.live.iter().map(|item| (item.prepared, &item.record)),
            &cp.rows,
        ),
    }
}

fn encode_write(out: &mut String, rows: &RowImages) {
    out.push_str("\tW");
    encode_rows(out, rows);
}

/// Writes a row count, then each row's table, key, and `-` if it is gone
/// or its field count and each field's name and typed value.
fn encode_rows(out: &mut String, rows: &RowImages) {
    push_num(out, rows.len() as u64);
    for ((table, key), image) in rows {
        push_text(out, table);
        push_text(out, key);
        let Some(record) = image else {
            out.push_str("\t-");
            continue;
        };
        push_num(out, record.len() as u64);
        for (name, value) in record.iter() {
            push_text(out, name);
            let _ = match value {
                Value::Int(i) => write!(out, "\tI{i}"),
                Value::Bool(b) => write!(out, "\tB{b}"),
                Value::Str(text) => write!(out, "\tS").map(|()| escape_into(out, text)),
            };
        }
    }
}

/// Writes a tag field and the promise id it names.
fn encode_id(out: &mut String, tag: &str, id: PromiseId) {
    out.push_str(tag);
    push_num(out, id.0);
}

/// Encodes a `K` payload from borrowed records, so a compaction writes the
/// table out without copying it first.
fn encode_checkpoint<'a>(
    out: &mut String,
    next_id: u64,
    live: impl ExactSizeIterator<Item = (bool, &'a PromiseRecord)>,
    rows: &RowImages,
) {
    out.push_str("\tK");
    push_num(out, next_id);
    push_num(out, live.len() as u64);
    for (prepared, record) in live {
        encode_record(out, if prepared { "\tP" } else { "\tG" }, record);
    }
    // The trailing row group, omitted when empty.
    if !rows.is_empty() {
        encode_rows(out, rows);
    }
}

impl FieldReader<'_> {
    fn allocs(&mut self) -> Result<Vec<Allocation>, JournalError> {
        let (n, room) = self.count("allocation count")?;
        let mut out = Vec::with_capacity(room);
        for _ in 0..n {
            let pred_idx = self.next_u64("allocation predicate index")? as usize;
            let instance = InstanceId(self.text("allocation instance")?.into_owned());
            out.push(Allocation { pred_idx, instance });
        }
        Ok(out)
    }

    /// A row count and the rows [`encode_rows`] wrote.
    fn rows(&mut self) -> Result<RowImages, JournalError> {
        let mut rows = RowImages::new();
        for _ in 0..self.next_u64("row count")? {
            let table = self.text("row table")?.into_owned();
            let key = self.text("row key")?.into_owned();
            let image = if self.peek() == Some("-") {
                self.next("row image")?;
                None
            } else {
                let mut record = Record::new();
                for _ in 0..self.next_u64("row field count")? {
                    let name = self.text("field name")?;
                    record.set(&name, self.value()?);
                }
                Some(record)
            };
            rows.insert((table, key), image);
        }
        Ok(rows)
    }

    /// One typed field value: `I` integer, `B` boolean, `S` text.
    fn value(&mut self) -> Result<Value, JournalError> {
        let raw = self.next("field value")?;
        let value = match raw.split_at_checked(1) {
            Some(("I", n)) => n.parse().ok().map(Value::Int),
            Some(("B", b)) => b.parse().ok().map(Value::Bool),
            Some(("S", text)) => Some(Value::Str(unescape(text).into_owned())),
            _ => None,
        };
        value.ok_or_else(|| self.error(format!("bad field value: {raw:?}")))
    }
}

/// Reads one full promise record (id through allocations) from `r` — the
/// shared payload of `G`/`P` entries and checkpoint-embedded records.
fn read_record(r: &mut FieldReader<'_>) -> Result<PromiseRecord, JournalError> {
    let id = PromiseId(r.next_u64("promise id")?);
    let client = ClientId(r.text("client")?.into_owned());
    let request = RequestId(r.text("request")?.into_owned());
    let granted_at = r.next_u64("granted_at")?;
    let expires_at = r.next_u64("expires_at")?;
    let (np, room) = r.count("predicate count")?;
    let mut predicates = Vec::with_capacity(room);
    for _ in 0..np {
        let text = r.text("predicate")?;
        let parsed = parse_predicate(&text);
        predicates.push(parsed.map_err(|e| r.error(format!("bad predicate {text:?}: {e}")))?);
    }
    let allocations = r.allocs()?;
    Ok(PromiseRecord {
        id,
        client,
        request,
        predicates,
        granted_at,
        expires_at,
        allocations,
    })
}

/// Cheap peek at a line's sequence number (first tab-separated field)
/// without decoding the whole record. Returns `None` for malformed lines.
fn line_seq(raw: &str) -> Option<u64> {
    raw.split('\t').next()?.parse().ok()
}

/// Decodes one journal line (inverse of the encoder). `line` is used
/// only for error reporting.
fn decode_entry(raw: &str, line: usize) -> Result<JournalEntry, JournalError> {
    let mut r = FieldReader::new(raw, line);
    let (seq, generation) = r.head()?;
    let op = decode_op(&mut r)?;
    Ok(JournalEntry {
        seq,
        generation,
        op,
    })
}

/// Decodes what follows a line's `seq` and `gen` fields.
fn decode_op(r: &mut FieldReader<'_>) -> Result<JournalOp, JournalError> {
    Ok(match r.next("op tag")? {
        "G" => JournalOp::Grant(read_record(r)?),
        "P" => JournalOp::Prepared(read_record(r)?),
        "C" => JournalOp::CommitPrepared(PromiseId(r.next_u64("promise id")?)),
        "R" => JournalOp::Release(PromiseId(r.next_u64("promise id")?)),
        "E" => JournalOp::Expire(PromiseId(r.next_u64("promise id")?)),
        "A" => {
            let id = PromiseId(r.next_u64("promise id")?);
            let allocations = r.allocs()?;
            JournalOp::Allocations { id, allocations }
        }
        "W" => JournalOp::Write(r.rows()?),
        "K" => {
            let next_id = r.next_u64("checkpoint id high-water")?;
            let (n, room) = r.count("checkpoint record count")?;
            let mut live = Vec::with_capacity(room);
            for _ in 0..n {
                let prepared = match r.next("checkpoint record tag")? {
                    "G" => false,
                    "P" => true,
                    other => {
                        return Err(r.error(format!("unknown checkpoint record tag {other:?}")))
                    }
                };
                let record = read_record(r)?;
                live.push(CheckpointRecord { prepared, record });
            }
            // The optional trailing row group: absent when it is empty.
            let rows = if r.peek().is_some() {
                r.rows()?
            } else {
                RowImages::new()
            };
            JournalOp::Checkpoint(CheckpointState {
                next_id,
                live,
                rows,
            })
        }
        other => return Err(r.error(format!("unknown op tag {other:?}"))),
    })
}

/// An append-only, generation-stamped journal of promise-table transitions:
/// a [`LineStore`] plus the promise codec above.
///
/// In-memory but line-encoded throughout, so it models (and can be dumped
/// to / loaded from) a durable log file; "crashing" a manager and handing
/// its journal to a fresh one is exactly the durability scenario the
/// recovery tests exercise.
pub struct PromiseJournal {
    inner: LineStore,
    /// Modeled latency of one durable batch write, slept *outside* the
    /// line buffer's lock so appends proceed while a flush is in flight —
    /// the window group commit amortizes. Zero (the default) models free
    /// storage; benchmarks raise it the same way the shard executor's
    /// modeled service time is raised.
    flush_delay_us: AtomicU64,
}

impl Default for PromiseJournal {
    fn default() -> Self {
        Self::new()
    }
}

impl PromiseJournal {
    /// Creates an empty journal at generation 0.
    pub fn new() -> Self {
        Self::on(LineStore::new())
    }

    fn on(inner: LineStore) -> Self {
        Self {
            inner,
            flush_delay_us: AtomicU64::new(0),
        }
    }

    /// Rebuilds a journal from previously dumped lines (e.g. read back
    /// from a file). Sequence and generation counters resume past the
    /// highest values present. Every line must parse: this is
    /// [`PromiseJournal::from_lines_tolerant`]'s scan with a torn tail
    /// returned as the error.
    pub fn from_lines<S: AsRef<str>>(lines: &[S]) -> Result<Self, JournalError> {
        match Self::from_lines_tolerant(lines)? {
            (journal, None) => Ok(journal),
            (_, Some(torn)) => Err(torn),
        }
    }

    /// Rebuilds a journal from dumped lines, tolerating a torn trailing
    /// record (see [`LineStore::from_lines_tolerant`]).
    pub fn from_lines_tolerant<S: AsRef<str>>(
        lines: &[S],
    ) -> Result<(Self, Option<JournalError>), JournalError> {
        let (store, torn) = LineStore::from_lines_tolerant(lines, |r| decode_op(r).map(drop))?;
        Ok((Self::on(store), torn))
    }

    /// Atomically swaps the journal's contents for a single checkpoint
    /// entry — the [`CheckpointState`] made of `next_id`, `live` (each
    /// record with its prepared mark, in the order given) and `rows`,
    /// encoded straight from the borrowed records by
    /// [`LineStore::rewrite`], so a reader (or a crash) sees either the
    /// full old journal or the checkpointed one, never a mix. The
    /// checkpoint is assigned the next sequence number; entries appended
    /// afterwards form the post-checkpoint suffix replay picks up after
    /// resetting at the `K` record.
    pub fn install_checkpoint(
        &self,
        next_id: u64,
        live: &[(bool, &PromiseRecord)],
        rows: &RowImages,
    ) -> CheckpointStats {
        let Ok(stats) = self.inner.rewrite(|lines, out| {
            let dropped = lines.len();
            let seq = out.line(|line| encode_checkpoint(line, next_id, live.iter().copied(), rows));
            Ok::<_, Infallible>(CheckpointStats { seq, dropped })
        });
        stats
    }

    /// Appends one operation, assigning it the next sequence number and the
    /// current generation. Returns the assigned sequence number.
    pub fn append(&self, op: JournalOp) -> u64 {
        self.inner.append_with(|out| encode_op(out, &op))
    }

    /// Appends a grant — a `P` prepared hold when `prepared` — encoded
    /// from the borrowed record: the line [`JournalOp::Grant`] or
    /// [`JournalOp::Prepared`] would write, without a copy of the record
    /// to put in one.
    pub(crate) fn append_grant(&self, rec: &PromiseRecord, prepared: bool) -> u64 {
        self.inner
            .append_with(|out| encode_record(out, if prepared { "\tP" } else { "\tG" }, rec))
    }

    /// Appends an action's row writes from the borrowed images: the line
    /// [`JournalOp::Write`] would write.
    pub(crate) fn append_writes(&self, rows: &RowImages) -> u64 {
        self.inner.append_with(|out| encode_write(out, rows))
    }

    /// Flushes every buffered record in one batched write, after the
    /// modeled delay (see [`LineStore::flush_all`]). Returns the new
    /// flushed watermark (the tip).
    pub fn flush_all(&self) -> u64 {
        self.inner
            .flush_all(self.flush_delay_us.load(Ordering::Relaxed))
    }

    /// Sets the modeled latency of one durable batch write (default 0).
    /// Benchmarks use this the way the shard executor uses modeled
    /// service time: to make the cost being amortized visible on the
    /// wall clock.
    pub fn set_flush_delay_us(&self, us: u64) {
        self.flush_delay_us.store(us, Ordering::Relaxed);
    }

    /// The durability watermark: highest seq covered by a flushed batch.
    /// Records above it are appended but still buffered.
    pub fn flushed_seq(&self) -> u64 {
        self.inner.lock().flushed_seq
    }

    /// `(batched writes, records covered)` since this journal was built.
    /// `records / writes > 1` means group commit is amortizing — multiple
    /// concurrent appends rode one write.
    pub fn flush_stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.flush_writes, inner.flushed_records)
    }

    /// The current generation stamp.
    pub fn generation(&self) -> u64 {
        self.inner.lock().generation
    }

    /// Bumps the generation (called at the start of recovery) and returns
    /// the new value.
    pub fn bump_generation(&self) -> u64 {
        let mut inner = self.inner.lock();
        inner.generation += 1;
        inner.generation
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if no entries have been appended.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The raw encoded lines (what would be written to a log file).
    pub fn lines(&self) -> Vec<String> {
        self.inner.lines()
    }

    /// The highest sequence number assigned so far (0 for a journal that
    /// has never been appended to). This is the replication *tip*: a
    /// follower whose acked watermark equals the tip holds every record.
    pub fn tip_seq(&self) -> u64 {
        self.inner.lock().next_seq - 1
    }

    /// The encoded lines with sequence numbers strictly greater than
    /// `watermark`, in append order — one replication segment. Because
    /// sequence numbers keep ascending across [`install_checkpoint`]
    /// (the `K` entry takes the next seq), a follower that last acked a
    /// pre-compaction seq receives the checkpoint plus the tail: exactly
    /// the state it needs, with the dead history already folded away.
    ///
    /// [`install_checkpoint`]: PromiseJournal::install_checkpoint
    pub fn segment_after(&self, watermark: u64) -> Vec<String> {
        let inner = self.inner.lock();
        let start = inner
            .lines
            .partition_point(|l| line_seq(l).is_some_and(|s| s <= watermark));
        inner.lines[start..].to_vec()
    }

    /// Applies one shipped replication segment, idempotently: lines whose
    /// seq the journal already holds are skipped (at-least-once shipping
    /// is safe), a `K` checkpoint line truncates the stored prefix (the
    /// follower-side mirror of [`PromiseJournal::install_checkpoint`]),
    /// and everything else is appended verbatim. Any malformed line is a
    /// hard error — segments are read from an intact leader journal, so
    /// corruption here means the shipping channel itself broke. Returns
    /// the new tip (the acked watermark the follower should report).
    pub fn apply_segment<S: AsRef<str>>(&self, segment: &[S]) -> Result<u64, JournalError> {
        // Decode everything before touching state so a corrupt line never
        // half-applies a segment.
        let decoded = segment
            .iter()
            .enumerate()
            .map(|(i, raw)| decode_entry(raw.as_ref(), i))
            .collect::<Result<Vec<_>, _>>()?;
        let mut inner = self.inner.lock();
        for (entry, raw) in decoded.iter().zip(segment) {
            if entry.seq < inner.next_seq {
                continue; // duplicate delivery of an already-applied record
            }
            if matches!(entry.op, JournalOp::Checkpoint(_)) {
                inner.lines.clear();
            }
            inner.lines.push(raw.as_ref().to_owned());
            inner.next_seq = entry.seq + 1;
            inner.generation = inner.generation.max(entry.generation);
        }
        // A shipped segment is written down as one unit on the standby —
        // applied records are durable there, so a promoted follower's
        // journal starts fully flushed.
        inner.flushed_seq = inner.next_seq - 1;
        Ok(inner.next_seq - 1)
    }

    /// Decodes every entry in append order and hands `fold` each
    /// operation as its line is decoded, so the journal is never held
    /// decoded all at once. Returns the number of entries. The journal
    /// stays locked throughout, so `fold` must not call it.
    pub(crate) fn replay(&self, mut fold: impl FnMut(JournalOp)) -> Result<usize, JournalError> {
        self.inner.read(|lines| {
            for (i, raw) in lines.iter().enumerate() {
                fold(decode_entry(raw, i)?.op);
            }
            Ok(lines.len())
        })
    }

    /// All entries, decoded, in append order.
    pub fn entries(&self) -> Result<Vec<JournalEntry>, JournalError> {
        self.inner.read(|lines| {
            let decoded = lines.iter().enumerate();
            decoded.map(|(i, l)| decode_entry(l, i)).collect()
        })
    }

    /// Digests the journal into the id sets the lifecycle auditor checks
    /// spans against. A prepared hold counts as granted, and so does every
    /// live record a checkpoint carries (compaction already folded the
    /// released and expired history away). An undecodable journal yields
    /// no facts.
    pub fn facts(&self) -> JournalFacts {
        let mut facts = JournalFacts::default();
        for entry in self.entries().unwrap_or_default() {
            match entry.op {
                JournalOp::Grant(rec) | JournalOp::Prepared(rec) => {
                    facts.granted.insert(rec.id.0);
                }
                JournalOp::Release(id) => {
                    facts.released.insert(id.0);
                }
                JournalOp::Expire(id) => {
                    facts.expired.insert(id.0);
                }
                JournalOp::Checkpoint(cp) => {
                    facts
                        .granted
                        .extend(cp.live.iter().map(|item| item.record.id.0));
                }
                _ => {}
            }
        }
        facts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line_store::encode_head;
    use crate::predicate::{Predicate, PropExpr};

    /// Encodes one owned entry as its journal line.
    fn encode_entry(entry: &JournalEntry) -> String {
        let mut out = String::new();
        encode_head(&mut out, entry.seq, entry.generation);
        encode_op(&mut out, &entry.op);
        out
    }

    fn sample_record() -> PromiseRecord {
        PromiseRecord {
            id: PromiseId(7),
            client: ClientId::from("merchant%1\twith tab"),
            request: RequestId::from("order\n42"),
            predicates: vec![
                Predicate::qty_at_least("pink-widgets", 5),
                Predicate::named("rooms", "512"),
            ],
            granted_at: 10,
            expires_at: 5_000,
            allocations: vec![Allocation {
                pred_idx: 1,
                instance: InstanceId::from("512"),
            }],
        }
    }

    #[test]
    fn grant_line_roundtrips() {
        let entry = JournalEntry {
            seq: 3,
            generation: 2,
            op: JournalOp::Grant(sample_record()),
        };
        let line = encode_entry(&entry);
        let back = decode_entry(&line, 0).unwrap();
        assert_eq!(back, entry);
    }

    #[test]
    fn prepared_line_roundtrips() {
        let entry = JournalEntry {
            seq: 5,
            generation: 1,
            op: JournalOp::Prepared(sample_record()),
        };
        let line = encode_entry(&entry);
        assert_eq!(line.split('\t').nth(2), Some("P"));
        assert_eq!(decode_entry(&line, 0).unwrap(), entry);
    }

    #[test]
    fn simple_ops_roundtrip() {
        for op in [
            JournalOp::Release(PromiseId(9)),
            JournalOp::Expire(PromiseId(11)),
            JournalOp::CommitPrepared(PromiseId(13)),
            JournalOp::Allocations {
                id: PromiseId(4),
                allocations: vec![Allocation {
                    pred_idx: 0,
                    instance: InstanceId::from("a%b"),
                }],
            },
        ] {
            let entry = JournalEntry {
                seq: 1,
                generation: 0,
                op,
            };
            assert_eq!(decode_entry(&encode_entry(&entry), 0).unwrap(), entry);
        }
    }

    #[test]
    fn a_grant_appended_from_a_borrowed_record_writes_the_owned_line() {
        let borrowed = PromiseJournal::new();
        let owned = PromiseJournal::new();
        for prepared in [false, true] {
            borrowed.append_grant(&sample_record(), prepared);
        }
        owned.append(JournalOp::Grant(sample_record()));
        owned.append(JournalOp::Prepared(sample_record()));
        assert_eq!(borrowed.lines(), owned.lines());
    }

    #[test]
    fn append_assigns_monotonic_seqs_and_generation() {
        let j = PromiseJournal::new();
        assert!(j.is_empty());
        assert_eq!(j.append(JournalOp::Release(PromiseId(1))), 1);
        assert_eq!(j.bump_generation(), 1);
        assert_eq!(j.append(JournalOp::Expire(PromiseId(2))), 2);
        let entries = j.entries().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].generation, 0);
        assert_eq!(entries[1].generation, 1);
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn from_lines_resumes_counters() {
        let j = PromiseJournal::new();
        j.append(JournalOp::Grant(sample_record()));
        j.bump_generation();
        j.append(JournalOp::Expire(PromiseId(7)));
        let reloaded = PromiseJournal::from_lines(&j.lines()).unwrap();
        assert_eq!(reloaded.generation(), 1);
        assert_eq!(reloaded.append(JournalOp::Release(PromiseId(7))), 3);
        assert_eq!(reloaded.entries().unwrap().len(), 3);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(decode_entry("not-a-number\t0\tR\t1", 5).is_err());
        assert!(decode_entry("1\t0\tZ\t1", 0).is_err());
        assert!(decode_entry("1\t0\tG\t1\tc", 0).is_err());
        // The escrow-lease record this format once had.
        assert!(decode_entry("7\t1\tL\tp%25%09%0D%0Aü\t0", 0).is_err());
        let err = decode_entry("1\t0", 9).unwrap_err();
        assert_eq!(err.line, 9);
    }

    #[test]
    fn escape_unescape_roundtrip() {
        for s in ["plain", "with\ttab", "pct%09literal", "%", "a%2", "\r\n"] {
            let mut escaped = String::new();
            escape_into(&mut escaped, s);
            assert_eq!(unescape(&escaped), s);
        }
    }

    /// One literal line per shape, written by the journal itself. Every
    /// text field holds each character the escape rewrites (`%`, tab, CR,
    /// LF) and one it keeps (`ü`), so any byte an encoder change moves
    /// fails here before it reaches a replica or a digest.
    #[test]
    fn journal_lines_keep_their_bytes() {
        let record = PromiseRecord {
            id: PromiseId(7),
            client: ClientId::from("c%\t\r\nü"),
            request: RequestId::from("r%\t\r\nü"),
            predicates: vec![
                Predicate::qty_at_least("p%\t\r\nü", 5),
                Predicate::named("p%\t\r\nü", "i%\t\r\nü"),
                Predicate::property("p%\t\r\nü", PropExpr::eq("view", "v%\t\r\nü"), 2),
            ],
            granted_at: 10,
            expires_at: 5_000,
            allocations: vec![
                Allocation {
                    pred_idx: 1,
                    instance: InstanceId::from("i%\t\r\nü"),
                },
                Allocation {
                    pred_idx: 2,
                    instance: InstanceId::from("512"),
                },
            ],
        };
        let j = PromiseJournal::new();
        j.bump_generation();
        j.append_grant(&record, false);
        j.append(JournalOp::Prepared(record.clone()));
        j.append(JournalOp::CommitPrepared(PromiseId(7)));
        j.append(JournalOp::Release(PromiseId(8)));
        j.append(JournalOp::Expire(PromiseId(u64::MAX)));
        j.append(JournalOp::Allocations {
            id: PromiseId(9),
            allocations: record.allocations.clone(),
        });
        // Every line is stored at its exact size, the `K` lines too.
        let exact =
            |j: &PromiseJournal| j.inner.lock().lines.iter().all(|l| l.capacity() == l.len());
        assert!(exact(&j));
        let mut lines = j.lines();
        // Seq 7 is a checkpoint the next one replaces whole.
        j.install_checkpoint(0, &[], &RowImages::new());
        j.install_checkpoint(0, &[], &RowImages::new());
        lines.extend(j.lines());
        let mut other = record.clone();
        other.id = PromiseId(12);
        other.allocations.clear();
        let live = [(false, &record), (true, &other)];
        j.install_checkpoint(40, &live, &RowImages::new());
        assert!(exact(&j));
        lines.extend(j.lines());
        // An action's row writes — Int, Bool and Str fields, and a row
        // that is gone — then a checkpoint that folds them.
        let suite = Record::new()
            .with("_status", "taken")
            .with("floor", -3i64)
            .with("note", "n%\t\r\nü")
            .with("view", true);
        let rows = RowImages::from([
            (("inst:p%\t\r\nü".into(), "i%\t\r\nü".into()), Some(suite)),
            (("qty_pools".into(), "gone".into()), None),
        ]);
        j.append_writes(&rows);
        lines.extend(j.lines().into_iter().skip(1));
        j.install_checkpoint(41, &[], &rows);
        assert!(exact(&j));
        lines.extend(j.lines());
        let want = [
            concat!(
                "1\t1\tG\t7\tc%25%09%0D%0Aü\tr%25%09%0D%0Aü\t10\t5000\t3",
                "\tqty('p%25%09%0D%0Aü') >= 5",
                "\tnamed('p%25%09%0D%0Aü', 'i%25%09%0D%0Aü')",
                "\tprop('p%25%09%0D%0Aü', 2): view == 'v%25%09%0D%0Aü'",
                "\t2\t1\ti%25%09%0D%0Aü\t2\t512",
            ),
            concat!(
                "2\t1\tP\t7\tc%25%09%0D%0Aü\tr%25%09%0D%0Aü\t10\t5000\t3",
                "\tqty('p%25%09%0D%0Aü') >= 5",
                "\tnamed('p%25%09%0D%0Aü', 'i%25%09%0D%0Aü')",
                "\tprop('p%25%09%0D%0Aü', 2): view == 'v%25%09%0D%0Aü'",
                "\t2\t1\ti%25%09%0D%0Aü\t2\t512",
            ),
            "3\t1\tC\t7",
            "4\t1\tR\t8",
            "5\t1\tE\t18446744073709551615",
            "6\t1\tA\t9\t2\t1\ti%25%09%0D%0Aü\t2\t512",
            "8\t1\tK\t0\t0",
            concat!(
                "9\t1\tK\t40\t2",
                "\tG\t7\tc%25%09%0D%0Aü\tr%25%09%0D%0Aü\t10\t5000\t3",
                "\tqty('p%25%09%0D%0Aü') >= 5",
                "\tnamed('p%25%09%0D%0Aü', 'i%25%09%0D%0Aü')",
                "\tprop('p%25%09%0D%0Aü', 2): view == 'v%25%09%0D%0Aü'",
                "\t2\t1\ti%25%09%0D%0Aü\t2\t512",
                "\tP\t12\tc%25%09%0D%0Aü\tr%25%09%0D%0Aü\t10\t5000\t3",
                "\tqty('p%25%09%0D%0Aü') >= 5",
                "\tnamed('p%25%09%0D%0Aü', 'i%25%09%0D%0Aü')",
                "\tprop('p%25%09%0D%0Aü', 2): view == 'v%25%09%0D%0Aü'",
                "\t0",
            ),
            concat!(
                "10\t1\tW\t2\tinst:p%25%09%0D%0Aü\ti%25%09%0D%0Aü\t4",
                "\t_status\tStaken\tfloor\tI-3\tnote\tSn%25%09%0D%0Aü\tview\tBtrue",
                "\tqty_pools\tgone\t-",
            ),
            concat!(
                "11\t1\tK\t41\t0\t2\tinst:p%25%09%0D%0Aü\ti%25%09%0D%0Aü\t4",
                "\t_status\tStaken\tfloor\tI-3\tnote\tSn%25%09%0D%0Aü\tview\tBtrue",
                "\tqty_pools\tgone\t-",
            ),
        ];
        assert_eq!(lines, want);
        // The owned-entry encoder writes the same bytes back.
        for line in &lines {
            assert_eq!(encode_entry(&decode_entry(line, 0).unwrap()), *line);
        }
    }

    #[test]
    fn checkpoint_line_roundtrips() {
        let mut other = sample_record();
        other.id = PromiseId(9);
        other.allocations.clear();
        let entry = JournalEntry {
            seq: 41,
            generation: 3,
            op: JournalOp::Checkpoint(CheckpointState {
                next_id: 40,
                live: vec![
                    CheckpointRecord {
                        prepared: false,
                        record: sample_record(),
                    },
                    CheckpointRecord {
                        prepared: true,
                        record: other,
                    },
                ],
                rows: RowImages::new(),
            }),
        };
        let line = encode_entry(&entry);
        assert_eq!(line.split('\t').nth(2), Some("K"));
        assert_eq!(decode_entry(&line, 0).unwrap(), entry);
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let entry = JournalEntry {
            seq: 1,
            generation: 0,
            op: JournalOp::Checkpoint(CheckpointState {
                next_id: 17,
                live: vec![],
                rows: RowImages::new(),
            }),
        };
        assert_eq!(decode_entry(&encode_entry(&entry), 0).unwrap(), entry);
    }

    #[test]
    fn pre_lease_checkpoint_lines_still_decode() {
        // A checkpoint with no rows ends at its last record, as the
        // checkpoints written before `W` existed did, and decodes back.
        let old = JournalEntry {
            seq: 2,
            generation: 1,
            op: JournalOp::Checkpoint(CheckpointState {
                next_id: 9,
                live: vec![CheckpointRecord {
                    prepared: false,
                    record: sample_record(),
                }],
                rows: RowImages::new(),
            }),
        };
        let line = encode_entry(&old);
        assert!(!line.ends_with("\t0"), "an empty row group must be omitted");
        assert_eq!(decode_entry(&line, 0).unwrap(), old);
    }

    #[test]
    fn install_checkpoint_swaps_whole_journal() {
        let j = PromiseJournal::new();
        j.append(JournalOp::Grant(sample_record()));
        j.append(JournalOp::Release(PromiseId(7)));
        j.bump_generation();
        let stats = j.install_checkpoint(7, &[], &RowImages::new());
        assert_eq!(stats.dropped, 2);
        assert_eq!(stats.seq, 3);
        assert_eq!(j.len(), 1);
        // Sequence numbers keep ascending across the swap, and the
        // generation survives it.
        assert_eq!(j.append(JournalOp::Expire(PromiseId(9))), 4);
        let entries = j.entries().unwrap();
        assert!(matches!(entries[0].op, JournalOp::Checkpoint(_)));
        assert_eq!(entries[0].generation, 1);
        // A reload resumes counters past the checkpoint.
        let reloaded = PromiseJournal::from_lines(&j.lines()).unwrap();
        assert_eq!(reloaded.append(JournalOp::Release(PromiseId(9))), 5);
    }

    #[test]
    fn torn_trailing_line_is_truncated() {
        let j = PromiseJournal::new();
        j.append(JournalOp::Grant(sample_record()));
        j.append(JournalOp::Release(PromiseId(7)));
        let mut lines = j.lines();
        let tail = lines.last_mut().unwrap();
        tail.truncate(tail.len() / 2);
        let (reloaded, torn) = PromiseJournal::from_lines_tolerant(&lines).unwrap();
        let torn = torn.expect("torn tail reported");
        assert_eq!(torn.line, 1);
        assert_eq!(reloaded.len(), 1);
        // The truncated record is gone; the next append reuses its seq.
        assert_eq!(reloaded.append(JournalOp::Release(PromiseId(7))), 2);
    }

    #[test]
    fn torn_interior_line_is_still_an_error() {
        let j = PromiseJournal::new();
        j.append(JournalOp::Grant(sample_record()));
        j.append(JournalOp::Release(PromiseId(7)));
        let mut lines = j.lines();
        lines[0].truncate(4);
        assert!(PromiseJournal::from_lines_tolerant(&lines).is_err());
    }

    #[test]
    fn intact_journal_loads_tolerantly_with_no_torn_report() {
        let j = PromiseJournal::new();
        j.append(JournalOp::Grant(sample_record()));
        let (reloaded, torn) = PromiseJournal::from_lines_tolerant(&j.lines()).unwrap();
        assert!(torn.is_none());
        assert_eq!(reloaded.len(), 1);
    }

    #[test]
    fn segment_shipping_replicates_a_journal() {
        let leader = PromiseJournal::new();
        let follower = PromiseJournal::new();
        assert_eq!(leader.tip_seq(), 0);
        assert!(leader.segment_after(0).is_empty());

        leader.append(JournalOp::Grant(sample_record()));
        leader.append(JournalOp::Release(PromiseId(7)));
        let acked = follower.apply_segment(&leader.segment_after(0)).unwrap();
        assert_eq!(acked, leader.tip_seq());
        assert_eq!(follower.lines(), leader.lines());

        // Incremental ship: only the new tail crosses the wire.
        leader.append(JournalOp::Expire(PromiseId(7)));
        let segment = leader.segment_after(acked);
        assert_eq!(segment.len(), 1);
        let acked = follower.apply_segment(&segment).unwrap();
        assert_eq!(acked, 3);
        assert_eq!(follower.lines(), leader.lines());
    }

    #[test]
    fn apply_segment_is_idempotent_under_resend() {
        let leader = PromiseJournal::new();
        let follower = PromiseJournal::new();
        leader.append(JournalOp::Grant(sample_record()));
        leader.append(JournalOp::Release(PromiseId(7)));
        let segment = leader.segment_after(0);
        follower.apply_segment(&segment).unwrap();
        // At-least-once delivery: the duplicate is skipped wholesale.
        let acked = follower.apply_segment(&segment).unwrap();
        assert_eq!(acked, 2);
        assert_eq!(follower.lines(), leader.lines());
        // And the follower can keep appending from the shipped tip.
        assert_eq!(follower.append(JournalOp::Expire(PromiseId(7))), 3);
    }

    #[test]
    fn segment_after_compaction_ships_checkpoint_plus_tail() {
        let leader = PromiseJournal::new();
        let follower = PromiseJournal::new();
        leader.append(JournalOp::Grant(sample_record()));
        let acked = follower.apply_segment(&leader.segment_after(0)).unwrap();
        assert_eq!(acked, 1);

        // Leader compacts: history folds into a K record with seq 4, then
        // keeps appending. The follower last acked seq 1, which no longer
        // exists leader-side — the segment is the checkpoint plus tail.
        leader.append(JournalOp::Release(PromiseId(7)));
        leader.append(JournalOp::Grant(sample_record()));
        leader.install_checkpoint(9, &[(false, &sample_record())], &RowImages::new());
        // Encoding from borrowed records writes the same bytes as encoding
        // the owned entry a decoder hands back.
        assert_eq!(
            leader.lines(),
            vec![encode_entry(&JournalEntry {
                seq: 4,
                generation: 0,
                op: JournalOp::Checkpoint(CheckpointState {
                    next_id: 9,
                    live: vec![CheckpointRecord {
                        prepared: false,
                        record: sample_record(),
                    }],
                    rows: RowImages::new(),
                }),
            })]
        );
        leader.append(JournalOp::Expire(PromiseId(7)));
        let segment = leader.segment_after(acked);
        assert_eq!(segment.len(), 2, "checkpoint + tail");
        let acked = follower.apply_segment(&segment).unwrap();
        assert_eq!(acked, leader.tip_seq());
        // The shipped checkpoint truncated the follower's stale prefix.
        assert_eq!(follower.lines(), leader.lines());
        let reloaded = PromiseJournal::from_lines(&follower.lines()).unwrap();
        assert_eq!(reloaded.append(JournalOp::Release(PromiseId(8))), 6);
    }

    #[test]
    fn apply_segment_rejects_corrupt_lines() {
        let follower = PromiseJournal::new();
        let err = follower.apply_segment(&["garbage"]).unwrap_err();
        assert_eq!(err.line, 0);
        assert!(follower.is_empty(), "corrupt segment must not half-apply");
    }

    #[test]
    fn flush_all_batches_pending_appends_into_one_write() {
        let journal = PromiseJournal::new();
        assert_eq!(journal.flushed_seq(), 0);
        assert_eq!(journal.flush_all(), 0, "nothing pending, nothing written");
        assert_eq!(journal.flush_stats(), (0, 0));
        for i in 0..5 {
            journal.append(JournalOp::Release(PromiseId(i)));
        }
        assert_eq!(journal.flushed_seq(), 0, "appends are buffered");
        assert_eq!(journal.flush_all(), 5);
        assert_eq!(journal.flushed_seq(), 5);
        // Five records rode one write: the group-commit amortization.
        assert_eq!(journal.flush_stats(), (1, 5));
        assert_eq!(journal.flush_all(), 5, "idempotent at the tip");
        assert_eq!(journal.flush_stats(), (1, 5));
    }

    #[test]
    fn checkpoint_swap_counts_as_a_durable_write() {
        let journal = PromiseJournal::new();
        journal.append(JournalOp::Release(PromiseId(1)));
        journal.append(JournalOp::Release(PromiseId(2)));
        let stats = journal.install_checkpoint(3, &[], &RowImages::new());
        assert_eq!(journal.flushed_seq(), stats.seq);
        let (writes, records) = journal.flush_stats();
        assert_eq!(writes, 1);
        assert_eq!(records, 3, "two folded appends plus the K line");
    }

    #[test]
    fn rebuilt_and_replicated_journals_start_flushed() {
        let leader = PromiseJournal::new();
        leader.append(JournalOp::Release(PromiseId(1)));
        leader.append(JournalOp::Release(PromiseId(2)));
        let reloaded = PromiseJournal::from_lines(&leader.lines()).unwrap();
        assert_eq!(reloaded.flushed_seq(), reloaded.tip_seq());
        let follower = PromiseJournal::new();
        follower.apply_segment(&leader.segment_after(0)).unwrap();
        assert_eq!(follower.flushed_seq(), follower.tip_seq());
    }
}
