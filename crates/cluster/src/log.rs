//! The coordinator's durable decision log.
//!
//! A cross-shard transaction is decided by exactly one record: `Begin` is
//! written before any prepare is sent, and the *commit point* is the
//! `Commit` record — written before any commit resolution goes out. A
//! recovering coordinator applies presumed abort: `Begin` with no decision
//! means no shard can have been told to commit, so every hold the prepare
//! fan-out may have left behind is safe to abort; `Commit` means some
//! shards may or may not have heard, so commits are resent (shard-side
//! resolution is idempotent).
//!
//! The log is a [`LineStore`], the store the promise journal writes
//! through, and its `B`/`C`/`A` records are written and read with the
//! journal's field codec (`core/src/journal.rs`, "Record format").

use std::collections::{HashMap, HashSet};

use promises_core::{push_num, push_text, FieldReader, JournalError, LineStore};

/// Identity of one cross-shard transaction: the client and the original
/// (pre-split) request id.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId {
    /// Requesting client.
    pub client: String,
    /// The client's request id for the whole multi-predicate request.
    pub request: String,
}

impl TxnId {
    /// Creates a transaction id.
    pub fn new(client: impl Into<String>, request: impl Into<String>) -> Self {
        Self {
            client: client.into(),
            request: request.into(),
        }
    }

    /// The sub-request id this transaction uses on `shard` — the original
    /// request id tagged with the shard, so shard-level `(client,
    /// request)` dedup stays airtight per shard while the coordinator owns
    /// the cluster-wide key.
    pub fn sub_request(&self, shard: usize) -> String {
        format!("{}@s{shard}", self.request)
    }
}

/// One coordinator log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordRecord {
    /// Prepare fan-out is about to start for `txn` over `shards`.
    Begin {
        /// The transaction.
        txn: TxnId,
        /// Participating shard indices, ascending.
        shards: Vec<usize>,
    },
    /// The commit point: every shard prepared and the grant is decided.
    Commit {
        /// The transaction.
        txn: TxnId,
    },
    /// The transaction aborted (a shard rejected, a prepare was lost, or
    /// recovery presumed abort).
    Abort {
        /// The transaction.
        txn: TxnId,
    },
}

impl CoordRecord {
    fn encode(&self, out: &mut String) {
        match self {
            CoordRecord::Begin { txn, shards } => encode_record(out, "\tB", txn, Some(shards)),
            CoordRecord::Commit { txn } => encode_record(out, "\tC", txn, None),
            CoordRecord::Abort { txn } => encode_record(out, "\tA", txn, None),
        }
    }

    /// Reads what follows a line's `seq` and `gen` fields: the inverse of
    /// [`CoordRecord::encode`].
    fn decode(r: &mut FieldReader<'_>) -> Result<Self, JournalError> {
        let tag = r.next("record tag")?;
        if !matches!(tag, "B" | "C" | "A") {
            return Err(r.error(format!("unknown coordinator record tag {tag:?}")));
        }
        let client = r.text("client")?.into_owned();
        let request = r.text("request")?.into_owned();
        let txn = TxnId { client, request };
        let rec = match tag {
            "B" => {
                let (n, room) = r.count("shard count")?;
                let mut shards: Vec<usize> = Vec::with_capacity(room);
                for _ in 0..n {
                    let shard = r.next_u64("shard")? as usize;
                    if shards.last().is_some_and(|&prev| prev >= shard) {
                        return Err(r.error(format!("shard list not ascending at {shard}")));
                    }
                    shards.push(shard);
                }
                CoordRecord::Begin { txn, shards }
            }
            "C" => CoordRecord::Commit { txn },
            _ => CoordRecord::Abort { txn },
        };
        let end = r.next("end mark")?;
        if end != "." {
            return Err(r.error(format!("bad end mark {end:?}")));
        }
        r.end()?;
        Ok(rec)
    }

    /// The transaction this record is about.
    pub fn txn(&self) -> &TxnId {
        match self {
            CoordRecord::Begin { txn, .. }
            | CoordRecord::Commit { txn }
            | CoordRecord::Abort { txn } => txn,
        }
    }
}

/// One record: its tag, the transaction's client and request, a `B`'s
/// shard count and shards, and the end mark `.`, which lets no cut line
/// read as a shorter request or shard list.
fn encode_record(out: &mut String, tag: &str, txn: &TxnId, shards: Option<&[usize]>) {
    out.push_str(tag);
    push_text(out, &txn.client);
    push_text(out, &txn.request);
    if let Some(shards) = shards {
        push_num(out, shards.len() as u64);
        for &shard in shards {
            push_num(out, shard as u64);
        }
    }
    out.push_str("\t.");
}

/// Decodes line `i` of the log.
fn decode_line(raw: &str, i: usize) -> Result<CoordRecord, JournalError> {
    let mut r = FieldReader::new(raw, i);
    r.head()?;
    CoordRecord::decode(&mut r)
}

/// The append-only coordinator log.
#[derive(Default)]
pub struct CoordinatorLog {
    store: LineStore,
}

impl CoordinatorLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a log from dumped lines, as a coordinator reads its file
    /// back. Every line must decode.
    pub fn from_lines<S: AsRef<str>>(lines: &[S]) -> Result<Self, JournalError> {
        match LineStore::from_lines_tolerant(lines, |r| CoordRecord::decode(r).map(drop))? {
            (store, None) => Ok(Self { store }),
            (_, Some(torn)) => Err(torn),
        }
    }

    /// The raw encoded lines (what would be written to a log file).
    pub fn lines(&self) -> Vec<String> {
        self.store.lines()
    }

    /// Appends one record and returns once a flush covers it (the
    /// in-memory stand-in for append+fsync).
    pub fn append(&self, rec: CoordRecord) {
        self.store.append_with(|out| rec.encode(out));
        self.store.flush_all(0);
    }

    /// Decodes every record, oldest first.
    pub fn entries(&self) -> Result<Vec<CoordRecord>, JournalError> {
        self.store.read(|lines| {
            let numbered = lines.iter().enumerate();
            numbered.map(|(i, l)| decode_line(l, i)).collect()
        })
    }

    /// Replays the log into per-transaction outcomes: transactions with a
    /// `Begin` but no decision (the in-doubt set recovery must presume
    /// aborted), and transactions whose decision was `Commit` (whose
    /// resolutions recovery must resend).
    ///
    /// A transaction may be Begun more than once (a crashed attempt
    /// retried under the same request id resolves to the same per-shard
    /// holds via sub-request dedup), so outcomes fold per *transaction*,
    /// and `Commit` is sticky: once any attempt committed, the holds are
    /// granted state and no later record may demote them to abortable.
    ///
    /// An `Abort` for a transaction with no `Begin` in the log is a
    /// tolerated no-op — it can legitimately appear after compaction
    /// dropped the aborted transaction's records, or when a racing
    /// recovery pass double-logged — but it is never swallowed silently:
    /// the orphan is reported in [`LogSummary::orphan_aborts`] so audits
    /// can count it.
    pub fn replay(&self) -> Result<LogSummary, JournalError> {
        self.store.read(summarize)
    }

    /// Number of records currently in the log.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Compacts the log to the minimal record set replay needs, dropping
    /// dead history:
    ///
    /// * **Aborted** transactions vanish entirely — presumed abort makes
    ///   absence mean abort, and their holds were already freed when the
    ///   `Abort` was logged, so replay treats a missing transaction and an
    ///   aborted one identically.
    /// * **Committed** transactions whose commit resolutions every shard
    ///   has acknowledged (`resolved`) vanish — no recovery pass will ever
    ///   need to resend them.
    /// * **In-doubt** transactions keep a `Begin` (presumed-abort fodder);
    ///   **unacknowledged commits** keep `Begin` + `Commit` (sticky-commit
    ///   resend fodder). First-seen order is preserved.
    ///
    /// The rewrite happens atomically under the log lock. Replay of the
    /// compacted log yields the same [`LogSummary`] (minus orphan aborts,
    /// which are dead history by definition) as the uncompacted one.
    pub fn compact(&self, resolved: &HashSet<TxnId>) -> Result<LogCompaction, JournalError> {
        self.store.rewrite(|lines, out| {
            let summary = summarize(lines)?;
            let (mut kept, mut dropped_resolved) = (0, 0);
            for (txn, shards) in &summary.undecided {
                out.line(|line| encode_record(line, "\tB", txn, Some(shards)));
                kept += 1;
            }
            for (txn, shards) in &summary.committed {
                if resolved.contains(txn) {
                    dropped_resolved += 1;
                    continue;
                }
                out.line(|line| encode_record(line, "\tB", txn, Some(shards)));
                out.line(|line| encode_record(line, "\tC", txn, None));
                kept += 2;
            }
            Ok(LogCompaction {
                dropped: lines.len().saturating_sub(kept),
                dropped_resolved,
                kept_txns: summary.undecided.len() + summary.committed.len() - dropped_resolved,
            })
        })
    }
}

/// Folds the log's lines into per-transaction outcomes; see
/// [`CoordinatorLog::replay`].
fn summarize(lines: &[String]) -> Result<LogSummary, JournalError> {
    #[derive(PartialEq)]
    enum Status {
        Pending,
        Committed,
        Aborted,
    }
    let mut order: Vec<TxnId> = Vec::new();
    let mut state: HashMap<TxnId, (Vec<usize>, Status)> = HashMap::new();
    let mut orphan_aborts: Vec<TxnId> = Vec::new();
    for (i, raw) in lines.iter().enumerate() {
        match decode_line(raw, i)? {
            CoordRecord::Begin { txn, shards } => {
                if !state.contains_key(&txn) {
                    order.push(txn.clone());
                }
                let entry = state.entry(txn).or_insert((vec![], Status::Pending));
                entry.0 = shards;
                // A new attempt after an abort is pending again; a
                // committed transaction stays committed.
                if entry.1 == Status::Aborted {
                    entry.1 = Status::Pending;
                }
            }
            CoordRecord::Commit { txn } => {
                if let Some(entry) = state.get_mut(&txn) {
                    entry.1 = Status::Committed;
                }
            }
            CoordRecord::Abort { txn } => match state.get_mut(&txn) {
                Some(entry) => {
                    if entry.1 != Status::Committed {
                        entry.1 = Status::Aborted;
                    }
                }
                None => orphan_aborts.push(txn),
            },
        }
    }
    let mut summary = LogSummary {
        undecided: Vec::new(),
        committed: Vec::new(),
        orphan_aborts,
    };
    for txn in order {
        match state.remove(&txn) {
            Some((shards, Status::Pending)) => summary.undecided.push((txn, shards)),
            Some((shards, Status::Committed)) => summary.committed.push((txn, shards)),
            _ => {}
        }
    }
    Ok(summary)
}

/// Per-transaction outcome of a log replay. See [`CoordinatorLog::replay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogSummary {
    /// `Begin` with no decision: presume abort.
    pub undecided: Vec<(TxnId, Vec<usize>)>,
    /// Decided commit: resend resolutions (idempotent shard-side).
    pub committed: Vec<(TxnId, Vec<usize>)>,
    /// `Abort` records with no matching `Begin` — tolerated no-ops, but
    /// surfaced so audits can count them instead of losing them silently.
    pub orphan_aborts: Vec<TxnId>,
}

/// What [`CoordinatorLog::compact`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogCompaction {
    /// Log lines removed by the rewrite.
    pub dropped: usize,
    /// Fully-resolved committed transactions among them.
    pub dropped_resolved: usize,
    /// Transactions still represented after compaction.
    pub kept_txns: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_roundtrip() {
        let recs = vec![
            CoordRecord::Begin {
                txn: TxnId::new("c|1", "r\\9"),
                shards: vec![0, 2],
            },
            CoordRecord::Commit {
                txn: TxnId::new("c|1", "r\\9"),
            },
            CoordRecord::Abort {
                txn: TxnId::new("other", "r2"),
            },
        ];
        let log = CoordinatorLog::new();
        for r in &recs {
            log.append(r.clone());
        }
        assert_eq!(log.entries().unwrap(), recs);
    }

    #[test]
    fn replay_applies_presumed_abort() {
        let log = CoordinatorLog::new();
        let lost = TxnId::new("c", "lost");
        let done = TxnId::new("c", "done");
        let dead = TxnId::new("c", "dead");
        log.append(CoordRecord::Begin {
            txn: lost.clone(),
            shards: vec![0, 1],
        });
        log.append(CoordRecord::Begin {
            txn: done.clone(),
            shards: vec![1, 2],
        });
        log.append(CoordRecord::Commit { txn: done.clone() });
        log.append(CoordRecord::Begin {
            txn: dead.clone(),
            shards: vec![0],
        });
        log.append(CoordRecord::Abort { txn: dead });
        let summary = log.replay().unwrap();
        assert_eq!(summary.undecided, vec![(lost, vec![0, 1])]);
        assert_eq!(summary.committed, vec![(done, vec![1, 2])]);
    }

    #[test]
    fn commit_is_sticky_across_re_begins() {
        // Crash, retry (new Begin), commit, then the OLD attempt's abort
        // arrives from a racing recovery pass: the txn must stay committed.
        let log = CoordinatorLog::new();
        let txn = TxnId::new("c", "r");
        log.append(CoordRecord::Begin {
            txn: txn.clone(),
            shards: vec![0, 1],
        });
        log.append(CoordRecord::Begin {
            txn: txn.clone(),
            shards: vec![0, 1],
        });
        log.append(CoordRecord::Commit { txn: txn.clone() });
        log.append(CoordRecord::Abort { txn: txn.clone() });
        let summary = log.replay().unwrap();
        assert!(summary.undecided.is_empty());
        assert_eq!(summary.committed, vec![(txn, vec![0, 1])]);
    }

    #[test]
    fn sub_request_ids_are_per_shard() {
        let txn = TxnId::new("alice", "r7");
        assert_eq!(txn.sub_request(0), "r7@s0");
        assert_eq!(txn.sub_request(3), "r7@s3");
    }

    #[test]
    fn corrupt_lines_error_out() {
        let err = CoordinatorLog::from_lines(&["1\t0\tZ\tx\ty"])
            .err()
            .unwrap();
        assert_eq!(err.line, 0);
        assert!(err.detail.contains("\"Z\""), "{err}");
    }

    #[test]
    fn orphan_abort_is_a_tolerated_reported_noop() {
        let log = CoordinatorLog::new();
        let live = TxnId::new("c", "live");
        let ghost = TxnId::new("c", "ghost");
        log.append(CoordRecord::Begin {
            txn: live.clone(),
            shards: vec![0],
        });
        log.append(CoordRecord::Abort { txn: ghost.clone() });
        let summary = log.replay().unwrap();
        // The orphan changed nothing…
        assert_eq!(summary.undecided, vec![(live, vec![0])]);
        assert!(summary.committed.is_empty());
        // …but it was counted, not swallowed.
        assert_eq!(summary.orphan_aborts, vec![ghost]);
    }

    #[test]
    fn compact_preserves_replay_semantics() {
        let log = CoordinatorLog::new();
        let lost = TxnId::new("c", "lost");
        let done = TxnId::new("c", "done");
        let dead = TxnId::new("c", "dead");
        log.append(CoordRecord::Begin {
            txn: lost.clone(),
            shards: vec![0, 1],
        });
        log.append(CoordRecord::Begin {
            txn: done.clone(),
            shards: vec![1, 2],
        });
        log.append(CoordRecord::Commit { txn: done.clone() });
        log.append(CoordRecord::Begin {
            txn: dead.clone(),
            shards: vec![0],
        });
        log.append(CoordRecord::Abort { txn: dead });
        let before = log.replay().unwrap();

        // Nothing resolved: aborted history drops, everything else stays.
        let report = log.compact(&HashSet::new()).unwrap();
        assert_eq!(report.dropped, 2, "Begin+Abort of the dead txn");
        assert_eq!(report.dropped_resolved, 0);
        assert_eq!(report.kept_txns, 2);
        let after = log.replay().unwrap();
        assert_eq!(after.undecided, before.undecided);
        assert_eq!(after.committed, before.committed);

        // The commit acked on every shard: its records drop too.
        let resolved: HashSet<TxnId> = [done].into_iter().collect();
        let report = log.compact(&resolved).unwrap();
        assert_eq!(report.dropped_resolved, 1);
        assert_eq!(report.kept_txns, 1);
        let summary = log.replay().unwrap();
        assert_eq!(summary.undecided, vec![(lost, vec![0, 1])]);
        assert!(summary.committed.is_empty());
        assert_eq!(log.len(), 1, "one Begin for the in-doubt txn");
    }

    #[test]
    fn compact_keeps_sticky_commit_for_unacked_txns() {
        // Begin, Begin (retry), Commit, Abort (racing recovery): the txn
        // is committed; compaction must keep it committed and still
        // compress four records to two.
        let log = CoordinatorLog::new();
        let txn = TxnId::new("c", "r");
        log.append(CoordRecord::Begin {
            txn: txn.clone(),
            shards: vec![0, 1],
        });
        log.append(CoordRecord::Begin {
            txn: txn.clone(),
            shards: vec![0, 1],
        });
        log.append(CoordRecord::Commit { txn: txn.clone() });
        log.append(CoordRecord::Abort { txn: txn.clone() });
        let report = log.compact(&HashSet::new()).unwrap();
        assert_eq!(report.dropped, 2);
        assert_eq!(log.len(), 2);
        let summary = log.replay().unwrap();
        assert_eq!(summary.committed, vec![(txn, vec![0, 1])]);
        assert!(summary.undecided.is_empty());
    }

    #[test]
    fn compact_of_empty_log_is_a_noop() {
        let log = CoordinatorLog::new();
        let report = log.compact(&HashSet::new()).unwrap();
        assert_eq!(report, LogCompaction::default());
        assert!(log.is_empty());
    }
}
