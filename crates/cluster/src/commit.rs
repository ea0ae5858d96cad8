//! Group commit: the per-shard durability barrier between "handler
//! finished" and "reply leaves the node".
//!
//! Handled messages append to the journal's sequence-ordered buffer, and
//! the shard's one worker commits once per drained batch: one
//! [`PromiseJournal::flush_all`] for every buffered record and one
//! replication sync, then the batch's replies are released. Whenever
//! messages queue while the worker is busy, their records ride one write —
//! the amortization E19b measures.
//!
//! The barrier *is* the semi-synchronous replication invariant (DESIGN
//! §19): no reply leaves before its records are flushed and shipped. It is
//! *bounded*: with the follower unreachable (the health plane's
//! wedged-follower scenario arms 100% drop on purpose) the batch is
//! released after one failed round, the `stalled` counter records the
//! freshness debt, and the watchdogs — not the data path — own the
//! incident. At the fault sweep's worst 20% drop rate a round failing at
//! all is a 0.2^64 event (see `MAX_SHIP_ATTEMPTS`).

use std::sync::atomic::{AtomicU64, Ordering};

use promises_core::PromiseJournal;

use crate::replica::ReplicationLink;

/// Counters for one shard's lifetime (reset never; readers diff).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Flush+ship rounds the shard led: one per batch that left anything
    /// not yet durable.
    pub batches: u64,
    /// Replies released with the follower still behind their batch after
    /// a full round — the bounded semi-sync give-ups.
    pub stalled: u64,
}

/// The counters behind [`CommitStats`], bumped by the shard worker.
#[derive(Default)]
pub(crate) struct CommitCounters {
    batches: AtomicU64,
    stalled: AtomicU64,
}

impl CommitCounters {
    /// Makes everything the journal holds durable before `replies` replies
    /// leave: flushed, and shipped when a follower is attached. Leads at
    /// most one round, and counts the replies as stalled when that round
    /// could not advance the follower.
    pub(crate) fn commit(
        &self,
        journal: &PromiseJournal,
        link: Option<&ReplicationLink>,
        replies: usize,
    ) {
        let tip = journal.tip_seq();
        let shipped = |link: &ReplicationLink| link.follower().watermark() >= tip;
        if journal.flushed_seq() >= tip && link.is_none_or(shipped) {
            return;
        }
        // Flush before shipping: the follower never holds a record the
        // leader has not written down.
        journal.flush_all();
        self.batches.fetch_add(1, Ordering::Relaxed);
        if let Some(link) = link {
            link.sync();
            if !shipped(link) {
                self.stalled.fetch_add(replies as u64, Ordering::Relaxed);
            }
        }
    }

    /// Lifetime counters (rounds led, replies released behind the follower).
    pub(crate) fn stats(&self) -> CommitStats {
        CommitStats {
            batches: self.batches.load(Ordering::Relaxed),
            stalled: self.stalled.load(Ordering::Relaxed),
        }
    }
}
