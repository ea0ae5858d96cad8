//! Warm-follower replication: journal shipping and fail-over promotion.
//!
//! Each shard leader owns a [`ShardFollower`] — a standby journal that
//! continuously applies shipped segments (the checkpoint-plus-tail stream
//! that compaction already produces, see `PromiseJournal::segment_after`)
//! and acks a replication watermark. Shipping is *semi-synchronous*: the
//! shard server syncs the link once per batch of handled messages, before
//! any of their replies leaves, so anything a client (or the 2PC
//! coordinator) has seen acknowledged is already on the follower. That discipline is what turns
//! "restartable from its own disk" into "available": when fault injection
//! kills the leader, the follower's journal is byte-for-byte the leader's
//! journal, and promotion is just the PR 2/5 recovery path run over the
//! follower's copy plus an epoch-fenced endpoint swap.
//!
//! Replication faults (`repl-drop`, `repl-lag` — see `promises_faults`)
//! degrade *freshness*, never correctness: a dropped shipment is retried
//! within the same sync, a lagged ack leaves the watermark stale for one
//! round trip and the idempotent `apply_segment` absorbs the re-ship.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use promises_core::PromiseJournal;
use promises_faults::{FaultInjector, POINT_REPL_DROP, POINT_REPL_LAG};
use promises_telemetry::Telemetry;

/// Ship retries per sync before giving up. A sync only fails to converge
/// if the drop point fires this many times in a row — at the sweep's
/// worst 20% drop rate that is a 0.2^64 event, so a non-converged sync in
/// practice means the scenario armed a 100% drop rate on purpose.
const MAX_SHIP_ATTEMPTS: usize = 64;

/// The warm standby for one shard: a journal replica plus the acked
/// replication watermark (highest journal seq the standby holds).
pub struct ShardFollower {
    /// The standby's journal copy. On promotion this *becomes* the
    /// shard's journal — the dead leader's disk is assumed lost.
    pub journal: Arc<PromiseJournal>,
    watermark: AtomicU64,
}

impl ShardFollower {
    /// A fresh, empty standby (watermark 0: it has acked nothing).
    pub fn new() -> Self {
        Self {
            journal: Arc::new(PromiseJournal::new()),
            watermark: AtomicU64::new(0),
        }
    }

    /// Highest journal sequence number this follower has acked.
    ///
    /// Acquire pairs with `ack`'s AcqRel `fetch_max`: the group-commit
    /// barrier reads this watermark on the shard worker to decide whether
    /// a batch's replies may leave, and the edge
    /// guarantees that a thread observing watermark `>= seq` also
    /// observes every `apply_segment` write that shipped seq — the
    /// load-bearing happens-before of the semi-sync discipline. (Relaxed
    /// here could let a promotion read a watermark ahead of the journal
    /// lines backing it.)
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    fn ack(&self, seq: u64) {
        self.watermark.fetch_max(seq, Ordering::AcqRel);
    }
}

impl Default for ShardFollower {
    fn default() -> Self {
        Self::new()
    }
}

/// What one [`ReplicationLink::sync`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Journal lines shipped (re-ships after a lagged ack count again).
    pub shipped_lines: usize,
    /// Shipments lost in flight to the `repl-drop` fault point.
    pub dropped_shipments: usize,
    /// Acks delayed by the `repl-lag` fault point (the segment applied,
    /// the watermark stayed stale for one retry).
    pub lagged_acks: usize,
    /// Whether the follower's watermark reached the leader's tip. False
    /// only under a saturated drop rate (see `MAX_SHIP_ATTEMPTS`).
    pub caught_up: bool,
}

/// The shipping channel from one shard leader's journal to its follower.
pub struct ReplicationLink {
    leader: Arc<PromiseJournal>,
    follower: Arc<ShardFollower>,
    telemetry: Arc<Telemetry>,
    shard: usize,
    injector: Mutex<Option<Arc<FaultInjector>>>,
}

impl ReplicationLink {
    /// A link shipping `leader`'s journal to `follower`. `telemetry` is
    /// the cluster registry (lag gauges are labelled `shardN` there).
    pub fn new(
        leader: Arc<PromiseJournal>,
        follower: Arc<ShardFollower>,
        telemetry: Arc<Telemetry>,
        shard: usize,
    ) -> Self {
        Self {
            leader,
            follower,
            telemetry,
            shard,
            injector: Mutex::new(None),
        }
    }

    /// The follower this link feeds.
    pub fn follower(&self) -> Arc<ShardFollower> {
        Arc::clone(&self.follower)
    }

    /// Installs (or clears) the fault injector consulted at the
    /// `repl-drop` / `repl-lag` points.
    pub fn set_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.injector.lock() = injector;
    }

    /// Journal lines the follower has not acked yet (the lag gauge).
    pub fn lag(&self) -> u64 {
        self.leader
            .tip_seq()
            .saturating_sub(self.follower.watermark())
    }

    /// Drives the follower to the leader's current tip: ships the segment
    /// past the acked watermark, retrying dropped shipments and re-shipping
    /// after lagged acks, until caught up (or `MAX_SHIP_ATTEMPTS`). Called
    /// by the shard server's group commit and by the cluster after journal
    /// appends that bypass the bus (expiry pruning, compaction, lease
    /// rebalancing).
    pub fn sync(&self) -> SyncReport {
        let mut report = SyncReport::default();
        // Durability before shipping: the follower must never hold a
        // record the leader has not written down, or a promotion could
        // surface state a leader crash would have erased. One batched
        // flush covers everything buffered.
        self.leader.flush_all();
        let injector = self.injector.lock().clone();
        for _ in 0..MAX_SHIP_ATTEMPTS {
            let watermark = self.follower.watermark();
            let tip = self.leader.tip_seq();
            if watermark >= tip {
                report.caught_up = true;
                break;
            }
            if let Some(inj) = &injector {
                if inj.point_fires(POINT_REPL_DROP) {
                    // The segment was lost in flight; retry from the same
                    // watermark.
                    report.dropped_shipments += 1;
                    continue;
                }
            }
            let segment = self.leader.segment_after(watermark);
            report.shipped_lines += segment.len();
            let acked = self
                .follower
                .journal
                .apply_segment(&segment)
                .expect("segments from an intact leader journal decode");
            if let Some(inj) = &injector {
                if inj.point_fires(POINT_REPL_LAG) {
                    // Applied but the ack is delayed: the watermark stays
                    // stale, the next attempt re-ships and the idempotent
                    // apply skips the duplicates.
                    report.lagged_acks += 1;
                    continue;
                }
            }
            self.follower.ack(acked);
        }
        if report.shipped_lines > 0 {
            self.telemetry
                .add("cluster.repl.shipped_lines", report.shipped_lines as u64);
        }
        if report.dropped_shipments > 0 {
            self.telemetry.add(
                "cluster.repl.dropped_shipments",
                report.dropped_shipments as u64,
            );
        }
        if report.lagged_acks > 0 {
            self.telemetry
                .add("cluster.repl.lagged_acks", report.lagged_acks as u64);
        }
        self.telemetry
            .set_gauge(&format!("cluster.repl.lag.shard{}", self.shard), self.lag());
        // Tip and watermark gauges feed the health plane's
        // stalled-replication watchdog ("tip advances, watermark doesn't")
        // — set on every sync, converged or not, so a wedged link is
        // visible rather than silent.
        self.telemetry.set_gauge(
            &format!("cluster.repl.tip.shard{}", self.shard),
            self.leader.tip_seq(),
        );
        self.telemetry.set_gauge(
            &format!("cluster.repl.watermark.shard{}", self.shard),
            self.follower.watermark(),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promises_core::JournalOp;
    use promises_core::PromiseId;
    use promises_faults::FaultScenario;

    fn link_over(
        leader: &Arc<PromiseJournal>,
    ) -> (ReplicationLink, Arc<ShardFollower>, Arc<Telemetry>) {
        let follower = Arc::new(ShardFollower::new());
        let tel = Telemetry::shared();
        let link = ReplicationLink::new(
            Arc::clone(leader),
            Arc::clone(&follower),
            Arc::clone(&tel),
            0,
        );
        (link, follower, tel)
    }

    #[test]
    fn sync_ships_tail_and_advances_watermark() {
        let leader = Arc::new(PromiseJournal::new());
        let (link, follower, tel) = link_over(&leader);
        assert!(link.sync().caught_up, "empty journal is trivially synced");
        leader.append(JournalOp::Release(PromiseId(1)));
        leader.append(JournalOp::Release(PromiseId(2)));
        let report = link.sync();
        assert!(report.caught_up);
        assert_eq!(report.shipped_lines, 2);
        assert_eq!(follower.watermark(), 2);
        assert_eq!(follower.journal.lines(), leader.lines());
        assert_eq!(link.lag(), 0);
        assert_eq!(tel.snapshot().gauge("cluster.repl.lag.shard0"), 0);
    }

    #[test]
    fn dropped_shipments_are_retried_within_one_sync() {
        let leader = Arc::new(PromiseJournal::new());
        let (link, follower, _tel) = link_over(&leader);
        link.set_injector(Some(Arc::new(FaultInjector::new(
            FaultScenario::quiet(7).with_replication_faults(0.5, 0.5),
        ))));
        for i in 0..32 {
            leader.append(JournalOp::Release(PromiseId(i)));
            let report = link.sync();
            assert!(report.caught_up, "50/50 drop+lag still converges");
        }
        assert_eq!(follower.watermark(), 32);
        assert_eq!(follower.journal.lines(), leader.lines());
    }

    #[test]
    fn saturated_drop_rate_reports_not_caught_up() {
        let leader = Arc::new(PromiseJournal::new());
        let (link, follower, _tel) = link_over(&leader);
        link.set_injector(Some(Arc::new(FaultInjector::new(
            FaultScenario::quiet(7).with_replication_faults(1.0, 0.0),
        ))));
        leader.append(JournalOp::Release(PromiseId(1)));
        let report = link.sync();
        assert!(!report.caught_up);
        assert_eq!(report.dropped_shipments, MAX_SHIP_ATTEMPTS);
        assert_eq!(follower.watermark(), 0);
        assert!(link.lag() > 0);
        // Clearing the fault lets the next sync drain the backlog.
        link.set_injector(None);
        assert!(link.sync().caught_up);
        assert_eq!(follower.journal.lines(), leader.lines());
    }
}
