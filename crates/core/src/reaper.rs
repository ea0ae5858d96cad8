//! Background expiry reaper.
//!
//! Every promise operation already prunes expired promises lazily, but a
//! manager that receives no traffic would keep expired promises in its
//! table forever. The reaper is the degraded-mode companion (§6:
//! promises "can be discarded once the expiration time has passed"): a
//! background thread that calls [`PromiseManager::prune_expired`] on a
//! fixed interval so capacity is returned to the pools even when no
//! client is driving the manager.
//!
//! The same cadence drives journal compaction: each tick also calls
//! [`PromiseManager::maybe_compact`], so a long-lived manager's journal is
//! checkpointed once history outgrows the live table — the log-truncation
//! discipline that keeps recovery O(live promises) — without any
//! foreground operation paying for the checkpoint write.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::manager::PromiseManager;

/// A background thread that periodically reaps expired promises.
///
/// Stops (and joins the thread) on [`ExpiryReaper::stop`] or on drop.
pub struct ExpiryReaper {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ExpiryReaper {
    /// Spawns a reaper that prunes `pm` every `interval`.
    pub fn start(pm: Arc<PromiseManager>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                // Sleep in short slices so stop() returns promptly even
                // with a long reap interval.
                let mut remaining = interval;
                while !flag.load(Ordering::Relaxed) && remaining > Duration::ZERO {
                    let slice = remaining.min(Duration::from_millis(10));
                    std::thread::sleep(slice);
                    remaining = remaining.saturating_sub(slice);
                }
                if flag.load(Ordering::Relaxed) {
                    break;
                }
                // Pruning failures (e.g. injected storage faults) are
                // non-fatal: the next tick — or any foreground operation's
                // lazy prune — retries.
                let _ = pm.prune_expired();
                // Compaction is likewise best-effort: an armed crash or a
                // skipped threshold just leaves the journal for next tick.
                let _ = pm.maybe_compact();
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the reaper thread to exit and joins it.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ExpiryReaper {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::manager::{PromiseManager, PromiseRequestSpec};
    use crate::predicate::Predicate;
    use crate::schema::PoolSchema;
    use promises_rm::ResourceManager;

    #[test]
    fn reaper_prunes_without_foreground_traffic() {
        let rm = Arc::new(ResourceManager::new());
        let clock = Arc::new(ManualClock::new());
        let pm = Arc::new(PromiseManager::new(
            Arc::clone(&rm),
            clock.clone() as Arc<dyn crate::clock::Clock>,
        ));
        pm.register_pool(PoolSchema::quantity("widgets"));
        pm.seed_quantity("widgets", 10).unwrap();
        pm.request(
            PromiseRequestSpec::new("r1", "c1")
                .predicate(Predicate::qty_at_least("widgets", 4))
                .duration_ms(50),
        )
        .unwrap();
        assert_eq!(pm.live_count(), 1);

        let mut reaper = ExpiryReaper::start(Arc::clone(&pm), Duration::from_millis(5));
        clock.advance(100);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pm.live_count() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        reaper.stop();
        assert_eq!(pm.live_count(), 0, "reaper should have pruned the expiry");
    }

    #[test]
    fn reaper_compacts_an_outgrown_journal() {
        let rm = Arc::new(ResourceManager::new());
        let clock = Arc::new(ManualClock::new());
        let journal = Arc::new(crate::journal::PromiseJournal::new());
        let pm = Arc::new(
            PromiseManager::new(
                Arc::clone(&rm),
                clock.clone() as Arc<dyn crate::clock::Clock>,
            )
            .with_journal(Arc::clone(&journal))
            .with_compaction_threshold(8),
        );
        pm.register_pool(PoolSchema::quantity("widgets"));
        pm.seed_quantity("widgets", 10).unwrap();
        for i in 0..6 {
            let resp = pm
                .request(
                    PromiseRequestSpec::new(format!("r{i}").as_str(), "c1")
                        .predicate(Predicate::qty_at_least("widgets", 4)),
                )
                .unwrap();
            pm.release(resp.decision.granted_id().unwrap()).unwrap();
        }
        assert!(journal.len() >= 8, "history built up");

        let mut reaper = ExpiryReaper::start(Arc::clone(&pm), Duration::from_millis(5));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while journal.len() > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        reaper.stop();
        assert_eq!(
            journal.len(),
            1,
            "reaper cadence should have compacted the journal to one checkpoint"
        );
    }

    #[test]
    fn stop_is_prompt_and_idempotent() {
        let rm = Arc::new(ResourceManager::new());
        let pm = Arc::new(PromiseManager::new(
            rm,
            Arc::new(ManualClock::new()) as Arc<dyn crate::clock::Clock>,
        ));
        let mut reaper = ExpiryReaper::start(pm, Duration::from_secs(3600));
        let started = std::time::Instant::now();
        reaper.stop();
        reaper.stop();
        assert!(started.elapsed() < Duration::from_secs(1));
    }
}
