//! The automatic compaction policy: `maybe_compact` checkpoints a
//! journal only once it holds at least 1 024 records *and* at least four
//! times the live table (DESIGN §14), so a churn-heavy manager stays
//! O(live) while a short or mostly-live journal is left as raw history.

use std::sync::Arc;

use promises_core::{
    ManualClock, PoolSchema, Predicate, PromiseId, PromiseJournal, PromiseManager,
    PromiseRequestSpec,
};
use promises_rm::ResourceManager;

struct Churn {
    pm: PromiseManager,
    journal: Arc<PromiseJournal>,
    next: usize,
}

impl Churn {
    fn new() -> Self {
        let journal = Arc::new(PromiseJournal::new());
        let rm = Arc::new(ResourceManager::new());
        let pm = PromiseManager::new(rm, Arc::new(ManualClock::new()) as _)
            .with_journal(Arc::clone(&journal));
        pm.register_pool(PoolSchema::quantity("widgets"));
        pm.seed_quantity("widgets", 1_000_000).unwrap();
        Self {
            pm,
            journal,
            next: 0,
        }
    }

    /// One granted promise that stays live: one `G` record.
    fn hold(&mut self) -> PromiseId {
        self.next += 1;
        let spec = PromiseRequestSpec::new(format!("r{}", self.next).as_str(), "churn")
            .predicate(Predicate::qty_at_least("widgets", 1));
        let resp = self.pm.request(spec).unwrap();
        resp.decision.granted_id().expect("grant")
    }

    /// A grant and its release: two records, live count unchanged.
    fn cycle(&mut self) {
        let id = self.hold();
        self.pm.release(id).unwrap();
    }

    /// Appends records until the journal is exactly `len` long.
    fn fill_to(&mut self, len: usize) {
        while self.journal.len() < len {
            if len - self.journal.len() >= 2 {
                self.cycle();
            } else {
                self.hold();
            }
        }
        assert_eq!(self.journal.len(), len);
    }
}

#[test]
fn maybe_compact_waits_for_1024_records() {
    let mut c = Churn::new();
    c.fill_to(1_023);
    assert!(c.pm.live_count() <= 1, "almost all history is dead");
    assert!(
        c.pm.maybe_compact().unwrap().is_none(),
        "1 023 records stay"
    );
    assert_eq!(c.journal.len(), 1_023);

    c.fill_to(1_024);
    let report =
        c.pm.maybe_compact()
            .unwrap()
            .expect("1 024 records compact");
    assert_eq!(report.live, c.pm.live_count());
    assert_eq!(c.journal.len(), 1, "one checkpoint record is left");
}

#[test]
fn maybe_compact_waits_for_four_times_the_live_table() {
    let mut c = Churn::new();
    for _ in 0..300 {
        c.hold();
    }
    let due = 4 * (c.pm.live_count() + 1);
    while c.journal.len() + 2 < due {
        c.cycle();
    }
    assert!(
        c.journal.len() >= 1_024,
        "the record threshold alone is met"
    );
    assert!(
        c.pm.maybe_compact().unwrap().is_none(),
        "{} records under 4 × {} live stay",
        c.journal.len(),
        c.pm.live_count()
    );

    c.cycle();
    assert!(c.journal.len() >= due);
    assert!(c.pm.maybe_compact().unwrap().is_some(), "4× live compacts");
    assert_eq!(c.journal.len(), 1);
    assert_eq!(c.pm.live_count(), 300, "compaction keeps every live hold");
}
