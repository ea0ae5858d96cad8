//! Tombstones of promises reaped by expiry, evicted in deadline order.

use std::collections::{BTreeSet, HashMap};

use crate::ids::PromiseId;

/// Ids of promises reaped by expiry, each with the clock time at which its
/// tombstone is dropped. Kept twice — by id for the "expired or unknown?"
/// lookup, by deadline so eviction pops what is due instead of sweeping
/// the whole map on every operation.
#[derive(Debug, Default)]
pub(crate) struct Tombstones {
    evict_at: HashMap<PromiseId, u64>,
    order: BTreeSet<(u64, PromiseId)>,
}

impl Tombstones {
    /// Records that `id` expired; its tombstone lasts until `evict_at`.
    /// Re-inserting an id moves its deadline: the earlier entry is dropped
    /// from the order, so it cannot evict the newer tombstone.
    pub(crate) fn insert(&mut self, id: PromiseId, evict_at: u64) {
        if let Some(stale) = self.evict_at.insert(id, evict_at) {
            self.order.remove(&(stale, id));
        }
        self.order.insert((evict_at, id));
    }

    /// True if `id` expired recently enough to still have a tombstone.
    pub(crate) fn contains(&self, id: PromiseId) -> bool {
        self.evict_at.contains_key(&id)
    }

    /// Number of tombstones held.
    pub(crate) fn len(&self) -> usize {
        self.evict_at.len()
    }

    /// Drops every tombstone whose deadline is at or before `now`.
    pub(crate) fn evict_due(&mut self, now: u64) {
        while let Some(&(at, id)) = self.order.first() {
            if at > now {
                break;
            }
            self.order.pop_first();
            self.evict_at.remove(&id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_only_what_is_due() {
        let mut t = Tombstones::default();
        t.insert(PromiseId(1), 10);
        t.insert(PromiseId(2), 20);
        t.insert(PromiseId(3), 20);
        t.evict_due(9);
        assert_eq!(t.len(), 3);
        t.evict_due(10);
        assert!(!t.contains(PromiseId(1)), "deadline is inclusive");
        assert!(t.contains(PromiseId(2)) && t.contains(PromiseId(3)));
        t.evict_due(u64::MAX);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn reinserted_id_outlives_its_stale_deadline() {
        let mut t = Tombstones::default();
        t.insert(PromiseId(7), 10);
        t.insert(PromiseId(7), 50);
        assert_eq!(t.len(), 1);
        t.evict_due(10);
        assert!(t.contains(PromiseId(7)), "stale entry must not evict it");
        t.evict_due(50);
        assert!(!t.contains(PromiseId(7)));
    }
}
