//! A map whose entries are evicted in deadline order.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// Entries that each live until a deadline (a clock time), kept twice: by
/// key for lookup, and by `(deadline, key)` so eviction pops what is due
/// from the front instead of sweeping the whole map. The order half owns
/// the value; a key that is cheap to clone (an id, an `Arc<str>`) is then
/// stored once and shared by both halves.
#[derive(Debug)]
pub struct DeadlineMap<K, V> {
    deadline: HashMap<K, u64>,
    order: BTreeMap<(u64, K), V>,
}

impl<K, V> Default for DeadlineMap<K, V> {
    fn default() -> Self {
        Self {
            deadline: HashMap::new(),
            order: BTreeMap::new(),
        }
    }
}

impl<K: Clone + Hash + Ord, V> DeadlineMap<K, V> {
    /// Holds `value` under `key` until `deadline`. Re-inserting a key moves
    /// its deadline and replaces its value: the earlier entry leaves the
    /// order, so it cannot evict the newer one.
    pub fn insert(&mut self, key: K, deadline: u64, value: V) {
        if let Some((old, stale)) = self.deadline.remove_entry(&key) {
            self.order.remove(&(stale, old));
        }
        self.order.insert((deadline, key.clone()), value);
        self.deadline.insert(key, deadline);
    }

    /// The value held under `key`, if it has not been evicted.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (key, &deadline) = self.deadline.get_key_value(key)?;
        self.order.get(&(deadline, key.clone()))
    }

    /// True if `key` is held.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.deadline.contains_key(key)
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.deadline.len()
    }

    /// True if nothing is held.
    pub fn is_empty(&self) -> bool {
        self.deadline.is_empty()
    }

    /// Drops every entry whose deadline is at or before `now`.
    pub fn evict_due(&mut self, now: u64) {
        while let Some(due) = self.order.first_entry() {
            if due.key().0 > now {
                break;
            }
            let ((_, key), _) = due.remove_entry();
            self.deadline.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PromiseId;

    #[test]
    fn evicts_only_what_is_due() {
        let mut t = DeadlineMap::default();
        t.insert(PromiseId(1), 10, ());
        t.insert(PromiseId(2), 20, ());
        t.insert(PromiseId(3), 20, ());
        t.evict_due(9);
        assert_eq!(t.len(), 3);
        t.evict_due(10);
        assert!(!t.contains(&PromiseId(1)), "deadline is inclusive");
        assert!(t.contains(&PromiseId(2)) && t.contains(&PromiseId(3)));
        t.evict_due(u64::MAX);
        assert!(t.is_empty());
    }

    #[test]
    fn reinserted_key_outlives_its_stale_deadline() {
        let mut t = DeadlineMap::default();
        t.insert(PromiseId(7), 10, ());
        t.insert(PromiseId(7), 50, ());
        assert_eq!(t.len(), 1);
        t.evict_due(10);
        assert!(t.contains(&PromiseId(7)), "stale entry must not evict it");
        t.evict_due(50);
        assert!(!t.contains(&PromiseId(7)));
    }

    #[test]
    fn reinsert_replaces_the_value() {
        let mut t: DeadlineMap<std::sync::Arc<str>, &str> = DeadlineMap::default();
        t.insert("k".into(), 10, "first");
        t.insert("k".into(), 5, "second");
        assert_eq!((t.len(), t.get("k")), (1, Some(&"second")));
        t.evict_due(5);
        assert_eq!(t.get("k"), None);
    }
}
