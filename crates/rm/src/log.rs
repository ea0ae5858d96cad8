//! Per-transaction undo logging.
//!
//! The resource manager records a *before image* the first time a
//! transaction touches a record; [`UndoLog::entries_reversed`] replays them
//! newest-first at abort to restore the pre-transaction state. This is what
//! lets the promise manager (paper §8) roll back an application action that
//! turned out to violate an unreleased promise.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use crate::value::Record;

/// Undo log for a single transaction: the before-image of each row it
/// wrote, filed under the row's table and key, so each key is held once
/// and a repeat write finds its row in O(log n).
#[derive(Debug, Default)]
pub struct UndoLog {
    /// Table → key → (touch order, before-image; `None` means the record
    /// did not exist, so undo deletes it).
    rows: BTreeMap<String, BTreeMap<String, (usize, Option<Record>)>>,
    len: usize,
}

/// One row's table, key and before-image.
pub type UndoEntry<'a> = (&'a str, &'a str, &'a Option<Record>);

impl UndoLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the before-image for `(table, key)` unless one was already
    /// captured by this transaction (first-touch wins: the oldest image is
    /// the correct restore target).
    pub fn record(&mut self, table: &str, key: &str, before: Option<Record>) {
        let entry = (self.len, before);
        match self.rows.get_mut(table) {
            Some(keys) if keys.contains_key(key) => return,
            Some(keys) => {
                keys.insert(key.to_owned(), entry);
            }
            None => {
                let mut keys = BTreeMap::new();
                keys.insert(key.to_owned(), entry);
                self.rows.insert(table.to_owned(), keys);
            }
        }
        self.len += 1;
    }

    /// Every row in `(table, key)` order, with the touch order.
    fn entries(&self) -> impl Iterator<Item = (usize, UndoEntry<'_>)> {
        self.rows.iter().flat_map(|(table, keys)| {
            let rows = keys.iter();
            rows.map(move |(key, (at, before))| (*at, (table.as_str(), key.as_str(), before)))
        })
    }

    /// The rows this transaction wrote, in `(table, key)` order.
    pub fn keys(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries().map(|(_, (table, key, _))| (table, key))
    }

    /// Entries newest-first, ready to replay on abort.
    pub fn entries_reversed(&self) -> Vec<UndoEntry<'_>> {
        let mut all: Vec<_> = self.entries().collect();
        all.sort_unstable_by_key(|&(at, _)| Reverse(at));
        all.into_iter().map(|(_, entry)| entry).collect()
    }

    /// Number of distinct records this transaction has modified.
    #[allow(dead_code)] // exercised by tests; kept for diagnostics
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the transaction made no changes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_wins() {
        let mut log = UndoLog::new();
        log.record("t", "k", Some(Record::new().with("v", 1i64)));
        log.record("t", "k", Some(Record::new().with("v", 2i64)));
        assert_eq!(log.len(), 1);
        let (_, _, before) = log.entries_reversed()[0];
        assert_eq!(before.as_ref().unwrap().int("v"), Some(1));
    }

    #[test]
    fn distinct_keys_all_recorded_in_reverse_order() {
        let mut log = UndoLog::new();
        log.record("t", "a", None);
        log.record("t", "b", None);
        log.record("u", "a", None);
        assert_eq!(log.len(), 3);
        let keys: Vec<_> = log
            .entries_reversed()
            .into_iter()
            .map(|(table, key, _)| format!("{table}/{key}"))
            .collect();
        assert_eq!(keys, vec!["u/a", "t/b", "t/a"]);
    }

    #[test]
    fn missing_record_pre_image_is_none() {
        let mut log = UndoLog::new();
        log.record("t", "new", None);
        assert!(log.entries_reversed()[0].2.is_none());
        assert!(!log.is_empty());
    }
}
