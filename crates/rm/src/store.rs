//! The physical record store: named tables of `key -> Record`.
//!
//! Access control (locking) and atomicity (undo) live in the transaction
//! layer; the store itself is a plain map guarded by a mutex and only ever
//! touched while the caller holds the appropriate logical locks.

use std::collections::BTreeMap;
use std::collections::HashMap;

use crate::error::RmError;
use crate::value::Record;

#[derive(Debug, Default)]
pub(crate) struct Store {
    tables: HashMap<String, BTreeMap<String, Record>>,
}

impl Store {
    pub fn create_table(&mut self, name: &str) -> Result<(), RmError> {
        if self.tables.contains_key(name) {
            return Err(RmError::TableExists(name.to_owned()));
        }
        self.tables.insert(name.to_owned(), BTreeMap::new());
        Ok(())
    }

    pub fn get(&self, table: &str, key: &str) -> Result<Option<Record>, RmError> {
        self.get_with(table, key, |rec| rec.cloned())
    }

    /// Lends the record under `key`, if any, to `f`.
    pub fn get_with<R>(
        &self,
        table: &str,
        key: &str,
        f: impl FnOnce(Option<&Record>) -> R,
    ) -> Result<R, RmError> {
        Ok(f(self.table(table)?.get(key)))
    }

    pub fn get_mut(&mut self, table: &str, key: &str) -> Result<Option<&mut Record>, RmError> {
        Ok(self.table_mut(table)?.get_mut(key))
    }

    /// Writes `rec` under `key`, in place when the key is there already.
    pub fn put(&mut self, table: &str, key: &str, rec: Record) -> Result<Option<Record>, RmError> {
        let t = self.table_mut(table)?;
        Ok(match t.get_mut(key) {
            Some(slot) => Some(std::mem::replace(slot, rec)),
            None => t.insert(key.to_owned(), rec),
        })
    }

    pub fn insert(&mut self, table: &str, key: &str, rec: Record) -> Result<(), RmError> {
        let t = self.table_mut(table)?;
        if t.contains_key(key) {
            return Err(RmError::DuplicateKey {
                table: table.to_owned(),
                key: key.to_owned(),
            });
        }
        t.insert(key.to_owned(), rec);
        Ok(())
    }

    pub fn delete(&mut self, table: &str, key: &str) -> Result<Option<Record>, RmError> {
        Ok(self.table_mut(table)?.remove(key))
    }

    /// Lends every record of `table` to `f`, in key order.
    pub fn scan_with(&self, table: &str, mut f: impl FnMut(&str, &Record)) -> Result<(), RmError> {
        self.table(table)?.iter().for_each(|(k, v)| f(k, v));
        Ok(())
    }

    fn table(&self, name: &str) -> Result<&BTreeMap<String, Record>, RmError> {
        self.tables
            .get(name)
            .ok_or_else(|| RmError::NoSuchTable(name.to_owned()))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut BTreeMap<String, Record>, RmError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| RmError::NoSuchTable(name.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_duplicate_table() {
        let mut s = Store::default();
        s.create_table("t").unwrap();
        assert_eq!(s.scan_with("t", |_, _| {}), Ok(()));
        assert_eq!(s.create_table("t"), Err(RmError::TableExists("t".into())));
    }

    #[test]
    fn crud_roundtrip() {
        let mut s = Store::default();
        s.create_table("t").unwrap();
        s.insert("t", "k", Record::new().with("v", 1i64)).unwrap();
        assert_eq!(s.get("t", "k").unwrap().unwrap().int("v"), Some(1));
        let old = s.put("t", "k", Record::new().with("v", 2i64)).unwrap();
        assert_eq!(old.unwrap().int("v"), Some(1));
        let removed = s.delete("t", "k").unwrap();
        assert_eq!(removed.unwrap().int("v"), Some(2));
        assert!(s.get("t", "k").unwrap().is_none());
    }

    #[test]
    fn insert_duplicate_key_fails() {
        let mut s = Store::default();
        s.create_table("t").unwrap();
        s.insert("t", "k", Record::new()).unwrap();
        assert!(matches!(
            s.insert("t", "k", Record::new()),
            Err(RmError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn missing_table_errors() {
        let s = Store::default();
        assert_eq!(s.get("nope", "k"), Err(RmError::NoSuchTable("nope".into())));
    }

    #[test]
    fn scan_is_key_ordered() {
        let mut s = Store::default();
        s.create_table("t").unwrap();
        s.insert("t", "b", Record::new()).unwrap();
        s.insert("t", "a", Record::new()).unwrap();
        let mut keys = Vec::new();
        s.scan_with("t", |k, _| keys.push(k.to_owned())).unwrap();
        assert_eq!(keys, vec!["a", "b"]);
    }
}
