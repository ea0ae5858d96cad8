//! Values and records stored by the resource manager.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// A single typed field value.
///
/// The promise layer compares values when evaluating predicates, so `Value`
/// defines a *partial* order: values of the same variant compare normally,
/// values of different variants do not compare at all (predicate evaluation
/// treats that as "predicate not satisfied" rather than a panic).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// 64-bit signed integer (quantities, balances, floors, rank tiers).
    Int(i64),
    /// Boolean flag (e.g. `view`, `smoking`).
    Bool(bool),
    /// UTF-8 string (identifiers, statuses, categories).
    Str(String),
}

impl Value {
    /// Returns the integer payload, if this is an `Int`.
    fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Compares two values of the same variant; `None` across variants.
    pub fn partial_cmp_same(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A record: an ordered map from field name to [`Value`].
///
/// Records are the unit of locking and of undo logging. Field order is
/// deterministic (BTreeMap) so debug output and codecs are stable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Record {
    fields: BTreeMap<String, Value>,
}

impl Record {
    /// Creates an empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style field insertion.
    pub fn with(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.fields.insert(name.to_owned(), value.into());
        self
    }

    /// Sets a field, replacing any previous value.
    pub fn set(&mut self, name: &str, value: impl Into<Value>) {
        let value = value.into();
        match self.fields.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                self.fields.insert(name.to_owned(), value);
            }
        }
    }

    /// Gets a field by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.get(name)
    }

    /// Gets an integer field by name.
    pub fn int(&self, name: &str) -> Option<i64> {
        self.fields.get(name).and_then(Value::as_int)
    }

    /// Gets a boolean field by name.
    pub fn bool(&self, name: &str) -> Option<bool> {
        self.fields.get(name).and_then(Value::as_bool)
    }

    /// Gets a string field by name.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.fields.get(name).and_then(Value::as_str)
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterates over `(name, value)` pairs in field-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors_match_variant() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_bool(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Str("x".into()).as_int(), None);
    }

    #[test]
    fn same_variant_values_are_ordered() {
        assert_eq!(
            Value::Int(1).partial_cmp_same(&Value::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Str("b".into()).partial_cmp_same(&Value::Str("a".into())),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Bool(true).partial_cmp_same(&Value::Bool(true)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn cross_variant_values_do_not_compare() {
        assert_eq!(Value::Int(1).partial_cmp_same(&Value::Bool(true)), None);
        assert_eq!(
            Value::Str("1".into()).partial_cmp_same(&Value::Int(1)),
            None
        );
    }

    #[test]
    fn record_builder_and_typed_getters() {
        let r = Record::new()
            .with("qty", 10i64)
            .with("view", true)
            .with("status", "available");
        assert_eq!(r.int("qty"), Some(10));
        assert_eq!(r.bool("view"), Some(true));
        assert_eq!(r.str("status"), Some("available"));
        assert_eq!(r.int("view"), None);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn record_set_overwrites() {
        let mut r = Record::new().with("qty", 1i64);
        r.set("qty", 2i64);
        assert_eq!(r.int("qty"), Some(2));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn record_display_is_deterministic() {
        let r = Record::new().with("b", 2i64).with("a", 1i64);
        assert_eq!(r.to_string(), "{a=1, b=2}");
    }

    #[test]
    fn value_from_conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(String::from("s")), Value::Str("s".into()));
    }
}
