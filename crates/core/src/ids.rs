//! Identifier newtypes used throughout the promise layer.

use std::fmt;

/// Identifies a granted promise; allocated by the promise manager and
/// returned in the promise response (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PromiseId(pub u64);

impl fmt::Display for PromiseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "promise#{}", self.0)
    }
}

/// Client-chosen identifier correlating a promise request with its
/// response (paper §6 "request identifier" / "promise correlation").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestId(pub String);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for RequestId {
    fn from(s: &str) -> Self {
        RequestId(s.to_owned())
    }
}

/// Identifies a promise client (an application instance).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClientId(pub String);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ClientId {
    fn from(s: &str) -> Self {
        ClientId(s.to_owned())
    }
}

/// The one key a `(client, request)` pair is deduplicated under, in a
/// shard's request index and in the coordinator's: both strings packed
/// into one allocation of exactly their size, the client length-prefixed
/// so that no two pairs share a key (`("ab", "c")` is `2:abc`, `("a",
/// "bc")` is `1:abc`).
pub fn request_key(client: &str, request: &str) -> Box<str> {
    use std::fmt::Write;
    let digits = client.len().checked_ilog10().unwrap_or(0) as usize + 1;
    let mut key = String::with_capacity(digits + 1 + client.len() + request.len());
    write!(key, "{}:", client.len()).expect("writing to a String cannot fail");
    key.push_str(client);
    key.push_str(request);
    key.into_boxed_str()
}

/// Identifies a resource pool: either a pool of interchangeable quantity
/// (anonymous view) or a collection of distinguishable instances
/// (named / property views). See paper §3.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PoolId(pub String);

impl fmt::Display for PoolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for PoolId {
    fn from(s: &str) -> Self {
        PoolId(s.to_owned())
    }
}

impl AsRef<str> for PoolId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Identifies one resource instance within an instance pool (the paper's
/// "named view" identifier, e.g. `room-512` or `seat-24G-QF1-20071008`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub String);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for InstanceId {
    fn from(s: &str) -> Self {
        InstanceId(s.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(PromiseId(3).to_string(), "promise#3");
        assert_eq!(RequestId::from("r1").to_string(), "r1");
        assert_eq!(ClientId::from("c").to_string(), "c");
        assert_eq!(PoolId::from("widgets").to_string(), "widgets");
        assert_eq!(InstanceId::from("room-512").to_string(), "room-512");
    }

    #[test]
    fn ids_hash_and_compare() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(PromiseId(1));
        s.insert(PromiseId(1));
        assert_eq!(s.len(), 1);
        assert!(PromiseId(1) < PromiseId(2));
        assert_eq!(PoolId::from("a"), PoolId::from("a"));
    }
}
