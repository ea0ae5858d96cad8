//! Advisory lease directory: routes grants to the shard whose escrow
//! lease covers them.
//!
//! The durable truth about leases lives in each shard's pool row (`qty`
//! beside `lease`, moved by journalled `W` records; see `promises-core`).
//! The directory is the coordinator's *advisory* cache of per-shard lease
//! headroom: it decides where to send a grant, while the receiving
//! shard's own escrow check (promised ≤ on hand) stays the authority — a
//! stale directory entry costs one extra round trip, never an oversell.
//! The directory also accumulates per-`(pool, shard)` demand counters
//! that the cluster rebalancer drains each cycle to migrate lease
//! headroom toward observed demand.

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::router::fnv1a;

/// Advisory per-shard lease headroom and demand, plus home-shard routing.
#[derive(Debug)]
pub struct LeaseDirectory {
    shards: usize,
    state: Mutex<DirectoryState>,
}

#[derive(Debug, Default)]
struct DirectoryState {
    /// Estimated unpromised lease headroom per `(pool → shard)`. Refreshed
    /// authoritatively by each rebalance cycle, decremented optimistically
    /// when a local grant is routed.
    headroom: HashMap<String, Vec<u64>>,
    /// Demand observed since the last rebalance, per `(pool → shard)`:
    /// every quantity grant attempt notes its per-pool amounts against the
    /// requesting client's home shard, whether or not it was served
    /// locally.
    demand: HashMap<String, Vec<u64>>,
    /// Explicit client → home-shard pins (benchmarks, sweeps); clients
    /// without a pin hash to a stable home.
    homes: HashMap<String, usize>,
}

impl LeaseDirectory {
    /// An empty directory over `shards` shards.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a cluster needs at least one shard");
        Self {
            shards,
            state: Mutex::new(DirectoryState::default()),
        }
    }

    /// Number of shards the directory routes over.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Pins `client`'s home shard (overriding the hash).
    pub fn pin_home(&self, client: &str, shard: usize) {
        assert!(shard < self.shards, "shard {shard} out of range");
        self.state.lock().homes.insert(client.to_owned(), shard);
    }

    /// The shard where `client`'s grants are attempted locally: its pin,
    /// or a stable FNV-1a hash of the client id.
    pub fn home_shard(&self, client: &str) -> usize {
        if let Some(&s) = self.state.lock().homes.get(client) {
            return s;
        }
        (fnv1a(client.as_bytes()) as usize) % self.shards
    }

    /// True if `shard`'s estimated headroom covers every `(pool, amount)`
    /// demand.
    pub fn covers(&self, shard: usize, demands: &[(String, u64)]) -> bool {
        let st = self.state.lock();
        demands.iter().all(|(pool, amount)| {
            st.headroom
                .get(pool)
                .and_then(|per| per.get(shard))
                .is_some_and(|h| *h >= *amount)
        })
    }

    /// Optimistically deducts a locally-routed grant's demand from
    /// `shard`'s headroom estimate (the authoritative refresh happens at
    /// the next rebalance).
    pub fn consume(&self, shard: usize, demands: &[(String, u64)]) {
        let mut st = self.state.lock();
        for (pool, amount) in demands {
            if let Some(h) = st.headroom.get_mut(pool).and_then(|per| per.get_mut(shard)) {
                *h = h.saturating_sub(*amount);
            }
        }
    }

    /// Records observed demand against `shard` for the rebalancer.
    pub fn note_demand(&self, shard: usize, demands: &[(String, u64)]) {
        let shards = self.shards;
        let mut st = self.state.lock();
        for (pool, amount) in demands {
            let per = st
                .demand
                .entry(pool.clone())
                .or_insert_with(|| vec![0; shards]);
            per[shard] = per[shard].saturating_add(*amount);
        }
    }

    /// Sets the authoritative headroom estimate for `(pool, shard)`.
    pub fn set_headroom(&self, pool: &str, shard: usize, value: u64) {
        let shards = self.shards;
        let mut st = self.state.lock();
        let per = st
            .headroom
            .entry(pool.to_owned())
            .or_insert_with(|| vec![0; shards]);
        per[shard] = value;
    }

    /// Drains the per-shard demand counters for `pool` (resets to zero),
    /// returning one entry per shard. Called once per rebalance cycle.
    pub fn take_demand(&self, pool: &str) -> Vec<u64> {
        let shards = self.shards;
        self.state
            .lock()
            .demand
            .remove(pool)
            .unwrap_or_else(|| vec![0; shards])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_shard_is_stable_and_pinnable() {
        let dir = LeaseDirectory::new(4);
        let h = dir.home_shard("client-a");
        assert!(h < 4);
        assert_eq!(h, dir.home_shard("client-a"));
        dir.pin_home("client-a", 3);
        assert_eq!(dir.home_shard("client-a"), 3);
    }

    #[test]
    fn covers_requires_headroom_on_every_pool() {
        let dir = LeaseDirectory::new(2);
        dir.set_headroom("a", 0, 10);
        dir.set_headroom("b", 0, 3);
        let both = vec![("a".to_owned(), 5), ("b".to_owned(), 3)];
        assert!(dir.covers(0, &both));
        assert!(!dir.covers(1, &both), "shard 1 has no headroom");
        let too_much = vec![("a".to_owned(), 5), ("b".to_owned(), 4)];
        assert!(!dir.covers(0, &too_much));
    }

    #[test]
    fn consume_decrements_until_exhausted() {
        let dir = LeaseDirectory::new(1);
        dir.set_headroom("a", 0, 4);
        let d = vec![("a".to_owned(), 3)];
        assert!(dir.covers(0, &d));
        dir.consume(0, &d);
        assert!(dir.covers(0, &[("a".to_owned(), 1)]), "one unit is left");
        assert!(!dir.covers(0, &[("a".to_owned(), 2)]));
        assert!(!dir.covers(0, &d));
    }

    #[test]
    fn demand_accumulates_and_drains() {
        let dir = LeaseDirectory::new(3);
        dir.note_demand(1, &[("a".to_owned(), 2)]);
        dir.note_demand(1, &[("a".to_owned(), 3)]);
        dir.note_demand(2, &[("a".to_owned(), 1)]);
        assert_eq!(dir.take_demand("a"), vec![0, 5, 1]);
        assert_eq!(dir.take_demand("a"), vec![0, 0, 0], "drained");
    }
}
