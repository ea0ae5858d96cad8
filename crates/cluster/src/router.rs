//! Deterministic pool→shard routing.
//!
//! Ownership is *explicit first, hashed second*: pools registered through
//! the cluster builder get round-robin assignments recorded in the map
//! (so a test can pin a pool to a shard and a rebalancer can move one),
//! and any pool the map has never seen falls back to a stable FNV-1a hash
//! of its name. The map carries an epoch so later rebalancing work can
//! version ownership changes; every reassignment bumps it.

use std::collections::BTreeMap;

use parking_lot::RwLock;

/// The bus endpoint name of shard `index`.
pub fn shard_endpoint(index: usize) -> String {
    format!("shard{index}")
}

/// The bus endpoint name of shard `index` at leadership incarnation
/// `epoch`. Epoch 0 is the bare [`shard_endpoint`] name so a cluster that
/// never fails over keeps its original wire addresses.
pub fn versioned_endpoint(index: usize, epoch: u64) -> String {
    if epoch == 0 {
        shard_endpoint(index)
    } else {
        format!("shard{index}.e{epoch}")
    }
}

/// Epoch-versioned pool→shard ownership map.
#[derive(Debug)]
pub struct ShardMap {
    shards: usize,
    state: RwLock<MapState>,
}

/// Concurrency note (threaded-runtime atomics audit): both epochs below
/// are plain integers *inside* the map's `RwLock`, not atomics — every
/// reader that routes on an epoch also reads the assignments that epoch
/// versions under the same lock acquisition, so the pairing can never
/// tear and no Acquire/Release choreography is needed. Keep it that way:
/// hoisting either epoch into a lock-free atomic would reintroduce the
/// torn-pair race the shard worker's single-owner incarnation rules out.
#[derive(Debug, Default)]
struct MapState {
    epoch: u64,
    assignments: BTreeMap<String, usize>,
    next_round_robin: usize,
    /// Per-shard leadership incarnation: bumped every time a follower is
    /// promoted over a dead leader, which also versions the bus endpoint
    /// name — a stale sender addressing the dead incarnation fails fast
    /// instead of reaching the ghost (epoch fencing).
    node_epochs: Vec<u64>,
}

impl ShardMap {
    /// A map over `shards` shards (at least one) with no explicit
    /// assignments yet.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a cluster needs at least one shard");
        Self {
            shards,
            state: RwLock::new(MapState {
                node_epochs: vec![0; shards],
                ..MapState::default()
            }),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The current ownership epoch (bumped by every explicit assignment).
    pub fn epoch(&self) -> u64 {
        self.state.read().epoch
    }

    /// Explicitly assigns `pool` to `shard`, bumping the epoch.
    pub fn assign(&self, pool: &str, shard: usize) {
        assert!(shard < self.shards, "shard {shard} out of range");
        let mut st = self.state.write();
        st.assignments.insert(pool.to_owned(), shard);
        st.epoch += 1;
    }

    /// Assigns `pool` to the next shard in round-robin order and returns
    /// the chosen shard. Used by the cluster builder so registration order
    /// spreads pools evenly and deterministically.
    pub fn assign_round_robin(&self, pool: &str) -> usize {
        let mut st = self.state.write();
        if let Some(&s) = st.assignments.get(pool) {
            return s;
        }
        let shard = st.next_round_robin % self.shards;
        st.next_round_robin += 1;
        st.assignments.insert(pool.to_owned(), shard);
        st.epoch += 1;
        shard
    }

    /// The shard owning `pool`: its explicit assignment, or the stable
    /// hash fallback for pools the map has never seen.
    pub fn shard_for(&self, pool: &str) -> usize {
        if let Some(&s) = self.state.read().assignments.get(pool) {
            return s;
        }
        (fnv1a(pool.as_bytes()) as usize) % self.shards
    }

    /// The leadership incarnation of `shard` (0 until its first fail-over).
    pub fn node_epoch(&self, shard: usize) -> u64 {
        self.state.read().node_epochs[shard]
    }

    /// Records a leadership change for `shard`: bumps its node epoch (and
    /// the map epoch, so cached routing is invalidated) and returns the new
    /// incarnation. Called by the cluster when promoting a follower.
    pub fn bump_node_epoch(&self, shard: usize) -> u64 {
        assert!(shard < self.shards, "shard {shard} out of range");
        let mut st = self.state.write();
        st.node_epochs[shard] += 1;
        st.epoch += 1;
        st.node_epochs[shard]
    }

    /// The current bus endpoint of `shard`, versioned by its leadership
    /// incarnation: `"shardN"` for the original leader (epoch 0, keeping
    /// every pre-fail-over wire name unchanged) and `"shardN.eK"` after
    /// `K` promotions. Every sender must resolve addresses through this —
    /// never through [`shard_endpoint`] directly — or it will keep
    /// addressing dead incarnations after a fail-over.
    pub fn endpoint_of(&self, shard: usize) -> String {
        let epoch = self.state.read().node_epochs[shard];
        versioned_endpoint(shard, epoch)
    }

    /// Splits `(pool, payload)` pairs into per-shard groups, keyed by
    /// shard index in ascending order (deterministic fan-out order).
    pub fn split_by_shard<T>(
        &self,
        items: impl IntoIterator<Item = (String, T)>,
    ) -> BTreeMap<usize, Vec<T>> {
        let mut groups: BTreeMap<usize, Vec<T>> = BTreeMap::new();
        for (pool, item) in items {
            groups.entry(self.shard_for(&pool)).or_default().push(item);
        }
        groups
    }

    /// Every explicit assignment, sorted by pool name.
    pub fn assignments(&self) -> Vec<(String, usize)> {
        self.state
            .read()
            .assignments
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }
}

/// FNV-1a, the stable fallback hash (never `DefaultHasher`, whose output
/// may change across Rust releases and would silently re-route pools).
/// Also used by the lease directory to derive a client's home shard.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_spreads_pools_and_is_sticky() {
        let map = ShardMap::new(3);
        assert_eq!(map.assign_round_robin("a"), 0);
        assert_eq!(map.assign_round_robin("b"), 1);
        assert_eq!(map.assign_round_robin("c"), 2);
        assert_eq!(map.assign_round_robin("d"), 0);
        // Re-registration does not move a pool or burn a slot.
        assert_eq!(map.assign_round_robin("b"), 1);
        assert_eq!(map.assign_round_robin("e"), 1);
        assert_eq!(map.shard_for("a"), 0);
    }

    #[test]
    fn unknown_pools_hash_stably_in_range() {
        let map = ShardMap::new(4);
        for name in ["widgets", "rooms", "flights", "x"] {
            let s = map.shard_for(name);
            assert!(s < 4);
            assert_eq!(s, map.shard_for(name), "routing must be stable");
        }
    }

    #[test]
    fn explicit_assignment_overrides_hash_and_bumps_epoch() {
        let map = ShardMap::new(2);
        let before = map.epoch();
        map.assign("widgets", 1);
        assert_eq!(map.shard_for("widgets"), 1);
        assert!(map.epoch() > before);
    }

    #[test]
    fn node_epochs_version_shard_endpoints() {
        let map = ShardMap::new(2);
        assert_eq!(map.node_epoch(1), 0);
        assert_eq!(map.endpoint_of(1), "shard1");
        map.assign("widgets", 1);
        assert_eq!(map.endpoint_of(map.shard_for("widgets")), "shard1");
        let before = map.epoch();
        assert_eq!(map.bump_node_epoch(1), 1);
        assert!(map.epoch() > before, "promotion must bump the map epoch");
        assert_eq!(map.endpoint_of(1), "shard1.e1");
        assert_eq!(map.endpoint_of(map.shard_for("widgets")), "shard1.e1");
        // Other shards keep their original addresses.
        assert_eq!(map.endpoint_of(0), "shard0");
        assert_eq!(map.bump_node_epoch(1), 2);
        assert_eq!(map.endpoint_of(1), "shard1.e2");
    }

    #[test]
    fn split_groups_by_owner_in_shard_order() {
        let map = ShardMap::new(2);
        map.assign("a", 1);
        map.assign("b", 0);
        map.assign("c", 1);
        let groups = map.split_by_shard(vec![
            ("a".to_owned(), "pa"),
            ("b".to_owned(), "pb"),
            ("c".to_owned(), "pc"),
        ]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[&0], vec!["pb"]);
        assert_eq!(groups[&1], vec!["pa", "pc"]);
    }
}
