//! `promises-cluster` — a sharded promise-manager cluster with
//! cross-shard atomic grants.
//!
//! The paper's §4 atomicity rule — a multi-predicate request is granted
//! or rejected as a unit — is easy when one manager owns every pool and
//! impossible to scale that way. This crate partitions pool ownership
//! across N autonomous shard nodes ([`ShardNode`]: own journal, own
//! resource manager, own telemetry) behind a deterministic router
//! ([`ShardMap`]) and restores the unit-grant guarantee with an explicit
//! prepare/commit protocol ([`Coordinator`]) over the existing wire bus:
//!
//! * single-shard footprints take a fast path — one ordinary grant, no
//!   coordination round;
//! * cross-shard footprints get per-shard *prepared holds* (reserved
//!   immediately, journalled in doubt) that a logged commit point turns
//!   into ordinary grants, or an abort releases — rejection stays
//!   immediate and non-blocking, so there is no distributed deadlock;
//! * crash recovery is presumed-abort over the [`CoordinatorLog`] plus
//!   each shard's journal replay of in-doubt `P` records;
//! * with [`PromiseCluster::enable_leases`], a quantity pool's total is
//!   split into per-shard *escrow leases* (O'Neil-style escrow at the
//!   cluster layer), each a pool row with `qty` on hand beside `lease`: a
//!   grant covered by the client's home shard is one local escrow check
//!   there — no coordinator, no 2PC — and a rebalancer migrates lease
//!   headroom toward observed demand on the prune cadence;
//! * with [`PromiseCluster::enable_replication`], every shard leader
//!   ships its journal (checkpoint + tail segments) to a warm
//!   [`ShardFollower`] semi-synchronously — acked before any reply
//!   leaves the node — so [`PromiseCluster::promote_follower`] can
//!   replace a killed leader with a byte-identical replica behind an
//!   epoch-fenced endpoint, turning "restartable" into "available".

#![warn(missing_docs)]

mod cluster;
mod commit;
mod coordinator;
mod lease;
mod log;
mod replica;
mod router;
mod shard;

pub use cluster::{FailoverReport, LeaseRebalance, PromiseCluster};
pub use commit::CommitStats;
pub use coordinator::{
    ClusterDecision, CoordError, CoordRecovery, Coordinator, CrashPoint, GrantPart,
    NegotiatedClusterGrant,
};
pub use lease::LeaseDirectory;
pub use log::{CoordRecord, CoordinatorLog, LogCompaction, LogSummary, TxnId};
pub use replica::{ReplicationLink, ShardFollower, SyncReport};
pub use router::{shard_endpoint, versioned_endpoint, ShardMap};
pub use shard::{PoolSeed, ShardNode, ShardServer};
