//! `promises-baselines` — comparator isolation mechanisms for the
//! Promises evaluation.
//!
//! The paper's argument (§2, §9) is qualitative: traditional lock-based
//! isolation "depends on assumptions of trust and timeliness that no
//! longer apply", optimistic check-then-act forces programmers to handle
//! concurrency failures "throughout the normal processing paths", while
//! domain-specific techniques (escrow locking \[8\]) are special cases the
//! Promise pattern generalises. This crate implements those
//! comparators against the same resource manager so the claims can be
//! measured head-to-head (experiments E4–E6):
//!
//! * [`LockReserver`] — holds RM record locks across the whole
//!   long-running operation (the "traditional ACID" strawman): blocks
//!   concurrent clients and deadlocks under multi-resource contention;
//! * [`OptimisticReserver`] — checks availability without protection and
//!   re-validates at consume time, failing late when a concurrent client
//!   won the race;
//! * [`EscrowReserver`] — per-pool reserved-quantity escrow (O'Neil): the
//!   specialised equivalent of an anonymous-view promise.
//!
//! All implement the [`QtyReserver`] trait so the simulation harness can
//! drive them interchangeably with a promise-manager-backed adapter.

#![warn(missing_docs)]

mod escrow;
mod lock_based;
mod optimistic;
mod traits;

pub use escrow::EscrowReserver;
pub use lock_based::LockReserver;
pub use optimistic::OptimisticReserver;
pub use traits::{QtyReserver, ReserveFailure};

/// Table used by quantity baselines; matches `promises_core::Catalog`'s
/// layout so the same seeded data serves both systems.
pub const QTY_TABLE: &str = "qty_pools";

/// Field holding quantity on hand.
pub const QTY_FIELD: &str = "qty";

/// Field holding escrow-reserved quantity (escrow baseline only).
pub const RESERVED_FIELD: &str = "reserved";
