//! Common reservation interfaces driven by the simulation harness.

use std::fmt;

use promises_rm::RmError;

/// Why a reservation step failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReserveFailure {
    /// Not enough of the resource at reservation time (fail-fast).
    Insufficient,
    /// The resource was available at check time but gone at consume time —
    /// the late failure mode promises exist to eliminate.
    LateConflict,
    /// The reservation's transaction was a deadlock victim.
    Deadlock,
    /// Underlying storage error.
    Rm(RmError),
}

impl fmt::Display for ReserveFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReserveFailure::Insufficient => f.write_str("insufficient resources"),
            ReserveFailure::LateConflict => f.write_str("conflict detected at consume time"),
            ReserveFailure::Deadlock => f.write_str("deadlock victim"),
            ReserveFailure::Rm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReserveFailure {}

impl From<RmError> for ReserveFailure {
    fn from(e: RmError) -> Self {
        match e {
            RmError::Deadlock { .. } => ReserveFailure::Deadlock,
            other => ReserveFailure::Rm(other),
        }
    }
}

/// Reserve-then-consume protocol over an anonymous quantity pool. One
/// token corresponds to one client's in-flight business operation; the
/// time between `reserve` and `consume`/`cancel` models the long-running
/// part of the process (payment, shipping arrangements, user think time).
pub trait QtyReserver: Send + Sync {
    /// Opaque reservation token.
    type Token: Send;

    /// Reserves `amount` units of `pool`.
    fn reserve(&self, pool: &str, amount: u64) -> Result<Self::Token, ReserveFailure>;

    /// Extends an existing reservation with `amount` units of another
    /// pool, forming one multi-resource operation (the travel-agent shape
    /// of §4). For the lock baseline this acquires the second lock inside
    /// the *same* transaction — the step that makes opposite-order clients
    /// deadlock. On failure the token keeps its earlier holdings; the
    /// caller decides whether to [`QtyReserver::cancel`].
    fn extend(
        &self,
        token: &mut Self::Token,
        pool: &str,
        amount: u64,
    ) -> Result<(), ReserveFailure>;

    /// Consumes all reserved units (completes the purchase).
    fn consume(&self, token: Self::Token) -> Result<(), ReserveFailure>;

    /// Abandons the reservation.
    fn cancel(&self, token: Self::Token);
}
