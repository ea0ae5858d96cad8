//! Error and rejection types for the promise layer.

use std::fmt;

use promises_rm::RmError;

use crate::ids::{InstanceId, PoolId, PromiseId};

/// Why a promise request was rejected. Rejections are *immediate* — the
/// promise layer never blocks a requester (paper §9: "unfulfillable promise
/// requests are rejected immediately rather than blocking, \[so\] we do not
/// have to worry about the deadlock issues that plague lock-based
/// algorithms").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// An anonymous-view quantity bound cannot be met: outstanding promised
    /// quantity plus the new request exceeds quantity on hand.
    InsufficientQuantity {
        /// The pool that is oversubscribed.
        pool: PoolId,
        /// Quantity currently on hand.
        on_hand: u64,
        /// Sum of quantities required by live promises plus this request.
        demanded: u64,
    },
    /// A named instance is already promised to another client or taken.
    InstanceUnavailable {
        /// The pool the instance belongs to.
        pool: PoolId,
        /// The contested instance.
        instance: InstanceId,
    },
    /// No assignment of distinct instances satisfies all live promises
    /// plus the new property-view request (no perfect bipartite matching).
    Unsatisfiable {
        /// The pool whose instances cannot cover the demand.
        pool: PoolId,
    },
    /// An exchanged (handed-back) promise id does not exist or is expired.
    UnknownExchange(PromiseId),
    /// The request referenced a pool the manager does not know.
    UnknownPool(PoolId),
    /// A delegated (upstream) promise request was rejected.
    UpstreamRejected {
        /// The remote pool whose upstream manager said no.
        pool: PoolId,
    },
    /// The manager is overloaded or administratively degraded: new grants
    /// are refused immediately (the paper's "reject immediately, never
    /// block" stance applied to overload) while existing promises continue
    /// to be honored, checked and released. Retryable after backoff.
    Overloaded,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::InsufficientQuantity {
                pool,
                on_hand,
                demanded,
            } => write!(
                f,
                "pool {pool}: demanded {demanded} exceeds {on_hand} on hand"
            ),
            RejectReason::InstanceUnavailable { pool, instance } => {
                write!(f, "instance {instance} in pool {pool} is unavailable")
            }
            RejectReason::Unsatisfiable { pool } => {
                write!(f, "no satisfying assignment exists in pool {pool}")
            }
            RejectReason::UnknownExchange(id) => {
                write!(f, "exchanged promise {id} unknown or expired")
            }
            RejectReason::UnknownPool(pool) => write!(f, "unknown pool {pool}"),
            RejectReason::UpstreamRejected { pool } => {
                write!(f, "upstream manager rejected delegated promise on {pool}")
            }
            RejectReason::Overloaded => {
                write!(f, "manager overloaded: new grants refused, retry later")
            }
        }
    }
}

/// Failure of an application action executed under promise protection.
///
/// Distinguishing application failures from storage failures lets the
/// promise manager re-run an action whose storage access faulted, while
/// surfacing business failures to the caller (with any scheduled promise
/// releases cancelled, per §4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionError {
    /// Application-level failure ("no shipper available today").
    App(String),
    /// Resource-manager failure inside the action; storage faults are
    /// re-run by the manager.
    Rm(RmError),
}

impl fmt::Display for ActionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionError::App(m) => f.write_str(m),
            ActionError::Rm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ActionError {}

impl From<RmError> for ActionError {
    fn from(e: RmError) -> Self {
        ActionError::Rm(e)
    }
}

impl From<String> for ActionError {
    fn from(m: String) -> Self {
        ActionError::App(m)
    }
}

impl From<&str> for ActionError {
    fn from(m: &str) -> Self {
        ActionError::App(m.to_owned())
    }
}

/// Errors raised by promise-manager operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PromiseError {
    /// The referenced promise does not exist (never granted or released).
    UnknownPromise(PromiseId),
    /// The promise exists but has expired — the paper's "promise-expired"
    /// error returned to clients operating under stale promises (§2).
    PromiseExpired(PromiseId),
    /// The action executed under promise protection failed; any promises
    /// scheduled for release with it were retained (§4's atomicity rule).
    ActionFailed(String),
    /// The action succeeded but would have violated a live promise it was
    /// not releasing, so it was rolled back (§8 "Executing Actions").
    ViolationRolledBack {
        /// The promise the action would have broken.
        violated: PromiseId,
        /// Human-readable explanation.
        detail: String,
    },
    /// An underlying resource-manager error: a deadlock victim, or a
    /// storage fault that outlasted the manager's re-runs.
    Rm(RmError),
    /// The pool is not registered with this manager.
    UnknownPool(PoolId),
    /// A scope-enforced action wrote to a promise-protected pool that none
    /// of its environment's promises covers (§2: the client "should not
    /// use the promise for pink widgets to ask the order service to
    /// deliver some un-promised blue widgets").
    ScopeViolation {
        /// The pool written outside the environment's promise scope.
        pool: PoolId,
    },
    /// The journal handed to recovery could not be decoded.
    JournalCorrupt(String),
    /// An armed compaction-crash hook fired: the fault-injection harness
    /// asked [`crate::PromiseManager::compact`] to die mid-compaction.
    /// The journal is left in whichever state the crash point dictates
    /// (old history intact, or the freshly swapped checkpoint).
    CompactionInterrupted,
    /// A re-arrangement raced with a client observing its allocations
    /// (see [`crate::PromiseManager::promise`]): the operation computed an
    /// assignment that would move a just-pinned allocation, and must be
    /// re-run against the pinned state. Retried internally by the manager;
    /// surfaces only if the retry budget is exhausted, in which case a
    /// resend is safe (grants are deduplicated by request id).
    ObservationConflict,
    /// A delegation was refused because the upstream's chain for the pool
    /// leads back to the delegating manager (§5 delegation is a DAG; a
    /// cycle would send a request round it forever).
    DelegationCycle {
        /// The pool whose delegation chain would close on itself.
        pool: PoolId,
    },
}

impl fmt::Display for PromiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PromiseError::UnknownPromise(id) => write!(f, "unknown promise {id}"),
            PromiseError::PromiseExpired(id) => write!(f, "promise-expired: {id}"),
            PromiseError::ActionFailed(msg) => write!(f, "action failed: {msg}"),
            PromiseError::ViolationRolledBack { violated, detail } => {
                write!(f, "action rolled back: would violate {violated} ({detail})")
            }
            PromiseError::Rm(e) => write!(f, "resource manager: {e}"),
            PromiseError::UnknownPool(p) => write!(f, "unknown pool {p}"),
            PromiseError::ScopeViolation { pool } => {
                write!(f, "action wrote pool {pool} outside its promise scope")
            }
            PromiseError::JournalCorrupt(detail) => write!(f, "journal corrupt: {detail}"),
            PromiseError::CompactionInterrupted => {
                write!(f, "compaction crashed at an armed fault point")
            }
            PromiseError::ObservationConflict => {
                write!(f, "re-arrangement raced with an observed allocation; retry")
            }
            PromiseError::DelegationCycle { pool } => {
                write!(f, "delegating pool {pool} there would close a cycle")
            }
        }
    }
}

impl PromiseError {
    /// True if retrying the *same* operation may succeed: transient
    /// resource-manager failures (deadlock victims, storage faults) are
    /// retryable; semantic outcomes (unknown/expired promise, violations,
    /// action failures) are not. Used by the wire layer's retry policy.
    pub fn retryable(&self) -> bool {
        match self {
            PromiseError::Rm(e) => e.retryable(),
            PromiseError::ObservationConflict => true,
            _ => false,
        }
    }
}

impl std::error::Error for PromiseError {}

impl From<RmError> for PromiseError {
    fn from(e: RmError) -> Self {
        PromiseError::Rm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_reasons_display() {
        let r = RejectReason::InsufficientQuantity {
            pool: PoolId::from("widgets"),
            on_hand: 3,
            demanded: 8,
        };
        assert!(r.to_string().contains("widgets"));
        assert!(r.to_string().contains("8"));
        let r = RejectReason::InstanceUnavailable {
            pool: PoolId::from("rooms"),
            instance: InstanceId::from("512"),
        };
        assert!(r.to_string().contains("512"));
    }

    #[test]
    fn promise_errors_display_and_convert() {
        let e: PromiseError = RmError::NoSuchTable("t".into()).into();
        assert!(e.to_string().contains("resource manager"));
        assert!(PromiseError::PromiseExpired(PromiseId(9))
            .to_string()
            .contains("promise-expired"));
    }
}
