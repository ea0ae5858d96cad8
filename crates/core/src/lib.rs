//! `promises-core` — the Promises isolation pattern for service-based
//! applications.
//!
//! This crate implements the primary contribution of Greenfield, Fekete,
//! Jang, Kuo & Nepal, *Isolation Support for Service-based Applications:
//! A Position Paper* (CIDR 2007): **Promises**, "a uniform mechanism that
//! clients can use to ensure that they can rely on the values of
//! information resources remaining unchanged in the course of
//! long-running operations" — isolation for loosely-coupled services
//! where traditional distributed locks are infeasible.
//!
//! # The model
//!
//! * A client determines the resources it needs and expresses them as
//!   [`Predicate`]s — boolean conditions over resources viewed
//!   *anonymously* (quantities), *by name* (specific instances), or *via
//!   properties* (any instance matching an expression). See paper §3.
//! * It sends them in a [`PromiseRequestSpec`] to a [`PromiseManager`],
//!   which consults the [`promises_rm::ResourceManager`] and either
//!   **grants** (guaranteeing the predicates hold until release or expiry)
//!   or **rejects immediately** — never blocking, hence never deadlocking
//!   at the promise layer (§9).
//! * Application actions execute through [`PromiseManager::execute`]
//!   under an [`Environment`] naming their protecting promises; after
//!   every action all live promises are re-checked and a violating action
//!   is rolled back (§8).
//! * The §4 atomicity rules hold throughout: multi-predicate requests are
//!   all-or-nothing, action+release form an atomic unit, and
//!   [`PromiseManager::modify`] exchanges old promises for new ones
//!   atomically.
//!
//! # Quick example
//!
//! ```
//! use std::sync::Arc;
//! use promises_core::{
//!     Environment, PoolSchema, Predicate, PromiseManager, PromiseRequestSpec, SystemClock,
//! };
//! use promises_rm::ResourceManager;
//!
//! let rm = Arc::new(ResourceManager::new());
//! let pm = PromiseManager::new(Arc::clone(&rm), Arc::new(SystemClock::new()));
//! pm.register_pool(PoolSchema::quantity("pink-widgets"));
//! pm.seed_quantity("pink-widgets", 100).unwrap();
//!
//! // Figure 1: promise that 5 pink widgets stay in stock.
//! let resp = pm
//!     .request(
//!         PromiseRequestSpec::new("order-1", "merchant")
//!             .predicate(Predicate::qty_at_least("pink-widgets", 5)),
//!     )
//!     .unwrap();
//! let promise = resp.decision.granted_id().expect("granted");
//!
//! // ... later: purchase the stock, releasing the promise atomically.
//! pm.execute(&Environment::none().releasing(promise), |rm, txn| {
//!     rm.update(txn, "qty_pools", "pink-widgets", |r| {
//!         let q = r.int("qty").unwrap();
//!         r.set("qty", q - 5);
//!     })
//!     .map_err(promises_core::ActionError::from)
//! })
//! .unwrap();
//! ```

#![warn(missing_docs)]

mod catalog;
mod check;
mod clock;
mod deadline_map;
mod environment;
mod error;
mod ids;
mod journal;
mod line_store;
mod manager;
mod negotiate;
mod parser;
mod predicate;
mod promise;
mod schema;
mod state;

pub use catalog::{status, Catalog};
pub use check::{CheckError, Checker, CheckerStats};
pub use clock::{Clock, ManualClock, SystemClock};
pub use deadline_map::DeadlineMap;
pub use environment::{Environment, ReleaseOption};
pub use error::{ActionError, PromiseError, RejectReason};
pub use ids::{request_key, ClientId, InstanceId, PoolId, PromiseId, RequestId};
pub use journal::{
    CheckpointRecord, CheckpointState, CheckpointStats, JournalEntry, JournalOp, PromiseJournal,
};
pub use line_store::{push_num, push_text, FieldReader, JournalError, LineStore, LineWriter};
pub use manager::{
    CompactionCrash, CompactionReport, OpLatency, PmMetricsSnapshot, PromiseDecision,
    PromiseManager, PromiseRequestSpec, PromiseResponse, RecoveryReport,
};
pub use negotiate::{ladder, NegotiatedResponse, Rung};
pub use parser::{parse_expr, parse_predicate, ParseError};
pub use predicate::{CmpOp, Predicate, PropExpr};
pub use promise::{Allocation, PromiseRecord, PromiseTable};
pub use schema::{CheckStrategy, PoolKind, PoolSchema, PropertyDef};
