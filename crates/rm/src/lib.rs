//! `promises-rm` — an embedded, in-memory ACID resource manager.
//!
//! This crate is the Resource Manager (RM) substrate from Section 8 of
//! *Isolation Support for Service-based Applications* (CIDR 2007). The
//! paper's prototype wraps every promise operation in a short, local ACID
//! transaction covering both the application's state changes and the
//! promise manager's bookkeeping; this crate supplies that transaction
//! facility:
//!
//! * a record store organised as named tables of `key -> Record`,
//! * strict two-phase locking with hierarchical (table/record) lock modes
//!   `IS`/`IX`/`S`/`X` and wait-for-graph deadlock detection,
//! * an undo log giving atomic rollback of aborted transactions.
//!
//! The store is deliberately memory-resident: durability across process
//! restarts is irrelevant to the isolation semantics under study, while
//! atomicity and isolation of the per-request transaction are load-bearing.
//!
//! # Example
//!
//! ```
//! use promises_rm::{ResourceManager, Record, Value};
//!
//! let rm = ResourceManager::new();
//! rm.create_table("stock");
//!
//! let tx = rm.begin();
//! rm.insert(&tx, "stock", "pink-widget", Record::new().with("qty", 100i64)).unwrap();
//! rm.commit(tx).unwrap();
//!
//! let tx = rm.begin();
//! let rec = rm.get(&tx, "stock", "pink-widget").unwrap().unwrap();
//! assert_eq!(rec.int("qty"), Some(100));
//! rm.commit(tx).unwrap();
//! ```

mod error;
mod lock;
mod log;
mod store;
mod txn;
mod value;

pub use error::RmError;
pub use txn::{ResourceManager, RowImages, StorageFaultHook, Txn, TxnId};
pub use value::{Record, Value};

/// Convenient `Result` alias for resource-manager operations.
pub type Result<T> = std::result::Result<T, RmError>;
