//! `promises-services` — example application services built on Promises.
//!
//! These are the paper's running examples (§1, §3, §7) implemented as
//! small domain services over a shared [`promises_core::PromiseManager`]:
//!
//! * [`Merchant`] — the §7/Figure 1 order process: anonymous stock
//!   promises, purchase-with-release, concurrent orders;
//! * [`Bank`] — §3.1 account-balance promises ("the bank is not obliged
//!   to set aside five specific $100 bills");
//! * [`Hotel`] — §3.3 property-view room promises (floor, view, class
//!   with ordered upgrades) and the room-512 re-arrangement example;
//! * [`Airline`] — §3.2 named seats coexisting with anonymous
//!   class-based promises on the same flight;
//! * [`Shipping`] — §7's "next-day delivery" promise over opaque carrier
//!   capacity, optionally *delegated* (§5) to an upstream carrier manager;
//! * [`TravelAgent`] — §4's flight+car+hotel multi-predicate atomic
//!   promise request;
//! * [`BookingDesk`] — an edge booking service whose real resources all
//!   live upstream: §5 delegation chains pointed at the per-shard
//!   managers of a cluster, re-pointed at a promoted replica after
//!   fail-over;
//! * [`OrderWorkflow`] — the long-running order process as an explicit
//!   event-driven state machine, substituting for the authors' GAT
//!   workflow engine \[5\].

#![warn(missing_docs)]

mod airline;
mod bank;
mod desk;
mod hotel;
mod merchant;
mod shipping;
mod travel;
mod workflow;

pub use airline::Airline;
pub use bank::Bank;
pub use desk::{BookingDesk, VOUCHER_POOL};
pub use hotel::{allocated_room, Hotel, RoomSpec, ROOM_POOL};
pub use merchant::Merchant;
pub use shipping::{standalone_carrier, Shipping, CARRIER_POOL, SHIPPING_POOL};
pub use travel::{TravelAgent, TravelBooking};
pub use workflow::{InvalidTransition, OrderEvent, OrderState, OrderWorkflow, WorkflowError};
