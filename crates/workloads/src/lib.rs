//! `promises-workloads` — the production workload plane.
//!
//! The earlier experiment crates measure the promise machinery with
//! closed-loop micro-benchmarks; this crate asks the production question
//! instead: *does a sharded promise cluster hold its service-level
//! objectives under realistic, adversarial load?* It contributes four
//! pieces:
//!
//! * [`run_open_loop`] — a seeded **open-loop generator**: Poisson
//!   arrivals at a configured offered rate in virtual time, bounded
//!   in-flight concurrency, and latency anchored at intended arrival
//!   times so queueing delay is measured rather than omitted
//!   (no coordinated omission);
//! * two end-to-end scenarios over a full [`promises_cluster`] deployment:
//!   [`run_flash_sale`] (Zipf-skewed contention on a hot pool, driving the
//!   overload fail-fast cap and the SLO burn-rate degraded mode through a
//!   normal → overload → recovery arc) and [`run_travel_booking`]
//!   (atomic flight + hotel + car promises spanning three shards, with
//!   essential-vs-desirable negotiation and §5 delegation chains, swept
//!   across fault rates);
//! * [`SloGate`] — explicit pass/fail service-level objectives judged on
//!   per-stage p99 latency and goodput, so "fast enough" is a gate in CI
//!   rather than a number in a table;
//! * [`run_error_path_matrix`] — every failure class crossed with every
//!   scenario, each cell auditing the invariants (no partial grants, no
//!   double grants, no oversells, no leaks) and reporting an explicit
//!   pass/skip/fail status.

#![warn(missing_docs)]

mod flash_sale;
mod matrix;
mod openloop;
mod slo;
mod travel;

pub use flash_sale::{run_flash_sale, FlashSaleConfig, FlashSaleReport};
pub use matrix::{
    run_error_path_matrix, CellStatus, FailureClass, MatrixCell, MatrixReport, Scenario,
};
pub use openloop::{run_open_loop, OpStatus, OpenLoopConfig, OpenLoopReport};
pub use slo::{SloGate, SloVerdict};
pub use travel::{run_travel_booking, TravelConfig, TravelReport};
