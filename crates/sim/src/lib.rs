//! `promises-sim` — deterministic concurrent workload harness for the
//! Promises evaluation.
//!
//! The CIDR'07 paper is a position paper with no measured evaluation;
//! this crate supplies the workload machinery that turns its qualitative
//! claims into measurable experiments (DESIGN.md E2–E9):
//!
//! * [`WorkloadConfig`] — reproducible client mixes: pool count, hotspot
//!   skew, think time, abandonment rate, single- or multi-pool
//!   operations, all derived from a seed;
//! * [`run_qty_workload`] — drives any [`promises_baselines::QtyReserver`]
//!   (lock-based, optimistic, escrow, or the promise-manager adapter)
//!   with N concurrent clients and reports throughput and failure
//!   taxonomy;
//! * [`PromiseQtyReserver`] — the adapter exposing a
//!   [`promises_core::PromiseManager`] through the same reserve/consume
//!   interface the baselines implement;
//! * the cluster scenarios — the fault, lease and fail-over sweeps, the
//!   doctor sweeps, [`run_flash_sale`], [`run_travel_booking`] and the
//!   [`run_error_path_matrix`] cells — every one driving its ops through
//!   [`ClientRun::step`] and judged by one audit ([`ClusterAudit`]);
//! * [`run_open_loop`], a seeded open-loop generator in virtual time
//!   (latency anchored at intended arrival, so no coordinated omission),
//!   and [`SloGate`], an explicit pass/fail p99 + goodput objective.

#![warn(missing_docs)]

mod adapter;
mod audit;
mod clients;
mod cluster;
mod doctor;
mod driver;
mod faults;
mod flash_sale;
mod matrix;
mod metrics;
mod obs;
mod openloop;
mod slo;
mod travel;
mod workload;

pub use adapter::{promise_reserver, PromiseQtyReserver};
pub use audit::ClusterAudit;
pub use clients::{drive_clients, ClientOp, ClientRun, ClientTally, Release};
pub use cluster::{
    cluster_harness, run_cluster_crash_restart, run_cluster_fault_sweep, run_failover_sweep,
    run_lease_sweep, ClusterCrashReport, ClusterRunReport, ClusterSweepConfig, FailoverDigests,
    FailoverSweepReport, LeaseSweepReport, RestartTarget,
};
pub use doctor::{
    run_doctor_failover_sweep, run_doctor_fault_sweep, run_doctor_lease_sweep, DoctorReport,
};
pub use driver::{run_qty_workload, seed_pools};
pub use faults::{
    fault_harness, run_compaction_crash_restart, run_crash_restart, run_fault_sweep,
    run_fault_sweep_with, CompactionCrashReport, CrashRestartReport, FaultHarness, FaultRunReport,
    FaultSweepConfig,
};
pub use flash_sale::{run_flash_sale, FlashSaleConfig, FlashSaleReport};
pub use matrix::{
    run_error_path_matrix, CellStatus, FailureClass, MatrixCell, MatrixReport, Scenario,
};
pub use metrics::RunReport;
pub use obs::{run_obs_sweep, ObsReport};
pub use openloop::{run_open_loop, OpStatus, OpenLoopConfig, OpenLoopReport};
pub use slo::{SloGate, SloVerdict};
pub use travel::{run_travel_booking, TravelConfig, TravelReport};
pub use workload::{pool_name, sample_zipf, zipf_cdf, WorkloadConfig};
