//! `promises-bench` — experiment implementations for the evaluation in
//! DESIGN.md / EXPERIMENTS.md.
//!
//! Each experiment is a plain function returning result rows; the one
//! binary, `src/bin/experiments.rs`, prints them as tables (E1/Figure 1 …
//! E9) and runs the nine CI gates. Per-layer timing is not measured here:
//! that is `benchmark/`'s job. See DESIGN.md §4 for the experiment index.

#![warn(missing_docs)]

pub mod exp;
mod setup;
pub mod table;
