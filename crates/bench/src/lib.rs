//! # smdb-bench — the evaluation harness
//!
//! Shared setup for the `experiments` binary (which regenerates every
//! experiment table E1–E11 listed in `DESIGN.md` §5), the serving
//! `soak` binary and `bench_gate`, which compares their reports against
//! the committed `BENCH_*.json` baselines.

pub mod calibrate;
pub mod experiments;
pub mod gate;
pub mod report;
pub mod setup;
pub mod table;

pub use setup::*;
pub use table::TableBuilder;
