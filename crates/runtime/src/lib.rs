//! # smdb-runtime — the online serving runtime
//!
//! Everything below the [`core`](smdb_core) layer is a *library*: you
//! hand the driver a workload snapshot and it tunes. This crate closes
//! the loop the paper actually describes — a database **serving live
//! traffic while managing itself**:
//!
//! * [`stream`] pre-generates a deterministic, phased query stream
//!   (heavy bursts that saturate utilization, light valleys that open
//!   low-utilization windows);
//! * one serving loop (`serve.rs`, private) serves a plan with a pool of
//!   reader threads while a background tuning thread reacts to live KPI
//!   signals (utilization, tail latency, memory), drains deferred
//!   reconfiguration actions in budgeted slices at bucket barriers, and
//!   rolls a failed apply back to the last good
//!   [`smdb_core::ConfigStorage`] instance — pause tuning, cool down,
//!   keep serving;
//! * [`Runtime`] (one engine, optionally durable, see [`recover`]) and
//!   [`ShardedRuntime`] (N shard engines under one global index-memory
//!   budget) are that loop's 1-unit and N-unit entry points;
//! * [`fault`] injects apply failures mid-batch so the rollback path is
//!   exercised, not just designed.
//!
//! The contract under all of it: reconfiguration must never change
//! query results. Every served answer is checked against a
//! [`smdb_query::ResultOracle`] captured before tuning starts, and the
//! merged result digest is identical for any worker count.

pub mod fault;
pub mod recover;
pub mod runtime;
mod serve;
pub mod sharded;
pub mod stream;

pub use fault::{FaultInjectingExecutor, FaultPlan};
pub use recover::{recover_and_resume, recover_runtime, RecoverOutcome};
pub use runtime::{Runtime, RuntimeConfig, SoakOutcome};
pub use serve::{KillSpec, TunerReport};
pub use sharded::{MtSoakConfig, MtSoakOutcome, ShardedRuntime, TenantStats};
pub use stream::{events_database, generate, BucketPlan, Phase, StreamConfig};
