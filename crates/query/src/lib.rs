//! # smdb-query — queries, execution and the query plan cache
//!
//! This crate provides the query surface the self-management framework
//! observes (Section II-A(a) of the paper):
//!
//! * [`Query`] — a parameterised predicate scan (+ optional aggregate)
//!   against one table,
//! * [`logical::LogicalTemplate`] — the "abstract logical
//!   representation of query templates" the workload predictor works on:
//!   a query with its literals stripped,
//! * [`plan_cache::PlanCache`] — stores per-template execution
//!   counts and cumulative costs, exactly the information the paper says
//!   workload-driven optimization draws from the plan cache ("in addition
//!   to query plans, information such as the execution time and the
//!   number of executions of the queries is stored"),
//! * [`database::Database`] — the execution façade combining
//!   the storage engine with the plan cache and a *monitoring switch*
//!   used by the ≤1 % overhead experiment (E2),
//! * [`session::SessionStats`] / [`session::ResultOracle`] — per-worker
//!   serving statistics with ground-truth result checking, the
//!   correctness witness of the online runtime (reconfiguration must
//!   never change what a query returns).

pub mod database;
pub mod logical;
pub mod plan_cache;
pub mod query;
pub mod session;
pub mod workload_spec;

pub use database::{Database, QueryRunResult, ScanStats};
pub use logical::LogicalTemplate;
pub use plan_cache::{PlanCache, PlanCacheEntry};
pub use query::Query;
pub use session::{result_hash, ExpectedResult, ResultOracle, SessionStats};
pub use workload_spec::{WeightedQuery, Workload};
