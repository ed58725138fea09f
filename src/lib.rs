//! # smdb — A Framework for Self-Managing Database Systems
//!
//! Facade crate re-exporting the public API of the whole workspace. See
//! the repository `README.md` for an architecture overview and
//! `DESIGN.md` for the system inventory.
//!
//! The workspace reproduces Kossmann & Schlosser, *"A Framework for
//! Self-Managing Database Systems"*, ICDE Workshops 2019:
//!
//! * [`storage`] — a Hyrise-like in-memory chunked column store,
//! * [`query`] — queries, execution, and the query plan cache,
//! * [`cost`] — logical and calibrated (learned) cost models, what-if costing,
//! * [`forecast`] — the workload predictor (clustering, moving-average forecast, scenarios),
//! * [`lp`] — simplex + branch-and-bound ILP and the feature-ordering model,
//! * [`core`] — the framework itself (driver, organizer, tuner pipeline),
//! * [`runtime`] — the online serving runtime (worker pool, background
//!   tuning thread, fault injection and rollback),
//! * [`workload`] — deterministic data and workload generators,
//! * [`obs`] — decision-trail observability (tracing spans, metrics,
//!   the flight recorder every tuning decision lands in).
//!
//! ```
//! use std::sync::Arc;
//! use smdb::core::driver::Driver;
//! use smdb::core::FeatureKind;
//! use smdb::cost::CalibratedCostModel;
//! use smdb::query::{Database, Query};
//! use smdb::storage::value::ColumnValues;
//! use smdb::storage::{ColumnDef, DataType, ScanPredicate, Schema, StorageEngine, Table};
//!
//! // A small table wrapped into a self-manageable database.
//! let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
//! let table = Table::from_columns(
//!     "events",
//!     schema,
//!     vec![ColumnValues::Int((0..1000).map(|i| i % 50).collect())],
//!     250,
//! )
//! .unwrap();
//! let mut engine = StorageEngine::default();
//! let table_id = engine.create_table(table).unwrap();
//! let db = Database::new(engine);
//!
//! // Attach the self-management framework.
//! let driver = Driver::builder(db.clone())
//!     .learned_estimator(Arc::new(CalibratedCostModel::new()))
//!     .features(vec![FeatureKind::Indexing])
//!     .build();
//!
//! // Serve a bucket of traffic; the plan cache observes it.
//! let queries: Vec<Query> = (0..40)
//!     .map(|i| {
//!         Query::new(
//!             table_id,
//!             "events",
//!             vec![ScanPredicate::eq(smdb::common::ColumnId(0), i % 50)],
//!             None,
//!             "point",
//!         )
//!     })
//!     .collect();
//! driver.run_bucket(&queries).unwrap();
//!
//! // Tune: the driver proposes, gates and applies configuration changes.
//! let report = driver.force_tune().unwrap();
//! assert!(report.applied_actions > 0);
//! assert!(!db.engine().current_config().indexes.is_empty());
//! ```

pub use smdb_common as common;
pub use smdb_core as core;
pub use smdb_cost as cost;
pub use smdb_durable as durable;
pub use smdb_forecast as forecast;
pub use smdb_lp as lp;
pub use smdb_obs as obs;
pub use smdb_query as query;
pub use smdb_runtime as runtime;
pub use smdb_storage as storage;
pub use smdb_workload as workload;

/// Convenience prelude importing the types most programs need.
pub mod prelude {
    pub use smdb_common::{ChunkColumnRef, Cost, LogicalTime};
}
