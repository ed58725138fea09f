//! # smdb-core — the self-management framework
//!
//! The paper's contribution (Sections II and III): a component-based
//! framework that adds self-management capabilities to a database system
//! with a strict separation of concerns. Components sit behind narrow
//! interfaces, exchangeable and reusable as the paper's architecture
//! diagram (Figure 1) promises: enumerators, selectors, executors and
//! cost estimators are trait objects, and the one what-if assessor is
//! exchanged through the estimator it prices with.
//!
//! * [`driver`] — the central entity encapsulating all components and
//!   the interface to the database (plan cache, cost estimators, KPIs,
//!   configuration).
//! * [`tuner`] — the per-feature tuning pipeline:
//!   [`enumerator`] → [`assessor`] → [`selectors`] → [`executor`].
//! * [`organizer`] — orchestration: when to tune, which features, in
//!   what order; enforces constraints and reacts to runtime KPIs.
//! * [`multi`] — combined tuning of multiple features (Section III):
//!   automatic dependence ratios `d_{A,B}`, impact ratios `W∅/W_A`, and
//!   the LP-based order optimization.
//! * [`constraints`] — DBMS-related and hardware constraints, with
//!   hardware taking precedence on conflict (Section II-A(c)).
//! * [`kpi`] — runtime KPI collection (response times, memory,
//!   utilization) driving tuning triggers and low-utilization windows.
//! * [`config_storage`] — the configuration-instance history enabling
//!   the feedback loop on past tuning decisions.
//! * [`durability`] — when the serving state is logged to the WAL and
//!   snapshotted, the record and snapshot framing, and [`recover`]. The
//!   driver exports itself into a [`ServingState`] and restores from a
//!   [`RecoveredState`] in [`driver`], its one owner.

pub mod assessor;
pub mod candidate;
pub mod config_storage;
pub mod constraints;
pub mod driver;
pub mod durability;
pub mod enumerator;
pub mod executor;
pub mod feature;
pub mod kpi;
pub mod multi;
pub mod organizer;
pub mod selectors;
pub mod tuner;

pub use assessor::WhatIfAssessor;
pub use candidate::{Assessment, Candidate, SelectionInput};
pub use config_storage::{ConfigStorage, RollbackRecord, StoredInstance};
pub use constraints::ConstraintSet;
pub use driver::{
    BucketReport, Driver, DriverBuilder, OrderingPolicy, PendingReconfig, RollbackReport,
    TuningRunReport, TuningState, TuningTick,
};
pub use durability::{
    recover, DurabilityConfig, DurabilityManager, DurabilityStats, RecoveredState, ServingState,
};
pub use enumerator::Enumerator;
pub use executor::{ExecutionReport, ExecutionStrategy, Executor, SequentialExecutor};
pub use feature::FeatureKind;
pub use kpi::{BucketClose, KpiCollector, KpiSnapshot};
pub use multi::{DependencyReport, MultiFeatureTuner};
pub use organizer::{Organizer, OrganizerConfig, TuningTrigger};
pub use selectors::Selector;
pub use tuner::{Tuner, TuningProposal};
