//! # smdb-forecast — the workload predictor
//!
//! Implements the paper's workload predictor (Section II-C) as a
//! multi-step pipeline:
//!
//! 1. **History building** ([`history`]): periodic plan-cache snapshots
//!    are diffed into per-template execution-count time series — no
//!    per-query hooks, so observation adds no query-path overhead.
//! 2. **Query clustering** ([`cluster`]): optional k-means over template
//!    feature vectors ("similar queries can be combined to reduce the
//!    number of queries that have to be processed"), the workload
//!    compression evaluated in experiment E8.
//! 3. **Workload analysis** ([`predictor`]): one forecaster, the mean of
//!    each series' trailing four buckets, with the spread of its
//!    one-step backtest residuals as the uncertainty.
//! 4. **Scenario generation** ([`scenario`], [`predictor`]): the
//!    predictor emits not just the expected workload but a distribution
//!    of scenarios (expected / worst-case / sampled) "to allow the
//!    computation of robust configurations".

pub mod cluster;
pub mod history;
pub mod predictor;
pub mod scenario;

pub use history::{TemplateHistory, WorkloadHistory, WorkloadHistoryState};
pub use predictor::{PredictorConfig, WorkloadPredictor};
pub use scenario::{ForecastSet, ScenarioKind, WorkloadScenario};
