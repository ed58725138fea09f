//! The calibrated (learned) cost model.
//!
//! Implements the paper's adaptive cost estimation (Sections II-A(d) and
//! V): "at database system start, a minimal set of queries is run to
//! create training data …; during further database operation more data
//! points are collected, thus enabling more specialized models". Here the
//! model is an online least-squares regression from execution-profile
//! features to observed cost; every query execution can feed the model.

use parking_lot::RwLock;

use smdb_common::float::exactly_zero;
use smdb_common::{Cost, Result};
use smdb_query::Query;
use smdb_storage::{ConfigInstance, StorageEngine};

use crate::estimator::CostEstimator;
use crate::features::{extract_features, ConfigContext, NUM_FEATURES};
use crate::regression::OnlineRegression;

/// A regression-backed cost model that learns from observed executions.
///
/// Interior mutability lets the shared estimator keep learning while the
/// framework holds it behind `Arc<dyn CostEstimator>`.
pub struct CalibratedCostModel {
    inner: RwLock<Inner>,
    /// Fallback per-row cost before the first fit succeeds.
    bootstrap_row_ms: f64,
    /// Bumped whenever a refit changes the weights, so cost caches keyed
    /// on estimator state know to flush (predictions only move at fit
    /// time; raw observations between fits leave them untouched).
    version: std::sync::atomic::AtomicU64,
}

struct Inner {
    regression: OnlineRegression,
    weights: Option<Vec<f64>>,
    /// Per-feature training support (Gram diagonal) at the last fit.
    support: Vec<f64>,
    /// Refit every `refit_every` observations.
    refit_every: usize,
    since_fit: usize,
}

impl CalibratedCostModel {
    /// Creates an untrained model.
    pub fn new() -> Self {
        CalibratedCostModel {
            inner: RwLock::new(Inner {
                regression: OnlineRegression::with_valid(NUM_FEATURES, 1e-6),
                weights: None,
                support: vec![0.0; NUM_FEATURES],
                refit_every: 16,
                since_fit: 0,
            }),
            bootstrap_row_ms: 1e-4,
            version: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of observations absorbed so far.
    pub fn observations(&self) -> usize {
        self.inner.read().regression.observations()
    }

    /// Records one observed execution: the query, the configuration it
    /// ran under, and the measured cost. Periodically refits.
    pub fn observe(
        &self,
        engine: &StorageEngine,
        query: &Query,
        config: &ConfigInstance,
        observed: Cost,
    ) -> Result<()> {
        let ctx = ConfigContext::new(engine, config);
        self.observe_with_ctx(engine, &ctx, query, config, observed)
    }

    /// Like [`observe`](Self::observe) with a caller-provided context
    /// (cheaper when batching observations under one configuration).
    pub fn observe_with_ctx(
        &self,
        engine: &StorageEngine,
        ctx: &ConfigContext,
        query: &Query,
        config: &ConfigInstance,
        observed: Cost,
    ) -> Result<()> {
        let features = extract_features(engine, ctx, query, config)?;
        let mut inner = self.inner.write();
        inner
            .regression
            .observe(features.as_slice(), observed.ms())?;
        inner.since_fit += 1;
        if inner.weights.is_none() || inner.since_fit >= inner.refit_every {
            if let Ok(w) = inner.regression.fit_nonnegative() {
                inner.weights = Some(w);
                inner.support = inner.regression.support();
                self.version
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            inner.since_fit = 0;
        }
        Ok(())
    }

    /// Forces a refit now (used by experiments that train in bulk).
    pub fn refit(&self) -> Result<()> {
        let mut inner = self.inner.write();
        let w = inner.regression.fit_nonnegative()?;
        inner.weights = Some(w);
        inner.support = inner.regression.support();
        inner.since_fit = 0;
        self.version
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// The current weight vector, if fitted.
    pub fn weights(&self) -> Option<Vec<f64>> {
        self.inner.read().weights.clone()
    }
}

impl Default for CalibratedCostModel {
    fn default() -> Self {
        CalibratedCostModel::new()
    }
}

impl CostEstimator for CalibratedCostModel {
    fn name(&self) -> &str {
        "calibrated"
    }

    fn version(&self) -> u64 {
        self.version.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn query_cost(
        &self,
        engine: &StorageEngine,
        ctx: &ConfigContext,
        query: &Query,
        config: &ConfigInstance,
    ) -> Result<Cost> {
        let features = extract_features(engine, ctx, query, config)?;
        let inner = self.inner.read();
        match &inner.weights {
            Some(w) => {
                // Fitted weights for supported dimensions; a conservative
                // bootstrap rate for work the model has never observed.
                // Without this, an unobserved regime (e.g. an encoding no
                // query has ever run under) is predicted as free and the
                // tuner chases it — the optimizer's curse of learned
                // models.
                let estimate: f64 = w
                    .iter()
                    .zip(features.as_slice())
                    .zip(&inner.support)
                    .map(|((wi, fi), &sup)| {
                        if sup > 1e-9 || exactly_zero(*fi) {
                            wi * fi
                        } else {
                            self.bootstrap_row_ms * fi
                        }
                    })
                    .sum();
                // Costs are physically non-negative; a young model can
                // extrapolate below zero.
                Ok(Cost(estimate.max(0.0)))
            }
            None => {
                // Untrained bootstrap: crude per-row guess from the raw
                // work features so early tuning has *something*.
                let rough: f64 = features.as_slice()[2..].iter().sum::<f64>();
                Ok(Cost(rough * self.bootstrap_row_ms))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::{ColumnId, TableId};
    use smdb_storage::value::ColumnValues;
    use smdb_storage::{ColumnDef, DataType, ScanPredicate, Schema, Table};

    fn setup() -> (StorageEngine, TableId) {
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        let table = Table::from_columns(
            "t",
            schema,
            vec![ColumnValues::Int((0..2000).map(|i| i % 40).collect())],
            500,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        let id = engine.create_table(table).unwrap();
        (engine, id)
    }

    fn q(t: TableId, v: i64) -> Query {
        Query::new(t, "t", vec![ScanPredicate::eq(ColumnId(0), v)], None, "q")
    }

    #[test]
    fn learns_ground_truth_from_observations() {
        let (engine, t) = setup();
        let config = engine.current_config();
        let model = CalibratedCostModel::new();
        // Train on actual executions.
        for v in 0..40 {
            let out = engine.scan(t, q(t, v).predicates(), None).unwrap();
            model
                .observe(&engine, &q(t, v), &config, out.sim_cost)
                .unwrap();
        }
        model.refit().unwrap();
        // Predict an unseen literal of the same template.
        let ctx = ConfigContext::new(&engine, &config);
        let predicted = model.query_cost(&engine, &ctx, &q(t, 17), &config).unwrap();
        let actual = engine
            .scan(t, q(t, 17).predicates(), None)
            .unwrap()
            .sim_cost;
        let rel_err = (predicted.ms() - actual.ms()).abs() / actual.ms();
        assert!(rel_err < 0.05, "rel err {rel_err}: {predicted} vs {actual}");
    }

    #[test]
    fn untrained_model_still_estimates() {
        let (engine, t) = setup();
        let config = engine.current_config();
        let model = CalibratedCostModel::new();
        let ctx = ConfigContext::new(&engine, &config);
        let c = model.query_cost(&engine, &ctx, &q(t, 1), &config).unwrap();
        assert!(c.ms() > 0.0);
        assert_eq!(model.observations(), 0);
        assert!(model.weights().is_none());
    }

    #[test]
    fn estimates_never_negative() {
        let (engine, t) = setup();
        let config = engine.current_config();
        let model = CalibratedCostModel::new();
        // Feed adversarial observations pushing weights negative.
        for v in 0..20 {
            model
                .observe(&engine, &q(t, v), &config, Cost(0.0))
                .unwrap();
        }
        model.refit().unwrap();
        let ctx = ConfigContext::new(&engine, &config);
        let c = model.query_cost(&engine, &ctx, &q(t, 5), &config).unwrap();
        assert!(c.ms() >= 0.0);
    }
}
