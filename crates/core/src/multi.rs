//! Combined tuning of multiple features (Section III).
//!
//! Implements the paper's recursive approach: tune single features in a
//! good order instead of one omnipotent model. Dependencies between
//! features are determined *automatically* from workload cost:
//!
//! * `W∅` — estimated cost of the expected workload with no optimization,
//! * `W_A` — cost after tuning feature `A` alone (impact `W∅/W_A`),
//! * `W_{A,B}` — cost after tuning `A` then `B`,
//! * `d_{A,B} = W_{B,A} / W_{A,B}` — the dependence ratio: `> 1` means
//!   `A` should precede `B`.
//!
//! The order then maximizes the objective of Section III-B's integer LP
//! (`smdb-lp`), found by exact permutation search; the ILP itself is the
//! audited reference and naive orders are the baselines.

#![allow(clippy::needless_range_loop)] // dense matrix index arithmetic reads clearest with explicit indices

use std::borrow::Cow;

use smdb_common::{Cost, Result};
use smdb_cost::{CacheStats, WhatIf};
use smdb_forecast::ForecastSet;
use smdb_lp::ordering::{OrderingProblem, OrderingSolution};
use smdb_query::Workload;
use smdb_storage::{ConfigInstance, StorageEngine};

use crate::constraints::ConstraintSet;
use crate::feature::FeatureKind;
use crate::tuner::{Tuner, TuningProposal};

/// The automatic dependence analysis of Section III-A.
#[derive(Debug, Clone)]
pub struct DependencyReport {
    pub features: Vec<FeatureKind>,
    /// `W∅`: expected-workload cost with no optimization.
    pub w_empty: Cost,
    /// `W_A` for each feature (diagonal of `w_pair`).
    pub w_single: Vec<Cost>,
    /// `w_pair[a][b] = W_{A,B}` (tune `a` first, then `b`); diagonal
    /// holds `W_A`.
    pub w_pair: Vec<Vec<Cost>>,
    /// Impact ratios `W∅ / W_A`.
    pub impact: Vec<f64>,
    /// Dependence ratios `d_{A,B}`.
    pub dependence: Vec<Vec<f64>>,
}

impl DependencyReport {
    /// The LP objective weights `W∅ / W_{A,B}`.
    pub fn impact_weights(&self) -> Vec<Vec<f64>> {
        let n = self.features.len();
        let mut w = vec![vec![1.0; n]; n];
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    w[a][b] = self.w_empty.ratio(self.w_pair[a][b]).unwrap_or(1.0);
                }
            }
        }
        w
    }

    /// Builds the paper's ordering problem from this report.
    pub fn ordering_problem(&self) -> Result<OrderingProblem> {
        OrderingProblem::new(self.dependence.clone(), self.impact_weights())
    }

    /// Heuristic impact-per-cost ranking (descending impact), the
    /// fallback "when resources do not suffice for tuning all features".
    pub fn impact_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.features.len()).collect();
        order.sort_by(|&a, &b| self.impact[b].total_cmp(&self.impact[a]));
        order
    }
}

/// Report of one multi-feature tuning pass.
#[derive(Debug)]
pub struct MultiTuneReport {
    /// Features in tuned order.
    pub order: Vec<FeatureKind>,
    /// Per-feature proposals, in tuned order.
    pub proposals: Vec<TuningProposal>,
    /// Per-feature what-if cache traffic (growth of the shared cache's
    /// counters across that feature's proposal), in tuned order; zero
    /// without a cache.
    pub cache: Vec<CacheStats>,
    /// The final configuration after all accepted proposals; `None`
    /// when none was accepted and the base stands.
    pub final_config: Option<ConfigInstance>,
}

/// Orchestrates the per-feature tuners for combined tuning.
pub struct MultiFeatureTuner {
    tuners: Vec<Tuner>,
    what_if: WhatIf,
}

impl MultiFeatureTuner {
    /// Creates a multi-feature tuner over per-feature pipelines.
    pub fn new(tuners: Vec<Tuner>, what_if: WhatIf) -> Self {
        MultiFeatureTuner { tuners, what_if }
    }

    /// The features managed, in registration order.
    pub fn features(&self) -> Vec<FeatureKind> {
        self.tuners.iter().map(|t| t.feature).collect()
    }

    /// The what-if façade in use.
    pub fn what_if(&self) -> &WhatIf {
        &self.what_if
    }

    /// Hypothetically tunes feature `idx` on top of `base` and returns
    /// the resulting configuration (the proposal's target regardless of
    /// the reconfiguration acceptance — analysis wants the raw optimum).
    pub fn tune_feature_config(
        &self,
        idx: usize,
        engine: &StorageEngine,
        scenarios: &ForecastSet,
        base: &ConfigInstance,
        constraints: &ConstraintSet,
    ) -> Result<ConfigInstance> {
        let tuner = &self.tuners[idx];
        // Analysis bypasses the reconfiguration test: rebuild the target
        // from the proposal even if it was not "accepted".
        let proposal = propose_ungated(tuner, engine, base, scenarios, constraints)?;
        Ok(proposal.target.unwrap_or_else(|| base.clone()))
    }

    /// Runs the full dependence analysis of Section III-A: `|S|` single
    /// tunings plus `|S|·(|S|−1)` ordered pair tunings, all what-if.
    pub fn analyze(
        &self,
        engine: &StorageEngine,
        scenarios: &ForecastSet,
        base: &ConfigInstance,
        constraints: &ConstraintSet,
    ) -> Result<DependencyReport> {
        let n = self.tuners.len();
        let expected: &Workload = scenarios
            .expected()
            .map(|s| &s.workload)
            .ok_or_else(|| smdb_common::Error::invalid("forecast lacks expected scenario"))?;

        // Distinct (a, b) orderings frequently converge to the *same*
        // configuration; memoize workload costs per config fingerprint so
        // the O(|S|²) sweep prices each distinct config once.
        let mut memo: std::collections::HashMap<u64, Cost> = std::collections::HashMap::new();
        let mut priced = |config: &ConfigInstance| -> Result<Cost> {
            if let Some(&c) = memo.get(&config.fingerprint()) {
                return Ok(c);
            }
            let c = self.what_if.workload_cost(engine, expected, config)?;
            memo.insert(config.fingerprint(), c);
            Ok(c)
        };

        let w_empty = priced(base)?;

        // Single-feature tunings and their configs.
        let mut single_configs = Vec::with_capacity(n);
        let mut w_single = Vec::with_capacity(n);
        for idx in 0..n {
            let config = self.tune_feature_config(idx, engine, scenarios, base, constraints)?;
            w_single.push(priced(&config)?);
            single_configs.push(config);
        }

        // Ordered pairs: tune a, then b on top of a's config.
        let mut w_pair = vec![vec![Cost::ZERO; n]; n];
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    w_pair[a][b] = w_single[a];
                    continue;
                }
                let config_ab = self.tune_feature_config(
                    b,
                    engine,
                    scenarios,
                    &single_configs[a],
                    constraints,
                )?;
                w_pair[a][b] = priced(&config_ab)?;
            }
        }

        let impact: Vec<f64> = w_single
            .iter()
            .map(|&w| w_empty.ratio(w).unwrap_or(1.0))
            .collect();
        let mut dependence = vec![vec![1.0; n]; n];
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    dependence[a][b] = w_pair[b][a].ratio(w_pair[a][b]).unwrap_or(1.0);
                }
            }
        }

        Ok(DependencyReport {
            features: self.features(),
            w_empty,
            w_single,
            w_pair,
            impact,
            dependence,
        })
    }

    /// The order that maximizes the paper's ordering objective for a
    /// report (ties go to registration order).
    pub fn lp_order(&self, report: &DependencyReport) -> Result<OrderingSolution> {
        report.ordering_problem()?.solve()
    }

    /// Recursively tunes all features in `order` (indices into
    /// [`Self::features`]), each tuner seeing the configuration its
    /// predecessors produced. Purely hypothetical; the driver executes
    /// the resulting action list.
    pub fn tune_in_order(
        &self,
        engine: &StorageEngine,
        scenarios: &ForecastSet,
        base: &ConfigInstance,
        constraints: &ConstraintSet,
        order: &[usize],
    ) -> Result<MultiTuneReport> {
        let mut config = Cow::Borrowed(base);
        let mut proposals = Vec::with_capacity(order.len());
        let mut cache = Vec::with_capacity(order.len());
        let mut order_features = Vec::with_capacity(order.len());
        for &idx in order {
            let tuner = &self.tuners[idx];
            let before = self.what_if.cache_stats().unwrap_or_default();
            let proposal = tuner.propose(engine, &config, scenarios, constraints)?;
            cache.push(
                self.what_if
                    .cache_stats()
                    .unwrap_or_default()
                    .since(&before),
            );
            if let Some(target) = &proposal.target {
                config = Cow::Owned(target.clone());
            }
            order_features.push(tuner.feature);
            proposals.push(proposal);
        }
        Ok(MultiTuneReport {
            order: order_features,
            proposals,
            cache,
            final_config: match config {
                Cow::Owned(config) => Some(config),
                Cow::Borrowed(_) => None,
            },
        })
    }
}

/// A tuner proposal with the reconfiguration acceptance test bypassed
/// (used by the dependence analysis, which wants raw optima).
fn propose_ungated(
    tuner: &Tuner,
    engine: &StorageEngine,
    base: &ConfigInstance,
    scenarios: &ForecastSet,
    constraints: &ConstraintSet,
) -> Result<TuningProposal> {
    tuner.propose_internal(engine, base, scenarios, constraints, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::standard_tuner;
    use smdb_common::{ColumnId, TableId};
    use smdb_cost::{CalibratedCostModel, LogicalCostModel};
    use smdb_forecast::{ScenarioKind, WorkloadScenario};
    use smdb_query::Query;
    use smdb_storage::value::ColumnValues;
    use smdb_storage::{ColumnDef, DataType, ScanPredicate, Schema, Table};
    use std::sync::Arc;

    fn setup() -> (StorageEngine, TableId) {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Int),
        ])
        .unwrap();
        let table = Table::from_columns(
            "t",
            schema,
            vec![
                ColumnValues::Int((0..4000).map(|i| i % 80).collect()),
                ColumnValues::Int((0..4000).map(|i| (i * 7) % 501).collect()),
            ],
            1000,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        let id = engine.create_table(table).unwrap();
        (engine, id)
    }

    fn forecast(t: TableId) -> ForecastSet {
        let q1 = Query::new(
            t,
            "t",
            vec![ScanPredicate::eq(ColumnId(0), 7i64)],
            None,
            "pt_k",
        );
        let q2 = Query::new(
            t,
            "t",
            vec![ScanPredicate::eq(ColumnId(1), 100i64)],
            None,
            "pt_v",
        );
        let mut w = Workload::default();
        w.push(q1, 50.0);
        w.push(q2, 20.0);
        ForecastSet {
            scenarios: vec![WorkloadScenario {
                kind: ScenarioKind::Expected,
                name: "expected".into(),
                probability: 1.0,
                workload: w,
            }],
        }
    }

    fn trained_what_if(engine: &StorageEngine, t: TableId) -> WhatIf {
        // Train a calibrated model so encodings/placement matter.
        let model = Arc::new(CalibratedCostModel::new());
        let config = engine.current_config();
        for v in 0..80 {
            let q = Query::new(
                t,
                "t",
                vec![ScanPredicate::eq(ColumnId(0), v)],
                None,
                "train",
            );
            let out = engine.scan(t, q.predicates(), None).unwrap();
            model.observe(engine, &q, &config, out.sim_cost).unwrap();
        }
        model.refit().unwrap();
        WhatIf::new(model)
    }

    fn multi(what_if: WhatIf) -> MultiFeatureTuner {
        let tuners = vec![
            standard_tuner(FeatureKind::Indexing, what_if.clone()),
            standard_tuner(FeatureKind::Compression, what_if.clone()),
        ];
        MultiFeatureTuner::new(tuners, what_if)
    }

    #[test]
    fn analyze_produces_consistent_report() {
        let (engine, t) = setup();
        let what_if = WhatIf::new(Arc::new(LogicalCostModel::default()));
        let m = multi(what_if);
        let report = m
            .analyze(
                &engine,
                &forecast(t),
                &ConfigInstance::default(),
                &ConstraintSet::none(),
            )
            .unwrap();
        assert_eq!(report.features.len(), 2);
        assert!(report.w_empty.ms() > 0.0);
        // Indexing must help under the logical model.
        assert!(report.impact[0] > 1.0, "impact {:?}", report.impact);
        // Diagonals equal singles.
        assert_eq!(report.w_pair[0][0], report.w_single[0]);
        // d matrix has unit diagonal.
        assert_eq!(report.dependence[0][0], 1.0);
        // Reciprocity: d_{A,B} = 1 / d_{B,A}.
        let prod = report.dependence[0][1] * report.dependence[1][0];
        assert!((prod - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lp_order_matches_ilp_reference() {
        let (engine, t) = setup();
        let m = multi(trained_what_if(&engine, t));
        let report = m
            .analyze(
                &engine,
                &forecast(t),
                &ConfigInstance::default(),
                &ConstraintSet::none(),
            )
            .unwrap();
        let order = m.lp_order(&report).unwrap();
        let reference = smdb_lp::solve_reference(&report.ordering_problem().unwrap()).unwrap();
        assert!((order.objective - reference.objective).abs() < 1e-6);
    }

    #[test]
    fn recursive_tuning_composes_configs() {
        let (engine, t) = setup();
        let m = multi(trained_what_if(&engine, t));
        let f = forecast(t);
        let base = ConfigInstance::default();
        let report = m
            .tune_in_order(&engine, &f, &base, &ConstraintSet::none(), &[0, 1])
            .unwrap();
        assert_eq!(report.order.len(), 2);
        // Indexing accepted → final config has indexes.
        let tuned = report.final_config.as_ref().unwrap();
        assert!(!tuned.indexes.is_empty(), "{:?}", report.proposals);
        // Workload cost improves end-to-end.
        let before = m
            .what_if()
            .workload_cost(&engine, &f.expected().unwrap().workload, &base)
            .unwrap();
        let after = m
            .what_if()
            .workload_cost(&engine, &f.expected().unwrap().workload, tuned)
            .unwrap();
        assert!(after < before);
    }

    #[test]
    fn one_pass_over_the_order_equals_chained_single_feature_passes() {
        let (engine, t) = setup();
        let trained = trained_what_if(&engine, t);
        // Fresh caches over one estimator: each side starts cold.
        let fresh = || multi(WhatIf::new(Arc::clone(trained.estimator())));
        let f = forecast(t);
        let base = ConfigInstance::default();
        let constraints = ConstraintSet::none();

        let merged = fresh();
        let before = merged.what_if().cache_stats().unwrap();
        let run = merged
            .tune_in_order(&engine, &f, &base, &constraints, &[0, 1])
            .unwrap();
        let total = merged.what_if().cache_stats().unwrap().since(&before);

        let chained = fresh();
        let mut config = base;
        let mut proposals = Vec::new();
        let mut cache = Vec::new();
        for idx in [0, 1] {
            let single = chained
                .tune_in_order(&engine, &f, &config, &constraints, &[idx])
                .unwrap();
            config = single.final_config.unwrap_or(config);
            proposals.extend(single.proposals);
            cache.extend(single.cache);
        }

        assert_eq!(run.order, chained.features());
        assert_eq!(run.proposals, proposals);
        assert_eq!(run.final_config, Some(config));
        assert_eq!(run.cache, cache);
        assert_eq!(run.cache.len(), 2);
        let summed = run
            .cache
            .iter()
            .fold(CacheStats::default(), |acc, s| CacheStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
            });
        assert_eq!(summed, total);
        assert!(total.misses > 0, "{total:?}");
    }

    #[test]
    fn impact_order_ranks_by_ratio() {
        let report = DependencyReport {
            features: vec![FeatureKind::Indexing, FeatureKind::Compression],
            w_empty: Cost(100.0),
            w_single: vec![Cost(80.0), Cost(40.0)],
            w_pair: vec![vec![Cost(80.0), Cost(30.0)], vec![Cost(35.0), Cost(40.0)]],
            impact: vec![1.25, 2.5],
            dependence: vec![vec![1.0, 35.0 / 30.0], vec![30.0 / 35.0, 1.0]],
        };
        assert_eq!(report.impact_order(), vec![1, 0]);
        let weights = report.impact_weights();
        assert!((weights[0][1] - 100.0 / 30.0).abs() < 1e-9);
    }
}
