//! The per-feature tuner: enumerate → assess → select (Section II-D).
//!
//! A tuner "takes workload forecasts and cost estimations as input and
//! delivers configurations for features as output". The pipeline is
//! assembled from exchangeable components; `propose` is purely
//! hypothetical (what-if) — applying the proposal is the executor's job.
//!
//! A converged pass mostly confirms the configuration it already has.
//! When the assessor still holds a price for every enumerated candidate
//! and the selector can choose from expected desirability and budget
//! weight alone ([`Selector::select_scored`]), the tuner re-selects from
//! those prices under this pass's budget; if that selection changes nothing
//! the pass ends with the proposal the full path would return there,
//! without building assessments. Any other outcome runs the full path.
//! Exactness rests on three facts: the kept prices are the ones a fresh
//! pricing would give (the assessor's key), the scalars are computed in
//! the float order of the assessments they stand for, and the selector's
//! choice reads nothing else.

use smdb_common::{Cost, Result};
use smdb_forecast::ForecastSet;
use smdb_storage::{ConfigAction, ConfigInstance, StorageEngine};

use crate::assessor::Assessor;
use crate::candidate::{Candidate, SelectionInput};
use crate::constraints::ConstraintSet;
use crate::enumerator::Enumerator;
use crate::feature::FeatureKind;
use crate::selectors::Selector;

/// A per-feature tuning pipeline.
pub struct Tuner {
    pub feature: FeatureKind,
    enumerator: Box<dyn Enumerator>,
    assessor: Box<dyn Assessor>,
    selector: Box<dyn Selector>,
    /// Weight of reconfiguration costs in the acceptance test: a proposal
    /// is accepted only when `benefit · horizon ≥ weight · reconfiguration
    /// cost`. Zero disables the test (every improving proposal is taken) —
    /// the configuration-thrash experiment (E10) contrasts the two.
    pub reconfiguration_weight: f64,
    /// How many forecast horizons the benefit is assumed to persist.
    pub benefit_horizon: f64,
    /// When true the tuner *re-selects* this feature's configuration
    /// from scratch each run instead of only adding to it: candidates
    /// are enumerated against the base configuration with this feature's
    /// entries stripped, and the action diff naturally drops entries
    /// (e.g. stale indexes) that no longer pay off. This is how classic
    /// index advisors (AutoAdmin, DB2 Advisor) behave.
    pub reselect: bool,
}

/// The tuner's output: a hypothetical configuration plus its predicted
/// economics.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningProposal {
    pub feature: FeatureKind,
    /// The proposed configuration (equals the base when not accepted).
    pub target: ConfigInstance,
    /// Actions from the base to the target (empty when not accepted).
    pub actions: Vec<ConfigAction>,
    /// Expected workload-cost reduction per forecast horizon.
    pub predicted_benefit: Cost,
    /// Estimated one-time reconfiguration cost.
    pub reconfiguration_cost: Cost,
    /// Enumerated candidate count (runtime driver, per the paper).
    pub candidates_enumerated: usize,
    /// Chosen candidate count.
    pub chosen: usize,
    /// Whether the reconfiguration-cost test passed.
    pub accepted: bool,
}

impl Tuner {
    /// Assembles a tuner from components.
    pub fn new(
        feature: FeatureKind,
        enumerator: Box<dyn Enumerator>,
        assessor: Box<dyn Assessor>,
        selector: Box<dyn Selector>,
    ) -> Self {
        Tuner {
            feature,
            enumerator,
            assessor,
            selector,
            reconfiguration_weight: 1.0,
            benefit_horizon: 10.0,
            reselect: false,
        }
    }

    /// Strips this tuner's feature from a configuration (reselect mode).
    fn strip_feature(&self, base: &ConfigInstance) -> ConfigInstance {
        let mut stripped = base.clone();
        match self.feature {
            FeatureKind::Indexing => stripped.indexes.clear(),
            FeatureKind::Compression => stripped.encodings.clear(),
            FeatureKind::Placement => stripped.placements.clear(),
            FeatureKind::BufferPool => {
                stripped.knobs.buffer_pool_mb = smdb_storage::Knobs::default().buffer_pool_mb;
            }
        }
        stripped
    }

    /// The memory budget the selector must respect for this feature.
    fn memory_budget(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        constraints: &ConstraintSet,
    ) -> Result<Option<i64>> {
        match self.feature {
            FeatureKind::Indexing => {
                let data_bytes = engine.memory_report().data_bytes as i64;
                let Some(budget) = constraints.effective_index_budget(data_bytes) else {
                    return Ok(None);
                };
                // Budget remaining after the indexes already configured.
                let mut used = 0i64;
                for (&target, &kind) in &base.indexes {
                    used +=
                        smdb_cost::sizes::estimate_target_index_bytes(engine, target, kind)? as i64;
                }
                Ok(Some((budget - used).max(0)))
            }
            FeatureKind::Placement => {
                let Some(capacity) = constraints.hot_tier_bytes else {
                    return Ok(None);
                };
                let used = smdb_cost::sizes::estimate_hot_bytes(engine, base)? as i64;
                Ok(Some((capacity - used).max(0)))
            }
            // Compression frees memory; the buffer pool is bounded by its
            // enumerator's range.
            _ => Ok(None),
        }
    }

    /// Runs the pipeline and returns a proposal, applying the
    /// reconfiguration-cost acceptance test.
    pub fn propose(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
        constraints: &ConstraintSet,
    ) -> Result<TuningProposal> {
        self.propose_internal(engine, base, scenarios, constraints, true)
    }

    /// Pipeline core; `gated = false` bypasses the reconfiguration test
    /// (used by the dependence analysis, which wants raw optima).
    pub(crate) fn propose_internal(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
        constraints: &ConstraintSet,
        gated: bool,
    ) -> Result<TuningProposal> {
        #[cfg(test)]
        let before = self.assessor.shadow_state();
        #[cfg(not(test))]
        let reselect_kept = true;
        #[cfg(test)]
        let reselect_kept = !shadow::full_path_only();
        let (proposal, _settled) =
            self.propose_with(engine, base, scenarios, constraints, gated, reselect_kept)?;
        #[cfg(test)]
        if _settled {
            shadow::check(
                self,
                (engine, base, scenarios, constraints, gated),
                &proposal,
                before,
            );
        }
        Ok(proposal)
    }

    /// The pipeline. With `reselect_kept`, a greedy selector re-selects
    /// from the prices the assessor kept, and the pass ends there when
    /// that selection changes nothing (`true` in the second value).
    fn propose_with(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
        constraints: &ConstraintSet,
        gated: bool,
        reselect_kept: bool,
    ) -> Result<(TuningProposal, bool)> {
        // In reselect mode the pipeline runs against the base with this
        // feature stripped, so existing entries must re-earn their place.
        let enum_base = if self.reselect {
            self.strip_feature(base)
        } else {
            base.clone()
        };
        let candidates = self.enumerator.enumerate(engine, &enum_base, scenarios)?;
        if candidates.is_empty() {
            return Ok((self.rejected(base, 0), false));
        }
        let memory_budget_bytes = self.memory_budget(engine, &enum_base, constraints)?;
        // Re-selection from kept prices: the selector's choice from each
        // candidate's expected desirability and budget weight under this
        // pass's budget — the very scalars its full-path choice reads.
        let mut unchanged = |scored: &[(f64, f64)]| {
            self.selector
                .select_scored(&candidates, scored, memory_budget_bytes)
                .is_some_and(|chosen| {
                    base.diff(&self.target(&enum_base, &candidates, &chosen))
                        .is_empty()
                })
        };
        let assessments = if reselect_kept {
            self.assessor.assess_unless(
                engine,
                &enum_base,
                scenarios,
                &candidates,
                &mut unchanged,
            )?
        } else {
            Some(
                self.assessor
                    .assess(engine, &enum_base, scenarios, &candidates)?,
            )
        };
        // Costed once and reused below for the combined economics (when
        // not reselecting, `enum_base` *is* the base configuration). A
        // settled pass still prices it: its lookups are part of the
        // pass's cache traffic.
        let enum_base_costs = self
            .assessor
            .scenario_costs(engine, &enum_base, scenarios)?;
        let Some(assessments) = assessments else {
            smdb_obs::metrics::counter("tuner.reselected_from_kept").inc();
            return Ok((self.rejected(base, candidates.len()), true));
        };
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes,
            scenario_base_costs: Some(enum_base_costs.clone()),
        };
        let chosen = self.selector.select(&input)?;
        debug_assert!(input.is_feasible(&chosen), "selector violated constraints");

        let target = self.target(&enum_base, &candidates, &chosen);
        let actions = base.diff(&target);
        if actions.is_empty() {
            // Already at (or re-confirmed as) the selected configuration.
            return Ok((self.rejected(base, candidates.len()), false));
        }

        // Combined economics: whole-configuration what-if instead of the
        // interaction-blind sum of per-candidate desirabilities.
        let base_costs = if self.reselect {
            self.assessor.scenario_costs(engine, base, scenarios)?
        } else {
            enum_base_costs
        };
        let target_costs = self.assessor.scenario_costs(engine, &target, scenarios)?;
        let predicted_benefit = Cost(
            scenarios
                .iter()
                .zip(base_costs.iter().zip(&target_costs))
                .map(|(s, (b, t))| s.probability * (b - t))
                .sum(),
        );
        let reconfiguration_cost =
            smdb_cost::what_if::estimate_reconfiguration(engine, base, &actions)?;

        // Reconfiguration-cost acceptance (Section II-D(b)): benefits
        // must outweigh the cost of getting there.
        let accepted = !gated
            || predicted_benefit.ms() * self.benefit_horizon
                >= self.reconfiguration_weight * reconfiguration_cost.ms();
        let proposal = if accepted {
            TuningProposal {
                feature: self.feature,
                target,
                actions,
                predicted_benefit,
                reconfiguration_cost,
                candidates_enumerated: candidates.len(),
                chosen: chosen.len(),
                accepted: true,
            }
        } else {
            TuningProposal {
                feature: self.feature,
                target: base.clone(),
                actions: Vec::new(),
                predicted_benefit,
                reconfiguration_cost,
                candidates_enumerated: candidates.len(),
                chosen: chosen.len(),
                accepted: false,
            }
        };
        Ok((proposal, false))
    }

    /// `enum_base` with the chosen candidates applied.
    fn target(
        &self,
        enum_base: &ConfigInstance,
        candidates: &[Candidate],
        chosen: &[usize],
    ) -> ConfigInstance {
        let mut target = enum_base.clone();
        for &i in chosen {
            target.apply(&candidates[i].action);
        }
        target
    }

    fn rejected(&self, base: &ConfigInstance, enumerated: usize) -> TuningProposal {
        TuningProposal {
            feature: self.feature,
            target: base.clone(),
            actions: Vec::new(),
            predicted_benefit: Cost::ZERO,
            reconfiguration_cost: Cost::ZERO,
            candidates_enumerated: enumerated,
            chosen: 0,
            accepted: false,
        }
    }
}

/// Builds the standard tuner for a feature with the default component
/// choices (what-if assessor over the given estimator, greedy selector).
pub fn standard_tuner(feature: FeatureKind, what_if: smdb_cost::WhatIf) -> Tuner {
    use crate::assessor::WhatIfAssessor;
    use crate::enumerator::{
        BufferPoolEnumerator, EncodingEnumerator, IndexEnumerator, PlacementEnumerator,
    };
    use crate::selectors::GreedySelector;

    let enumerator: Box<dyn Enumerator> = match feature {
        FeatureKind::Indexing => Box::new(IndexEnumerator::default()),
        FeatureKind::Compression => Box::new(EncodingEnumerator),
        FeatureKind::Placement => Box::new(PlacementEnumerator),
        FeatureKind::BufferPool => Box::new(BufferPoolEnumerator::default()),
    };
    let mut tuner = Tuner::new(
        feature,
        enumerator,
        Box::new(WhatIfAssessor::new(what_if, 0.8)),
        Box::new(GreedySelector),
    );
    // Index advisors classically re-select the whole index set per run,
    // which also retires indexes the workload no longer justifies.
    tuner.reselect = feature == FeatureKind::Indexing;
    tuner
}

/// The full path run behind every pass settled from kept prices, in
/// tests: it must give the same proposal, count the same lookups and
/// leave the same kept prices.
#[cfg(test)]
pub(crate) mod shadow {
    use std::cell::Cell;

    use smdb_forecast::ForecastSet;
    use smdb_storage::{ConfigInstance, StorageEngine};

    use super::{Tuner, TuningProposal};
    use crate::assessor::ShadowState;
    use crate::constraints::ConstraintSet;

    thread_local! {
        static FULL_PATH_ONLY: Cell<bool> = const { Cell::new(false) };
        static SETTLED: Cell<usize> = const { Cell::new(0) };
    }

    /// Whether this thread's passes skip re-selection from kept prices.
    pub(crate) fn full_path_only() -> bool {
        FULL_PATH_ONLY.with(Cell::get)
    }

    /// Makes this thread's passes always take the full path (or not).
    pub(crate) fn set_full_path_only(on: bool) {
        FULL_PATH_ONLY.with(|f| f.set(on));
    }

    /// Passes this thread settled from kept prices.
    pub(crate) fn settled() -> usize {
        SETTLED.with(Cell::get)
    }

    /// Runs the full path behind a settled pass and checks it against
    /// the settled one, then rewinds the cache counters it moved.
    pub(super) fn check(
        tuner: &Tuner,
        (engine, base, scenarios, constraints, gated): (
            &StorageEngine,
            &ConfigInstance,
            &ForecastSet,
            &ConstraintSet,
            bool,
        ),
        settled: &TuningProposal,
        before: Option<ShadowState>,
    ) {
        SETTLED.with(|n| n.set(n.get() + 1));
        let after = tuner.assessor.shadow_state();
        let (full, full_settled) = tuner
            .propose_with(engine, base, scenarios, constraints, gated, false)
            .expect("the full path succeeds where the settled pass did");
        assert!(!full_settled);
        assert_eq!(
            &full, settled,
            "a settled pass proposes what the full path does"
        );
        let again = tuner.assessor.shadow_state();
        let (Some(before), Some(after), Some(again)) = (before, after, again) else {
            return;
        };
        let full_lookups = again.stats.since(&after.stats);
        assert_eq!(
            full_lookups,
            after.stats.since(&before.stats),
            "a settled pass counts the full path's lookups"
        );
        assert!(
            again.memo == after.memo,
            "a settled pass keeps the full path's prices"
        );
        tuner.assessor.rewind_lookups(full_lookups);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::{ColumnId, TableId};
    use smdb_cost::{LogicalCostModel, WhatIf};
    use smdb_forecast::{ScenarioKind, WorkloadScenario};
    use smdb_query::{Query, Workload};
    use smdb_storage::value::ColumnValues;
    use smdb_storage::{ColumnDef, DataType, ScanPredicate, Schema, Table};
    use std::sync::Arc;

    fn setup() -> (StorageEngine, TableId) {
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        let table = Table::from_columns(
            "t",
            schema,
            vec![ColumnValues::Int((0..2000).map(|i| i % 100).collect())],
            500,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        let id = engine.create_table(table).unwrap();
        (engine, id)
    }

    fn forecast(t: TableId, weight: f64) -> ForecastSet {
        let q = Query::new(
            t,
            "t",
            vec![ScanPredicate::eq(ColumnId(0), 7i64)],
            None,
            "pt",
        );
        ForecastSet {
            scenarios: vec![WorkloadScenario {
                kind: ScenarioKind::Expected,
                name: "expected".into(),
                probability: 1.0,
                workload: Workload::new(vec![smdb_query::WeightedQuery::new(q, weight)]),
            }],
        }
    }

    fn what_if() -> WhatIf {
        WhatIf::new(Arc::new(LogicalCostModel::default()))
    }

    #[test]
    fn index_tuner_proposes_useful_indexes() {
        let (engine, t) = setup();
        let tuner = standard_tuner(FeatureKind::Indexing, what_if());
        let proposal = tuner
            .propose(
                &engine,
                &ConfigInstance::default(),
                &forecast(t, 100.0),
                &ConstraintSet::none(),
            )
            .unwrap();
        assert!(proposal.accepted);
        assert!(!proposal.actions.is_empty());
        assert!(proposal.predicted_benefit.ms() > 0.0);
        assert!(proposal.target.indexes.len() == proposal.chosen);
    }

    #[test]
    fn reconfiguration_weight_blocks_marginal_changes() {
        let (engine, t) = setup();
        let mut tuner = standard_tuner(FeatureKind::Indexing, what_if());
        // Tiny workload: index benefit exists but is marginal.
        tuner.benefit_horizon = 1.0;
        tuner.reconfiguration_weight = 1e6;
        let proposal = tuner
            .propose(
                &engine,
                &ConfigInstance::default(),
                &forecast(t, 0.01),
                &ConstraintSet::none(),
            )
            .unwrap();
        assert!(!proposal.accepted);
        assert!(proposal.actions.is_empty());
        assert_eq!(proposal.target, ConfigInstance::default());
    }

    #[test]
    fn memory_budget_limits_selection() {
        let (engine, t) = setup();
        let tuner = standard_tuner(FeatureKind::Indexing, what_if());
        let unconstrained = tuner
            .propose(
                &engine,
                &ConfigInstance::default(),
                &forecast(t, 100.0),
                &ConstraintSet::none(),
            )
            .unwrap();
        let tight = ConstraintSet {
            index_memory_bytes: Some(
                smdb_cost::sizes::estimate_index_bytes(500, 100, smdb_storage::IndexKind::Hash)
                    as i64
                    + 10,
            ),
            ..ConstraintSet::default()
        };
        let constrained = tuner
            .propose(
                &engine,
                &ConfigInstance::default(),
                &forecast(t, 100.0),
                &tight,
            )
            .unwrap();
        assert!(constrained.chosen < unconstrained.chosen);
        assert!(constrained.chosen >= 1);
    }

    fn trained_what_if(engine: &StorageEngine, t: TableId) -> WhatIf {
        // A calibrated model (trained on live executions) is needed for
        // tier/buffer-aware decisions — the logical model is blind there.
        let model = Arc::new(smdb_cost::CalibratedCostModel::new());
        let config = engine.current_config();
        for v in 0..100 {
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

    #[test]
    fn buffer_pool_tuner_changes_knob_only() {
        let (engine, t) = setup();
        let tuner = standard_tuner(FeatureKind::BufferPool, trained_what_if(&engine, t));
        let mut base = ConfigInstance::default();
        // Make the knob matter: everything on the cold tier, no buffer.
        for chunk in 0..4 {
            base.placements
                .insert((t, smdb_common::ChunkId(chunk)), smdb_storage::Tier::Cold);
        }
        base.knobs.buffer_pool_mb = 0.0;
        let proposal = tuner
            .propose(&engine, &base, &forecast(t, 100.0), &ConstraintSet::none())
            .unwrap();
        assert!(proposal.accepted, "{proposal:?}");
        assert_eq!(proposal.actions.len(), 1);
        assert!(matches!(proposal.actions[0], ConfigAction::SetKnob { .. }));
        assert!(proposal.target.knobs.buffer_pool_mb > 0.0);
    }

    #[test]
    fn compression_tuner_improves_scan_workload() {
        let (engine, t) = setup();
        let tuner = standard_tuner(FeatureKind::Compression, what_if());
        // The logical model is encoding-blind, so use the calibrated
        // feature-based path via a trained model? Here: use what-if with
        // the calibrated model untrained would bootstrap. Instead verify
        // the pipeline runs and produces a (possibly empty) proposal.
        let proposal = tuner
            .propose(
                &engine,
                &ConfigInstance::default(),
                &forecast(t, 100.0),
                &ConstraintSet::none(),
            )
            .unwrap();
        // Logical model sees no encoding benefit → no accepted changes.
        assert_eq!(proposal.actions.len(), 0);
        assert!(proposal.candidates_enumerated > 0);
    }
}
