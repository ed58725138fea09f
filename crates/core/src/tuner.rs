//! The per-feature tuner: enumerate → assess → select (Section II-D).
//!
//! A tuner "takes workload forecasts and cost estimations as input and
//! delivers configurations for features as output". `propose` is purely
//! hypothetical (what-if) — applying the proposal is the executor's job.
//!
//! A pass runs one pipeline: the enumerator's candidates, each one's
//! expected desirability and budget weight from the what-if assessor,
//! greedy selection under the pass's budget — the paper's selector of
//! "short runtime", which reads nothing else of an assessment — and the
//! diff against the base. An empty diff ends the pass; otherwise the
//! whole target configuration is priced and must pass the
//! reconfiguration-cost test. The assessor keeps its prices across
//! passes, so a converged pass re-weighs the prices it already holds,
//! and only those of candidates greedy could still choose.
//!
//! A gated pass that ends unchanged keeps a [`Certificate`] when its
//! prices prove greedy's choice weight-free ([`weight_free`]): the next
//! pass whose keys still hold — the base, the catalog, the cache
//! generation, the estimator version, the distinct-query set, weights
//! that keep every distinct query gaining, and a budget of at least the
//! chosen bytes — returns the same unchanged proposal in one walk of the
//! forecast's rows, without enumerating, pricing or selecting.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use parking_lot::Mutex;
use smdb_common::{Cost, Result};
use smdb_cost::cache::KeyHasher;
use smdb_cost::WhatIf;
use smdb_forecast::ForecastSet;
use smdb_storage::{ConfigAction, ConfigInstance, StorageEngine};

use crate::assessor::WhatIfAssessor;
use crate::candidate::{is_feasible, Candidate};
use crate::constraints::ConstraintSet;
use crate::enumerator::{Enumerator, Kept};
use crate::feature::FeatureKind;
use crate::selectors::{greedy_over, weight_free, Gains, DOMINANCE_SLACK};

/// A per-feature tuning pipeline.
pub struct Tuner {
    pub feature: FeatureKind,
    enumerator: Box<dyn Enumerator>,
    assessor: WhatIfAssessor,
    /// Weight of reconfiguration costs in the acceptance test: a proposal
    /// is accepted only when `benefit · horizon ≥ weight · reconfiguration
    /// cost`. Zero disables the test (every improving proposal is taken) —
    /// the configuration-thrash experiment (E10) contrasts the two.
    pub reconfiguration_weight: f64,
    /// How many forecast horizons the benefit is assumed to persist.
    pub benefit_horizon: f64,
    /// Reselect mode: the last pass's enumeration base and its
    /// fingerprint, reused while the base's other features are
    /// unchanged, so a converged pass strips and hashes nothing.
    stripped: Mutex<Option<(Arc<ConfigInstance>, u64)>>,
    /// The last pass's candidate list and the inputs it was built from.
    kept: Mutex<Kept>,
    /// What the last gated pass proved, if it ended unchanged.
    certificate: Mutex<Option<Certificate>>,
}

/// The tuner's output: a hypothetical configuration plus its predicted
/// economics.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningProposal {
    pub feature: FeatureKind,
    /// The proposed configuration; `None` when the proposal was not
    /// accepted and the base stands.
    pub target: Option<ConfigInstance>,
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
    /// How the pass reached this proposal.
    pub decided: Decided,
}

/// How a tuning pass reached its proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Decided {
    /// Enumerated, priced and selected; some price, or the target, was
    /// priced afresh.
    Priced,
    /// Enumerated and selected from prices all kept from the last full
    /// pass, and ended unchanged.
    FromKept,
    /// Returned the last gated pass's unchanged proposal under its
    /// [`Certificate`], without enumerating, pricing or selecting.
    Certified,
}

impl TuningProposal {
    /// Whether the proposal changes the configuration: its selection
    /// differs from the base and passed the reconfiguration-cost test.
    pub fn accepted(&self) -> bool {
        self.target.is_some()
    }
}

impl Tuner {
    /// Assembles a tuner from an enumerator and the estimator its
    /// what-if assessor prices candidates with.
    pub fn new(feature: FeatureKind, enumerator: Box<dyn Enumerator>, what_if: WhatIf) -> Self {
        Tuner {
            feature,
            enumerator,
            assessor: WhatIfAssessor::new(what_if, 0.8),
            reconfiguration_weight: 1.0,
            benefit_horizon: 10.0,
            stripped: Mutex::new(None),
            kept: Mutex::new(Kept::default()),
            certificate: Mutex::new(None),
        }
    }

    /// Whether a pass *re-selects* this feature's configuration from
    /// scratch instead of only adding to it: candidates are enumerated
    /// against the base configuration with this feature's entries
    /// stripped, and the action diff naturally drops entries (e.g. stale
    /// indexes) that no longer pay off. This is how classic index
    /// advisors (AutoAdmin, DB2 Advisor) behave, so the index tuner does.
    fn reselects(&self) -> bool {
        self.feature == FeatureKind::Indexing
    }

    /// `base` without its indexes (reselect mode) and its fingerprint:
    /// the kept pair while the base's other features still equal its
    /// own — a walk that allocates nothing — otherwise a fresh copy,
    /// hashed once and kept for the next pass.
    fn stripped_base(&self, base: &ConfigInstance) -> (Arc<ConfigInstance>, u64) {
        let mut kept = self.stripped.lock();
        let current = |(s, _): &&(Arc<ConfigInstance>, u64)| {
            s.encodings == base.encodings
                && s.placements == base.placements
                && s.knobs.buffer_pool_mb.to_bits() == base.knobs.buffer_pool_mb.to_bits()
        };
        if let Some((stripped, fingerprint)) = kept.as_ref().filter(current) {
            return (Arc::clone(stripped), *fingerprint);
        }
        let stripped = Arc::new(ConfigInstance {
            indexes: Default::default(),
            encodings: base.encodings.clone(),
            placements: base.placements.clone(),
            knobs: base.knobs.clone(),
        });
        let fingerprint = stripped.fingerprint();
        *kept = Some((Arc::clone(&stripped), fingerprint));
        (stripped, fingerprint)
    }

    /// Whether the chosen candidates, applied to the enumeration base,
    /// give back `base` — decided without building that target. In
    /// reselect mode the chosen actions must all create indexes and, the
    /// last per segment winning as in [`ConfigInstance::apply`], name
    /// exactly the base's indexes: one merge walk. Otherwise each must
    /// already hold in the base. `false` may still diff empty; the caller
    /// then builds the target and diffs it.
    fn selects_base(
        &self,
        base: &ConfigInstance,
        candidates: &[Candidate],
        chosen: &[usize],
    ) -> bool {
        if !self.reselects() {
            return chosen.iter().all(|&i| base.holds(&candidates[i].action));
        }
        let mut created = Vec::with_capacity(chosen.len());
        for &i in chosen {
            match candidates[i].action {
                ConfigAction::CreateIndex { target, kind } => created.push((target, kind)),
                _ => return false,
            }
        }
        // Stable: a segment's later choices stay after its earlier ones,
        // so its last choice ends its run.
        created.sort_by_key(|&(target, _)| target);
        let mut last = created
            .iter()
            .enumerate()
            .filter(|&(at, (target, _))| created.get(at + 1).is_none_or(|next| next.0 != *target))
            .map(|(_, entry)| entry);
        let mut indexes = base.indexes.iter();
        loop {
            match (last.next(), indexes.next()) {
                (None, None) => return true,
                (Some(chose), Some((target, kind))) if chose.0 == *target && chose.1 == *kind => {}
                _ => return false,
            }
        }
    }

    /// The memory budget the selection must respect for this feature.
    fn memory_budget(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        constraints: &ConstraintSet,
    ) -> Result<Option<i64>> {
        match self.feature {
            FeatureKind::Indexing => {
                let data_bytes = engine.data_bytes() as i64;
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
    /// (used by the dependence analysis, which wants raw optima). Only a
    /// gated pass reads or keeps a certificate.
    pub(crate) fn propose_internal(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
        constraints: &ConstraintSet,
        gated: bool,
    ) -> Result<TuningProposal> {
        if gated {
            if let Some(proposal) = self.certified(engine, base, scenarios, constraints)? {
                return Ok(proposal);
            }
        }
        // In reselect mode the pipeline runs against the base with this
        // feature stripped, so existing entries must re-earn their place.
        let stripped = self.reselects().then(|| self.stripped_base(base));
        let (enum_base, fingerprint) = match &stripped {
            Some((stripped, fingerprint)) => (&**stripped, *fingerprint),
            None => (base, base.fingerprint()),
        };
        // The kept list while the enumerator's inputs hold: the same
        // `Arc`, which the assessor's memo recognises by identity.
        let mut kept = self.kept.lock();
        let candidates =
            self.enumerator
                .enumerate_kept(engine, enum_base, fingerprint, scenarios, &mut kept)?;
        // Every list an enumerator keeps (and so may hand back) is the
        // list a fresh enumeration gives.
        #[cfg(debug_assertions)]
        if kept.holds_list() {
            let fresh = self.enumerator.enumerate(engine, enum_base, scenarios)?;
            debug_assert!(
                fresh[..] == candidates[..],
                "the kept candidate list differs from a fresh enumeration"
            );
        }
        drop(kept);
        if candidates.is_empty() {
            return Ok(self.rejected(0, Decided::Priced));
        }
        let memory_budget_bytes = self.memory_budget(engine, enum_base, constraints)?;
        // The scores come with `enum_base`'s scenario costs, reused below
        // for the combined economics (when not reselecting, `enum_base`
        // *is* the base configuration). A pass that ends unchanged still
        // prices them: their lookups are part of every pass's cache
        // traffic.
        let scores =
            self.assessor
                .scores_kept(engine, enum_base, fingerprint, scenarios, &candidates)?;
        let open = &scores.open;
        let chosen = greedy_over(&candidates, open.iter().copied(), memory_budget_bytes);
        debug_assert!(
            is_feasible(
                &candidates,
                |i| open
                    .binary_search_by_key(&i, |s| s.0)
                    .map_or(f64::NAN, |at| open[at].2),
                &chosen,
                memory_budget_bytes
            ),
            "greedy selection violated constraints"
        );

        // Already at (or re-confirmed as) the selected configuration.
        let target = (!self.selects_base(base, &candidates, &chosen))
            .then(|| self.target(enum_base, &candidates, &chosen));
        let actions = target.as_ref().map_or_else(Vec::new, |t| base.diff(t));
        let Some(target) = target.filter(|_| !actions.is_empty()) else {
            if gated {
                let stripped = stripped.map(|(stripped, _)| stripped);
                *self.certificate.lock() = self.certify(
                    engine,
                    base,
                    stripped,
                    fingerprint,
                    &candidates,
                    open,
                    &chosen,
                );
            }
            let decided = if scores.all_kept {
                smdb_obs::metrics::counter("tuner.reselected_from_kept").inc();
                Decided::FromKept
            } else {
                Decided::Priced
            };
            return Ok(self.rejected(candidates.len(), decided));
        };

        // Combined economics: whole-configuration what-if instead of the
        // interaction-blind sum of per-candidate desirabilities.
        let base_costs = if self.reselects() {
            self.assessor.scenario_costs(engine, base, scenarios)?
        } else {
            scores.base_costs
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
        Ok(TuningProposal {
            feature: self.feature,
            target: accepted.then_some(target),
            actions: if accepted { actions } else { Vec::new() },
            predicted_benefit,
            reconfiguration_cost,
            candidates_enumerated: candidates.len(),
            chosen: chosen.len(),
            decided: Decided::Priced,
        })
    }

    /// The last gated pass's unchanged proposal, when its certificate
    /// still holds for this pass; the certificate is spent otherwise.
    fn certified(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
        constraints: &ConstraintSet,
    ) -> Result<Option<TuningProposal>> {
        let mut kept = self.certificate.lock();
        let Some(mut certificate) = kept.take() else {
            return Ok(None);
        };
        if !certificate.holds(engine, base, self.assessor.what_if(), scenarios) {
            return Ok(None);
        }
        let enum_base = certificate.stripped.as_deref().unwrap_or(&certificate.base);
        let budget = self.memory_budget(engine, enum_base, constraints)?;
        if budget.is_some_and(|budget| budget < certificate.gains.chosen_bytes) {
            return Ok(None);
        }
        let proposal = self.rejected(certificate.candidates, Decided::Certified);
        #[cfg(debug_assertions)]
        {
            let full = self.unkept_pass(engine, base, enum_base, scenarios, budget)?;
            debug_assert_eq!(
                full,
                (true, certificate.candidates),
                "a certified pass differs from the full pass it skips"
            );
        }
        // Equal by content to the configuration in effect: later passes
        // compare the engine's own `Arc` by identity instead.
        if std::ptr::eq(base, engine.config()) && !std::ptr::eq(base, &*certificate.base) {
            certificate.base = engine.shared_config();
        }
        *kept = Some(certificate);
        smdb_obs::metrics::counter("tuner.certified").inc();
        Ok(Some(proposal))
    }

    /// The certificate of an unchanged gated pass, when the enumerator's
    /// set is weight-free and the pass's kept prices prove greedy's
    /// choice weight-free too. `stripped` is the enumeration base in
    /// reselect mode, and `fingerprint` the enumeration base's.
    #[allow(clippy::too_many_arguments)]
    fn certify(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        stripped: Option<Arc<ConfigInstance>>,
        fingerprint: u64,
        candidates: &[Candidate],
        open: &[(usize, f64, f64)],
        chosen: &[usize],
    ) -> Option<Certificate> {
        if !self.enumerator.weight_free() {
            return None;
        }
        let what_if = self.assessor.what_if();
        let generation = what_if.cache_generation()?;
        let (gains, queries) = self
            .assessor
            .kept_prices(|prices| {
                if !prices.priced_under(generation, fingerprint) {
                    return None;
                }
                let savings = |i: usize| prices.savings(&candidates[i].action);
                let gains = weight_free(candidates, open, savings, chosen)?;
                let queries = prices.queries().iter().enumerate();
                Some((gains, queries.map(|(at, &q)| (q, at)).collect()))
            })
            .flatten()?;
        Some(Certificate {
            base: shared(engine, base),
            stripped,
            catalog_token: engine.catalog_token(),
            generation,
            version: what_if.estimator().version(),
            queries,
            gains,
            candidates: candidates.len(),
        })
    }

    /// The full pipeline behind a certified pass, on a fresh enumeration
    /// and an uncached assessor over the same estimator, so it moves no
    /// kept list, no kept price and no cache counter: whether it ends
    /// unchanged, and over how many candidates.
    #[cfg(debug_assertions)]
    fn unkept_pass(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        enum_base: &ConfigInstance,
        scenarios: &ForecastSet,
        budget: Option<i64>,
    ) -> Result<(bool, usize)> {
        let candidates = self.enumerator.enumerate(engine, enum_base, scenarios)?;
        let estimator = Arc::clone(self.assessor.what_if().estimator());
        let mut assessor = WhatIfAssessor::new(WhatIf::uncached(estimator), 0.8);
        assessor.threads = 1;
        let scores = assessor.scores(engine, enum_base, scenarios, &candidates)?;
        let chosen = greedy_over(&candidates, scores.open.into_iter(), budget);
        let unchanged = self.selects_base(base, &candidates, &chosen)
            || base
                .diff(&self.target(enum_base, &candidates, &chosen))
                .is_empty();
        Ok((unchanged, candidates.len()))
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

    fn rejected(&self, enumerated: usize, decided: Decided) -> TuningProposal {
        TuningProposal {
            feature: self.feature,
            target: None,
            actions: Vec::new(),
            predicted_benefit: Cost::ZERO,
            reconfiguration_cost: Cost::ZERO,
            candidates_enumerated: enumerated,
            chosen: 0,
            decided,
        }
    }
}

/// Builds the standard tuner for a feature: its enumerator, with the
/// what-if assessor over the given estimator.
pub fn standard_tuner(feature: FeatureKind, what_if: WhatIf) -> Tuner {
    use crate::enumerator::{
        BufferPoolEnumerator, EncodingEnumerator, IndexEnumerator, PlacementEnumerator,
    };

    let enumerator: Box<dyn Enumerator> = match feature {
        FeatureKind::Indexing => Box::new(IndexEnumerator::default()),
        FeatureKind::Compression => Box::new(EncodingEnumerator),
        FeatureKind::Placement => Box::new(PlacementEnumerator),
        FeatureKind::BufferPool => Box::new(BufferPoolEnumerator::default()),
    };
    Tuner::new(feature, enumerator, what_if)
}

/// `config` shared: the engine's own `Arc` when it is the configuration
/// in effect — the engine copies it before changing it, so the `Arc`
/// also names its content — otherwise a copy.
fn shared(engine: &StorageEngine, config: &ConfigInstance) -> Arc<ConfigInstance> {
    if std::ptr::eq(config, engine.config()) {
        engine.shared_config()
    } else {
        Arc::new(config.clone())
    }
}

/// What a gated pass that ended unchanged proved — by [`weight_free`],
/// greedy makes the same choice under every re-weighting of its distinct
/// queries that keeps each gaining and a budget of at least the chosen
/// bytes — and the keys its prices and candidate set hold under. It is
/// kept in memory only: a restored or recovered driver's tuners start
/// without one and run one full pass first.
struct Certificate {
    /// The base the pass tuned; the enumeration base is a function of it.
    base: Arc<ConfigInstance>,
    /// The enumeration base in reselect mode (otherwise `base` itself).
    stripped: Option<Arc<ConfigInstance>>,
    catalog_token: u64,
    generation: u64,
    version: u64,
    queries: QueryIndex,
    gains: Gains,
    /// The candidate count the pass enumerated.
    candidates: usize,
}

impl Certificate {
    /// Whether every key but the budget holds for a pass over `base` and
    /// `scenarios`.
    fn holds(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        what_if: &WhatIf,
        scenarios: &ForecastSet,
    ) -> bool {
        (std::ptr::eq(base, &*self.base) || *base == *self.base)
            && engine.catalog_token() == self.catalog_token
            && what_if.cache_generation() == Some(self.generation)
            && what_if.estimator().version() == self.version
            && weights_gain(&self.queries, &self.gains, scenarios)
    }
}

/// Distinct queries by instance fingerprint, to their index.
pub(crate) type QueryIndex = HashMap<u64, usize, BuildHasherDefault<KeyHasher>>;

/// Whether `scenarios` re-weights exactly the distinct queries of
/// `queries` within what [`weight_free`] proved for `gains`, in one walk
/// of their rows: every probability and weight finite and ≥ 0, each
/// distinct query gaining — some row weighs the least gain above 0 —
/// every score finite, and few enough rows that their float error stays
/// within [`DOMINANCE_SLACK`].
pub(crate) fn weights_gain(queries: &QueryIndex, gains: &Gains, scenarios: &ForecastSet) -> bool {
    let mut gaining = vec![false; queries.len()];
    let (mut rows, mut bound) = (0usize, 0.0f64);
    for scenario in scenarios.iter() {
        let p = scenario.probability;
        if !(0.0..f64::INFINITY).contains(&p) {
            return false;
        }
        for row in scenario.workload.queries() {
            let w = row.weight;
            let Some(&q) = queries.get(&row.query.instance_fingerprint()) else {
                return false;
            };
            if !(0.0..f64::INFINITY).contains(&w) {
                return false;
            }
            // Rounding is monotone: a row that weighs the least gain
            // above 0 weighs every larger one above 0.
            gaining[q] |= p * (w * gains.least) > 0.0;
            bound += p * (w * gains.most);
            rows += 1;
        }
    }
    let error = (rows + scenarios.len() + 3) as f64 * f64::EPSILON;
    gaining.iter().all(|&g| g) && bound.is_finite() && 2.0 * error < DOMINANCE_SLACK
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
        assert!(proposal.accepted());
        assert!(!proposal.actions.is_empty());
        assert!(proposal.predicted_benefit.ms() > 0.0);
        assert!(proposal.target.as_ref().unwrap().indexes.len() == proposal.chosen);
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
        assert!(!proposal.accepted());
        assert!(proposal.actions.is_empty());
        assert_eq!(proposal.target, None);
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
        assert!(proposal.accepted(), "{proposal:?}");
        assert_eq!(proposal.actions.len(), 1);
        assert!(matches!(proposal.actions[0], ConfigAction::SetKnob { .. }));
        assert!(proposal.target.as_ref().unwrap().knobs.buffer_pool_mb > 0.0);
    }

    /// A pass whose candidates come in another order still finds every
    /// kept price: the encoding candidates (worthless to the logical
    /// model, so nothing changes) reversed on every other pass are priced
    /// wholly from kept prices from the second pass on.
    #[test]
    fn a_reordered_candidate_list_is_priced_from_kept_prices() {
        /// The encoding enumerator's candidates, reversed on odd calls.
        struct Alternating(std::sync::Mutex<usize>);

        impl Enumerator for Alternating {
            fn name(&self) -> &str {
                "alternating"
            }

            fn enumerate(
                &self,
                engine: &StorageEngine,
                base: &ConfigInstance,
                scenarios: &ForecastSet,
            ) -> Result<Vec<crate::candidate::Candidate>> {
                let mut calls = self.0.lock().unwrap();
                let enumerator = crate::enumerator::EncodingEnumerator;
                let mut candidates = enumerator.enumerate(engine, base, scenarios)?;
                if *calls % 2 == 1 {
                    candidates.reverse();
                }
                *calls += 1;
                Ok(candidates)
            }
        }

        let (engine, t) = setup();
        let enumerator = Alternating(std::sync::Mutex::new(0));
        let tuner = Tuner::new(FeatureKind::Compression, Box::new(enumerator), what_if());
        for pass in 0..3 {
            let proposal = tuner
                .propose(
                    &engine,
                    &ConfigInstance::default(),
                    &forecast(t, 100.0),
                    &ConstraintSet::none(),
                )
                .unwrap();
            assert!(proposal.candidates_enumerated > 1);
            assert!(proposal.actions.is_empty());
            let decided = [Decided::Priced, Decided::FromKept][usize::from(pass > 0)];
            assert_eq!(proposal.decided, decided, "pass {pass}");
        }
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

    /// The early exit against the path it skips: whenever
    /// `selects_base` holds, building the target and diffing it against
    /// the base gives no action — over random bases, candidate lists
    /// that repeat segments and mix in other actions, and chosen sets in
    /// any order. In reselect mode with only index creations chosen the
    /// two agree both ways.
    #[test]
    fn the_early_exit_agrees_with_the_target_diff_path() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use smdb_common::ChunkColumnRef;
        use smdb_storage::{EncodingKind, IndexKind};

        let (_, t) = setup();
        let kinds = [IndexKind::Hash, IndexKind::BTree];
        let encodings = [EncodingKind::Dictionary, EncodingKind::RunLength];
        let segment = |rng: &mut StdRng| ChunkColumnRef::new(t.0, 0, rng.random_range(0..4));
        let (mut exits, mut agreed) = (0, 0);
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut base = ConfigInstance::default();
            for _ in 0..rng.random_range(0..4) {
                let kind = kinds[rng.random_range(0usize..2)];
                base.indexes.insert(segment(&mut rng), kind);
            }
            if rng.random_bool(0.3) {
                let kind = encodings[rng.random_range(0usize..2)];
                base.encodings.insert(segment(&mut rng), kind);
            }
            // Often exactly the base's indexes, re-ranked; sometimes more,
            // fewer, another kind, or another feature's action.
            let mut candidates: Vec<Candidate> = base
                .indexes
                .iter()
                .map(|(&target, &kind)| ConfigAction::CreateIndex { target, kind })
                .chain(
                    (0..rng.random_range(0..4)).map(|_| match rng.random_range(0..6) {
                        0 => ConfigAction::DropIndex {
                            target: segment(&mut rng),
                        },
                        1 => ConfigAction::SetEncoding {
                            target: segment(&mut rng),
                            kind: encodings[rng.random_range(0usize..2)],
                        },
                        _ => ConfigAction::CreateIndex {
                            target: segment(&mut rng),
                            kind: kinds[rng.random_range(0usize..2)],
                        },
                    }),
                )
                .map(|action| Candidate::new(action, None))
                .collect();
            let n = candidates.len();
            for i in (1..n).rev() {
                candidates.swap(i, rng.random_range(0..=i));
            }
            let mut chosen: Vec<usize> = (0..n).filter(|_| rng.random_bool(0.85)).collect();
            for i in (1..chosen.len()).rev() {
                chosen.swap(i, rng.random_range(0..=i));
            }
            for feature in [FeatureKind::Indexing, FeatureKind::Compression] {
                let tuner = standard_tuner(feature, what_if());
                let stripped = tuner.reselects().then(|| tuner.stripped_base(&base).0);
                let enum_base = stripped.as_deref().unwrap_or(&base);
                let exit = tuner.selects_base(&base, &candidates, &chosen);
                let unchanged = base
                    .diff(&tuner.target(enum_base, &candidates, &chosen))
                    .is_empty();
                assert!(
                    !exit || unchanged,
                    "seed {seed} {feature:?}: exit but the diff is not empty"
                );
                let creates_only = chosen
                    .iter()
                    .all(|&i| matches!(candidates[i].action, ConfigAction::CreateIndex { .. }));
                if tuner.reselects() && creates_only {
                    assert_eq!(exit, unchanged, "seed {seed}");
                    agreed += 1;
                }
                exits += usize::from(exit);
            }
        }
        assert!(
            exits > 50 && agreed > 100,
            "{exits} exits, {agreed} exact cases"
        );
    }

    /// Passes over random weights and candidate lists re-ranked on every
    /// call: once a changing pass's proposal is applied, the next pass —
    /// the same forecast, the candidates in another order — chooses a
    /// set the early exit recognises as the base, so it ends before
    /// building a target, reporting what an empty diff does.
    #[test]
    fn a_converged_pass_builds_no_target() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        /// The index enumerator's candidates, shuffled on every call.
        struct Shuffled(std::sync::Mutex<StdRng>);

        impl Enumerator for Shuffled {
            fn name(&self) -> &str {
                "shuffled"
            }

            fn enumerate(
                &self,
                engine: &StorageEngine,
                base: &ConfigInstance,
                scenarios: &ForecastSet,
            ) -> Result<Vec<Candidate>> {
                let enumerator = crate::enumerator::IndexEnumerator::default();
                let mut candidates = enumerator.enumerate(engine, base, scenarios)?;
                let mut rng = self.0.lock().unwrap();
                for i in (1..candidates.len()).rev() {
                    candidates.swap(i, rng.random_range(0..=i));
                }
                Ok(candidates)
            }
        }

        let (engine, t) = setup();
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let weight = rng.random_range(1i64..400) as f64;
            let enumerator = Shuffled(std::sync::Mutex::new(StdRng::seed_from_u64(seed)));
            let tuner = Tuner::new(FeatureKind::Indexing, Box::new(enumerator), what_if());
            let scenarios = forecast(t, weight);
            let constraints = ConstraintSet::none();
            let first = tuner
                .propose(
                    &engine,
                    &ConfigInstance::default(),
                    &scenarios,
                    &constraints,
                )
                .unwrap();
            assert!(first.accepted(), "weight {weight}: {first:?}");
            let tuned = first.target.clone().unwrap();
            for pass in 0..3 {
                // The choice a converged pass makes, in another order.
                let (enum_base, _) = tuner.stripped_base(&tuned);
                let candidates = tuner
                    .enumerator
                    .enumerate(&engine, &enum_base, &scenarios)
                    .unwrap();
                let scores = tuner
                    .assessor
                    .scores(&engine, &enum_base, &scenarios, &candidates)
                    .unwrap();
                let budget = tuner
                    .memory_budget(&engine, &enum_base, &constraints)
                    .unwrap();
                let chosen = greedy_over(&candidates, scores.open.iter().copied(), budget);
                assert!(
                    tuner.selects_base(&tuned, &candidates, &chosen),
                    "weight {weight}, pass {pass}: no early exit"
                );
                let again = tuner
                    .propose(&engine, &tuned, &scenarios, &constraints)
                    .unwrap();
                // A shuffling enumerator's set is not certified weight-free.
                assert_ne!(again.decided, Decided::Certified);
                let rejected = tuner.rejected(first.candidates_enumerated, again.decided);
                assert_eq!(again, rejected);
            }
        }
    }
}
