//! Candidate assessors (Section II-D(b)).
//!
//! An assessor attaches to every candidate a per-scenario desirability,
//! a confidence, a permanent (memory) cost and a one-time
//! (reconfiguration) cost. The default implementation is what-if based:
//! it evaluates the forecast workload cost with and without the candidate
//! using an exchangeable cost estimator.
//!
//! A pass prices the base configuration once (`PricedBase`): the
//! scenarios' *distinct* queries, each with its footprint and base cost,
//! and per scenario its `(query, weight)` rows. A candidate's [`Price`]
//! — the hypothetical cost of each distinct query it can affect, its
//! permanent and its one-time cost — comes from patching the base
//! [`ConfigContext`] in O(1) and looking up each affected distinct query
//! once; the hypothetical [`ConfigInstance`] is built only if a lookup
//! misses. Its desirability is then that price re-weighed by the pass's
//! scenario rows. Prices do not move while the base configuration, the
//! catalog, the estimator and the cache hold — only the forecast's
//! weights do — so the assessor keeps the last full pass's prices and a
//! converged pass re-weighs them instead of re-pricing. Candidates whose
//! lookups all hit are finished on the calling thread — a converged pass
//! wakes and waits for no other thread — and only those that need the
//! estimator fan out, in contiguous blocks over the storage scan pool
//! (the workspace's designated thread seam) rather than ad-hoc threads.

use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, OnceLock};

use smdb_common::{Cost, Result, TableId};
use smdb_cost::features::ConfigContext;
use smdb_cost::footprint::ActionDelta;
use smdb_cost::what_if::{estimate_action_cost, PricedWorkloads};
use smdb_cost::{sizes, CacheStats, WhatIf};
use smdb_forecast::ForecastSet;
use smdb_storage::parallel::ScanPool;
use smdb_storage::{ConfigAction, ConfigInstance, StorageEngine, Tier};

use crate::candidate::{Assessment, Candidate};

/// Assesses candidates against a forecast.
pub trait Assessor: Send + Sync {
    /// Human-readable name.
    fn name(&self) -> &str;

    /// Estimated workload cost of each scenario under `config` (ms,
    /// aligned with the scenario order). The tuner uses this to price
    /// whole configurations (combined benefit), not just per-candidate
    /// deltas.
    fn scenario_costs(
        &self,
        engine: &StorageEngine,
        config: &ConfigInstance,
        scenarios: &ForecastSet,
    ) -> Result<Vec<f64>>;

    /// Assesses all candidates relative to `base`.
    fn assess(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
        candidates: &[Candidate],
    ) -> Result<Vec<Assessment>>;

    /// Re-assesses a subset of candidates against an updated base
    /// configuration — the paper's "selectors can also request
    /// re-assessments … to reflect changed circumstances or incorporate
    /// interaction between candidates". Each assessment names its
    /// candidate's index in `candidates`.
    fn reassess(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
        candidates: &[Candidate],
        subset: &[usize],
    ) -> Result<Vec<Assessment>>;
}

/// Blocks the candidate fan-out cuts per lane: enough that a lane stuck
/// on a block of cache misses does not leave the others idle.
const BLOCKS_PER_LANE: usize = 8;

/// What [`WhatIfAssessor::price`] does when a lookup misses.
#[derive(Clone, Copy)]
enum OnMiss {
    /// Run the estimator (and cache its answer).
    Estimate,
    /// Give the candidate up, uncounted, for the fan-out to price whole.
    Defer,
}

/// The what-if assessor: desirability = estimated workload cost without
/// candidate − with candidate, per scenario.
pub struct WhatIfAssessor {
    what_if: WhatIf,
    /// Reported assessment confidence (a property of the underlying cost
    /// model: logical models are less trustworthy than calibrated ones).
    pub confidence: f64,
    /// Number of worker threads for candidate fan-out (1 = sequential).
    pub threads: usize,
    /// Lazily-built scan pool for the fan-out, sized from `threads` at
    /// first parallel use.
    pool: OnceLock<Arc<ScanPool>>,
    /// The last full `assess` pass's prices (only with a cached what-if).
    memo: Mutex<Option<PriceMemo>>,
}

impl WhatIfAssessor {
    /// Creates an assessor over a cost estimator.
    pub fn new(what_if: WhatIf, confidence: f64) -> Self {
        WhatIfAssessor {
            what_if,
            confidence,
            threads: 4,
            pool: OnceLock::new(),
            memo: Mutex::new(None),
        }
    }

    /// Prices one candidate against the base.
    ///
    /// Delta-aware: only distinct queries whose footprint intersects the
    /// candidate's [`ActionDelta`] are re-costed, once each however many
    /// scenario rows name them; every other query's cost is bit-identical
    /// under the hypothetical configuration (the estimator reads nothing
    /// the action changes), so it contributes exactly zero to the
    /// desirability and is skipped. The hypothetical [`ConfigContext`] —
    /// nonhot bytes and cache-key digest — is patched from the base
    /// context in O(1), and the hypothetical [`ConfigInstance`] itself is
    /// built at most once, only when a lookup misses (or the what-if is
    /// uncached): a candidate whose lookups all hit never clones the base
    /// configuration. Under [`OnMiss::Defer`] the first miss returns
    /// `None` and leaves `tally` as it was.
    fn price(
        &self,
        base: &PricedBase<'_>,
        action: &ConfigAction,
        on_miss: OnMiss,
        tally: &mut CacheStats,
    ) -> Result<Option<Price>> {
        let (engine, config) = (base.engine, base.config);
        let delta = ActionDelta::of(config, action);
        let hypo_ctx = base.ctx.apply_action(engine, config, action)?;
        let hypo = OnceCell::new();
        let materialise = || {
            hypo.get_or_init(|| {
                #[cfg(test)]
                HYPOTHETICALS_BUILT.with(|n| n.set(n.get() + 1));
                let mut hypo = config.clone();
                hypo.apply(action);
                hypo
            })
        };

        let mut lookups = CacheStats::default();
        let mut costs = Vec::with_capacity(base.workloads.queries.len());
        for q in &base.workloads.queries {
            if !delta.affects(&q.footprint, |t| base.nonhot_tables.contains(&t)) {
                costs.push(None);
                continue;
            }
            #[cfg(test)]
            KEYS_DERIVED.with(|n| n.set(n.get() + 1));
            let (ctx, fp) = (&hypo_ctx, &q.footprint);
            let cost = match on_miss {
                OnMiss::Estimate => self.what_if.query_cost_fp(
                    engine,
                    ctx,
                    fp,
                    q.query,
                    materialise,
                    &mut lookups,
                )?,
                OnMiss::Defer => {
                    match self.what_if.cached_cost_fp(ctx, fp, q.query, &mut lookups) {
                        Some(cost) => cost,
                        None => return Ok(None),
                    }
                }
            };
            costs.push(Some(cost));
        }
        base.count_rows(&costs, lookups.misses, tally);

        Ok(Some(Price {
            costs,
            permanent_bytes: estimate_permanent_bytes(engine, config, action)?,
            one_time_cost: estimate_action_cost(engine, config, action)?,
        }))
    }

    /// Prices the candidates at `indices` into the matching `out` slots,
    /// taking a price from `memo` where it holds one for the candidate,
    /// and counting the block's cache lookups locally and recording them
    /// once. A slot stays `None` only where `on_miss` deferred.
    fn price_block(
        &self,
        base: &PricedBase<'_>,
        candidates: &[Candidate],
        indices: &[usize],
        on_miss: OnMiss,
        mut memo: Option<&mut PriceMemo>,
        out: &mut [Option<Result<Price>>],
    ) {
        let mut tally = CacheStats::default();
        for (&index, slot) in indices.iter().zip(out) {
            let action = &candidates[index].action;
            *slot = match memo.as_deref_mut().and_then(|m| m.take(index, action)) {
                Some(price) => {
                    // Every row it re-costs would have looked up an entry
                    // the pass that priced it left behind: all hits.
                    base.count_rows(&price.costs, 0, &mut tally);
                    Some(Ok(price))
                }
                None => self.price(base, action, on_miss, &mut tally).transpose(),
            };
        }
        self.what_if.record_lookups(tally);
    }

    /// Assesses the candidates at `indices`. A full pass (`keep`) reads
    /// the last full pass's prices where they still hold and leaves its
    /// own behind; a re-assessment touches neither.
    fn assess_at(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
        candidates: &[Candidate],
        indices: &[usize],
        keep: bool,
    ) -> Result<Vec<Assessment>> {
        let _span = smdb_obs::span!("assessor", "assess", { candidates: indices.len() });
        smdb_obs::metrics::counter("assessor.assess_calls").inc();
        smdb_obs::metrics::counter("assessor.candidates_assessed").add(indices.len() as u64);
        // Per-query base costs, footprints and the base context, computed
        // once and shared (read-only) by every candidate worker.
        let ctx = self.what_if.config_context(engine, base);
        let workloads = self.what_if.price_workloads(
            engine,
            &ctx,
            scenarios.iter().map(|s| &s.workload),
            base,
        )?;
        let priced = PricedBase {
            engine,
            config: base,
            ctx,
            workloads,
            probabilities: scenarios.iter().map(|s| s.probability).collect(),
            nonhot_tables: base
                .placements
                .iter()
                .filter(|&(_, &tier)| tier != Tier::Hot)
                .map(|(&(t, _), _)| t)
                .collect(),
        };
        let key = if keep { self.memo_key(&priced) } else { None };
        let mut memo = key.as_ref().and_then(|key| {
            let memo = self.memo.lock().unwrap_or_else(|p| p.into_inner()).take()?;
            (memo.key == *key).then_some(memo)
        });

        // Warm candidates — a price kept from the last pass, or every
        // lookup a hit, a few microseconds each — are finished right
        // here: a converged pass is nothing else, and handing a helper
        // thread a share of it cost more in wake-up and waiting than it
        // saved, by an amount that varied run to run. A sequential
        // assessor has no thread to hand cold ones to, so it estimates
        // them on this first visit.
        let on_miss = if self.threads <= 1 {
            OnMiss::Estimate
        } else {
            OnMiss::Defer
        };
        let mut slots: Vec<Option<Result<Price>>> = Vec::new();
        slots.resize_with(indices.len(), || None);
        self.price_block(
            &priced,
            candidates,
            indices,
            on_miss,
            memo.as_mut(),
            &mut slots,
        );

        // Cold candidates need the estimator, which is worth a thread.
        let cold: Vec<usize> = indices
            .iter()
            .zip(&slots)
            .filter(|(_, slot)| slot.is_none())
            .map(|(&i, _)| i)
            .collect();
        let mut estimated: Vec<Option<Result<Price>>> = Vec::new();
        estimated.resize_with(cold.len(), || None);
        let threads = self.threads.max(1).min(cold.len().max(1));
        if threads == 1 || cold.len() < 8 {
            self.price_block(
                &priced,
                candidates,
                &cold,
                OnMiss::Estimate,
                None,
                &mut estimated,
            );
        } else {
            // Fan out contiguous blocks — a few per lane, so the
            // dispatch cost is O(threads) however many candidates —
            // over the shared scan pool, each written through its own
            // disjoint slice of `estimated` (the lock is per block and
            // never contended). Workers share one Sync cost cache
            // through `self.what_if`; results are independent of the
            // thread count and the block size because cached and
            // freshly computed costs are bit-identical.
            let pool = self.pool.get_or_init(|| ScanPool::new(threads));
            let block = cold.len().div_ceil(threads * BLOCKS_PER_LANE);
            let blocks: Vec<_> = cold
                .chunks(block)
                .zip(estimated.chunks_mut(block))
                .map(Mutex::new)
                .collect();
            pool.run(blocks.len(), |b| {
                let mut guard = blocks[b].lock().unwrap_or_else(|p| p.into_inner());
                let (indices, out) = &mut *guard;
                self.price_block(&priced, candidates, indices, OnMiss::Estimate, None, out);
            });
        }
        let mut estimated = estimated.into_iter();
        for slot in slots.iter_mut().filter(|slot| slot.is_none()) {
            *slot = estimated.next().flatten();
        }

        // One pricing path from here: kept and fresh prices alike are
        // re-weighed by this pass's scenarios.
        let mut assessments = Vec::with_capacity(indices.len());
        let mut kept = Vec::with_capacity(indices.len());
        let mut failed = None;
        for (&index, slot) in indices.iter().zip(slots) {
            // A panicked block leaves the rest of its slots empty;
            // surface those candidates as errors instead of taking
            // down the whole process.
            let slot = slot.unwrap_or_else(|| {
                Err(smdb_common::Error::invalid(
                    "candidate assessment worker failed",
                ))
            });
            match slot {
                Ok(price) => {
                    assessments.push(priced.assessment(index, &price, self.confidence));
                    kept.push(Some((candidates[index].action.clone(), price)));
                }
                Err(e) => {
                    failed.get_or_insert(e);
                    kept.push(None);
                }
            }
        }
        if let Some(key) = key {
            *self.memo.lock().unwrap_or_else(|p| p.into_inner()) =
                Some(PriceMemo { key, prices: kept });
        }
        match failed {
            Some(e) => Err(e),
            None => Ok(assessments),
        }
    }

    /// What this pass's prices are valid under, or `None` without a
    /// cache (no generation to tie them to).
    fn memo_key(&self, priced: &PricedBase<'_>) -> Option<MemoKey> {
        Some(MemoKey {
            generation: self.what_if.cache_generation()?,
            version: self.what_if.estimator().version(),
            catalog_token: priced.engine.catalog_token(),
            base: priced.config.fingerprint(),
            queries: priced
                .workloads
                .queries
                .iter()
                .map(|q| q.query.instance_fingerprint())
                .collect(),
        })
    }
}

#[cfg(test)]
thread_local! {
    /// Hypothetical `ConfigInstance`s this thread's `price` calls built.
    static HYPOTHETICALS_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Cache keys this thread's `price` calls derived.
    static KEYS_DERIVED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The base configuration priced once per pass and shared, read-only,
/// by every candidate worker.
struct PricedBase<'a> {
    engine: &'a StorageEngine,
    config: &'a ConfigInstance,
    ctx: ConfigContext,
    /// The scenarios' distinct queries with their base costs, and each
    /// scenario's `(query, weight)` rows.
    workloads: PricedWorkloads<'a>,
    /// Scenario probabilities, shared by every assessment of the pass.
    probabilities: Arc<[f64]>,
    /// Tables owning a non-hot chunk under `config`: the blast radius of
    /// global (buffer-pressure) deltas.
    nonhot_tables: BTreeSet<TableId>,
}

impl PricedBase<'_> {
    /// `price` re-weighed by this pass's scenarios: per scenario, the sum
    /// of `weight · (base − hypothetical)` over the rows whose query the
    /// candidate re-costs, in row order — the same terms in the same
    /// order as a sum over every row, so bit-identical to it.
    fn assessment(&self, index: usize, price: &Price, confidence: f64) -> Assessment {
        let queries = &self.workloads.queries;
        let per_scenario = self
            .workloads
            .rows
            .iter()
            .map(|rows| {
                let mut benefit = 0.0;
                for &(q, weight) in rows {
                    if let Some(cost) = price.costs[q] {
                        benefit += (queries[q].cost.ms() - cost.ms()) * weight;
                    }
                }
                benefit
            })
            .collect();
        Assessment {
            candidate: index,
            per_scenario,
            probabilities: Arc::clone(&self.probabilities),
            confidence,
            permanent_bytes: price.permanent_bytes,
            one_time_cost: price.one_time_cost,
        }
    }

    /// Counts a candidate's lookups per scenario *row*, as if each row
    /// naming a query it re-costs had looked itself up: every such row is
    /// a hit except the `misses` its distinct queries' lookups took (a
    /// repeated row follows its query's first lookup, which left the
    /// entry behind).
    fn count_rows(&self, costs: &[Option<Cost>], misses: u64, tally: &mut CacheStats) {
        let rows: u64 = costs
            .iter()
            .zip(&self.workloads.queries)
            .filter(|(cost, _)| cost.is_some())
            .map(|(_, q)| q.rows)
            .sum();
        tally.hits += rows - misses;
        tally.misses += misses;
    }
}

/// What a candidate costs against one base configuration: everything an
/// assessment holds but the forecast's weights.
struct Price {
    /// Hypothetical cost of each distinct scenario query (aligned with
    /// `PricedBase::workloads`), `None` where the action cannot reach it.
    costs: Vec<Option<Cost>>,
    permanent_bytes: i64,
    one_time_cost: Cost,
}

/// What a pass's prices were priced under. Equal keys mean equal prices
/// for equal actions — prices are pure functions of the estimator (its
/// version), the catalog, the base configuration and the distinct
/// queries — and the cache generation ties them to the entries they
/// were priced off: while it holds, every lookup that produced a price
/// would hit again, so a kept price counts exactly those hits. The
/// forecast's weights and probabilities are deliberately absent: they
/// move every pass, which is why a whole-pass fingerprint never matches.
#[derive(PartialEq)]
struct MemoKey {
    generation: u64,
    version: u64,
    catalog_token: u64,
    /// The base configuration's fingerprint.
    base: u64,
    /// Instance fingerprints of the distinct queries, in order.
    queries: Vec<u64>,
}

/// One full pass's prices, by candidate position; `None` where the
/// candidate's assessment failed.
struct PriceMemo {
    key: MemoKey,
    prices: Vec<Option<(ConfigAction, Price)>>,
}

impl PriceMemo {
    /// Takes the price kept for candidate `index`, if it was priced for
    /// the same action.
    fn take(&mut self, index: usize, action: &ConfigAction) -> Option<Price> {
        let slot = self.prices.get_mut(index)?;
        match slot {
            Some((kept, _)) if kept == action => slot.take().map(|(_, price)| price),
            _ => None,
        }
    }
}

impl Assessor for WhatIfAssessor {
    fn name(&self) -> &str {
        "what_if"
    }

    fn scenario_costs(
        &self,
        engine: &StorageEngine,
        config: &ConfigInstance,
        scenarios: &ForecastSet,
    ) -> Result<Vec<f64>> {
        let costs =
            self.what_if
                .workload_costs(engine, scenarios.iter().map(|s| &s.workload), config)?;
        Ok(costs.into_iter().map(Cost::ms).collect())
    }

    fn assess(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
        candidates: &[Candidate],
    ) -> Result<Vec<Assessment>> {
        let all: Vec<usize> = (0..candidates.len()).collect();
        self.assess_at(engine, base, scenarios, candidates, &all, true)
    }

    fn reassess(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
        candidates: &[Candidate],
        subset: &[usize],
    ) -> Result<Vec<Assessment>> {
        self.assess_at(engine, base, scenarios, candidates, subset, false)
    }
}

/// Memory delta of applying an action: estimated footprint after − before.
fn estimate_permanent_bytes(
    engine: &StorageEngine,
    base: &ConfigInstance,
    action: &ConfigAction,
) -> Result<i64> {
    Ok(match action {
        ConfigAction::CreateIndex { target, kind } => {
            let new = sizes::estimate_target_index_bytes(engine, *target, *kind)? as i64;
            let old = match base.index_of(*target) {
                Some(old_kind) => {
                    sizes::estimate_target_index_bytes(engine, *target, old_kind)? as i64
                }
                None => 0,
            };
            new - old
        }
        ConfigAction::DropIndex { target } => match base.index_of(*target) {
            Some(kind) => -(sizes::estimate_target_index_bytes(engine, *target, kind)? as i64),
            None => 0,
        },
        ConfigAction::SetEncoding { target, kind } => {
            let new = sizes::estimate_target_bytes(engine, *target, *kind)? as i64;
            let old =
                sizes::estimate_target_bytes(engine, *target, base.encoding_of(*target))? as i64;
            new - old
        }
        // Placement: the "permanent cost" is hot-tier residency — moving
        // a chunk to the hot tier consumes hot capacity, moving it away
        // frees it (total footprint is unchanged, but the hot tier is the
        // constrained resource).
        ConfigAction::SetPlacement { table, chunk, tier } => {
            let bytes = sizes::estimate_chunk_bytes(engine, base, *table, *chunk)? as i64;
            let was_hot = base.tier_of(*table, *chunk) == smdb_storage::Tier::Hot;
            let is_hot = *tier == smdb_storage::Tier::Hot;
            match (was_hot, is_hot) {
                (false, true) => bytes,
                (true, false) => -bytes,
                _ => 0,
            }
        }
        // The buffer pool reserves its capacity.
        ConfigAction::SetKnob { knob, value } => match knob {
            smdb_storage::KnobKind::BufferPoolMb => {
                ((value - base.knobs.buffer_pool_mb) * 1024.0 * 1024.0) as i64
            }
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::{ChunkColumnRef, ColumnId, TableId};
    use smdb_cost::LogicalCostModel;
    use smdb_forecast::{ScenarioKind, WorkloadScenario};
    use smdb_query::{Query, Workload};
    use smdb_storage::value::ColumnValues;
    use smdb_storage::{
        ColumnDef, DataType, EncodingKind, IndexKind, ScanPredicate, Schema, Table,
    };
    use std::sync::Arc;

    fn setup() -> (StorageEngine, TableId) {
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        let table = Table::from_columns(
            "t",
            schema,
            vec![ColumnValues::Int((0..800).map(|i| i % 40).collect())],
            200,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        let id = engine.create_table(table).unwrap();
        (engine, id)
    }

    fn forecast(t: TableId) -> ForecastSet {
        let q = Query::new(
            t,
            "t",
            vec![ScanPredicate::eq(ColumnId(0), 7i64)],
            None,
            "pt",
        );
        ForecastSet {
            scenarios: vec![
                WorkloadScenario {
                    kind: ScenarioKind::Expected,
                    name: "expected".into(),
                    probability: 0.7,
                    workload: Workload::new(vec![smdb_query::WeightedQuery::new(q.clone(), 10.0)]),
                },
                WorkloadScenario {
                    kind: ScenarioKind::WorstCase,
                    name: "worst".into(),
                    probability: 0.3,
                    workload: Workload::new(vec![smdb_query::WeightedQuery::new(q, 30.0)]),
                },
            ],
        }
    }

    fn assessor() -> WhatIfAssessor {
        WhatIfAssessor::new(WhatIf::new(Arc::new(LogicalCostModel::default())), 0.6)
    }

    #[test]
    fn useful_index_gets_positive_desirability() {
        let (engine, t) = setup();
        let base = ConfigInstance::default();
        let candidates = vec![Candidate::new(
            ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: IndexKind::Hash,
            },
            None,
        )];
        let a = assessor()
            .assess(&engine, &base, &forecast(t), &candidates)
            .unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].per_scenario.len(), 2);
        assert!(a[0].expected_desirability() > 0.0);
        // Worst-case scenario has 3× the weight → 3× the benefit.
        assert!(a[0].per_scenario[1] > a[0].per_scenario[0] * 2.5);
        assert!(a[0].permanent_bytes > 0);
        assert!(a[0].one_time_cost.ms() > 0.0);
        assert_eq!(a[0].confidence, 0.6);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let (engine, t) = setup();
        let base = ConfigInstance::default();
        let mut candidates = Vec::new();
        for chunk in 0..4u32 {
            for kind in IndexKind::ALL {
                candidates.push(Candidate::new(
                    ConfigAction::CreateIndex {
                        target: ChunkColumnRef::new(t.0, 0, chunk),
                        kind,
                    },
                    None,
                ));
            }
        }
        let mut seq = assessor();
        seq.threads = 1;
        let mut par = assessor();
        par.threads = 4;
        let f = forecast(t);
        let a = seq.assess(&engine, &base, &f, &candidates).unwrap();
        let b = par.assess(&engine, &base, &f, &candidates).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.candidate, y.candidate);
            assert_eq!(x.per_scenario, y.per_scenario);
        }
    }

    /// The hypothetical configuration exists only to feed the estimator:
    /// once every lookup hits, a pass over any number of candidates
    /// builds none (and a cold pass builds at most one per candidate) and
    /// hands nothing to another thread.
    #[test]
    fn warm_assess_materialises_no_hypothetical_config() {
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        let values = ColumnValues::Int((0..3200).map(|i| i % 40).collect());
        let table = Table::from_columns("t", schema, vec![values], 200).unwrap();
        let mut engine = StorageEngine::default();
        let t = engine.create_table(table).unwrap();
        let mut candidates = Vec::new();
        for chunk in 0..16u32 {
            let target = ChunkColumnRef::new(t.0, 0, chunk);
            for kind in [IndexKind::Hash, IndexKind::BTree] {
                let action = ConfigAction::CreateIndex { target, kind };
                candidates.push(Candidate::new(action, None));
            }
            for kind in [EncodingKind::Dictionary, EncodingKind::RunLength] {
                let action = ConfigAction::SetEncoding { target, kind };
                candidates.push(Candidate::new(action, None));
            }
        }
        assert!(candidates.len() >= 64);
        let base = ConfigInstance::default();
        let mut assessor = assessor();
        assessor.threads = 1; // every candidate on this thread's counter
        let built = || HYPOTHETICALS_BUILT.with(|n| n.get());

        let before = built();
        let cold = assessor
            .assess(&engine, &base, &forecast(t), &candidates)
            .unwrap();
        let cold_built = built() - before;
        assert!(cold_built > 0 && cold_built <= candidates.len());
        let cold_stats = assessor.what_if.cache_stats().unwrap();

        // A fresh assessor on the warm cache (no kept prices) re-prices.
        let mut fresh = WhatIfAssessor::new(assessor.what_if.clone(), 0.6);
        fresh.threads = 1;
        let before = built();
        let warm = fresh
            .assess(&engine, &base, &forecast(t), &candidates)
            .unwrap();
        assert_eq!(built() - before, 0, "a warm pass reads keys, not configs");
        assert_eq!(cold, warm);

        // Each lookup is counted once: the (sequential) cold pass missed
        // exactly what it inserted, and the warm pass repeated its
        // lookups as hits.
        let warm_stats = assessor.what_if.cache_stats().unwrap().since(&cold_stats);
        let entries = assessor.what_if.cache().unwrap().len();
        assert_eq!(cold_stats.misses as usize, entries);
        assert_eq!(warm_stats.misses, 0);
        assert_eq!(warm_stats.hits, cold_stats.hits + cold_stats.misses);

        // Both now keep prices: a pass on them counts the same hits and,
        // with helper lanes allowed, wakes none.
        for a in [&mut assessor, &mut fresh] {
            a.threads = 4;
            let before = a.what_if.cache_stats().unwrap();
            let again = a.assess(&engine, &base, &forecast(t), &candidates).unwrap();
            assert!(a.pool.get().is_none(), "all hits: nothing fans out");
            assert_eq!(again, warm);
            assert_eq!(a.what_if.cache_stats().unwrap().since(&before), warm_stats);
        }
    }

    /// Five scenarios over the same three queries: a candidate looks up
    /// each distinct query it affects once, not once per row; a pass
    /// whose prices were kept looks up nothing, and a re-assessment in
    /// between leaves them kept.
    #[test]
    fn one_key_per_distinct_query() {
        let (engine, t) = setup();
        let q = |v: i64| Query::new(t, "t", vec![ScanPredicate::eq(ColumnId(0), v)], None, "pt");
        let scenario = |s: u32| {
            let w = f64::from(s);
            WorkloadScenario {
                kind: ScenarioKind::Expected,
                name: format!("s{s}"),
                probability: 0.2,
                workload: Workload::new(vec![
                    smdb_query::WeightedQuery::new(q(7), 32.5 - w),
                    smdb_query::WeightedQuery::new(q(11), 136.5 + w),
                    smdb_query::WeightedQuery::new(q(13), 31.0 - w),
                ]),
            }
        };
        let forecast = |pass: u32| ForecastSet {
            scenarios: (0..5).map(|s| scenario(s + pass)).collect(),
        };
        let mut candidates = Vec::new();
        for chunk in 0..4u32 {
            let target = ChunkColumnRef::new(t.0, 0, chunk);
            for kind in [IndexKind::Hash, IndexKind::BTree] {
                candidates.push(Candidate::new(
                    ConfigAction::CreateIndex { target, kind },
                    None,
                ));
            }
        }
        let n = candidates.len();
        let base = ConfigInstance::default();
        let keys = |assessor: &WhatIfAssessor, pass: u32| {
            let before = KEYS_DERIVED.with(|k| k.get());
            let got = assessor
                .assess(&engine, &base, &forecast(pass), &candidates)
                .unwrap();
            (KEYS_DERIVED.with(|k| k.get()) - before, got)
        };
        let mut kept = assessor();
        kept.threads = 1;
        let (cold, _) = keys(&kept, 0);
        assert_eq!(cold, 3 * n, "cold: one key per distinct query");
        let (memo_hit, by_memo) = keys(&kept, 1);
        assert_eq!(memo_hit, 0, "kept prices: no lookups");

        // A fresh assessor on the warm cache looks everything up again,
        // once per distinct query, and agrees bit for bit.
        let mut warm = WhatIfAssessor::new(kept.what_if.clone(), 0.6);
        warm.threads = 4;
        let (cache_warm, by_cache) = keys(&warm, 1);
        assert_eq!(cache_warm, 3 * n, "warm cache: one key per distinct query");
        assert_eq!(by_memo, by_cache);
        assert!(warm.pool.get().is_none(), "all hits: nothing fans out");

        // A re-assessment against another base neither reads nor evicts
        // the full pass's prices.
        let mut other = base.clone();
        other.apply(&candidates[0].action);
        kept.reassess(&engine, &other, &forecast(2), &candidates, &[1, 3])
            .unwrap();
        assert_eq!(keys(&kept, 2).0, 0, "still kept after a re-assessment");
    }

    #[test]
    fn encoding_saves_memory_as_negative_permanent_bytes() {
        let (engine, t) = setup();
        let base = ConfigInstance::default();
        let candidates = vec![Candidate::new(
            ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: EncodingKind::Dictionary,
            },
            None,
        )];
        let a = assessor()
            .assess(&engine, &base, &forecast(t), &candidates)
            .unwrap();
        assert!(a[0].permanent_bytes < 0, "dict should shrink: {a:?}");
    }

    #[test]
    fn reassess_keeps_original_indices() {
        let (engine, t) = setup();
        let base = ConfigInstance::default();
        let candidates: Vec<Candidate> = (0..4u32)
            .map(|chunk| {
                Candidate::new(
                    ConfigAction::CreateIndex {
                        target: ChunkColumnRef::new(t.0, 0, chunk),
                        kind: IndexKind::Hash,
                    },
                    None,
                )
            })
            .collect();
        let a = assessor()
            .reassess(&engine, &base, &forecast(t), &candidates, &[2, 3])
            .unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].candidate, 2);
        assert_eq!(a[1].candidate, 3);
    }

    /// Delta-aware assessment must equal the brute-force definition
    /// (re-cost *every* query under every hypothetical configuration)
    /// bit-for-bit, including across non-hot placements where actions
    /// propagate globally through buffer pressure.
    #[test]
    fn delta_assess_matches_full_recompute() {
        let schema = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("b", DataType::Int),
        ])
        .unwrap();
        let table = Table::from_columns(
            "t",
            schema,
            vec![
                ColumnValues::Int((0..800).map(|i| i % 40).collect()),
                ColumnValues::Int((0..800).map(|i| i % 9).collect()),
            ],
            200,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        let t = engine.create_table(table).unwrap();
        let schema2 = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        let table2 = Table::from_columns(
            "u",
            schema2,
            vec![ColumnValues::Int((0..400).map(|i| i % 13).collect())],
            200,
        )
        .unwrap();
        let u = engine.create_table(table2).unwrap();

        // A base with non-hot chunks so buffer pressure is in play.
        let mut base = ConfigInstance::default();
        base.placements
            .insert((t, smdb_common::ChunkId(3)), Tier::Cold);
        base.placements
            .insert((u, smdb_common::ChunkId(1)), Tier::Warm);

        let q = |tid, col: u16, v: i64, name: &str| {
            Query::new(
                tid,
                "t",
                vec![ScanPredicate::eq(ColumnId(col), v)],
                None,
                name,
            )
        };
        let workload = smdb_query::Workload::new(vec![
            smdb_query::WeightedQuery::new(q(t, 0, 7, "q0"), 4.0),
            smdb_query::WeightedQuery::new(q(t, 1, 3, "q1"), 2.0),
            smdb_query::WeightedQuery::new(q(u, 0, 5, "q2"), 7.0),
        ]);
        let scenarios = ForecastSet {
            scenarios: vec![WorkloadScenario {
                kind: ScenarioKind::Expected,
                name: "expected".into(),
                probability: 1.0,
                workload,
            }],
        };

        let candidates = vec![
            Candidate::new(
                ConfigAction::CreateIndex {
                    target: ChunkColumnRef::new(t.0, 0, 0),
                    kind: IndexKind::Hash,
                },
                None,
            ),
            Candidate::new(
                ConfigAction::SetEncoding {
                    // Non-hot chunk: shifts global buffer pressure.
                    target: ChunkColumnRef::new(t.0, 1, 3),
                    kind: EncodingKind::Dictionary,
                },
                None,
            ),
            Candidate::new(
                ConfigAction::SetPlacement {
                    table: u,
                    chunk: smdb_common::ChunkId(0),
                    tier: Tier::Cold,
                },
                None,
            ),
            Candidate::new(
                ConfigAction::SetKnob {
                    knob: smdb_storage::KnobKind::BufferPoolMb,
                    value: 48.0,
                },
                None,
            ),
        ];

        let mut delta = assessor();
        delta.threads = 1;
        let got = delta
            .assess(&engine, &base, &scenarios, &candidates)
            .unwrap();

        // Brute force with an uncached estimator: re-cost *every* query
        // under each hypothetical, accumulating w·(base − hypo) in
        // workload order (the same expression the delta path evaluates
        // over the affected subset — unaffected terms are exactly +0.0).
        let plain = WhatIf::uncached(Arc::new(LogicalCostModel::default()));
        let base_ctx = ConfigContext::new(&engine, &base);
        for (i, c) in candidates.iter().enumerate() {
            let mut hypo = base.clone();
            hypo.apply(&c.action);
            let hypo_ctx = ConfigContext::new(&engine, &hypo);
            for (s_idx, s) in scenarios.iter().enumerate() {
                let mut want = 0.0;
                for wq in s.workload.queries() {
                    let b = plain
                        .query_cost(&engine, &base_ctx, &wq.query, &base)
                        .unwrap();
                    let h = plain
                        .query_cost(&engine, &hypo_ctx, &wq.query, &hypo)
                        .unwrap();
                    want += (b.ms() - h.ms()) * wq.weight;
                }
                assert_eq!(
                    got[i].per_scenario[s_idx], want,
                    "candidate {i} scenario {s_idx}"
                );
            }
        }
    }

    #[test]
    fn drop_index_frees_memory() {
        let (engine, t) = setup();
        let target = ChunkColumnRef::new(t.0, 0, 0);
        let mut base = ConfigInstance::default();
        base.indexes.insert(target, IndexKind::BTree);
        let bytes =
            estimate_permanent_bytes(&engine, &base, &ConfigAction::DropIndex { target }).unwrap();
        assert!(bytes < 0);
    }
}
