//! Candidate assessors (Section II-D(b)).
//!
//! An assessor attaches to every candidate a per-scenario desirability,
//! a confidence, a permanent (memory) cost and a one-time
//! (reconfiguration) cost. The default implementation is what-if based:
//! it evaluates the forecast workload cost with and without the candidate
//! using an exchangeable cost estimator.
//!
//! A pass prices the base configuration once (`PricedBase`), then per
//! candidate patches the base [`ConfigContext`] in O(1) and looks up only
//! the queries the action can affect; cache keys come from the patched
//! context, so the hypothetical [`ConfigInstance`] is built only if a
//! lookup misses. Candidates whose lookups all hit are finished on the
//! calling thread — a converged pass wakes and waits for no other thread
//! — and only those that need the estimator fan out, in contiguous
//! blocks over the storage scan pool (the workspace's designated thread
//! seam) rather than ad-hoc threads.

use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, OnceLock};

use smdb_common::{Cost, Result, TableId};
use smdb_cost::features::ConfigContext;
use smdb_cost::footprint::{ActionDelta, QueryFootprint};
use smdb_cost::what_if::estimate_action_cost;
use smdb_cost::{sizes, CacheStats, WhatIf};
use smdb_forecast::ForecastSet;
use smdb_query::Query;
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
    /// interaction between candidates".
    fn reassess(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
        candidates: &[Candidate],
        subset: &[usize],
    ) -> Result<Vec<Assessment>> {
        let picked: Vec<Candidate> = subset.iter().map(|&i| candidates[i].clone()).collect();
        let mut assessments = self.assess(engine, base, scenarios, &picked)?;
        for (a, &original) in assessments.iter_mut().zip(subset) {
            a.candidate = original;
        }
        Ok(assessments)
    }
}

/// Blocks the candidate fan-out cuts per lane: enough that a lane stuck
/// on a block of cache misses does not leave the others idle.
const BLOCKS_PER_LANE: usize = 8;

/// What [`WhatIfAssessor::assess_one`] does when a lookup misses.
#[derive(Clone, Copy)]
enum OnMiss {
    /// Run the estimator (and cache its answer).
    Estimate,
    /// Give the candidate up, uncounted, for the fan-out to assess whole.
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
}

impl WhatIfAssessor {
    /// Creates an assessor over a cost estimator.
    pub fn new(what_if: WhatIf, confidence: f64) -> Self {
        WhatIfAssessor {
            what_if,
            confidence,
            threads: 4,
            pool: OnceLock::new(),
        }
    }

    /// Assesses one candidate against precomputed per-query base costs.
    ///
    /// Delta-aware: only queries whose footprint intersects the
    /// candidate's [`ActionDelta`] are re-costed; every other query's
    /// cost is bit-identical under the hypothetical configuration (the
    /// estimator reads nothing the action changes), so it contributes
    /// exactly zero to the desirability and is skipped. The hypothetical
    /// [`ConfigContext`] — nonhot bytes and cache-key digest — is patched
    /// from the base context in O(1), and the hypothetical
    /// [`ConfigInstance`] itself is built at most once, only when a
    /// lookup misses (or the what-if is uncached): a candidate whose
    /// lookups all hit never clones the base configuration. Under
    /// [`OnMiss::Defer`] the first miss returns `None` and leaves `tally`
    /// as it was.
    fn assess_one(
        &self,
        base: &PricedBase<'_>,
        index: usize,
        candidate: &Candidate,
        on_miss: OnMiss,
        tally: &mut CacheStats,
    ) -> Result<Option<Assessment>> {
        let (engine, config) = (base.engine, base.config);
        let delta = ActionDelta::of(config, &candidate.action);
        let hypo_ctx = base.ctx.apply_action(engine, config, &candidate.action)?;
        let hypo = OnceCell::new();
        let materialise = || {
            hypo.get_or_init(|| {
                #[cfg(test)]
                HYPOTHETICALS_BUILT.with(|n| n.set(n.get() + 1));
                let mut hypo = config.clone();
                hypo.apply(&candidate.action);
                hypo
            })
        };

        let mut lookups = CacheStats::default();
        let mut per_scenario = Vec::with_capacity(base.scenarios.len());
        let mut probabilities = Vec::with_capacity(base.scenarios.len());
        for s in &base.scenarios {
            let mut benefit = 0.0;
            for row in &s.rows {
                if delta.affects(&row.footprint, |t| base.nonhot_tables.contains(&t)) {
                    let (ctx, fp) = (&hypo_ctx, &row.footprint);
                    let cost = match on_miss {
                        OnMiss::Estimate => self.what_if.query_cost_fp(
                            engine,
                            ctx,
                            fp,
                            row.query,
                            materialise,
                            &mut lookups,
                        )?,
                        OnMiss::Defer => {
                            match self
                                .what_if
                                .cached_cost_fp(ctx, fp, row.query, &mut lookups)
                            {
                                Some(cost) => cost,
                                None => return Ok(None),
                            }
                        }
                    };
                    benefit += (row.base_cost.ms() - cost.ms()) * row.weight;
                }
            }
            per_scenario.push(benefit);
            probabilities.push(s.probability);
        }
        tally.hits += lookups.hits;
        tally.misses += lookups.misses;

        let permanent_bytes = estimate_permanent_bytes(engine, config, &candidate.action)?;
        let one_time_cost = estimate_action_cost(engine, config, &candidate.action)?;
        Ok(Some(Assessment {
            candidate: index,
            per_scenario,
            probabilities,
            confidence: self.confidence,
            permanent_bytes,
            one_time_cost,
        }))
    }

    /// Prices every scenario's queries under the base configuration.
    fn price_scenarios<'a>(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        base_ctx: &ConfigContext,
        scenarios: &'a ForecastSet,
    ) -> Result<Vec<BaseScenario<'a>>> {
        let mut tally = CacheStats::default();
        let mut price_row = |wq: &'a smdb_query::WeightedQuery| -> Result<BaseRow<'a>> {
            let footprint = QueryFootprint::of(&wq.query);
            let base_cost = self.what_if.query_cost_fp(
                engine,
                base_ctx,
                &footprint,
                &wq.query,
                || base,
                &mut tally,
            )?;
            Ok(BaseRow {
                query: &wq.query,
                weight: wq.weight,
                base_cost,
                footprint,
            })
        };
        let priced = scenarios
            .iter()
            .map(|s| {
                Ok(BaseScenario {
                    probability: s.probability,
                    rows: s
                        .workload
                        .queries()
                        .iter()
                        .map(&mut price_row)
                        .collect::<Result<_>>()?,
                })
            })
            .collect();
        self.what_if.record_lookups(tally);
        priced
    }

    /// Assesses the candidates at `indices` into the matching `out`
    /// slots, counting the block's cache lookups locally and recording
    /// them once. A slot stays `None` only where `on_miss` deferred.
    fn assess_block(
        &self,
        base: &PricedBase<'_>,
        candidates: &[Candidate],
        indices: &[usize],
        on_miss: OnMiss,
        out: &mut [Option<Result<Assessment>>],
    ) {
        let mut tally = CacheStats::default();
        for (&index, slot) in indices.iter().zip(out) {
            *slot = self
                .assess_one(base, index, &candidates[index], on_miss, &mut tally)
                .transpose();
        }
        self.what_if.record_lookups(tally);
    }
}

#[cfg(test)]
thread_local! {
    /// Hypothetical `ConfigInstance`s this thread's `assess_one` calls built.
    static HYPOTHETICALS_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The base configuration priced once per `assess` and shared,
/// read-only, by every candidate worker.
struct PricedBase<'a> {
    engine: &'a StorageEngine,
    config: &'a ConfigInstance,
    ctx: ConfigContext,
    scenarios: Vec<BaseScenario<'a>>,
    /// Tables owning a non-hot chunk under `config`: the blast radius of
    /// global (buffer-pressure) deltas.
    nonhot_tables: BTreeSet<TableId>,
}

/// One scenario's workload priced under the base configuration.
struct BaseScenario<'a> {
    probability: f64,
    rows: Vec<BaseRow<'a>>,
}

/// One weighted query with its base cost and footprint.
struct BaseRow<'a> {
    query: &'a Query,
    weight: f64,
    base_cost: Cost,
    footprint: QueryFootprint,
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
        let mut out = Vec::with_capacity(scenarios.len());
        for s in scenarios.iter() {
            out.push(
                self.what_if
                    .workload_cost(engine, &s.workload, config)?
                    .ms(),
            );
        }
        Ok(out)
    }

    fn assess(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
        candidates: &[Candidate],
    ) -> Result<Vec<Assessment>> {
        let _span = smdb_obs::span!("assessor", "assess", { candidates: candidates.len() });
        smdb_obs::metrics::counter("assessor.assess_calls").inc();
        smdb_obs::metrics::counter("assessor.candidates_assessed").add(candidates.len() as u64);
        // Per-query base costs, footprints and the base context, computed
        // once and shared (read-only) by every candidate worker.
        let base_ctx = self.what_if.config_context(engine, base);
        let priced = PricedBase {
            engine,
            config: base,
            scenarios: self.price_scenarios(engine, base, &base_ctx, scenarios)?,
            ctx: base_ctx,
            nonhot_tables: base
                .placements
                .iter()
                .filter(|&(_, &tier)| tier != Tier::Hot)
                .map(|(&(t, _), _)| t)
                .collect(),
        };

        // Warm candidates — every lookup a hit, a few microseconds each —
        // are finished right here: a converged pass is nothing else, and
        // handing a helper thread a share of it cost more in wake-up and
        // waiting than it saved, by an amount that varied run to run.
        let all: Vec<usize> = (0..candidates.len()).collect();
        let mut slots: Vec<Option<Result<Assessment>>> = Vec::new();
        slots.resize_with(candidates.len(), || None);
        self.assess_block(&priced, candidates, &all, OnMiss::Defer, &mut slots);

        // Cold candidates need the estimator, which is worth a thread.
        let cold: Vec<usize> = all.into_iter().filter(|&i| slots[i].is_none()).collect();
        let mut estimated: Vec<Option<Result<Assessment>>> = Vec::new();
        estimated.resize_with(cold.len(), || None);
        let threads = self.threads.max(1).min(cold.len().max(1));
        if threads == 1 || cold.len() < 8 {
            self.assess_block(&priced, candidates, &cold, OnMiss::Estimate, &mut estimated);
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
                self.assess_block(&priced, candidates, indices, OnMiss::Estimate, out);
            });
        }
        for (index, slot) in cold.into_iter().zip(estimated) {
            slots[index] = slot;
        }
        slots
            .into_iter()
            .map(|slot| {
                // A panicked block leaves the rest of its slots empty;
                // surface those candidates as errors instead of taking
                // down the whole process.
                slot.unwrap_or_else(|| {
                    Err(smdb_common::Error::invalid(
                        "candidate assessment worker failed",
                    ))
                })
            })
            .collect()
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

        let before = built();
        let warm = assessor
            .assess(&engine, &base, &forecast(t), &candidates)
            .unwrap();
        assert_eq!(built() - before, 0, "a warm pass reads keys, not configs");
        assert_eq!(cold, warm);

        // A candidate deferred to the estimator stage has each lookup
        // counted once: the (sequential) cold pass missed exactly what
        // it inserted, and the warm pass repeated its lookups as hits.
        let warm_stats = assessor.what_if.cache_stats().unwrap().since(&cold_stats);
        let entries = assessor.what_if.cache().unwrap().len();
        assert_eq!(cold_stats.misses as usize, entries);
        assert_eq!(warm_stats.misses, 0);
        assert_eq!(warm_stats.hits, cold_stats.hits + cold_stats.misses);

        // With helper lanes allowed, a warm pass still wakes none.
        assessor.threads = 4;
        let again = assessor
            .assess(&engine, &base, &forecast(t), &candidates)
            .unwrap();
        assert!(assessor.pool.get().is_none(), "all hits: nothing fans out");
        assert_eq!(again, warm);
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
