//! What-if workload costing and reconfiguration cost estimation.
//!
//! The tuners compare hypothetical configurations by (a) estimated
//! workload cost and (b) estimated *one-time reconfiguration cost*
//! (Section II-D(b): "the sum of all these one-time costs are so-called
//! reconfiguration costs").

use std::collections::HashMap;
use std::sync::Arc;

use smdb_common::{Cost, Result};
use smdb_query::{Query, Workload};
use smdb_storage::{ConfigAction, ConfigInstance, StorageEngine};

use crate::cache::{CacheStats, CostCache};
use crate::estimator::CostEstimator;
use crate::features::ConfigContext;
use crate::footprint::QueryFootprint;
use crate::sizes;

/// What-if façade bundling an exchangeable cost estimator with a shared
/// delta-aware cost cache.
///
/// Clones share the cache, so every assessor/tuner cloned off one
/// `WhatIf` benefits from (and warms) the same entries. The cached and
/// uncached paths are bit-identical: cache keys cover exactly the
/// configuration slice a query's cost can read (see
/// [`crate::footprint`]), estimators are pure, and the workload sum
/// visits queries in the same order either way.
#[derive(Clone)]
pub struct WhatIf {
    estimator: Arc<dyn CostEstimator>,
    cache: Option<Arc<CostCache>>,
}

impl WhatIf {
    /// Wraps an estimator, with caching enabled.
    pub fn new(estimator: Arc<dyn CostEstimator>) -> Self {
        WhatIf {
            estimator,
            cache: Some(Arc::new(CostCache::new())),
        }
    }

    /// Wraps an estimator without a cache: the full-recompute baseline E5
    /// and the tests compare the cached path against.
    pub fn uncached(estimator: Arc<dyn CostEstimator>) -> Self {
        WhatIf {
            estimator,
            cache: None,
        }
    }

    /// The underlying estimator.
    pub fn estimator(&self) -> &Arc<dyn CostEstimator> {
        &self.estimator
    }

    /// The shared cost cache, if caching is enabled.
    pub fn cache(&self) -> Option<&Arc<CostCache>> {
        self.cache.as_ref()
    }

    /// Hit/miss counters of the shared cache, if any.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Adds a tally of lookups counted by [`Self::query_cost_fp`] to the
    /// shared cache's counters (no-op without a cache).
    pub fn record_lookups(&self, tally: CacheStats) {
        if let Some(cache) = &self.cache {
            cache.record(tally);
        }
    }

    /// Drops all cached entries (counters are kept).
    pub fn clear_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.clear();
        }
    }

    /// The shared cache's [`CostCache::generation`], after flushing it if
    /// the estimator's version moved (`None` without a cache). Two equal
    /// readings mean every entry inserted in between is still there.
    pub fn cache_generation(&self) -> Option<u64> {
        let cache = self.cache.as_ref()?;
        cache.sync_version(self.estimator.version());
        Some(cache.generation())
    }

    /// The [`ConfigContext`] for `config`, memoized per configuration
    /// fingerprint when caching is enabled (the fresh walk and the memo
    /// hold the same `nonhot_bytes` and digest, so results never differ).
    /// `fingerprint` is `config.fingerprint()`, which a caller that also
    /// keys other state on it hashes once.
    pub fn config_context(
        &self,
        engine: &StorageEngine,
        config: &ConfigInstance,
        fingerprint: u64,
    ) -> ConfigContext {
        #[cfg(test)]
        CONTEXTS_RESOLVED.with(|n| n.set(n.get() + 1));
        debug_assert_eq!(fingerprint, config.fingerprint());
        let Some(cache) = &self.cache else {
            return ConfigContext::new(engine, config);
        };
        let key = (engine.catalog_token(), fingerprint);
        if let Some(ctx) = cache.context_lookup(key) {
            return ctx;
        }
        let ctx = ConfigContext::new(engine, config);
        cache.context_insert(key, ctx.clone());
        ctx
    }

    /// Estimated cost of one query under `config`, served from the cache
    /// when possible. `ctx` must describe `config`.
    pub fn query_cost(
        &self,
        engine: &StorageEngine,
        ctx: &ConfigContext,
        query: &Query,
        config: &ConfigInstance,
    ) -> Result<Cost> {
        if self.cache.is_none() {
            return self.estimator.query_cost(engine, ctx, query, config);
        }
        let footprint = QueryFootprint::of(query);
        let mut tally = CacheStats::default();
        let cost = self.query_cost_fp(engine, ctx, &footprint, query, || config, &mut tally);
        self.record_lookups(tally);
        cost
    }

    /// Like [`Self::query_cost`] with a caller-provided footprint
    /// (assessors precompute footprints once per workload) and a lazily
    /// provided configuration: the cache key comes from `ctx` alone, so
    /// `config` — which must be the configuration `ctx` describes — is
    /// only asked for when the estimator has to run (a miss, or no
    /// cache). A caller assessing a hypothetical configuration can
    /// therefore leave it unmaterialised while every lookup hits. The
    /// hit or miss is counted into `tally`, which the caller hands to
    /// [`Self::record_lookups`] once per batch.
    pub fn query_cost_fp<'c>(
        &self,
        engine: &StorageEngine,
        ctx: &ConfigContext,
        footprint: &QueryFootprint,
        query: &Query,
        config: impl FnOnce() -> &'c ConfigInstance,
        tally: &mut CacheStats,
    ) -> Result<Cost> {
        let Some(cache) = &self.cache else {
            return self.estimator.query_cost(engine, ctx, query, config());
        };
        cache.sync_version(self.estimator.version());
        let key = Self::key(ctx, footprint, query);
        if let Some(cost) = cache.lookup(key, tally) {
            return Ok(Cost(cost));
        }
        let cost = self.estimator.query_cost(engine, ctx, query, config())?;
        if !cache.insert(key, cost.ms()) {
            // A concurrent worker missed the key first: its miss is the
            // one that added the entry, so this lookup counts as a hit
            // and the misses equal the entries added, whatever the
            // thread timing.
            tally.misses -= 1;
            tally.hits += 1;
        }
        Ok(cost)
    }

    /// The lookup half of [`Self::query_cost_fp`]: the cached cost of
    /// `query` under the configuration `ctx` describes, or `None` where
    /// the estimator would have to run (a miss, or no cache). Counted
    /// into `tally` like any lookup.
    pub fn cached_cost_fp(
        &self,
        ctx: &ConfigContext,
        footprint: &QueryFootprint,
        query: &Query,
        tally: &mut CacheStats,
    ) -> Option<Cost> {
        let cache = self.cache.as_ref()?;
        cache.sync_version(self.estimator.version());
        cache
            .lookup(Self::key(ctx, footprint, query), tally)
            .map(Cost)
    }

    /// The cache key of (query instance, configuration `ctx` describes).
    fn key(ctx: &ConfigContext, footprint: &QueryFootprint, query: &Query) -> (u64, u64) {
        #[cfg(test)]
        KEYS_DERIVED.with(|n| n.set(n.get() + 1));
        (query.instance_fingerprint(), footprint.cache_key(ctx))
    }

    /// Prices `workloads` under the configuration `ctx` describes, each
    /// distinct query once (see [`PricedWorkloads`]). Lookups are counted
    /// per *row*: a repeated query counts as the hit it would have been
    /// had the row looked itself up after its first occurrence.
    pub fn price_workloads<'w>(
        &self,
        engine: &StorageEngine,
        ctx: &ConfigContext,
        workloads: impl IntoIterator<Item = &'w Workload>,
        config: &ConfigInstance,
    ) -> Result<PricedWorkloads<'w>> {
        let mut tally = CacheStats::default();
        let price = || {
            let mut priced = PricedWorkloads {
                queries: Vec::new(),
                rows: Vec::new(),
            };
            // Instance fingerprint -> the first distinct query carrying it.
            let mut first: HashMap<u64, usize> = HashMap::new();
            for workload in workloads {
                let mut rows = Vec::with_capacity(workload.queries().len());
                for wq in workload.queries() {
                    let query = &wq.query;
                    let seen = match first.get(&query.instance_fingerprint()) {
                        Some(&i) if priced.queries[i].query == query => Some(i),
                        // A fingerprint collision: compare against them all.
                        Some(_) => priced.queries.iter().position(|q| q.query == query),
                        None => None,
                    };
                    let index = if let Some(i) = seen {
                        priced.queries[i].rows += 1;
                        tally.hits += 1;
                        i
                    } else {
                        let footprint = QueryFootprint::of(query);
                        let cost = self.query_cost_fp(
                            engine,
                            ctx,
                            &footprint,
                            query,
                            || config,
                            &mut tally,
                        )?;
                        first
                            .entry(query.instance_fingerprint())
                            .or_insert(priced.queries.len());
                        priced.queries.push(PricedQuery {
                            query,
                            footprint,
                            cost,
                            rows: 1,
                        });
                        priced.queries.len() - 1
                    };
                    rows.push((index, wq.weight));
                }
                priced.rows.push(rows);
            }
            Ok(priced)
        };
        let priced = price();
        self.record_lookups(tally);
        priced
    }

    /// Estimated cost of each of `workloads` under `config`, in order:
    /// one context, and each distinct query priced once across them all.
    pub fn workload_costs<'w>(
        &self,
        engine: &StorageEngine,
        workloads: impl IntoIterator<Item = &'w Workload>,
        config: &ConfigInstance,
    ) -> Result<Vec<Cost>> {
        if self.cache.is_none() {
            return workloads
                .into_iter()
                .map(|w| self.estimator.workload_cost(engine, w, config))
                .collect();
        }
        let ctx = self.config_context(engine, config, config.fingerprint());
        Ok(self
            .price_workloads(engine, &ctx, workloads, config)?
            .costs()
            .collect())
    }

    /// Estimated workload cost under `config`.
    pub fn workload_cost(
        &self,
        engine: &StorageEngine,
        workload: &Workload,
        config: &ConfigInstance,
    ) -> Result<Cost> {
        let costs = self.workload_costs(engine, [workload], config)?;
        Ok(costs.first().copied().unwrap_or(Cost::ZERO))
    }

    /// Estimated benefit (cost reduction, possibly negative) of moving
    /// from `from` to `to` for `workload`.
    pub fn benefit(
        &self,
        engine: &StorageEngine,
        workload: &Workload,
        from: &ConfigInstance,
        to: &ConfigInstance,
    ) -> Result<Cost> {
        self.benefit_against(
            engine,
            workload,
            self.workload_cost(engine, workload, from)?,
            to,
        )
    }

    /// Benefit against a precomputed base cost — call sites comparing
    /// many candidates to one base configuration cost `from` once and
    /// pass it here instead of re-deriving it per candidate.
    pub fn benefit_against(
        &self,
        engine: &StorageEngine,
        workload: &Workload,
        from_cost: Cost,
        to: &ConfigInstance,
    ) -> Result<Cost> {
        Ok(from_cost - self.workload_cost(engine, workload, to)?)
    }
}

#[cfg(test)]
thread_local! {
    /// Cache keys this thread derived ([`WhatIf::key`]).
    static KEYS_DERIVED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Contexts this thread asked for ([`WhatIf::config_context`]).
    static CONTEXTS_RESOLVED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Workloads priced under one configuration, each distinct query once.
///
/// Queries are distinct by instance fingerprint plus equality and kept
/// in first-appearance order; a workload is a list of `(query index,
/// weight)` rows in its own order. Summing `cost · weight` over a
/// workload's rows therefore visits the same terms in the same order as
/// the per-row sum, so every total is bit-identical to it.
pub struct PricedWorkloads<'w> {
    pub queries: Vec<PricedQuery<'w>>,
    pub rows: Vec<Vec<(usize, f64)>>,
}

/// One distinct query of [`PricedWorkloads`].
pub struct PricedQuery<'w> {
    pub query: &'w Query,
    pub footprint: QueryFootprint,
    /// Unweighted cost under the priced configuration.
    pub cost: Cost,
    /// How many workload rows name this query.
    pub rows: u64,
}

impl PricedWorkloads<'_> {
    /// Each workload's weighted cost, in order.
    pub fn costs(&self) -> impl Iterator<Item = Cost> + '_ {
        self.rows.iter().map(|rows| {
            rows.iter().fold(Cost::ZERO, |sum, &(q, weight)| {
                sum + self.queries[q].cost * weight
            })
        })
    }
}

/// Estimated one-time cost of one configuration action, from statistics.
///
/// The constants are deliberately coarse — an estimator's guess at
/// reconfiguration effort, not the simulator's exact parameters.
pub fn estimate_action_cost(
    engine: &StorageEngine,
    config: &ConfigInstance,
    action: &ConfigAction,
) -> Result<Cost> {
    const BUILD_MS_PER_ROW: f64 = 8e-4;
    const DICT_BUILD_DISCOUNT: f64 = 0.4;
    const REENCODE_MS_PER_ROW: f64 = 5e-4;
    const MOVE_MS_PER_MB: f64 = 10.0;
    const DROP_MS: f64 = 0.1;
    const KNOB_MS: f64 = 1.0;

    Ok(match action {
        ConfigAction::CreateIndex { target, .. } => {
            let rows = engine.table(target.table)?.chunk(target.chunk)?.rows() as f64;
            let discount = if config.encoding_of(*target) == smdb_storage::EncodingKind::Dictionary
            {
                DICT_BUILD_DISCOUNT
            } else {
                1.0
            };
            Cost(rows * BUILD_MS_PER_ROW * discount)
        }
        ConfigAction::DropIndex { .. } => Cost(DROP_MS),
        ConfigAction::SetEncoding { target, .. } => {
            let rows = engine.table(target.table)?.chunk(target.chunk)?.rows() as f64;
            Cost(rows * REENCODE_MS_PER_ROW)
        }
        ConfigAction::SetPlacement { table, chunk, .. } => {
            let t = engine.table(*table)?;
            let c = t.chunk(*chunk)?;
            // Bytes under the chunk's *configured* encoding.
            let mut bytes = 0u64;
            for (col, def) in t.schema().iter() {
                let stats = c.stats(col)?;
                let target = smdb_common::ChunkColumnRef {
                    table: *table,
                    column: col,
                    chunk: *chunk,
                };
                bytes += sizes::estimate_segment_bytes(
                    def.data_type,
                    stats.rows,
                    stats.distinct,
                    stats.runs,
                    config.encoding_of(target),
                );
            }
            Cost(bytes as f64 / (1024.0 * 1024.0) * MOVE_MS_PER_MB)
        }
        ConfigAction::SetKnob { .. } => Cost(KNOB_MS),
    })
}

/// Estimated total reconfiguration cost of an action list.
pub fn estimate_reconfiguration(
    engine: &StorageEngine,
    config: &ConfigInstance,
    actions: &[ConfigAction],
) -> Result<Cost> {
    let mut total = Cost::ZERO;
    for a in actions {
        total += estimate_action_cost(engine, config, a)?;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::LogicalCostModel;
    use smdb_common::{ChunkColumnRef, ColumnId, TableId};
    use smdb_query::Query;
    use smdb_storage::value::ColumnValues;
    use smdb_storage::{
        ColumnDef, DataType, EncodingKind, IndexKind, ScanPredicate, Schema, Table, Tier,
    };

    fn setup() -> (StorageEngine, TableId) {
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        let table = Table::from_columns(
            "t",
            schema,
            vec![ColumnValues::Int((0..1000).map(|i| i % 25).collect())],
            500,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        let id = engine.create_table(table).unwrap();
        (engine, id)
    }

    #[test]
    fn benefit_positive_for_useful_index() {
        let (engine, t) = setup();
        let what_if = WhatIf::new(Arc::new(LogicalCostModel::default()));
        let q = Query::new(
            t,
            "t",
            vec![ScanPredicate::eq(ColumnId(0), 3i64)],
            None,
            "q",
        );
        let workload = Workload::uniform(vec![q]);
        let from = ConfigInstance::default();
        let mut to = from.clone();
        to.indexes
            .insert(ChunkColumnRef::new(t.0, 0, 0), IndexKind::Hash);
        to.indexes
            .insert(ChunkColumnRef::new(t.0, 0, 1), IndexKind::Hash);
        let b = what_if.benefit(&engine, &workload, &from, &to).unwrap();
        assert!(b.ms() > 0.0);
    }

    #[test]
    fn cached_and_uncached_costs_bit_identical() {
        let (engine, t) = setup();
        let est: Arc<dyn crate::CostEstimator> = Arc::new(LogicalCostModel::default());
        let cached = WhatIf::new(est.clone());
        let plain = WhatIf::uncached(est);
        let q = |v: i64| Query::new(t, "t", vec![ScanPredicate::eq(ColumnId(0), v)], None, "q");
        let workload = Workload::uniform(vec![q(3), q(7), q(11)]);
        let mut config = ConfigInstance::default();
        for step in 0..3 {
            // Repeat each config so the second pass is served from cache.
            for _ in 0..2 {
                let a = cached.workload_cost(&engine, &workload, &config).unwrap();
                let b = plain.workload_cost(&engine, &workload, &config).unwrap();
                assert_eq!(a, b, "step {step}");
            }
            config.apply(&ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, step),
                kind: IndexKind::Hash,
            });
        }
        let stats = cached.cache_stats().unwrap();
        assert!(stats.hits > 0, "{stats:?}");
        // Clones share one cache.
        assert!(cached.clone().cache_stats().unwrap().hits >= stats.hits);
    }

    /// Five scenarios over three queries (the shape of a forecast):
    /// one context and one key per distinct query, totals bit-equal to
    /// one `workload_cost` per scenario, and the same row-counted stats.
    #[test]
    fn workload_costs_price_each_distinct_query_once() {
        let (engine, t) = setup();
        let est: Arc<dyn crate::CostEstimator> = Arc::new(LogicalCostModel::default());
        let q = |v: i64| Query::new(t, "t", vec![ScanPredicate::eq(ColumnId(0), v)], None, "q");
        let scenario = |w: [f64; 3]| {
            Workload::new(vec![
                smdb_query::WeightedQuery::new(q(3), w[0]),
                smdb_query::WeightedQuery::new(q(7), w[1]),
                smdb_query::WeightedQuery::new(q(11), w[2]),
            ])
        };
        let workloads: Vec<Workload> = (0..5)
            .map(|i| scenario([32.5 + i as f64, 136.5 - i as f64, 31.0 * (i + 1) as f64]))
            .collect();
        let mut config = ConfigInstance::default();
        config.apply(&ConfigAction::CreateIndex {
            target: ChunkColumnRef::new(t.0, 0, 1),
            kind: IndexKind::BTree,
        });

        let per_scenario = WhatIf::new(est.clone());
        let want: Vec<Cost> = workloads
            .iter()
            .map(|w| per_scenario.workload_cost(&engine, w, &config).unwrap())
            .collect();
        let batched = WhatIf::new(est.clone());
        let count = || {
            (
                KEYS_DERIVED.with(|n| n.get()),
                CONTEXTS_RESOLVED.with(|n| n.get()),
            )
        };
        for pass in 0..2 {
            let (keys, contexts) = count();
            let got = batched
                .workload_costs(&engine, &workloads, &config)
                .unwrap();
            assert_eq!(count(), (keys + 3, contexts + 1), "pass {pass}");
            assert_eq!(got, want, "pass {pass}");
        }
        // Twice the five single-workload calls' rows, counted alike.
        let once = per_scenario.cache_stats().unwrap();
        let twice = batched.cache_stats().unwrap();
        assert_eq!(twice.misses, once.misses);
        assert_eq!(twice.hits, once.hits + once.hits + once.misses);
        let plain = WhatIf::uncached(est);
        assert_eq!(
            plain.workload_costs(&engine, &workloads, &config).unwrap(),
            want
        );
    }

    #[test]
    fn cache_generation_moves_with_every_flush() {
        let what_if = WhatIf::new(Arc::new(LogicalCostModel::default()));
        let g = what_if.cache_generation().unwrap();
        assert_eq!(what_if.cache_generation(), Some(g));
        what_if.clear_cache();
        assert_eq!(what_if.cache_generation(), Some(g + 1));
        let uncached = WhatIf::uncached(Arc::new(LogicalCostModel::default()));
        assert_eq!(uncached.cache_generation(), None);
    }

    #[test]
    fn benefit_against_matches_benefit() {
        let (engine, t) = setup();
        let what_if = WhatIf::new(Arc::new(LogicalCostModel::default()));
        let q = Query::new(
            t,
            "t",
            vec![ScanPredicate::eq(ColumnId(0), 3i64)],
            None,
            "q",
        );
        let workload = Workload::uniform(vec![q]);
        let from = ConfigInstance::default();
        let mut to = from.clone();
        to.indexes
            .insert(ChunkColumnRef::new(t.0, 0, 0), IndexKind::Hash);
        let base_cost = what_if.workload_cost(&engine, &workload, &from).unwrap();
        let direct = what_if.benefit(&engine, &workload, &from, &to).unwrap();
        let hoisted = what_if
            .benefit_against(&engine, &workload, base_cost, &to)
            .unwrap();
        assert_eq!(direct, hoisted);
    }

    #[test]
    fn reconfiguration_costs_accumulate() {
        let (engine, t) = setup();
        let config = ConfigInstance::default();
        let actions = vec![
            ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: IndexKind::Hash,
            },
            ConfigAction::SetPlacement {
                table: t,
                chunk: smdb_common::ChunkId(1),
                tier: Tier::Cold,
            },
        ];
        let total = estimate_reconfiguration(&engine, &config, &actions).unwrap();
        let first = estimate_action_cost(&engine, &config, &actions[0]).unwrap();
        assert!(total > first);
    }

    #[test]
    fn dictionary_discount_applies() {
        let (engine, t) = setup();
        let action = ConfigAction::CreateIndex {
            target: ChunkColumnRef::new(t.0, 0, 0),
            kind: IndexKind::Hash,
        };
        let plain = ConfigInstance::default();
        let mut dict = plain.clone();
        dict.encodings
            .insert(ChunkColumnRef::new(t.0, 0, 0), EncodingKind::Dictionary);
        let raw_cost = estimate_action_cost(&engine, &plain, &action).unwrap();
        let dict_cost = estimate_action_cost(&engine, &dict, &action).unwrap();
        assert!(dict_cost < raw_cost);
    }
}
