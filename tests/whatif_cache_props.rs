//! Property-based tests for the delta-aware what-if cost cache: under
//! arbitrary configuration-action sequences, cached and uncached
//! workload costs stay bit-identical, re-assessing after a cache flush
//! matches a fresh assessor exactly, a patched configuration digest
//! equals one built from scratch, two configurations share a cache key
//! exactly when they agree on the footprint's slice, and an assessor
//! that keeps its prices across passes answers and counts exactly like
//! one that prices every pass afresh — and so does a tuner that
//! selects from those prices, whatever order its candidates come in,
//! but for a certified pass, which looks nothing up where the pass it
//! skips would only hit — and the scores it hands greedy leave out
//! exactly the candidates the sign certificate proves greedy would
//! drop.

use std::sync::atomic::{AtomicBool, AtomicU16, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use smdb::common::{ChunkColumnRef, ChunkId, ColumnId, TableId};
use smdb::common::{Cost, Result};
use smdb::core::assessor::WhatIfAssessor;
use smdb::core::candidate::{Assessment, Candidate, SelectionInput};
use smdb::core::constraints::ConstraintSet;
use smdb::core::feature::FeatureKind;
use smdb::core::selectors::{GreedySelector, Selector};
use smdb::core::tuner::{standard_tuner, Decided, Tuner, TuningProposal};
use smdb::cost::features::ConfigContext;
use smdb::cost::sizes::estimate_index_bytes;
use smdb::cost::{
    ActionDelta, CacheStats, CalibratedCostModel, LogicalCostModel, QueryFootprint, WhatIf,
};
use smdb::forecast::{ForecastSet, ScenarioKind, WorkloadScenario};
use smdb::query::{Query, WeightedQuery, Workload};
use smdb::storage::value::ColumnValues;
use smdb::storage::{
    ColumnDef, ConfigAction, ConfigInstance, DataType, EncodingKind, IndexKind, KnobKind,
    ScanPredicate, Schema, StorageEngine, Table, Tier,
};

/// Two tables (4 and 2 chunks) so cross-table isolation is exercised.
fn engine() -> (StorageEngine, TableId, TableId) {
    let schema = Schema::new(vec![
        ColumnDef::new("a", DataType::Int),
        ColumnDef::new("b", DataType::Int),
    ])
    .expect("valid schema");
    let table = Table::from_columns(
        "t",
        schema,
        vec![
            ColumnValues::Int((0..800).map(|i| i % 40).collect()),
            ColumnValues::Int((0..800).map(|i| (i * 7) % 11).collect()),
        ],
        200,
    )
    .expect("builds");
    let schema2 = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).expect("valid schema");
    let table2 = Table::from_columns(
        "u",
        schema2,
        vec![ColumnValues::Int((0..400).map(|i| i % 13).collect())],
        200,
    )
    .expect("builds");
    let mut e = StorageEngine::default();
    let t = e.create_table(table).expect("unique");
    let u = e.create_table(table2).expect("unique");
    (e, t, u)
}

fn workload(t: TableId, u: TableId) -> Workload {
    let q = |tid, col: u16, v: i64, name: &str| {
        Query::new(
            tid,
            "t",
            vec![ScanPredicate::eq(ColumnId(col), v)],
            None,
            name,
        )
    };
    Workload::new(vec![
        WeightedQuery::new(q(t, 0, 7, "q0"), 5.0),
        WeightedQuery::new(q(t, 1, 3, "q1"), 2.0),
        WeightedQuery::new(q(u, 0, 4, "q2"), 9.0),
        WeightedQuery::new(Query::new(t, "t", vec![], None, "scan"), 1.0),
    ])
}

/// Arbitrary configuration actions over the two-table catalog (indexes,
/// encodings, placements, knob moves — including out-of-range chunk and
/// column references, which configurations tolerate as inert entries).
fn action_strategy() -> impl Strategy<Value = ConfigAction> {
    (0u32..5, 0u32..2, 0u16..2, 0u32..4, 0usize..4).prop_map(
        |(discriminator, table, col, chunk, variant)| {
            let target = ChunkColumnRef::new(table, col, chunk);
            match discriminator {
                0 => ConfigAction::CreateIndex {
                    target,
                    kind: [IndexKind::Hash, IndexKind::BTree][variant % 2],
                },
                1 => ConfigAction::DropIndex { target },
                2 => ConfigAction::SetEncoding {
                    target,
                    kind: [
                        EncodingKind::Unencoded,
                        EncodingKind::Dictionary,
                        EncodingKind::RunLength,
                        EncodingKind::FrameOfReference,
                    ][variant],
                },
                3 => ConfigAction::SetPlacement {
                    table: TableId(table),
                    chunk: ChunkId(chunk),
                    tier: [Tier::Hot, Tier::Warm, Tier::Cold][variant % 3],
                },
                _ => ConfigAction::SetKnob {
                    knob: KnobKind::BufferPoolMb,
                    value: variant as f64 * 16.0,
                },
            }
        },
    )
}

/// A configuration edit: an action, or an explicitly stored default
/// entry (which `ConfigInstance::apply` never produces but a hand-built
/// or restored configuration may hold).
#[derive(Debug, Clone)]
enum Edit {
    Action(ConfigAction),
    DefaultEncoding(ChunkColumnRef),
    DefaultPlacement(TableId, ChunkId),
}

impl Edit {
    fn apply(&self, config: &mut ConfigInstance) {
        match self {
            Edit::Action(action) => config.apply(action),
            Edit::DefaultEncoding(target) => {
                config
                    .encodings
                    .entry(*target)
                    .or_insert(EncodingKind::Unencoded);
            }
            Edit::DefaultPlacement(table, chunk) => {
                config
                    .placements
                    .entry((*table, *chunk))
                    .or_insert(Tier::Hot);
            }
        }
    }
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    (0u32..6, action_strategy(), 0u32..2, 0u16..2, 0u32..4).prop_map(
        |(pick, action, table, col, chunk)| match pick {
            0 => Edit::DefaultEncoding(ChunkColumnRef::new(table, col, chunk)),
            1 => Edit::DefaultPlacement(TableId(table), ChunkId(chunk)),
            _ => Edit::Action(action),
        },
    )
}

fn config_of(edits: &[Edit]) -> ConfigInstance {
    let mut config = ConfigInstance::default();
    for edit in edits {
        edit.apply(&mut config);
    }
    config
}

/// Every footprint a query over the two-table catalog can have.
fn footprints(t: TableId, u: TableId) -> Vec<QueryFootprint> {
    let fp = |table, cols: &[u16]| QueryFootprint {
        table,
        columns: cols.iter().map(|&c| ColumnId(c)).collect(),
    };
    vec![fp(t, &[0]), fp(t, &[1]), fp(t, &[0, 1]), fp(u, &[0])]
}

/// Per-segment `(index, encoding)`, per-chunk tier, and — only with a
/// non-hot chunk — `(nonhot_bytes, buffer-pool bits)`.
type Slice = (
    Vec<(Option<IndexKind>, EncodingKind)>,
    Vec<Tier>,
    Option<(u64, u64)>,
);

/// What a query with `footprint` can read of `config`, entry by entry —
/// the definition the cache key must agree with, computed without any
/// hashing: per footprint column and existing chunk the effective index
/// and encoding, per chunk the tier, and the buffer-pool state only when
/// a chunk of the table is non-hot.
fn slice_of(engine: &StorageEngine, config: &ConfigInstance, footprint: &QueryFootprint) -> Slice {
    let chunks = engine.table(footprint.table).expect("table").chunk_count() as u32;
    let mut segments = Vec::new();
    for &column in &footprint.columns {
        for chunk in 0..chunks {
            let target = ChunkColumnRef {
                table: footprint.table,
                column,
                chunk: ChunkId(chunk),
            };
            segments.push((config.index_of(target), config.encoding_of(target)));
        }
    }
    let tiers: Vec<Tier> = (0..chunks)
        .map(|c| config.tier_of(footprint.table, ChunkId(c)))
        .collect();
    let pressure = tiers.iter().any(|&t| t != Tier::Hot).then(|| {
        (
            ConfigContext::new(engine, config).nonhot_bytes,
            config.knobs.buffer_pool_mb.to_bits(),
        )
    });
    (segments, tiers, pressure)
}

proptest! {
    // Cheap cases, and the interesting ones are collisions (a drop of an
    // index that exists, a warm chunk turned cold): many cases.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Patching a context action by action gives, after every step, the
    /// context built from scratch over the materialised configuration:
    /// the same `nonhot_bytes` and the same key for every footprint.
    #[test]
    fn patched_digest_equals_digest_from_scratch(
        base in proptest::collection::vec(edit_strategy(), 0..10),
        actions in proptest::collection::vec(action_strategy(), 1..6),
    ) {
        let (engine, t, u) = engine();
        let mut config = config_of(&base);
        let mut patched = ConfigContext::new(&engine, &config);
        for action in &actions {
            // Re-encoding or moving a chunk the table does not have is
            // an error for the context (it sizes the segment): stop.
            let Ok(next) = patched.apply_action(&engine, &config, action) else {
                break;
            };
            config.apply(action);
            patched = next;
            let scratch = ConfigContext::new(&engine, &config);
            prop_assert_eq!(patched.nonhot_bytes, scratch.nonhot_bytes);
            for footprint in footprints(t, u) {
                prop_assert_eq!(
                    footprint.cache_key(&patched),
                    footprint.cache_key(&scratch),
                    "after {} on {:?}", action, footprint
                );
            }
        }
    }

    /// Two configurations get the same key for a footprint exactly when
    /// they agree on the footprint's slice — compared entry by entry, not
    /// through another hash. `second` extends `first`, so both outcomes
    /// occur: edits outside a footprint's slice must keep its key.
    #[test]
    fn keys_are_equal_iff_slices_agree(
        first in proptest::collection::vec(edit_strategy(), 0..10),
        more in proptest::collection::vec(edit_strategy(), 0..4),
    ) {
        let (engine, t, u) = engine();
        let a = config_of(&first);
        let mut b = a.clone();
        for edit in &more {
            edit.apply(&mut b);
        }
        let (ctx_a, ctx_b) = (ConfigContext::new(&engine, &a), ConfigContext::new(&engine, &b));
        for footprint in footprints(t, u) {
            let same_slice = slice_of(&engine, &a, &footprint) == slice_of(&engine, &b, &footprint);
            let same_key = footprint.cache_key(&ctx_a) == footprint.cache_key(&ctx_b);
            prop_assert_eq!(same_key, same_slice, "{:?}: {:?} vs {:?}", footprint, a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every prefix of an arbitrary action sequence, the cached
    /// workload cost equals the uncached one bit-for-bit — the cache may
    /// never change a tuning decision, only its latency.
    #[test]
    fn cached_workload_cost_is_bit_identical(
        actions in proptest::collection::vec(action_strategy(), 1..12),
    ) {
        let (engine, t, u) = engine();
        let est: Arc<dyn smdb::cost::CostEstimator> =
            Arc::new(LogicalCostModel::default());
        let cached = WhatIf::new(est.clone());
        let plain = WhatIf::uncached(est);
        let w = workload(t, u);
        let mut config = ConfigInstance::default();
        for (i, action) in actions.iter().enumerate() {
            config.apply(action);
            // Twice: first pass fills the cache, second is served by it.
            for pass in 0..2 {
                let a = cached.workload_cost(&engine, &w, &config).unwrap();
                let b = plain.workload_cost(&engine, &w, &config).unwrap();
                prop_assert_eq!(
                    a.ms().to_bits(), b.ms().to_bits(),
                    "step {} pass {}: cached {} != uncached {}", i, pass, a.ms(), b.ms()
                );
            }
        }
    }

    /// Flushing the cache and re-assessing must reproduce what a fresh
    /// assessor computes, entry for entry.
    #[test]
    fn reassess_after_flush_matches_fresh_assessor(
        actions in proptest::collection::vec(action_strategy(), 0..6),
        subset_mask in 1u8..15,
    ) {
        let (engine, t, u) = engine();
        let mut base = ConfigInstance::default();
        for action in &actions {
            base.apply(action);
        }
        let scenarios = ForecastSet {
            scenarios: vec![WorkloadScenario {
                kind: ScenarioKind::Expected,
                name: "expected".into(),
                probability: 1.0,
                workload: workload(t, u),
            }],
        };
        let candidates: Vec<Candidate> = (0..4u32)
            .map(|chunk| Candidate::new(
                ConfigAction::CreateIndex {
                    target: ChunkColumnRef::new(t.0, 0, chunk),
                    kind: IndexKind::Hash,
                },
                None,
            ))
            .collect();
        let subset: Vec<usize> =
            (0..4).filter(|i| subset_mask & (1 << i) != 0).collect();

        let est: Arc<dyn smdb::cost::CostEstimator> =
            Arc::new(LogicalCostModel::default());
        let what_if = WhatIf::new(est.clone());
        let warm = WhatIfAssessor::new(what_if.clone(), 0.9);
        // Warm the cache, then flush it mid-flight (as a model refit
        // would) and re-assess the subset.
        warm.assess(&engine, &base, &scenarios, &candidates).unwrap();
        what_if.clear_cache();
        let after_flush = warm
            .reassess(&engine, &base, &scenarios, &candidates, &subset)
            .unwrap();

        let fresh = WhatIfAssessor::new(WhatIf::new(est), 0.9);
        let expected = fresh
            .reassess(&engine, &base, &scenarios, &candidates, &subset)
            .unwrap();

        prop_assert_eq!(after_flush.len(), expected.len());
        for (a, b) in after_flush.iter().zip(&expected) {
            prop_assert_eq!(a.candidate, b.candidate);
            prop_assert_eq!(&a.per_scenario, &b.per_scenario);
            prop_assert_eq!(a.permanent_bytes, b.permanent_bytes);
        }
    }
}

/// One thing that happens between two tuning passes.
#[derive(Debug, Clone)]
enum Step {
    /// The forecast's weights and probabilities move (every pass does).
    Reweigh,
    /// A new query joins the forecast.
    AddQuery(i64),
    /// The oldest query leaves it.
    DropQuery,
    /// The base configuration takes an action.
    Apply(ConfigAction),
    /// A table is created: the catalog token moves.
    CreateTable,
    /// The cost cache is flushed.
    ClearCache,
    /// The learned model absorbs executions and refits: its version moves.
    Refit,
    /// A selector re-assesses a subset of the candidates.
    Reassess(u8),
    /// The enumerator stops proposing one candidate: later ones shift.
    Retire(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u32..13, 0i64..40, action_strategy(), 1u8..=255).prop_map(
        |(pick, v, action, mask)| match pick {
            0..=2 => Step::Reweigh,
            3 => Step::AddQuery(v),
            4 => Step::DropQuery,
            5 | 6 => Step::Apply(action),
            7 => Step::CreateTable,
            8 => Step::ClearCache,
            9 => Step::Refit,
            10 => Step::Retire(v as usize),
            _ => Step::Reassess(mask),
        },
    )
}

/// Five scenarios (the forecast's shape: expected, worst case, three
/// samples) over the same queries, with weights and probabilities that
/// move with `pass`; the first query appears twice in the worst case.
fn forecast(queries: &[Query], pass: u32) -> ForecastSet {
    forecast_with(queries, pass, |_, _, w| w, |_, p| p)
}

/// [`forecast`] with each row's weight passed through `weight(scenario,
/// row, weight)` and each scenario's probability through
/// `probability(scenario, probability)`.
fn forecast_with(
    queries: &[Query],
    pass: u32,
    weight: impl Fn(usize, usize, f64) -> f64,
    probability: impl Fn(usize, f64) -> f64,
) -> ForecastSet {
    let p = f64::from(pass);
    let scenarios = (0..5u32)
        .map(|s| {
            let sf = f64::from(s);
            let mut rows: Vec<WeightedQuery> = queries
                .iter()
                .enumerate()
                .map(|(j, q)| {
                    let w = 30.0 + 4.25 * ((p + sf) % 5.0) + 1.5 * j as f64 * (sf + 1.0);
                    WeightedQuery::new(q.clone(), w)
                })
                .collect();
            if s == 1 {
                if let Some(q) = queries.first() {
                    rows.push(WeightedQuery::new(q.clone(), 2.75 + p));
                }
            }
            let rows = rows
                .into_iter()
                .enumerate()
                .map(|(r, wq)| WeightedQuery::new(wq.query, weight(s as usize, r, wq.weight)))
                .collect();
            WorkloadScenario {
                kind: if s == 0 {
                    ScenarioKind::Expected
                } else {
                    ScenarioKind::WorstCase
                },
                name: format!("s{s}"),
                probability: probability(s as usize, (1.0 + ((p + sf) % 3.0)) / 10.0),
                workload: Workload::new(rows),
            }
        })
        .collect();
    ForecastSet { scenarios }
}

/// Index, encoding, placement and knob candidates over both tables.
fn candidates(t: TableId, u: TableId, invalid_at: Option<usize>) -> Vec<Candidate> {
    let mut out = Vec::new();
    for chunk in 0..4u32 {
        for column in 0..2u16 {
            let target = ChunkColumnRef::new(t.0, column, chunk);
            for kind in [IndexKind::Hash, IndexKind::BTree] {
                out.push(ConfigAction::CreateIndex { target, kind });
            }
            out.push(ConfigAction::DropIndex { target });
            for kind in [EncodingKind::Dictionary, EncodingKind::RunLength] {
                out.push(ConfigAction::SetEncoding { target, kind });
            }
        }
    }
    for chunk in 0..2u32 {
        for tier in [Tier::Hot, Tier::Cold] {
            out.push(ConfigAction::SetPlacement {
                table: u,
                chunk: ChunkId(chunk),
                tier,
            });
        }
    }
    for value in [0.0, 32.0] {
        out.push(ConfigAction::SetKnob {
            knob: KnobKind::BufferPoolMb,
            value,
        });
    }
    if let Some(at) = invalid_at {
        // Re-encoding a chunk the table does not have fails the pass.
        let target = ChunkColumnRef::new(t.0, 0, 9);
        let bad = ConfigAction::SetEncoding {
            target,
            kind: EncodingKind::Dictionary,
        };
        out.insert(at % (out.len() + 1), bad);
    }
    out.into_iter().map(|a| Candidate::new(a, None)).collect()
}

/// Per-scenario desirabilities compared bit for bit, one entry per
/// candidate (`None` for a failed pass).
type Benefits = Option<Vec<Vec<u64>>>;

/// The rest of an assessment, bit for bit.
type Rest = Vec<(usize, Vec<u64>, i64, u64, u64)>;

fn bits(result: Result<Vec<Assessment>>) -> (Benefits, Option<Rest>) {
    let Ok(assessments) = result else {
        return (None, None);
    };
    let floats = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let benefits = assessments
        .iter()
        .map(|a| floats(&a.per_scenario))
        .collect();
    let rest = assessments
        .iter()
        .map(|a| {
            (
                a.candidate,
                floats(&a.probabilities),
                a.permanent_bytes,
                a.one_time_cost.ms().to_bits(),
                a.confidence.to_bits(),
            )
        })
        .collect();
    (Some(benefits), Some(rest))
}

/// Runs `work` on a what-if and returns its result with the cache-stat
/// delta it caused and the entry count after it.
fn counted<T>(what_if: &WhatIf, work: impl FnOnce() -> T) -> (T, CacheStats, usize) {
    let before = what_if.cache_stats().unwrap_or_default();
    let result = work();
    let delta = what_if.cache_stats().unwrap_or_default().since(&before);
    (result, delta, what_if.cache().map_or(0, |c| c.len()))
}

/// The definition deduplicated and kept pricing must agree with: every
/// scenario row looks its own cost up, under the base configuration and
/// — where the candidate's delta reaches the row's query — under the
/// candidate's. A candidate whose context cannot be built is skipped.
fn rowwise(
    what_if: &WhatIf,
    engine: &StorageEngine,
    base: &ConfigInstance,
    forecast: &ForecastSet,
    candidates: &[Candidate],
    subset: &[usize],
) -> Benefits {
    let base_ctx = ConfigContext::new(engine, base);
    let cost = |ctx: &ConfigContext, q: &Query, config: &ConfigInstance| {
        what_if
            .query_cost(engine, ctx, q, config)
            .expect("prices")
            .ms()
    };
    let base_costs: Vec<Vec<f64>> = forecast
        .iter()
        .map(|s| {
            s.workload
                .queries()
                .iter()
                .map(|wq| cost(&base_ctx, &wq.query, base))
                .collect()
        })
        .collect();
    let nonhot: Vec<TableId> = base
        .placements
        .iter()
        .filter(|&(_, &tier)| tier != Tier::Hot)
        .map(|(&(t, _), _)| t)
        .collect();
    let mut benefits = Vec::new();
    for &i in subset {
        let action = &candidates[i].action;
        let Ok(ctx) = base_ctx.apply_action(engine, base, action) else {
            continue;
        };
        let mut hypo = base.clone();
        hypo.apply(action);
        let delta = ActionDelta::of(base, action);
        let per_scenario = forecast.iter().zip(&base_costs).map(|(s, costs)| {
            let mut benefit = 0.0;
            for (wq, b) in s.workload.queries().iter().zip(costs) {
                if delta.affects(&QueryFootprint::of(&wq.query), |t| nonhot.contains(&t)) {
                    benefit += (b - cost(&ctx, &wq.query, &hypo)) * wq.weight;
                }
            }
            benefit.to_bits()
        });
        benefits.push(per_scenario.collect());
    }
    (benefits.len() == subset.len()).then_some(benefits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A converged pass re-weighs the prices it kept instead of
    /// re-pricing: across weight moves, forecast queries coming and
    /// going, base-configuration actions, catalog changes, cache flushes,
    /// model refits, a changing candidate list and interleaved
    /// re-assessments, the assessor that keeps prices gives bit-equal
    /// assessments to a fresh assessor on a what-if with the same
    /// history, and moves its cache's counters and entry count exactly
    /// as much — which is exactly as much as looking every scenario row
    /// up one by one.
    #[test]
    fn kept_prices_match_fresh_pricing(
        steps in proptest::collection::vec(step_strategy(), 1..10),
        invalid_at in (0u32..5, 0usize..64).prop_map(|(p, at)| (p == 0).then_some(at)),
    ) {
        let (mut engine, t, u) = engine();
        let model = Arc::new(CalibratedCostModel::new());
        let est: Arc<dyn smdb::cost::CostEstimator> = model.clone();
        let kept_what_if = WhatIf::new(est.clone());
        let fresh_what_if = WhatIf::new(est.clone());
        let row_what_if = WhatIf::new(est);
        let mut kept = WhatIfAssessor::new(kept_what_if.clone(), 0.9);
        kept.threads = 1;
        let fresh = || {
            let mut a = WhatIfAssessor::new(fresh_what_if.clone(), 0.9);
            a.threads = 1;
            a
        };
        let q = |table, col: u16, v: i64| {
            Query::new(table, "t", vec![ScanPredicate::eq(ColumnId(col), v)], None, "q")
        };
        let mut queries = vec![q(t, 0, 7), q(t, 1, 3), q(u, 0, 4)];
        let mut base = ConfigInstance::default();
        let mut candidates = candidates(t, u, invalid_at);
        let mut tables = 0;

        for (pass, step) in (0u32..).zip(std::iter::once(&Step::Reweigh).chain(&steps)) {
            let mut subset: Vec<usize> = (0..candidates.len()).collect();
            let mut keep = true;
            match step {
                Step::Reweigh => {}
                Step::AddQuery(v) => queries.push(q(t, (*v % 2) as u16, *v)),
                Step::DropQuery => {
                    if queries.len() > 1 {
                        queries.remove(0);
                    }
                }
                Step::Apply(action) => base.apply(action),
                Step::CreateTable => {
                    tables += 1;
                    let schema = Schema::new(vec![ColumnDef::new("x", DataType::Int)])
                        .expect("valid schema");
                    let values = ColumnValues::Int((0..200).collect());
                    let table = Table::from_columns(format!("extra{tables}"), schema, vec![values], 100)
                        .expect("builds");
                    engine.create_table(table).expect("unique name");
                }
                Step::ClearCache => {
                    for w in [&kept_what_if, &fresh_what_if, &row_what_if] {
                        w.clear_cache();
                    }
                }
                Step::Refit => {
                    let config = engine.current_config();
                    for query in &queries {
                        let out = engine.scan(query.table(), query.predicates(), None).expect("scans");
                        model.observe(&engine, query, &config, out.sim_cost).expect("observes");
                    }
                    let _ = model.refit();
                }
                Step::Retire(k) => {
                    candidates.remove(k % candidates.len());
                    subset = (0..candidates.len()).collect();
                }
                Step::Reassess(mask) => {
                    subset.retain(|i| mask & (1 << (i % 8)) != 0 && i % 3 == 0);
                    keep = false;
                }
            }
            // A re-assessment, then always a full pass: the one after a
            // re-assessment must still find its prices.
            let f = forecast(&queries, pass);
            let passes = if keep { vec![subset] } else { vec![subset, (0..candidates.len()).collect()] };
            for subset in passes {
                let full = subset.len() == candidates.len();
                let run = |a: &WhatIfAssessor| if full {
                    a.assess(&engine, &base, &f, &candidates)
                } else {
                    a.reassess(&engine, &base, &f, &candidates, &subset)
                };
                let (got, got_stats, got_len) = counted(&kept_what_if, || bits(run(&kept)));
                let (want, want_stats, want_len) = counted(&fresh_what_if, || bits(run(&fresh())));
                let (rows, row_stats, row_len) = counted(&row_what_if, || {
                    rowwise(&row_what_if, &engine, &base, &f, &candidates, &subset)
                });
                let at = format!("pass {pass} after {step:?} (full: {full})");
                prop_assert_eq!(&got, &want, "{}", at);
                prop_assert_eq!((got_stats, got_len), (want_stats, want_len), "{}", at);
                prop_assert_eq!((got_stats, got_len), (row_stats, row_len), "{}", at);
                if got.0.is_some() {
                    prop_assert_eq!(&got.0, &rows, "{}", at);
                }
            }
            // The forecast's costs, priced in one batch, match one row at
            // a time — values and counters alike.
            let (batched, batched_stats, _) = counted(&kept_what_if, || {
                kept.scenario_costs(&engine, &base, &f).expect("prices")
            });
            let (one_by_one, row_stats, _) = counted(&row_what_if, || {
                let ctx = ConfigContext::new(&engine, &base);
                f.iter()
                    .map(|s| {
                        s.workload.queries().iter().fold(Cost::ZERO, |sum, wq| {
                            let c = row_what_if.query_cost(&engine, &ctx, &wq.query, &base);
                            sum + c.expect("prices") * wq.weight
                        })
                        .ms()
                    })
                    .collect::<Vec<f64>>()
            });
            let to_bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(to_bits(&batched), to_bits(&one_by_one));
            prop_assert_eq!(batched_stats, row_stats);
            fresh().scenario_costs(&engine, &base, &f).expect("prices");
        }
    }
}

/// One thing that happens between two passes of the tuners.
#[derive(Debug, Clone)]
enum Move {
    /// The forecast's weights and probabilities move (every pass does);
    /// as they grow the index enumerator ranks the two columns of `t`
    /// the other way round, permuting its candidate list.
    Reweigh,
    /// The index budget is re-split: `None`, or this many single-chunk
    /// hash indexes' worth of bytes.
    Budget(Option<u32>),
    /// A new query joins the forecast.
    AddQuery(i64),
    /// The oldest query leaves it.
    DropQuery,
    /// A table is created: the catalog token moves.
    CreateTable,
    /// The cost cache is flushed.
    ClearCache,
}

fn move_strategy() -> impl Strategy<Value = Move> {
    (0u32..12, 0i64..40, 0u32..9).prop_map(|(pick, v, budget)| match pick {
        0..=4 => Move::Reweigh,
        5 | 6 => Move::Budget((budget < 7).then_some(budget)),
        7 => Move::AddQuery(v),
        8 => Move::DropQuery,
        9 => Move::CreateTable,
        _ => Move::ClearCache,
    })
}

/// The tuners a driver runs: the re-selecting index tuner and the
/// compression tuner over one what-if.
fn tuners(what_if: &WhatIf) -> Vec<Tuner> {
    [FeatureKind::Indexing, FeatureKind::Compression]
        .into_iter()
        .map(|feature| standard_tuner(feature, what_if.clone()))
        .collect()
}

/// `proposal` with how its pass decided left out: a tuner that keeps
/// prices or a certificate reports the same proposal as one built
/// afresh, reached another way.
fn decision(proposal: &TuningProposal) -> TuningProposal {
    TuningProposal {
        decided: Decided::Priced,
        ..proposal.clone()
    }
}

/// Runs `moves` through tuners that keep their prices across passes and
/// through tuners built afresh every pass (no kept prices) on a what-if
/// with the same history, applying each proposal to the shared base as
/// a driver would. Both propose the same, bit for bit, and leave their
/// caches with the same entries. They move their caches' counters alike
/// except on a certified pass, which looks nothing up where the full
/// pass it skips hits every lookup. Returns how many passes settled —
/// changed nothing, priced wholly from kept prices or certified — and
/// how many of those were certified.
fn kept_tuners_match_fresh_ones(moves: &[Move]) -> (u64, u64) {
    let (mut engine, t, u) = engine();
    let estimator: Arc<dyn smdb::cost::CostEstimator> = Arc::new(LogicalCostModel::default());
    let kept_what_if = WhatIf::new(estimator.clone());
    let fresh_what_if = WhatIf::new(estimator);
    let kept = tuners(&kept_what_if);
    let q = |table, col: u16, v: i64| {
        Query::new(
            table,
            "t",
            vec![ScanPredicate::eq(ColumnId(col), v)],
            None,
            "q",
        )
    };
    let mut queries = vec![q(t, 0, 7), q(t, 1, 3), q(u, 0, 4)];
    let mut base = ConfigInstance::default();
    let mut constraints = ConstraintSet::none();
    // Column `a` of `t` holds the same values in every chunk: its
    // candidates tie chunk for chunk.
    let hash = estimate_index_bytes(200, 40, IndexKind::Hash) as i64;
    let (mut settled, mut certified) = (0, 0);
    let mut tables = 0;
    for (pass, step) in (0u32..).zip(moves) {
        match step {
            Move::Reweigh => {}
            Move::Budget(n) => {
                constraints.index_memory_bytes = n.map(|n| i64::from(n) * hash + 1);
            }
            Move::AddQuery(v) => queries.push(q(t, (*v % 2) as u16, *v)),
            Move::DropQuery => {
                if queries.len() > 1 {
                    queries.remove(0);
                }
            }
            Move::CreateTable => {
                tables += 1;
                let schema =
                    Schema::new(vec![ColumnDef::new("x", DataType::Int)]).expect("valid schema");
                let values = ColumnValues::Int((0..200).collect());
                let table =
                    Table::from_columns(format!("extra{tables}"), schema, vec![values], 100)
                        .expect("builds");
                engine.create_table(table).expect("unique name");
            }
            Move::ClearCache => {
                kept_what_if.clear_cache();
                fresh_what_if.clear_cache();
            }
        }
        let f = forecast(&queries, pass);
        for (i, tuner) in kept.iter().enumerate() {
            let propose = |tuner: &Tuner| {
                tuner
                    .propose(&engine, &base, &f, &constraints)
                    .map_err(|e| e.to_string())
            };
            let (got, got_stats, got_len) = counted(&kept_what_if, || propose(tuner));
            let (want, want_stats, want_len) =
                counted(&fresh_what_if, || propose(&tuners(&fresh_what_if)[i]));
            let at = format!("pass {pass} after {step:?}, tuner {i}");
            assert_eq!(
                got.as_ref().map(decision).map_err(String::clone),
                want,
                "{at}"
            );
            assert_eq!(got_len, want_len, "{at}");
            let decided = got.as_ref().map(|p| p.decided);
            if decided == Ok(Decided::Certified) {
                assert_eq!(got_stats, CacheStats::default(), "{at}");
                assert_eq!(want_stats.misses, 0, "{at}");
                certified += 1;
            } else {
                assert_eq!(got_stats, want_stats, "{at}");
            }
            settled += u64::from(matches!(
                decided,
                Ok(Decided::FromKept | Decided::Certified)
            ));
            if let Ok(proposal) = got {
                for action in &proposal.actions {
                    base.apply(action);
                }
            }
        }
    }
    (settled, certified)
}

/// A scripted run through each side of re-selection from kept prices:
/// converged passes settle under moving weights, a moving budget and a
/// permuted candidate list; a budget that binds below the configured
/// indexes prices the drop it then rejects, and one raised again adds
/// an index; new queries, a new table and a flushed cache each have a
/// pass priced afresh before passes settle again. Some settled passes
/// are certified.
#[test]
fn reselection_from_kept_prices_settles_where_nothing_changes() {
    use Move::*;
    let mut moves = vec![Budget(None), Reweigh, Reweigh, Budget(Some(1)), Reweigh];
    moves.extend([
        Budget(Some(6)),
        Reweigh,
        Reweigh,
        Budget(Some(5)),
        Reweigh,
        Reweigh,
    ]);
    moves.extend([Budget(None), Reweigh, Reweigh]);
    moves.extend(std::iter::repeat_n(Reweigh, 12));
    moves.extend([
        AddQuery(12),
        Reweigh,
        Reweigh,
        CreateTable,
        Reweigh,
        Reweigh,
    ]);
    moves.extend([ClearCache, Reweigh, Reweigh, DropQuery, Reweigh, Reweigh]);
    let (settled, certified) = kept_tuners_match_fresh_ones(&moves);
    assert!(settled >= 20, "only {settled} passes settled");
    assert!(certified > 0, "no pass was certified");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Re-selection from kept prices proposes and counts exactly like
    /// pricing afresh across weight moves, budget re-splits (binding or
    /// not), query churn, catalog changes and cache flushes.
    #[test]
    fn reselection_from_kept_prices_matches_the_full_path(
        moves in proptest::collection::vec(move_strategy(), 1..24),
    ) {
        kept_tuners_match_fresh_ones(&moves);
    }
}

/// Index candidates on `t`'s column `b` (no forecast query filters on
/// it: nothing to gain) or on column `a` (every query gains), four
/// chunks either way, in chunk order or reversed: one list length, two
/// contents, two orders, switched by hand (clones share the switch).
#[derive(Default, Clone)]
struct Switched {
    column: Arc<AtomicU16>,
    reversed: Arc<AtomicBool>,
}

impl smdb::core::Enumerator for Switched {
    fn name(&self) -> &str {
        "switched"
    }

    fn enumerate(
        &self,
        engine: &StorageEngine,
        _base: &ConfigInstance,
        _scenarios: &ForecastSet,
    ) -> Result<Vec<Candidate>> {
        let t = engine.table_id("t")?;
        let column = self.column.load(Ordering::Relaxed);
        let target = |chunk| ChunkColumnRef::new(t.0, column, chunk);
        let mut candidates: Vec<Candidate> = (0..4)
            .map(|chunk| {
                let action = ConfigAction::CreateIndex {
                    target: target(chunk),
                    kind: IndexKind::Hash,
                };
                Candidate::new(action, None)
            })
            .collect();
        if self.reversed.load(Ordering::Relaxed) {
            candidates.reverse();
        }
        Ok(candidates)
    }
}

/// Runs one pass per `(column, reversed)` switch setting through a tuner
/// on `Switched` that keeps its prices and through one built afresh
/// every pass, on a what-if with the same history: both propose the
/// same and count the same lookups (`Switched` claims no weight-free
/// set, so no pass is certified). Returns, per pass, the proposal and
/// whether it was priced wholly from kept prices.
fn switched_passes(passes: &[(u16, bool)]) -> Vec<(TuningProposal, bool)> {
    let (engine, t, _) = engine();
    let estimator: Arc<dyn smdb::cost::CostEstimator> = Arc::new(LogicalCostModel::default());
    let switch = Switched::default();
    let tuner = |what_if: &WhatIf| {
        Tuner::new(
            FeatureKind::Indexing,
            Box::new(switch.clone()),
            what_if.clone(),
        )
    };
    let (kept_what_if, fresh_what_if) = (WhatIf::new(estimator.clone()), WhatIf::new(estimator));
    let kept = tuner(&kept_what_if);
    let queries = [Query::new(
        t,
        "t",
        vec![ScanPredicate::eq(ColumnId(0), 7)],
        None,
        "q",
    )];
    let base = ConfigInstance::default();
    let mut out = Vec::new();
    for (pass, &(column, reversed)) in (0u32..).zip(passes) {
        switch.column.store(column, Ordering::Relaxed);
        switch.reversed.store(reversed, Ordering::Relaxed);
        let f = forecast(&queries, pass);
        let propose = |tuner: &Tuner| {
            tuner
                .propose(&engine, &base, &f, &ConstraintSet::none())
                .map_err(|e| e.to_string())
        };
        let (got, got_stats, _) = counted(&kept_what_if, || propose(&kept));
        let (want, want_stats, _) = counted(&fresh_what_if, || propose(&tuner(&fresh_what_if)));
        let at = format!("pass {pass} on column {column}, reversed: {reversed}");
        assert_eq!(
            got.as_ref().map(decision).map_err(String::clone),
            want,
            "{at}"
        );
        assert_eq!(got_stats, want_stats, "{at}");
        let got = got.expect("proposes");
        let moved = got.decided == Decided::FromKept;
        out.push((got, moved));
    }
    out
}

/// A candidate list that changes content at an unchanged length, base,
/// catalog, cache and query set is priced afresh: the kept prices belong
/// to other candidates. The tuner that keeps prices proposes and counts
/// like one built afresh every pass.
#[test]
fn a_changed_candidate_list_is_priced_afresh() {
    let passes = [(1, false), (1, false), (1, false), (0, false), (0, false)];
    for (pass, (proposal, moved)) in switched_passes(&passes).into_iter().enumerate() {
        if passes[pass].0 == 0 {
            assert!(!proposal.actions.is_empty(), "column a pays");
        } else if pass > 0 {
            assert!(moved, "pass {pass}: nothing changed on column b");
        }
    }
}

/// The same four actions in reverse order keep every price: the pass is
/// priced wholly from kept prices, and the tuner that keeps them still
/// proposes and counts like one built afresh.
#[test]
fn a_reordered_candidate_list_reuses_every_kept_price() {
    let passes = [(1, false), (1, true), (1, false)];
    for (pass, (proposal, moved)) in switched_passes(&passes).into_iter().enumerate() {
        assert!(proposal.actions.is_empty(), "nothing pays on column b");
        if pass > 0 {
            assert!(moved, "pass {pass}: the reordered list was priced afresh");
        }
    }
}

/// One thing that happens between two scored passes.
#[derive(Debug, Clone)]
enum Pass {
    /// Only the forecast's weights move.
    Reweigh,
    /// The candidates come in another order: blocks of `1 + k % 7` in
    /// reverse block order (runs kept, as when the index enumerator
    /// re-ranks its columns), and the whole list reversed when `k` is odd.
    Permute(usize),
    /// The base configuration takes an action.
    Apply(ConfigAction),
    /// A new query joins the forecast.
    AddQuery(i64),
    /// The cost cache is flushed.
    ClearCache,
}

fn pass_strategy() -> impl Strategy<Value = Pass> {
    (0u32..10, 0usize..64, action_strategy(), 0i64..40).prop_map(
        |(pick, k, action, v)| match pick {
            0..=2 => Pass::Reweigh,
            3..=5 => Pass::Permute(k),
            6 | 7 => Pass::Apply(action),
            8 => Pass::AddQuery(v),
            _ => Pass::ClearCache,
        },
    )
}

/// How a pass signs its forecast: `(mode, pick)`. Mode 0 keeps every
/// weight positive; 1 turns rows into `0.0` and `-0.0`; 2 makes one
/// weight negative; 3 gives one scenario probability `-0.0` and another
/// `0.0`; 4 makes one probability negative. Modes 2 and 4 void the sign
/// certificate.
fn signed_forecast(queries: &[Query], pass: u32, (mode, pick): (u8, usize)) -> ForecastSet {
    let weight = |s: usize, r: usize, w: f64| match (mode, (s + r + pick) % 3) {
        (1, 0) => 0.0,
        (1, 1) => -0.0,
        (2, _) if s == pick % 5 && r == pick % queries.len().max(1) => -w,
        _ => w,
    };
    let probability = |s: usize, p: f64| match mode {
        3 if s == pick % 5 => -0.0,
        3 if s == (pick + 1) % 5 => 0.0,
        4 if s == pick % 5 => -p,
        _ => p,
    };
    forecast_with(queries, pass, weight, probability)
}

/// Whether each candidate saves on some scenario row it reaches: some
/// `base − hypothetical` cost above zero, row by row.
fn gains_somewhere(
    what_if: &WhatIf,
    engine: &StorageEngine,
    base: &ConfigInstance,
    forecast: &ForecastSet,
    candidates: &[Candidate],
) -> Vec<bool> {
    let base_ctx = ConfigContext::new(engine, base);
    let cost = |ctx: &ConfigContext, q: &Query, config: &ConfigInstance| {
        what_if
            .query_cost(engine, ctx, q, config)
            .expect("prices")
            .ms()
    };
    let nonhot: Vec<TableId> = base
        .placements
        .iter()
        .filter(|&(_, &tier)| tier != Tier::Hot)
        .map(|(&(t, _), _)| t)
        .collect();
    candidates
        .iter()
        .map(|c| {
            let ctx = base_ctx
                .apply_action(engine, base, &c.action)
                .expect("valid");
            let mut hypo = base.clone();
            hypo.apply(&c.action);
            let delta = ActionDelta::of(base, &c.action);
            forecast
                .iter()
                .flat_map(|s| s.workload.queries())
                .any(|wq| {
                    delta.affects(&QueryFootprint::of(&wq.query), |t| nonhot.contains(&t))
                        && cost(&base_ctx, &wq.query, base) - cost(&ctx, &wq.query, &hypo) > 0.0
                })
        })
        .collect()
}

/// Greedy's choice from one expected desirability and budget weight per
/// candidate (single-scenario assessments that give exactly those).
fn greedy_on(candidates: &[Candidate], scored: &[(f64, f64)], budget: Option<i64>) -> Vec<usize> {
    let assessments: Vec<Assessment> = scored
        .iter()
        .enumerate()
        .map(|(i, &(d, w))| Assessment {
            candidate: i,
            per_scenario: vec![d],
            probabilities: vec![1.0].into(),
            confidence: 1.0,
            permanent_bytes: w as i64,
            one_time_cost: Cost::ZERO,
        })
        .collect();
    let input = SelectionInput {
        candidates,
        assessments: &assessments,
        memory_budget_bytes: budget,
        scenario_base_costs: None,
    };
    GreedySelector.select(&input).expect("selects")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `scores` leaves out exactly the candidates the sign certificate
    /// covers — those with no positive saving on any row they reach,
    /// while every weight and probability is ≥ 0 — and none when one is
    /// negative. Every score it gives is bit-equal to a fresh
    /// assessment's, no candidate it leaves out has a positive expected
    /// desirability, and greedy chooses the same from its scores as
    /// from every assessment. It counts cache lookups like a fresh
    /// assessor, and a pass that only re-weighs or re-orders the
    /// candidates reads every price from the memo.
    #[test]
    fn scores_leave_out_only_certified_candidates(
        passes in proptest::collection::vec(
            (pass_strategy(), (0u8..5, 0usize..64), proptest::option::of(0i64..120_000)),
            1..12,
        ),
    ) {
        let (engine, t, u) = engine();
        let est: Arc<dyn smdb::cost::CostEstimator> = Arc::new(CalibratedCostModel::new());
        let kept_what_if = WhatIf::new(est.clone());
        let fresh_what_if = WhatIf::new(est.clone());
        let row_what_if = WhatIf::new(est);
        let mut kept = WhatIfAssessor::new(kept_what_if.clone(), 0.9);
        kept.threads = 1;
        let fresh = || {
            let mut a = WhatIfAssessor::new(fresh_what_if.clone(), 0.9);
            a.threads = 1;
            a
        };
        let q = |table, col: u16, v: i64| {
            Query::new(table, "t", vec![ScanPredicate::eq(ColumnId(col), v)], None, "q")
        };
        let mut queries = vec![q(t, 0, 7), q(t, 1, 3), q(u, 0, 4)];
        // An index to drop and a cold chunk make savings below zero.
        let mut base = ConfigInstance::default();
        base.apply(&ConfigAction::CreateIndex {
            target: ChunkColumnRef::new(t.0, 0, 1),
            kind: IndexKind::BTree,
        });
        base.apply(&ConfigAction::SetPlacement { table: u, chunk: ChunkId(1), tier: Tier::Cold });
        // Exclusive groups by chunk, so picks compete.
        let mut candidates: Vec<Candidate> = candidates(t, u, None)
            .into_iter()
            .map(|c| {
                let group = match c.action {
                    ConfigAction::CreateIndex { target, .. }
                    | ConfigAction::DropIndex { target }
                    | ConfigAction::SetEncoding { target, .. } => Some(u64::from(target.chunk.0)),
                    _ => None,
                };
                Candidate::new(c.action, group)
            })
            .collect();
        let mut kept_ok = false;
        let mut certified_seen = 0;
        for (pass, (step, signs, budget)) in (0u32..).zip(
            std::iter::once(&(Pass::Reweigh, (0, 0), None)).chain(&passes),
        ) {
            match step {
                Pass::Reweigh => {}
                Pass::Permute(k) => {
                    let mut blocks: Vec<Vec<Candidate>> =
                        candidates.chunks(1 + k % 7).map(<[Candidate]>::to_vec).collect();
                    blocks.reverse();
                    candidates = blocks.concat();
                    if k % 2 == 1 {
                        candidates.reverse();
                    }
                }
                Pass::Apply(action) => base.apply(action),
                Pass::AddQuery(v) => queries.push(q(t, (*v % 2) as u16, *v)),
                Pass::ClearCache => {
                    for w in [&kept_what_if, &fresh_what_if, &row_what_if] {
                        w.clear_cache();
                    }
                }
            }
            let at = format!("pass {pass} after {step:?}, signs {signs:?}");
            let f = signed_forecast(&queries, pass, *signs);
            let (scores, got_stats, _) = counted(&kept_what_if, || {
                kept.scores(&engine, &base, &f, &candidates).expect("scores")
            });
            let (want, want_stats, _) = counted(&fresh_what_if, || {
                fresh().scores(&engine, &base, &f, &candidates).expect("scores")
            });
            prop_assert_eq!(got_stats, want_stats, "{}", &at);
            prop_assert_eq!(&scores.base_costs, &want.base_costs, "{}", &at);
            let weights_only = matches!(step, Pass::Reweigh | Pass::Permute(_));
            if kept_ok && weights_only {
                prop_assert!(scores.all_kept, "{}: the memo was not kept", &at);
            }
            kept_ok = true;

            let assessed = fresh().assess(&engine, &base, &f, &candidates).expect("assesses");
            let signs_hold = f.iter().all(|s| {
                s.probability >= 0.0 && s.workload.queries().iter().all(|wq| wq.weight >= 0.0)
            });
            let gains = gains_somewhere(&row_what_if, &engine, &base, &f, &candidates);
            let open: Vec<usize> = scores.open.iter().map(|s| s.0).collect();
            let want_open: Vec<usize> =
                (0..candidates.len()).filter(|&i| !signs_hold || gains[i]).collect();
            prop_assert_eq!(&open, &want_open, "{}", &at);
            certified_seen += candidates.len() - open.len();
            for &(i, d, w) in &scores.open {
                let a = &assessed[i];
                prop_assert_eq!(d.to_bits(), a.expected_desirability().to_bits(), "{} #{}", &at, i);
                prop_assert_eq!(w.to_bits(), a.budget_weight().to_bits(), "{} #{}", &at, i);
            }
            let mut sparse = vec![(0.0, 0.0); candidates.len()];
            for &(i, d, w) in &scores.open {
                sparse[i] = (d, w);
            }
            for (i, a) in assessed.iter().enumerate() {
                if !open.contains(&i) {
                    let d = a.expected_desirability();
                    prop_assert!(d <= 0.0 || d.is_nan(), "{} #{}", &at, i);
                }
            }
            let full: Vec<(f64, f64)> = assessed
                .iter()
                .map(|a| (a.expected_desirability(), a.budget_weight()))
                .collect();
            prop_assert_eq!(
                greedy_on(&candidates, &sparse, *budget),
                greedy_on(&candidates, &full, *budget),
                "{}", &at
            );
        }
        prop_assert!(certified_seen > 0, "nothing was certified");
    }
}
