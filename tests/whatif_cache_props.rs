//! Property-based tests for the delta-aware what-if cost cache: under
//! arbitrary configuration-action sequences, cached and uncached
//! workload costs stay bit-identical, re-assessing after a cache flush
//! matches a fresh assessor exactly, a patched configuration digest
//! equals one built from scratch, and two configurations share a cache
//! key exactly when they agree on the footprint's slice.

use std::sync::Arc;

use proptest::prelude::*;

use smdb::common::{ChunkColumnRef, ChunkId, ColumnId, TableId};
use smdb::core::assessor::{Assessor, WhatIfAssessor};
use smdb::core::candidate::Candidate;
use smdb::cost::features::ConfigContext;
use smdb::cost::{LogicalCostModel, QueryFootprint, WhatIf};
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
