//! Execution-profile feature extraction.
//!
//! For a `(query, config)` pair the extractor predicts — from statistics
//! only, without executing anything — how much work of each kind the
//! engine would perform: rows scanned per encoding, index probes and
//! matches, refinement and aggregation rows, all weighted by the
//! estimated tier multiplier. The engine's true cost is (close to) linear
//! in these features, so the calibrated regression model can learn the
//! "hardware" coefficients from observations (Section II-A(d)).
//!
//! Which work a chunk incurs is not re-derived here: the extractor
//! prices the `smdb_storage::access_path` the executor would run, under
//! the hypothetical configuration's indexes. Execution mode needs no
//! modelling: `sim_cost` is total work summed in chunk-index order
//! whatever the thread count or morsel size.

use smdb_common::{ChunkColumnRef, ColumnId, Result};
use smdb_query::Query;
use smdb_storage::{
    access_path, AccessPath, ConfigAction, ConfigInstance, EncodingKind, ScanPredicate,
    StorageEngine, Tier,
};

use crate::footprint::ConfigDigest;

/// Number of features (keep in sync with [`extract_features`]).
pub const NUM_FEATURES: usize = 11;

/// Feature indices, for readability.
pub mod fi {
    pub const INTERCEPT: usize = 0;
    pub const CHUNKS_VISITED: usize = 1;
    pub const SCAN_RAW: usize = 2;
    pub const SCAN_DICT: usize = 3;
    pub const SCAN_RLE: usize = 4;
    pub const SCAN_FOR: usize = 5;
    pub const INDEX_PROBES: usize = 6;
    pub const INDEX_MATCHES: usize = 7;
    pub const REFINE_ROWS: usize = 8;
    pub const AGG_ROWS: usize = 9;
    pub const GROUP_ROWS: usize = 10;
}

/// An extracted feature vector.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFeatures(pub [f64; NUM_FEATURES]);

impl QueryFeatures {
    /// The raw feature slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }
}

/// Per-configuration context precomputed once and shared across the
/// queries of a workload: the non-hot footprint that determines
/// buffer-pool hit rates under the hypothetical configuration, and the
/// [`ConfigDigest`] every query's what-if cache key is derived from.
#[derive(Debug, Clone)]
pub struct ConfigContext {
    pub nonhot_bytes: u64,
    pub(crate) digest: ConfigDigest,
}

impl ConfigContext {
    /// Computes the context by walking the catalog under `config`.
    pub fn new(engine: &StorageEngine, config: &ConfigInstance) -> ConfigContext {
        let mut nonhot = 0u64;
        for (tid, table) in engine.tables() {
            for (cid, chunk) in table.chunks() {
                if config.tier_of(tid, cid) == Tier::Hot {
                    continue;
                }
                for (col, def) in table.schema().iter() {
                    let target = ChunkColumnRef {
                        table: tid,
                        column: col,
                        chunk: cid,
                    };
                    // A schema column always has statistics; a mismatch
                    // contributes no bytes rather than a panic.
                    let Ok(stats) = chunk.stats(col) else {
                        continue;
                    };
                    nonhot += crate::sizes::estimate_segment_bytes(
                        def.data_type,
                        stats.rows,
                        stats.distinct,
                        stats.runs,
                        config.encoding_of(target),
                    );
                }
            }
        }
        ConfigContext {
            nonhot_bytes: nonhot,
            digest: ConfigDigest::new(engine, config),
        }
    }

    /// Incrementally derives the context of `base` + `action` from this
    /// context (which must describe `base`), replacing the O(catalog)
    /// walk of [`ConfigContext::new`] with an O(1)/O(columns) delta.
    /// Only encoding changes on non-hot chunks and placement moves
    /// across the hot boundary shift `nonhot_bytes`; the adjustments sum
    /// exactly the same `estimate_segment_bytes` terms the full walk
    /// would, so the result is bit-identical to a fresh context. The
    /// digest is patched the same way ([`ConfigDigest::apply`]).
    pub fn apply_action(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        action: &ConfigAction,
    ) -> Result<ConfigContext> {
        use smdb_storage::ConfigAction as A;
        let mut nonhot = self.nonhot_bytes;
        match action {
            A::CreateIndex { .. } | A::DropIndex { .. } | A::SetKnob { .. } => {}
            A::SetEncoding { target, kind } => {
                if base.tier_of(target.table, target.chunk) != Tier::Hot {
                    let table = engine.table(target.table)?;
                    let def = table.schema().column(target.column)?;
                    let stats = table.chunk(target.chunk)?.stats(target.column)?;
                    let old = crate::sizes::estimate_segment_bytes(
                        def.data_type,
                        stats.rows,
                        stats.distinct,
                        stats.runs,
                        base.encoding_of(*target),
                    );
                    let new = crate::sizes::estimate_segment_bytes(
                        def.data_type,
                        stats.rows,
                        stats.distinct,
                        stats.runs,
                        *kind,
                    );
                    nonhot = nonhot.saturating_sub(old) + new;
                }
            }
            A::SetPlacement { table, chunk, tier } => {
                let was = base.tier_of(*table, *chunk);
                if was != *tier && (was == Tier::Hot || *tier == Tier::Hot) {
                    let t = engine.table(*table)?;
                    let c = t.chunk(*chunk)?;
                    let mut bytes = 0u64;
                    for (col, def) in t.schema().iter() {
                        let stats = c.stats(col)?;
                        bytes += crate::sizes::estimate_segment_bytes(
                            def.data_type,
                            stats.rows,
                            stats.distinct,
                            stats.runs,
                            base.encoding_of(ChunkColumnRef {
                                table: *table,
                                column: col,
                                chunk: *chunk,
                            }),
                        );
                    }
                    if was == Tier::Hot {
                        nonhot += bytes;
                    } else {
                        nonhot = nonhot.saturating_sub(bytes);
                    }
                }
            }
        }
        Ok(ConfigContext {
            nonhot_bytes: nonhot,
            digest: self.digest.apply(engine, base, action),
        })
    }
}

/// Extracts the estimated execution profile of `query` under `config`:
/// every chunk is priced along the path [`access_path`] — the function
/// the engine executes — decides for it under the *hypothetical*
/// indexes. One deliberate divergence: a position-0 fallback probe
/// ([`AccessPath::Probe`], `selective: false`) is priced as a scan
/// although the engine probes it (DESIGN.md §3, open decision).
pub fn extract_features(
    engine: &StorageEngine,
    ctx: &ConfigContext,
    query: &Query,
    config: &ConfigInstance,
) -> Result<QueryFeatures> {
    let mut f = [0.0f64; NUM_FEATURES];
    f[fi::INTERCEPT] = 1.0;

    let table = engine.table(query.table())?;
    let preds = query.predicates();

    for (cid, chunk) in table.chunks() {
        let target = |column: ColumnId| ChunkColumnRef {
            table: query.table(),
            column,
            chunk: cid,
        };
        let path = access_path(chunk, preds, |col| config.index_of(target(col)))?;
        if path == AccessPath::Pruned {
            continue;
        }
        f[fi::CHUNKS_VISITED] += 1.0;
        let mult = config
            .tier_of(query.table(), cid)
            .effective_multiplier(config.knobs.buffer_pool_mb, ctx.nonhot_bytes);
        let rows = chunk.rows() as f64;

        let selectivity = |p: &ScanPredicate| -> Result<f64> {
            Ok(chunk.stats(p.column)?.estimate_selectivity(p))
        };
        let probe = |f: &mut [f64; NUM_FEATURES], est_count: f64| {
            f[fi::INDEX_PROBES] += mult;
            f[fi::INDEX_MATCHES] += est_count * mult;
            est_count
        };
        // Scan work units follow the engine: rows for positional
        // encodings, measured runs for RLE.
        let scan = |f: &mut [f64; NUM_FEATURES], col: ColumnId| -> Result<()> {
            let enc = config.encoding_of(target(col));
            let units = match enc {
                EncodingKind::RunLength => chunk.stats(col)?.runs as f64,
                _ => rows,
            };
            f[scan_slot(enc)] += units * mult;
            Ok(())
        };
        let mut est_count = match path {
            AccessPath::Pruned => continue,
            AccessPath::Composite { first, second } => probe(
                &mut f,
                rows * selectivity(&preds[first])? * selectivity(&preds[second])?,
            ),
            AccessPath::FullChunk => {
                // Full-chunk selection over column 0's encoding.
                scan(&mut f, ColumnId(0))?;
                rows
            }
            AccessPath::Probe {
                driving,
                selective: true,
            } => probe(&mut f, rows * selectivity(&preds[driving])?),
            // The open decision: the engine probes the fallback, the
            // estimate charges its segment scan.
            AccessPath::Probe {
                driving,
                selective: false,
            }
            | AccessPath::Scan { driving } => {
                scan(&mut f, preds[driving].column)?;
                rows * selectivity(&preds[driving])?
            }
        };
        for (pos, p) in preds.iter().enumerate() {
            if path.consumes(pos) {
                continue;
            }
            f[fi::REFINE_ROWS] += est_count * mult;
            est_count *= selectivity(p)?;
        }
        if query.aggregate().is_some() {
            f[fi::AGG_ROWS] += est_count;
            if query.group_by().is_some() {
                f[fi::GROUP_ROWS] += est_count;
            }
        }
    }
    Ok(QueryFeatures(f))
}

fn scan_slot(enc: EncodingKind) -> usize {
    match enc {
        EncodingKind::Unencoded => fi::SCAN_RAW,
        EncodingKind::Dictionary => fi::SCAN_DICT,
        EncodingKind::RunLength => fi::SCAN_RLE,
        EncodingKind::FrameOfReference => fi::SCAN_FOR,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::{ColumnId, TableId};
    use smdb_storage::value::ColumnValues;
    use smdb_storage::{Aggregate, ColumnDef, ConfigAction, DataType, IndexKind, Schema, Table};

    fn setup() -> (StorageEngine, TableId) {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Float),
        ])
        .unwrap();
        let table = Table::from_columns(
            "t",
            schema,
            vec![
                ColumnValues::Int((0..1000).map(|i| i % 100).collect()),
                ColumnValues::Float((0..1000).map(|i| i as f64).collect()),
            ],
            250,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        let id = engine.create_table(table).unwrap();
        (engine, id)
    }

    fn point_query(t: TableId) -> Query {
        Query::new(
            t,
            "t",
            vec![ScanPredicate::eq(ColumnId(0), 7i64)],
            Some(Aggregate::count()),
            "point",
        )
    }

    #[test]
    fn scan_path_fills_raw_bucket() {
        let (engine, t) = setup();
        let config = ConfigInstance::default();
        let ctx = ConfigContext::new(&engine, &config);
        let f = extract_features(&engine, &ctx, &point_query(t), &config).unwrap();
        assert_eq!(f.0[fi::CHUNKS_VISITED], 4.0);
        assert_eq!(f.0[fi::SCAN_RAW], 1000.0);
        assert_eq!(f.0[fi::INDEX_PROBES], 0.0);
        // 1% selectivity estimate: ~10 matching rows aggregated.
        assert!((f.0[fi::AGG_ROWS] - 10.0).abs() < 1.0);
    }

    #[test]
    fn hypothetical_index_moves_work_to_probe_buckets() {
        let (engine, t) = setup();
        let mut config = ConfigInstance::default();
        for chunk in 0..4 {
            config
                .indexes
                .insert(ChunkColumnRef::new(t.0, 0, chunk), IndexKind::Hash);
        }
        let ctx = ConfigContext::new(&engine, &config);
        let f = extract_features(&engine, &ctx, &point_query(t), &config).unwrap();
        assert_eq!(f.0[fi::SCAN_RAW], 0.0);
        assert_eq!(f.0[fi::INDEX_PROBES], 4.0);
        assert!(f.0[fi::INDEX_MATCHES] > 0.0);
    }

    #[test]
    fn hypothetical_encoding_moves_bucket_without_touching_engine() {
        let (engine, t) = setup();
        let mut config = ConfigInstance::default();
        for chunk in 0..4 {
            config
                .encodings
                .insert(ChunkColumnRef::new(t.0, 0, chunk), EncodingKind::Dictionary);
        }
        let ctx = ConfigContext::new(&engine, &config);
        let f = extract_features(&engine, &ctx, &point_query(t), &config).unwrap();
        assert_eq!(f.0[fi::SCAN_RAW], 0.0);
        assert_eq!(f.0[fi::SCAN_DICT], 1000.0);
        // Engine itself unchanged.
        assert!(engine.current_config().encodings.is_empty());
    }

    #[test]
    fn placement_scales_features_and_buffer_hides_it() {
        let (engine, t) = setup();
        let mut config = ConfigInstance::default();
        for chunk in 0..4 {
            config
                .placements
                .insert((t, smdb_common::ChunkId(chunk)), Tier::Cold);
        }
        config.knobs.buffer_pool_mb = 0.0;
        let ctx = ConfigContext::new(&engine, &config);
        let cold = extract_features(&engine, &ctx, &point_query(t), &config).unwrap();
        assert!(cold.0[fi::SCAN_RAW] > 1000.0 * 20.0);
        config.knobs.buffer_pool_mb = 1024.0;
        let buffered = extract_features(&engine, &ctx, &point_query(t), &config).unwrap();
        assert!((buffered.0[fi::SCAN_RAW] - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn pruning_mirrors_engine() {
        // Sorted key column: point predicate prunes 3 of 4 chunks.
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        let table = Table::from_columns(
            "sorted",
            schema,
            vec![ColumnValues::Int((0..1000).collect())],
            250,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        let t = engine.create_table(table).unwrap();
        let q = Query::new(
            t,
            "sorted",
            vec![ScanPredicate::eq(ColumnId(0), 10i64)],
            None,
            "pt",
        );
        let config = ConfigInstance::default();
        let ctx = ConfigContext::new(&engine, &config);
        let f = extract_features(&engine, &ctx, &q, &config).unwrap();
        assert_eq!(f.0[fi::CHUNKS_VISITED], 1.0);
        assert_eq!(f.0[fi::SCAN_RAW], 250.0);
    }

    #[test]
    fn residual_predicates_fill_refine_bucket() {
        let (engine, t) = setup();
        let q = Query::new(
            t,
            "t",
            vec![
                ScanPredicate::eq(ColumnId(0), 7i64),
                ScanPredicate::cmp(ColumnId(1), smdb_storage::PredicateOp::Lt, 500.0),
            ],
            None,
            "two_preds",
        );
        let config = ConfigInstance::default();
        let ctx = ConfigContext::new(&engine, &config);
        let f = extract_features(&engine, &ctx, &q, &config).unwrap();
        assert!(f.0[fi::REFINE_ROWS] > 0.0);
    }

    /// OPEN DECISION (DESIGN.md §3), pinned as it stands: when no index
    /// passes the selectivity rule, position 0 drives, and if its index
    /// supports the operator the engine probes it however broad the
    /// predicate — while the estimator (its one `selective` read) charges
    /// a segment scan. Whichever side a follow-up moves, this is the
    /// assertion to change.
    #[test]
    fn fallback_probe_is_executed_as_a_probe_and_priced_as_a_scan() {
        let (mut engine, t) = setup();
        for chunk in 0..4 {
            let target = ChunkColumnRef::new(t.0, 1, chunk);
            let kind = IndexKind::BTree;
            engine
                .apply_action(&ConfigAction::CreateIndex { target, kind })
                .unwrap();
        }
        // Every row of every chunk: selectivity 1.0, far above 0.1.
        let preds = vec![ScanPredicate::between(ColumnId(1), 0.0, 999.0)];
        let q = Query::new(t, "t", preds, Some(Aggregate::count()), "broad");
        let out = engine.scan(t, q.predicates(), q.aggregate()).unwrap();
        assert_eq!((out.chunks_visited, out.index_probes), (4, 4));
        assert_eq!(out.rows_scanned, 0);

        let config = engine.current_config();
        let ctx = ConfigContext::new(&engine, &config);
        let f = extract_features(&engine, &ctx, &q, &config).unwrap();
        assert_eq!(f.0[fi::CHUNKS_VISITED], 4.0);
        assert_eq!((f.0[fi::INDEX_PROBES], f.0[fi::INDEX_MATCHES]), (0.0, 0.0));
        assert_eq!(f.0[fi::SCAN_RAW], 1000.0);
    }

    #[test]
    fn apply_action_matches_full_walk() {
        let (engine, t) = setup();
        let mut base = ConfigInstance::default();
        base.placements
            .insert((t, smdb_common::ChunkId(1)), Tier::Cold);
        base.encodings
            .insert(ChunkColumnRef::new(t.0, 0, 1), EncodingKind::Dictionary);
        let ctx = ConfigContext::new(&engine, &base);
        let actions = vec![
            ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: IndexKind::Hash,
            },
            ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(t.0, 1, 1),
                kind: EncodingKind::RunLength,
            },
            ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(t.0, 0, 1),
                kind: EncodingKind::Unencoded,
            },
            // Hot chunk: encoding change must not move nonhot bytes.
            ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: EncodingKind::Dictionary,
            },
            ConfigAction::SetPlacement {
                table: t,
                chunk: smdb_common::ChunkId(0),
                tier: Tier::Warm,
            },
            ConfigAction::SetPlacement {
                table: t,
                chunk: smdb_common::ChunkId(1),
                tier: Tier::Hot,
            },
            // Cold -> warm stays non-hot: no byte change.
            ConfigAction::SetPlacement {
                table: t,
                chunk: smdb_common::ChunkId(1),
                tier: Tier::Warm,
            },
            ConfigAction::SetKnob {
                knob: smdb_storage::KnobKind::BufferPoolMb,
                value: 512.0,
            },
        ];
        for a in actions {
            let mut hypo = base.clone();
            hypo.apply(&a);
            let fast = ctx.apply_action(&engine, &base, &a).unwrap();
            let full = ConfigContext::new(&engine, &hypo);
            assert_eq!(fast.nonhot_bytes, full.nonhot_bytes, "action {a}");
        }
    }

    #[test]
    fn context_counts_nonhot_bytes() {
        let (mut engine, t) = setup();
        let config = ConfigInstance::default();
        assert_eq!(ConfigContext::new(&engine, &config).nonhot_bytes, 0);
        let mut cold = ConfigInstance::default();
        cold.placements
            .insert((t, smdb_common::ChunkId(0)), Tier::Cold);
        assert!(ConfigContext::new(&engine, &cold).nonhot_bytes > 0);
        // Actual engine placement does not matter — only the hypothesis.
        engine
            .apply_action(&ConfigAction::SetPlacement {
                table: t,
                chunk: smdb_common::ChunkId(1),
                tier: Tier::Warm,
            })
            .unwrap();
        assert_eq!(ConfigContext::new(&engine, &config).nonhot_bytes, 0);
    }
}
