//! The storage engine: catalog and configuration apply/undo. Scan
//! execution over the catalog lives in [`crate::exec`].

use std::collections::HashMap;
use std::sync::Arc;

use smdb_common::{ChunkColumnRef, Cost, Error, Result, TableId};

use crate::config::{ConfigAction, ConfigInstance, Knobs};
use crate::memory::MemoryReport;
use crate::placement::Tier;
use crate::simcost::SimCostParams;
use crate::table::Table;

/// The in-memory storage engine.
///
/// The engine executes scans (with deterministic, configuration-dependent
/// simulated cost) and applies [`ConfigAction`]s, reporting their one-time
/// reconfiguration cost. It is the ground truth the self-management
/// framework tunes against.
#[derive(Debug, Clone)]
pub struct StorageEngine {
    tables: Vec<Table>,
    names: HashMap<String, TableId>,
    knobs: Knobs,
    pub(crate) params: SimCostParams,
    /// Whether batch predicate/aggregation kernels drive covered scans
    /// (on by default; the scalar path remains the semantic reference).
    pub(crate) kernels: bool,
    /// Cached bytes resident on non-hot tiers (drives buffer-pool hit rates).
    nonhot_bytes: usize,
    /// Table data bytes and index bytes over every table, kept up to date
    /// where they change (a new table, an index or encoding action), so
    /// reading them walks nothing.
    data_bytes: usize,
    index_bytes: usize,
    /// The configuration in effect, kept up to date where it changes (a
    /// new table, an applied action), so reading it walks nothing.
    /// Shared with whoever exports it; an action on a shared instance
    /// copies it first.
    config: Arc<ConfigInstance>,
    /// Process-unique catalog identity, refreshed whenever the table set
    /// changes. Cost caches key on it so entries from one engine are
    /// never served for another; clones share the token because their
    /// catalogs (and hence statistics) are identical.
    catalog_token: u64,
}

fn next_catalog_token() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Default for StorageEngine {
    fn default() -> Self {
        StorageEngine::new(SimCostParams::default())
    }
}

impl StorageEngine {
    /// Creates an empty engine over the given simulated hardware.
    pub fn new(params: SimCostParams) -> Self {
        StorageEngine {
            tables: Vec::new(),
            names: HashMap::new(),
            knobs: Knobs::default(),
            params,
            kernels: true,
            nonhot_bytes: 0,
            data_bytes: 0,
            index_bytes: 0,
            config: Arc::default(),
            catalog_token: next_catalog_token(),
        }
    }

    /// Enables or disables the vectorized kernel layer. Results are
    /// bit-identical either way (see [`crate::kernels`]); only the
    /// execution strategy — and the kernel/scalar chunk counters —
    /// change. Tests use this to diff the two paths.
    pub fn set_kernels_enabled(&mut self, on: bool) {
        self.kernels = on;
    }

    /// The engine's catalog identity token (see field docs).
    pub fn catalog_token(&self) -> u64 {
        self.catalog_token
    }

    /// Registers a table; names must be unique.
    pub fn create_table(&mut self, table: Table) -> Result<TableId> {
        if self.names.contains_key(table.name()) {
            return Err(Error::Configuration(format!(
                "table '{}' already exists",
                table.name()
            )));
        }
        let id = TableId(self.tables.len() as u32);
        self.names.insert(table.name().to_string(), id);
        self.data_bytes += table.data_bytes();
        self.index_bytes += table.index_bytes();
        table_config(id, &table, Arc::make_mut(&mut self.config));
        self.tables.push(table);
        self.recompute_residency();
        self.catalog_token = next_catalog_token();
        Ok(id)
    }

    /// Immutable table access.
    pub fn table(&self, id: TableId) -> Result<&Table> {
        self.tables
            .get(id.0 as usize)
            .ok_or_else(|| Error::not_found("table", format!("{id}")))
    }

    /// Resolves a table name.
    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| Error::not_found("table", name))
    }

    /// All table ids with names.
    pub fn tables(&self) -> impl Iterator<Item = (TableId, &Table)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (TableId(i as u32), t))
    }

    /// The configuration currently in effect.
    pub fn config(&self) -> &ConfigInstance {
        &self.config
    }

    /// The configuration currently in effect, shared: the engine copies
    /// it before its next action rather than change it under the holder.
    pub fn shared_config(&self) -> Arc<ConfigInstance> {
        Arc::clone(&self.config)
    }

    /// An owned copy of the configuration currently in effect.
    pub fn current_config(&self) -> ConfigInstance {
        (*self.config).clone()
    }

    /// The configuration reconstructed from the catalog's physical
    /// state: what the kept [`StorageEngine::config`] must equal.
    fn walk_config(&self) -> ConfigInstance {
        let mut config = ConfigInstance {
            knobs: self.knobs.clone(),
            ..ConfigInstance::default()
        };
        for (tid, table) in self.tables() {
            table_config(tid, table, &mut config);
        }
        config
    }

    /// Applies one configuration action, returning its one-time
    /// reconfiguration cost.
    pub fn apply_action(&mut self, action: &ConfigAction) -> Result<Cost> {
        // The action as it landed, for the kept configuration.
        let mut kept = action.clone();
        let cost = match action {
            ConfigAction::CreateIndex { target, kind } => {
                let tier = self.table(target.table)?.chunk(target.chunk)?.tier();
                let tier_mult = self.tier_multiplier(tier);
                let table = self.table_mut(target.table)?;
                let chunk = table.chunk_mut(target.chunk)?;
                let rows = chunk.rows();
                let enc = chunk.segment(target.column)?.encoding();
                let before = chunk.index_bytes();
                chunk.create_index(target.column, *kind)?;
                let after = chunk.index_bytes();
                self.index_bytes = self.index_bytes - before + after;
                self.params.index_build_cost(rows, enc, tier_mult)
            }
            ConfigAction::DropIndex { target } => {
                let table = self.table_mut(target.table)?;
                let chunk = table.chunk_mut(target.chunk)?;
                let before = chunk.index_bytes();
                chunk.drop_index(target.column)?;
                let after = chunk.index_bytes();
                self.index_bytes = self.index_bytes - before + after;
                Cost(0.1)
            }
            ConfigAction::SetEncoding { target, kind } => {
                let tier = self.table(target.table)?.chunk(target.chunk)?.tier();
                let tier_mult = self.tier_multiplier(tier);
                let table = self.table_mut(target.table)?;
                let chunk = table.chunk_mut(target.chunk)?;
                let rows = chunk.rows();
                let before = chunk.segment(target.column)?.memory_bytes();
                let applied = chunk.set_encoding(target.column, *kind)?;
                let after = chunk.segment(target.column)?.memory_bytes();
                self.data_bytes = self.data_bytes - before + after;
                self.recompute_residency();
                // What the segment fell back to, not what was asked for.
                kept = ConfigAction::SetEncoding {
                    target: *target,
                    kind: applied,
                };
                self.params.reencode_cost(rows, tier_mult)
            }
            ConfigAction::SetPlacement { table, chunk, tier } => {
                let t = self.table_mut(*table)?;
                let c = t.chunk_mut(*chunk)?;
                if c.tier() == *tier {
                    return Err(Error::Configuration(format!(
                        "chunk {table}.{chunk} already on tier {tier}"
                    )));
                }
                let bytes = c.data_bytes();
                c.set_tier(*tier);
                self.recompute_residency();
                self.params.move_cost(bytes)
            }
            ConfigAction::SetKnob { knob, value } => {
                match knob {
                    crate::config::KnobKind::BufferPoolMb => {
                        if *value < 0.0 {
                            return Err(Error::invalid("buffer_pool_mb must be >= 0"));
                        }
                        self.knobs.buffer_pool_mb = *value;
                    }
                }
                Cost(self.params.knob_change_ms)
            }
        };
        Arc::make_mut(&mut self.config).apply(&kept);
        debug_assert_eq!(
            (self.data_bytes, self.index_bytes),
            {
                let report = self.memory_report();
                (report.data_bytes, report.index_bytes)
            },
            "kept byte totals drifted from the catalog"
        );
        debug_assert!(
            *self.config == self.walk_config(),
            "kept configuration drifted from the catalog"
        );
        Ok(cost)
    }

    /// Applies a list of actions, summing one-time costs. Stops at the
    /// first failure.
    ///
    /// Failure leaves the successfully applied prefix in place (DDL-batch
    /// semantics); use [`StorageEngine::apply_all_atomic`] when a failed
    /// batch must leave the configuration untouched.
    pub fn apply_all(&mut self, actions: &[ConfigAction]) -> Result<Cost> {
        let mut total = Cost::ZERO;
        for a in actions {
            total += self.apply_action(a)?;
        }
        Ok(total)
    }

    /// The action that undoes `action` given the engine's *current*
    /// state. Errors when the action is not applicable (e.g. dropping an
    /// index that does not exist) — in which case applying it would fail
    /// too.
    pub fn inverse_of(&self, action: &ConfigAction) -> Result<ConfigAction> {
        match action {
            // A create replaces an index of another kind: its undo
            // rebuilds that one.
            ConfigAction::CreateIndex { target, .. } => {
                let chunk = self.table(target.table)?.chunk(target.chunk)?;
                Ok(match chunk.index(target.column) {
                    Some(prior) => ConfigAction::CreateIndex {
                        target: *target,
                        kind: prior.kind(),
                    },
                    None => ConfigAction::DropIndex { target: *target },
                })
            }
            ConfigAction::DropIndex { target } => {
                let chunk = self.table(target.table)?.chunk(target.chunk)?;
                let kind = chunk
                    .index(target.column)
                    .map(|idx| idx.kind())
                    .ok_or_else(|| Error::Configuration(format!("no index to drop at {target}")))?;
                Ok(ConfigAction::CreateIndex {
                    target: *target,
                    kind,
                })
            }
            ConfigAction::SetEncoding { target, .. } => {
                let chunk = self.table(target.table)?.chunk(target.chunk)?;
                let prior = chunk.segment(target.column)?.encoding();
                Ok(ConfigAction::SetEncoding {
                    target: *target,
                    kind: prior,
                })
            }
            ConfigAction::SetPlacement { table, chunk, .. } => {
                let prior = self.table(*table)?.chunk(*chunk)?.tier();
                Ok(ConfigAction::SetPlacement {
                    table: *table,
                    chunk: *chunk,
                    tier: prior,
                })
            }
            ConfigAction::SetKnob { knob, .. } => {
                let prior = match knob {
                    crate::config::KnobKind::BufferPoolMb => self.knobs.buffer_pool_mb,
                };
                Ok(ConfigAction::SetKnob {
                    knob: *knob,
                    value: prior,
                })
            }
        }
    }

    /// Applies a list of actions atomically: if any action fails, every
    /// already-applied action of the batch is undone (in reverse order)
    /// before the error is returned, so a failed batch leaves the
    /// configuration exactly as it was.
    ///
    /// The one-time cost of a failed batch is not charged; a batch either
    /// lands completely or not at all. Should the undo itself fail — the
    /// engine mutated underneath us, impossible while the caller holds
    /// the engine write lock — the combined error is reported instead of
    /// panicking.
    pub fn apply_all_atomic(&mut self, actions: &[ConfigAction]) -> Result<Cost> {
        let mut undo: Vec<ConfigAction> = Vec::with_capacity(actions.len());
        let mut total = Cost::ZERO;
        for action in actions {
            let inverse = self.inverse_of(action);
            match (inverse, action) {
                (Ok(inv), _) => match self.apply_action(action) {
                    Ok(cost) => {
                        total += cost;
                        undo.push(inv);
                    }
                    Err(e) => {
                        self.undo_applied(&undo, &e)?;
                        return Err(e);
                    }
                },
                // No inverse means the action itself is invalid; surface
                // its own application error after rolling back the prefix.
                (Err(_), _) => {
                    let e = match self.apply_action(action) {
                        Err(e) => e,
                        // Applied without a known inverse: refuse to
                        // continue half-reversible and report it.
                        Ok(_) => Error::Configuration(format!(
                            "action {action} applied but has no inverse; batch aborted"
                        )),
                    };
                    self.undo_applied(&undo, &e)?;
                    return Err(e);
                }
            }
        }
        Ok(total)
    }

    /// Reverts `undo` (inverses of an applied prefix, in application
    /// order). On secondary failure, wraps both errors.
    fn undo_applied(&mut self, undo: &[ConfigAction], cause: &Error) -> Result<()> {
        for inv in undo.iter().rev() {
            if let Err(e2) = self.apply_action(inv) {
                return Err(Error::Configuration(format!(
                    "rollback of failed batch ({cause}) itself failed: {e2}"
                )));
            }
        }
        Ok(())
    }

    /// Table data bytes over every table (after encoding, without
    /// indexes): [`MemoryReport::data_bytes`] without the walk.
    pub fn data_bytes(&self) -> usize {
        self.data_bytes
    }

    /// Data plus index bytes: [`MemoryReport::total_bytes`] without the
    /// walk.
    pub fn total_bytes(&self) -> usize {
        self.data_bytes + self.index_bytes
    }

    /// Point-in-time memory report.
    pub fn memory_report(&self) -> MemoryReport {
        let mut report = MemoryReport::default();
        for table in &self.tables {
            report.data_bytes += table.data_bytes();
            report.index_bytes += table.index_bytes();
            for (_, chunk) in table.chunks() {
                *report.per_tier.entry(chunk.tier()).or_insert(0) += chunk.data_bytes();
            }
        }
        report
    }

    fn table_mut(&mut self, id: TableId) -> Result<&mut Table> {
        self.tables
            .get_mut(id.0 as usize)
            .ok_or_else(|| Error::not_found("table", format!("{id}")))
    }

    /// The access-latency multiplier a chunk on `tier` pays right now.
    pub(crate) fn tier_multiplier(&self, tier: Tier) -> f64 {
        tier.effective_multiplier(self.knobs.buffer_pool_mb, self.nonhot_bytes as u64)
    }

    fn recompute_residency(&mut self) {
        self.nonhot_bytes = self
            .tables
            .iter()
            .flat_map(|t| t.chunks())
            .filter(|(_, c)| c.tier() != Tier::Hot)
            .map(|(_, c)| c.data_bytes())
            .sum();
    }
}

/// Records `table`'s physical configuration — non-hot tiers, indexes,
/// non-default encodings — into `config` under the id `tid`.
fn table_config(tid: TableId, table: &Table, config: &mut ConfigInstance) {
    for (cid, chunk) in table.chunks() {
        if chunk.tier() != Tier::Hot {
            config.placements.insert((tid, cid), chunk.tier());
        }
        for (col, _) in table.schema().iter() {
            let target = ChunkColumnRef {
                table: tid,
                column: col,
                chunk: cid,
            };
            if let Some(idx) = chunk.index(col) {
                config.indexes.insert(target, idx.kind());
            }
            // A schema column always has a segment; a mismatch is
            // treated as "unencoded" rather than a panic so the
            // snapshot path can never poison a running server.
            let enc = chunk
                .segment(col)
                .map(|s| s.encoding())
                .unwrap_or(crate::encoding::EncodingKind::Unencoded);
            if enc != crate::encoding::EncodingKind::Unencoded {
                config.encodings.insert(target, enc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::EncodingKind;
    use crate::index::IndexKind;
    use crate::scan::{Aggregate, AggregateOp, PredicateOp, ScanPredicate};
    use crate::schema::{ColumnDef, Schema};
    use crate::value::{ColumnValues, DataType};
    use smdb_common::{ChunkId, ColumnId};

    fn engine_with_table() -> (StorageEngine, TableId) {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Float),
        ])
        .unwrap();
        let n = 1000i64;
        let table = Table::from_columns(
            "t",
            schema,
            vec![
                ColumnValues::Int((0..n).map(|i| i % 100).collect()),
                ColumnValues::Float((0..n).map(|i| i as f64).collect()),
            ],
            250,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        let id = engine.create_table(table).unwrap();
        (engine, id)
    }

    #[test]
    fn scan_counts_matches() {
        let (engine, t) = engine_with_table();
        let out = engine
            .scan(t, &[ScanPredicate::eq(ColumnId(0), 7i64)], None)
            .unwrap();
        assert_eq!(out.rows_matched, 10);
        assert_eq!(out.chunks_visited, 4);
        assert!(out.sim_cost.ms() > 0.0);
    }

    #[test]
    fn aggregates_compute() {
        let (engine, t) = engine_with_table();
        let preds = [ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, 10i64)];
        let count = engine
            .scan(t, &preds, Some(&Aggregate::count()))
            .unwrap()
            .agg_value
            .unwrap();
        assert_eq!(count, 100.0);
        let sum = engine
            .scan(
                t,
                &[ScanPredicate::eq(ColumnId(0), 0i64)],
                Some(&Aggregate::new(AggregateOp::Sum, ColumnId(1))),
            )
            .unwrap()
            .agg_value
            .unwrap();
        // Rows where k == 0 are v = 0, 100, ..., 900.
        assert_eq!(sum, (0..10).map(|i| (i * 100) as f64).sum::<f64>());
        let avg = engine
            .scan(t, &[], Some(&Aggregate::new(AggregateOp::Avg, ColumnId(1))))
            .unwrap()
            .agg_value
            .unwrap();
        assert!((avg - 499.5).abs() < 1e-9);
    }

    #[test]
    fn index_reduces_cost_and_is_used() {
        let (mut engine, t) = engine_with_table();
        let pred = [ScanPredicate::eq(ColumnId(0), 7i64)];
        let before = engine.scan(t, &pred, None).unwrap();
        for chunk in 0..4 {
            engine
                .apply_action(&ConfigAction::CreateIndex {
                    target: ChunkColumnRef::new(t.0, 0, chunk),
                    kind: IndexKind::Hash,
                })
                .unwrap();
        }
        let after = engine.scan(t, &pred, None).unwrap();
        assert_eq!(after.rows_matched, before.rows_matched);
        assert_eq!(after.index_probes, 4);
        assert!(after.sim_cost < before.sim_cost);
    }

    #[test]
    fn hash_index_not_used_for_ranges() {
        let (mut engine, t) = engine_with_table();
        engine
            .apply_action(&ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: IndexKind::Hash,
            })
            .unwrap();
        let out = engine
            .scan(
                t,
                &[ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, 5i64)],
                None,
            )
            .unwrap();
        assert_eq!(out.index_probes, 0);
    }

    #[test]
    fn inverted_between_matches_nothing_on_every_path() {
        let pool = crate::parallel::ScanPool::new(2);
        let pred = [ScanPredicate::between(ColumnId(0), 8i64, 2i64)];
        for kind in EncodingKind::ALL {
            for index in [None, Some(IndexKind::Hash), Some(IndexKind::BTree)] {
                let (mut engine, t) = engine_with_table();
                for chunk in 0..4 {
                    let target = ChunkColumnRef::new(t.0, 0, chunk);
                    engine
                        .apply_action(&ConfigAction::SetEncoding { target, kind })
                        .unwrap();
                    if let Some(kind) = index {
                        engine
                            .apply_action(&ConfigAction::CreateIndex { target, kind })
                            .unwrap();
                    }
                }
                for kernels in [false, true] {
                    engine.set_kernels_enabled(kernels);
                    let at = format!("{kind} / {index:?} / kernels {kernels}");
                    assert_eq!(engine.scan(t, &pred, None).unwrap().rows_matched, 0, "{at}");
                    let parallel = engine
                        .scan_grouped_parallel(t, &pred, None, None, &pool, 1)
                        .unwrap();
                    assert_eq!(parallel.rows_matched, 0, "{at}");
                }
            }
        }
    }

    #[test]
    fn pruning_skips_chunks() {
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        // Sorted data: each chunk covers a distinct range.
        let table = Table::from_columns(
            "sorted",
            schema,
            vec![ColumnValues::Int((0..1000).collect())],
            250,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        let t = engine.create_table(table).unwrap();
        let out = engine
            .scan(t, &[ScanPredicate::eq(ColumnId(0), 10i64)], None)
            .unwrap();
        assert_eq!(out.rows_matched, 1);
        assert_eq!(out.chunks_pruned, 3);
        assert_eq!(out.chunks_visited, 1);
    }

    #[test]
    fn placement_penalises_scans_and_buffer_hides_it() {
        let (mut engine, t) = engine_with_table();
        engine
            .apply_action(&ConfigAction::SetKnob {
                knob: crate::config::KnobKind::BufferPoolMb,
                value: 0.0,
            })
            .unwrap();
        let pred = [ScanPredicate::eq(ColumnId(0), 7i64)];
        let hot = engine.scan(t, &pred, None).unwrap().sim_cost;
        for chunk in 0..4 {
            engine
                .apply_action(&ConfigAction::SetPlacement {
                    table: t,
                    chunk: ChunkId(chunk),
                    tier: Tier::Cold,
                })
                .unwrap();
        }
        let cold = engine.scan(t, &pred, None).unwrap().sim_cost;
        assert!(cold.ms() > hot.ms() * 5.0, "cold {cold} vs hot {hot}");
        // A big buffer pool hides the penalty again.
        engine
            .apply_action(&ConfigAction::SetKnob {
                knob: crate::config::KnobKind::BufferPoolMb,
                value: 1024.0,
            })
            .unwrap();
        let buffered = engine.scan(t, &pred, None).unwrap().sim_cost;
        assert!((buffered.ms() - hot.ms()).abs() / hot.ms() < 0.05);
    }

    #[test]
    fn encoding_changes_scan_cost() {
        let (mut engine, t) = engine_with_table();
        let pred = [ScanPredicate::eq(ColumnId(0), 7i64)];
        let raw = engine.scan(t, &pred, None).unwrap().sim_cost;
        for chunk in 0..4 {
            engine
                .apply_action(&ConfigAction::SetEncoding {
                    target: ChunkColumnRef::new(t.0, 0, chunk),
                    kind: EncodingKind::Dictionary,
                })
                .unwrap();
        }
        let dict = engine.scan(t, &pred, None).unwrap().sim_cost;
        assert!(dict < raw);
    }

    #[test]
    fn current_config_reflects_state() {
        let (mut engine, t) = engine_with_table();
        assert_eq!(engine.current_config(), ConfigInstance::default());
        let target = ChunkColumnRef::new(t.0, 0, 1);
        engine
            .apply_action(&ConfigAction::CreateIndex {
                target,
                kind: IndexKind::BTree,
            })
            .unwrap();
        engine
            .apply_action(&ConfigAction::SetEncoding {
                target,
                kind: EncodingKind::RunLength,
            })
            .unwrap();
        let config = engine.current_config();
        assert_eq!(config.index_of(target), Some(IndexKind::BTree));
        assert_eq!(config.encoding_of(target), EncodingKind::RunLength);
    }

    #[test]
    fn apply_reports_one_time_costs() {
        let (mut engine, t) = engine_with_table();
        let build = engine
            .apply_action(&ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: IndexKind::Hash,
            })
            .unwrap();
        assert!(build.ms() > 0.0);
        let drop = engine
            .apply_action(&ConfigAction::DropIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
            })
            .unwrap();
        assert!(drop.ms() < build.ms());
        // Building over dictionary data is cheaper (Section III dependency).
        engine
            .apply_action(&ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: EncodingKind::Dictionary,
            })
            .unwrap();
        let build_dict = engine
            .apply_action(&ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: IndexKind::Hash,
            })
            .unwrap();
        assert!(build_dict.ms() < build.ms());
    }

    #[test]
    fn apply_all_atomic_rolls_back_failed_batch() {
        let (mut engine, t) = engine_with_table();
        engine
            .apply_action(&ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(t.0, 0, 1),
                kind: EncodingKind::Dictionary,
            })
            .unwrap();
        let before = engine.current_config();
        // Batch: valid index + valid encoding + invalid placement.
        let batch = vec![
            ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: IndexKind::Hash,
            },
            ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(t.0, 0, 1),
                kind: EncodingKind::RunLength,
            },
            ConfigAction::SetPlacement {
                table: t,
                chunk: ChunkId(0),
                tier: crate::placement::Tier::Hot, // already hot: fails
            },
        ];
        assert!(engine.apply_all_atomic(&batch).is_err());
        // The whole batch was undone, including the re-encoding.
        assert_eq!(engine.current_config(), before);
        // A valid batch lands completely and reports a positive cost.
        let ok = engine.apply_all_atomic(&batch[..2]).unwrap();
        assert!(ok.ms() > 0.0);
        assert_eq!(engine.current_config().indexes.len(), 1);
    }

    #[test]
    fn inverse_of_round_trips_every_action_kind() {
        let (mut engine, t) = engine_with_table();
        let actions = vec![
            ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: IndexKind::BTree,
            },
            ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(t.0, 0, 1),
                kind: EncodingKind::Dictionary,
            },
            ConfigAction::SetPlacement {
                table: t,
                chunk: ChunkId(2),
                tier: crate::placement::Tier::Warm,
            },
            ConfigAction::SetKnob {
                knob: crate::config::KnobKind::BufferPoolMb,
                value: 256.0,
            },
        ];
        let before = engine.current_config();
        let mut inverses = Vec::new();
        for a in &actions {
            inverses.push(engine.inverse_of(a).unwrap());
            engine.apply_action(a).unwrap();
        }
        // Dropping the created index inverts to recreating it with kind.
        let drop = ConfigAction::DropIndex {
            target: ChunkColumnRef::new(t.0, 0, 0),
        };
        assert_eq!(
            engine.inverse_of(&drop).unwrap(),
            ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: IndexKind::BTree,
            }
        );
        for inv in inverses.iter().rev() {
            engine.apply_action(inv).unwrap();
        }
        assert_eq!(engine.current_config(), before);
    }

    #[test]
    fn redundant_placement_rejected() {
        let (mut engine, t) = engine_with_table();
        let err = engine.apply_action(&ConfigAction::SetPlacement {
            table: t,
            chunk: ChunkId(0),
            tier: Tier::Hot,
        });
        assert!(err.is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let (mut engine, _) = engine_with_table();
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        let t = Table::from_columns("t", schema, vec![ColumnValues::Int(vec![])], 10).unwrap();
        assert!(engine.create_table(t).is_err());
    }

    #[test]
    fn memory_report_tracks_tiers() {
        let (mut engine, t) = engine_with_table();
        let before = engine.memory_report();
        assert_eq!(before.nonhot_bytes(), 0);
        engine
            .apply_action(&ConfigAction::SetPlacement {
                table: t,
                chunk: ChunkId(0),
                tier: Tier::Warm,
            })
            .unwrap();
        let after = engine.memory_report();
        assert!(after.nonhot_bytes() > 0);
        assert_eq!(after.total_bytes(), before.total_bytes());
    }

    #[test]
    fn unknown_predicate_column_errors() {
        let (engine, t) = engine_with_table();
        assert!(engine
            .scan(t, &[ScanPredicate::eq(ColumnId(9), 1i64)], None)
            .is_err());
    }
}

#[cfg(test)]
mod composite_tests {
    use super::*;
    use crate::index::IndexKind;
    use crate::scan::ScanPredicate;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::{ColumnValues, DataType};
    use smdb_common::{ChunkColumnRef, ColumnId};

    fn engine() -> (StorageEngine, TableId) {
        let schema = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("b", DataType::Int),
        ])
        .unwrap();
        let table = Table::from_columns(
            "t",
            schema,
            vec![
                ColumnValues::Int((0..2000).map(|i| i % 40).collect()),
                ColumnValues::Int((0..2000).map(|i| (i * 7) % 50).collect()),
            ],
            500,
        )
        .unwrap();
        let mut e = StorageEngine::default();
        let t = e.create_table(table).unwrap();
        (e, t)
    }

    fn two_eq() -> Vec<ScanPredicate> {
        vec![
            ScanPredicate::eq(smdb_common::ColumnId(0), 7i64),
            ScanPredicate::eq(smdb_common::ColumnId(1), 49i64),
        ]
    }

    #[test]
    fn composite_probe_matches_scan_and_is_cheaper() {
        let (mut e, t) = engine();
        let reference = e.scan(t, &two_eq(), None).unwrap();
        for chunk in 0..4u32 {
            e.apply_action(&ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, chunk),
                kind: IndexKind::CompositeHash {
                    second: ColumnId(1),
                },
            })
            .unwrap();
        }
        let probed = e.scan(t, &two_eq(), None).unwrap();
        assert_eq!(probed.rows_matched, reference.rows_matched);
        assert_eq!(probed.index_probes, 4);
        assert!(probed.sim_cost < reference.sim_cost);

        // The composite also beats the single-column index: the latter
        // still pays refinement over all 50 leading matches per chunk.
        let mut single = engine().0;
        for chunk in 0..4u32 {
            single
                .apply_action(&ConfigAction::CreateIndex {
                    target: ChunkColumnRef::new(t.0, 0, chunk),
                    kind: IndexKind::Hash,
                })
                .unwrap();
        }
        let single_out = single.scan(t, &two_eq(), None).unwrap();
        assert_eq!(single_out.rows_matched, reference.rows_matched);
        assert!(probed.sim_cost < single_out.sim_cost);
    }

    #[test]
    fn composite_unused_for_single_predicate() {
        let (mut e, t) = engine();
        e.apply_action(&ConfigAction::CreateIndex {
            target: ChunkColumnRef::new(t.0, 0, 0),
            kind: IndexKind::CompositeHash {
                second: ColumnId(1),
            },
        })
        .unwrap();
        // Only the leading predicate present: must fall back to scanning.
        let out = e
            .scan(
                t,
                &[ScanPredicate::eq(smdb_common::ColumnId(0), 7i64)],
                None,
            )
            .unwrap();
        assert_eq!(out.index_probes, 0);
    }

    #[test]
    fn composite_roundtrips_through_config() {
        let (mut e, t) = engine();
        let kind = IndexKind::CompositeHash {
            second: ColumnId(1),
        };
        e.apply_action(&ConfigAction::CreateIndex {
            target: ChunkColumnRef::new(t.0, 0, 0),
            kind,
        })
        .unwrap();
        let config = e.current_config();
        assert_eq!(config.index_of(ChunkColumnRef::new(t.0, 0, 0)), Some(kind));
        // Diff/apply round-trip preserves the composite kind.
        let actions = ConfigInstance::default().diff(&config);
        let mut replayed = ConfigInstance::default();
        for a in &actions {
            replayed.apply(a);
        }
        assert_eq!(replayed, config);
    }

    #[test]
    fn composite_on_same_column_rejected() {
        let (mut e, t) = engine();
        let err = e.apply_action(&ConfigAction::CreateIndex {
            target: ChunkColumnRef::new(t.0, 0, 0),
            kind: IndexKind::CompositeHash {
                second: ColumnId(0),
            },
        });
        assert!(err.is_err());
    }
}

#[cfg(test)]
mod kept_config_props {
    //! The kept configuration is the catalog walk after every step of a
    //! random action sequence — failed actions, undone batches, restored
    //! snapshots and configured tables joining a fresh engine included.

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use smdb_common::{ChunkId, ColumnId};
    use smdb_durable::ByteWriter;

    use super::*;
    use crate::config::KnobKind;
    use crate::encoding::EncodingKind;
    use crate::index::IndexKind;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::{ColumnValues, DataType};

    const CHUNKS: u32 = 4;

    fn engine() -> (StorageEngine, TableId) {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Float),
            ColumnDef::new("s", DataType::Text),
        ])
        .unwrap();
        let rows = 40;
        let table = Table::from_columns(
            "t",
            schema,
            vec![
                ColumnValues::Int((0..rows).map(|i| i % 7).collect()),
                ColumnValues::Float((0..rows).map(|i| i as f64 * 0.5).collect()),
                ColumnValues::Text((0..rows).map(|i| format!("s{}", i % 3)).collect()),
            ],
            rows as usize / CHUNKS as usize,
        )
        .unwrap();
        let mut e = StorageEngine::default();
        let t = e.create_table(table).unwrap();
        (e, t)
    }

    /// Any action on the table, applicable or not (a drop of a missing
    /// index, a move to the tier a chunk is on, a negative pool fail).
    fn action(rng: &mut StdRng, t: TableId) -> ConfigAction {
        let column = rng.random_range(0u16..3);
        let chunk = rng.random_range(0..CHUNKS);
        let target = ChunkColumnRef::new(t.0, column, chunk);
        match rng.random_range(0..5) {
            0 => {
                let second = ColumnId(rng.random_range(0u16..3));
                let kinds = [
                    IndexKind::Hash,
                    IndexKind::BTree,
                    IndexKind::CompositeHash { second },
                ];
                let kind = kinds[rng.random_range(0usize..3)];
                ConfigAction::CreateIndex { target, kind }
            }
            1 => ConfigAction::DropIndex { target },
            // Every kind on every type: Float and Text fall back.
            2 => ConfigAction::SetEncoding {
                target,
                kind: EncodingKind::ALL[rng.random_range(0usize..EncodingKind::ALL.len())],
            },
            3 => ConfigAction::SetPlacement {
                table: t,
                chunk: ChunkId(chunk),
                tier: [Tier::Hot, Tier::Warm, Tier::Cold][rng.random_range(0usize..3)],
            },
            _ => ConfigAction::SetKnob {
                knob: KnobKind::BufferPoolMb,
                value: rng.random_range(-8i64..512) as f64,
            },
        }
    }

    fn kept_is_walk(e: &StorageEngine) {
        let walk = e.walk_config();
        assert_eq!(e.config(), &walk);
        assert_eq!(&*e.shared_config(), &walk);
        assert_eq!(e.current_config(), walk);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn the_kept_configuration_is_the_catalog_walk(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut e, t) = engine();
            kept_is_walk(&e);
            // An export holding the instance across the steps: actions
            // copy it rather than change it underneath.
            let mut held = e.shared_config();
            for _ in 0..40 {
                match rng.random_range(0..10) {
                    0..=5 => {
                        let _ = e.apply_action(&action(&mut rng, t));
                    }
                    6 => {
                        // A batch whose last action fails is undone.
                        let mut batch: Vec<ConfigAction> =
                            (0..rng.random_range(1..4)).map(|_| action(&mut rng, t)).collect();
                        batch.push(ConfigAction::SetKnob {
                            knob: KnobKind::BufferPoolMb,
                            value: -1.0,
                        });
                        let before = e.current_config();
                        prop_assert!(e.apply_all_atomic(&batch).is_err());
                        prop_assert_eq!(e.config(), &before);
                    }
                    7 => {
                        // Snapshot restore: the tables' bytes into a fresh
                        // engine at the default configuration, then the
                        // saved configuration re-applied.
                        let saved = e.current_config();
                        let mut restored = StorageEngine::default();
                        for (_, table) in e.tables() {
                            let mut w = ByteWriter::new();
                            table.encode(&mut w).unwrap();
                            let table: Table = smdb_durable::decode_all(&w.into_bytes()).unwrap();
                            restored.create_table(table).unwrap();
                        }
                        prop_assert_eq!(restored.config(), &ConfigInstance {
                            knobs: restored.knobs.clone(),
                            ..ConfigInstance::default()
                        });
                        let redo = restored.config().diff(&saved);
                        restored.apply_all_atomic(&redo).unwrap();
                        prop_assert_eq!(restored.config(), &saved);
                        e = restored;
                    }
                    8 => {
                        // A configured table joins a fresh engine as it is.
                        let mut copy = StorageEngine::default();
                        copy.create_table(e.table(t).unwrap().clone()).unwrap();
                        kept_is_walk(&copy);
                    }
                    _ => held = e.shared_config(),
                }
                kept_is_walk(&e);
            }
            drop(held);
        }
    }
}
