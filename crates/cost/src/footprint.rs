//! Config footprints for incremental what-if costing.
//!
//! A query's estimated cost depends only on a small *slice* of a
//! [`ConfigInstance`]: the indexes/encodings of the columns it touches,
//! the tier of its table's chunks, and — only when any of those chunks
//! is non-hot — the global buffer-pool pressure (`nonhot_bytes`,
//! `buffer_pool_mb`). Two configurations that agree on the slice must
//! produce the same cache key, so the cached cost is reused bit-for-bit.
//!
//! The key is derived without reading the configuration: a
//! [`ConfigDigest`] holds, per `(table, column)` slice (index entries,
//! encodings) and per table (placements), the wrapping **sum** of one
//! well-mixed hash per non-default entry. A sum
//! is order-independent, so the digest of `base + action` is the base
//! digest with the old entry's hash subtracted and the new one added —
//! O(1) per candidate ([`ConfigDigest::apply`]) instead of a walk over
//! the slice per lookup. Default values (no index, `Unencoded`, `Hot`)
//! hash to zero, so an explicitly stored default equals an absent entry.
//! [`QueryFootprint::cache_key`] is the one place a key is derived.
//! [`ActionDelta`] is the dual: the slice a [`ConfigAction`] can change,
//! with a conservative intersection test against query footprints.

use std::collections::BTreeMap;
use std::sync::Arc;

use smdb_common::{ChunkColumnRef, ChunkId, ColumnId, TableId};
use smdb_query::Query;
use smdb_storage::{
    ConfigAction, ConfigInstance, EncodingKind, IndexKind, KnobKind, StorageEngine, Tier,
};

use crate::features::ConfigContext;

/// The SplitMix64 finaliser: a bijective, well-mixed `u64 -> u64`.
/// Entry hashes are summed and key parts are chained through it, so
/// every input bit must reach every output bit.
fn mix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The digest of one slice: the wrapping sum of its entries' hashes and
/// — for a placement slice — how many chunks are non-hot (zero = the
/// table is immune to buffer pressure). Also one entry's contribution to
/// that sum, and the *difference* of two sums; both fields wrap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SliceSum {
    hash: u64,
    nonhot: u32,
}

impl SliceSum {
    /// One non-default entry: `domain` separates the three maps, `code`
    /// is the entry's value.
    fn entry(domain: u64, chunk: ChunkId, code: u64) -> SliceSum {
        SliceSum {
            hash: mix((domain << 60) | (code << 32) | u64::from(chunk.0)),
            nonhot: u32::from(domain == TIER),
        }
    }

    fn plus(self, other: SliceSum) -> SliceSum {
        SliceSum {
            hash: self.hash.wrapping_add(other.hash),
            nonhot: self.nonhot.wrapping_add(other.nonhot),
        }
    }

    fn minus(self, other: SliceSum) -> SliceSum {
        SliceSum {
            hash: self.hash.wrapping_sub(other.hash),
            nonhot: self.nonhot.wrapping_sub(other.nonhot),
        }
    }
}

const INDEX: u64 = 1;
const ENCODING: u64 = 2;
const TIER: u64 = 3;

// Default values (no index, `Unencoded`, `Hot`) contribute nothing.

fn index_entry(chunk: ChunkId, kind: Option<IndexKind>) -> SliceSum {
    match kind {
        None => SliceSum::default(),
        Some(IndexKind::Hash) => SliceSum::entry(INDEX, chunk, 1),
        Some(IndexKind::BTree) => SliceSum::entry(INDEX, chunk, 2),
        Some(IndexKind::CompositeHash { second }) => {
            SliceSum::entry(INDEX, chunk, 3 | (u64::from(second.0) << 8))
        }
    }
}

fn encoding_entry(chunk: ChunkId, kind: EncodingKind) -> SliceSum {
    match kind {
        EncodingKind::Unencoded => SliceSum::default(),
        EncodingKind::Dictionary => SliceSum::entry(ENCODING, chunk, 1),
        EncodingKind::RunLength => SliceSum::entry(ENCODING, chunk, 2),
        EncodingKind::FrameOfReference => SliceSum::entry(ENCODING, chunk, 3),
    }
}

fn tier_entry(chunk: ChunkId, tier: Tier) -> SliceSum {
    match tier {
        Tier::Hot => SliceSum::default(),
        Tier::Warm => SliceSum::entry(TIER, chunk, 1),
        Tier::Cold => SliceSum::entry(TIER, chunk, 2),
    }
}

/// Whether `chunk` exists in `table`. Entries naming a chunk (or table)
/// the catalog does not have are inert — no estimator reads them — and
/// stay out of the digest.
fn chunk_exists(engine: &StorageEngine, table: TableId, chunk: ChunkId) -> bool {
    engine
        .table(table)
        .is_ok_and(|t| (chunk.0 as usize) < t.chunk_count())
}

/// One slice of a configuration: a column of a table (`Some`), or the
/// table's placements (`None`).
type SliceKey = (TableId, Option<ColumnId>);

/// A composable digest of a configuration, sufficient to derive every
/// query's cache key (see the module docs).
#[derive(Debug, Clone)]
pub struct ConfigDigest {
    catalog_token: u64,
    buffer_pool_bits: u64,
    /// The slice sums of the base configuration, shared (immutably) by
    /// every digest derived from it.
    base: Arc<BTreeMap<SliceKey, SliceSum>>,
    /// The one slice an applied [`ConfigAction`] moved and by how much,
    /// kept beside the base so deriving a candidate's digest copies
    /// nothing.
    patch: Option<(SliceKey, SliceSum)>,
}

impl ConfigDigest {
    /// Digests `config` from scratch: one pass over its entries.
    pub fn new(engine: &StorageEngine, config: &ConfigInstance) -> ConfigDigest {
        let mut sums: BTreeMap<SliceKey, SliceSum> = BTreeMap::new();
        let mut add = |key: SliceKey, chunk: ChunkId, entry: SliceSum| {
            if chunk_exists(engine, key.0, chunk) {
                let sum = sums.entry(key).or_default();
                *sum = sum.plus(entry);
            }
        };
        for (t, &kind) in &config.indexes {
            let entry = index_entry(t.chunk, Some(kind));
            add((t.table, Some(t.column)), t.chunk, entry);
        }
        for (t, &kind) in &config.encodings {
            let entry = encoding_entry(t.chunk, kind);
            add((t.table, Some(t.column)), t.chunk, entry);
        }
        for (&(table, chunk), &tier) in &config.placements {
            add((table, None), chunk, tier_entry(chunk, tier));
        }
        ConfigDigest {
            catalog_token: engine.catalog_token(),
            buffer_pool_bits: config.knobs.buffer_pool_mb.to_bits(),
            base: Arc::new(sums),
            patch: None,
        }
    }

    /// The digest of `base` + `action`, from this digest (which must
    /// describe `base`): the replaced entry's hash leaves its slice's
    /// sum, the new entry's hash joins it. Equal to [`ConfigDigest::new`]
    /// on the materialised configuration for every key it can produce.
    pub fn apply(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        action: &ConfigAction,
    ) -> ConfigDigest {
        let mut next = self.folded();
        let column = |t: &ChunkColumnRef| (t.table, Some(t.column));
        let (key, chunk, new, old) = match action {
            ConfigAction::CreateIndex { target: t, kind } => (
                column(t),
                t.chunk,
                index_entry(t.chunk, Some(*kind)),
                index_entry(t.chunk, base.index_of(*t)),
            ),
            ConfigAction::DropIndex { target: t } => (
                column(t),
                t.chunk,
                SliceSum::default(),
                index_entry(t.chunk, base.index_of(*t)),
            ),
            ConfigAction::SetEncoding { target: t, kind } => (
                column(t),
                t.chunk,
                encoding_entry(t.chunk, *kind),
                encoding_entry(t.chunk, base.encoding_of(*t)),
            ),
            ConfigAction::SetPlacement { table, chunk, tier } => (
                (*table, None),
                *chunk,
                tier_entry(*chunk, *tier),
                tier_entry(*chunk, base.tier_of(*table, *chunk)),
            ),
            ConfigAction::SetKnob {
                knob: KnobKind::BufferPoolMb,
                value,
            } => {
                next.buffer_pool_bits = value.to_bits();
                return next;
            }
        };
        if chunk_exists(engine, key.0, chunk) {
            next.patch = Some((key, new.minus(old)));
        }
        next
    }

    /// This digest with its patch folded into (a private copy of) the
    /// base sums — only chained `apply` calls pay for the copy.
    fn folded(&self) -> ConfigDigest {
        let mut folded = self.clone();
        if let Some((key, _)) = folded.patch.take() {
            Arc::make_mut(&mut folded.base).insert(key, self.slice(key));
        }
        folded
    }

    fn slice(&self, key: SliceKey) -> SliceSum {
        let sum = self.base.get(&key).copied().unwrap_or_default();
        match self.patch {
            Some((patched, delta)) if patched == key => sum.plus(delta),
            _ => sum,
        }
    }
}

/// The parts of the configuration a query's cost can read: its table and
/// the columns whose index/encoding state feature extraction consults
/// (predicate columns, or column 0 for full scans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryFootprint {
    pub table: TableId,
    pub columns: Vec<ColumnId>,
}

impl QueryFootprint {
    /// Derives the footprint of a query.
    pub fn of(query: &Query) -> QueryFootprint {
        let mut columns: Vec<ColumnId> = query.predicates().iter().map(|p| p.column).collect();
        columns.sort_unstable();
        columns.dedup();
        if columns.is_empty() {
            // Predicate-free scans drive over column 0's encoding.
            columns.push(ColumnId(0));
        }
        QueryFootprint {
            table: query.table(),
            columns,
        }
    }

    /// The cache key of this footprint's slice of the configuration
    /// `ctx` describes: the catalog token, the table and columns, their
    /// digest sums, and — only when the table owns a non-hot chunk —
    /// `nonhot_bytes` and the buffer-pool knob (all-hot tables have a
    /// tier multiplier of exactly 1.0 whatever the buffer pressure).
    /// Constant time in the size of the configuration.
    pub fn cache_key(&self, ctx: &ConfigContext) -> u64 {
        let digest = &ctx.digest;
        let mut h = mix(digest.catalog_token ^ u64::from(self.table.0));
        for &column in &self.columns {
            h = mix(h ^ u64::from(column.0));
            h = mix(h ^ digest.slice((self.table, Some(column))).hash);
        }
        let placement = digest.slice((self.table, None));
        h = mix(h ^ placement.hash);
        if placement.nonhot > 0 {
            h = mix(h ^ ctx.nonhot_bytes);
            h = mix(h ^ digest.buffer_pool_bits);
        }
        h
    }
}

/// The slice of configuration state a [`ConfigAction`] can change,
/// relative to the base configuration it would be applied to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionDelta {
    /// Table the action touches (`None` for knob-only actions).
    table: Option<TableId>,
    /// Column the action touches (`None` means every column of `table`,
    /// as for placement moves).
    column: Option<ColumnId>,
    /// Whether the action can shift global buffer-pool pressure
    /// (non-hot bytes or the buffer-pool knob) and thereby the cost of
    /// any query whose table has non-hot chunks.
    global: bool,
    /// Whether the action provably changes nothing against the base.
    noop: bool,
}

impl ActionDelta {
    /// Computes the delta of applying `action` on top of `base`.
    pub fn of(base: &ConfigInstance, action: &ConfigAction) -> ActionDelta {
        match action {
            ConfigAction::CreateIndex { target, kind } => ActionDelta {
                table: Some(target.table),
                column: Some(target.column),
                global: false,
                noop: base.index_of(*target) == Some(*kind),
            },
            ConfigAction::DropIndex { target } => ActionDelta {
                table: Some(target.table),
                column: Some(target.column),
                global: false,
                noop: base.index_of(*target).is_none(),
            },
            ConfigAction::SetEncoding { target, kind } => ActionDelta {
                table: Some(target.table),
                column: Some(target.column),
                // Re-encoding a non-hot chunk resizes the non-hot pool.
                global: base.tier_of(target.table, target.chunk) != Tier::Hot,
                noop: base.encoding_of(*target) == *kind,
            },
            ConfigAction::SetPlacement { table, chunk, tier } => {
                let was = base.tier_of(*table, *chunk);
                ActionDelta {
                    table: Some(*table),
                    column: None,
                    global: (was == Tier::Hot) != (*tier == Tier::Hot),
                    noop: was == *tier,
                }
            }
            ConfigAction::SetKnob {
                knob: KnobKind::BufferPoolMb,
                value,
            } => ActionDelta {
                table: None,
                column: None,
                global: true,
                noop: value.to_bits() == base.knobs.buffer_pool_mb.to_bits(),
            },
        }
    }

    /// Conservative intersection test: `false` guarantees the action
    /// leaves the query's cost bit-identical; `true` means it *may*
    /// change. `table_has_nonhot` reports whether a table owns at least
    /// one non-hot chunk under the base configuration (the blast radius
    /// of global deltas — all-hot tables are immune to buffer pressure).
    pub fn affects(
        &self,
        footprint: &QueryFootprint,
        table_has_nonhot: impl Fn(TableId) -> bool,
    ) -> bool {
        if self.noop {
            return false;
        }
        if self.global && table_has_nonhot(footprint.table) {
            return true;
        }
        match (self.table, self.column) {
            (Some(t), Some(c)) => t == footprint.table && footprint.columns.contains(&c),
            (Some(t), None) => t == footprint.table,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_storage::{EncodingKind, IndexKind, ScanPredicate};

    fn fp(table: u32, cols: &[u16]) -> QueryFootprint {
        QueryFootprint {
            table: TableId(table),
            columns: cols.iter().map(|&c| ColumnId(c)).collect(),
        }
    }

    #[test]
    fn footprint_of_collects_predicate_columns() {
        let q = Query::new(
            TableId(3),
            "t",
            vec![
                ScanPredicate::eq(ColumnId(2), 1i64),
                ScanPredicate::eq(ColumnId(0), 5i64),
                ScanPredicate::eq(ColumnId(2), 9i64),
            ],
            None,
            "q",
        );
        let f = QueryFootprint::of(&q);
        assert_eq!(f.table, TableId(3));
        assert_eq!(f.columns, vec![ColumnId(0), ColumnId(2)]);
        // Predicate-free scans fall back to column 0.
        let scan = Query::new(TableId(3), "t", vec![], None, "scan");
        assert_eq!(QueryFootprint::of(&scan).columns, vec![ColumnId(0)]);
    }

    #[test]
    fn index_delta_hits_only_matching_column() {
        let base = ConfigInstance::default();
        let d = ActionDelta::of(
            &base,
            &ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(1, 2, 0),
                kind: IndexKind::Hash,
            },
        );
        assert!(d.affects(&fp(1, &[2]), |_| false));
        assert!(!d.affects(&fp(1, &[0]), |_| false));
        assert!(!d.affects(&fp(2, &[2]), |_| false));
    }

    #[test]
    fn noop_actions_affect_nothing() {
        let mut base = ConfigInstance::default();
        base.indexes
            .insert(ChunkColumnRef::new(1, 2, 0), IndexKind::Hash);
        let same = ActionDelta::of(
            &base,
            &ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(1, 2, 0),
                kind: IndexKind::Hash,
            },
        );
        assert!(!same.affects(&fp(1, &[2]), |_| true));
        let drop_missing = ActionDelta::of(
            &base,
            &ConfigAction::DropIndex {
                target: ChunkColumnRef::new(1, 3, 0),
            },
        );
        assert!(!drop_missing.affects(&fp(1, &[3]), |_| true));
    }

    #[test]
    fn knob_delta_spares_all_hot_tables() {
        let base = ConfigInstance::default();
        let d = ActionDelta::of(
            &base,
            &ConfigAction::SetKnob {
                knob: KnobKind::BufferPoolMb,
                value: 256.0,
            },
        );
        assert!(d.affects(&fp(0, &[0]), |t| t == TableId(0)));
        assert!(!d.affects(&fp(0, &[0]), |_| false));
    }

    #[test]
    fn nonhot_encoding_delta_is_global() {
        let mut base = ConfigInstance::default();
        base.placements.insert((TableId(0), ChunkId(1)), Tier::Cold);
        let d = ActionDelta::of(
            &base,
            &ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(0, 0, 1),
                kind: EncodingKind::Dictionary,
            },
        );
        // A different column of a table with non-hot chunks is reached
        // through the global (buffer-pressure) channel.
        assert!(d.affects(&fp(0, &[5]), |t| t == TableId(0)));
        // Hot-chunk encoding changes stay column-local.
        let hot = ActionDelta::of(
            &base,
            &ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(0, 0, 0),
                kind: EncodingKind::Dictionary,
            },
        );
        assert!(!hot.affects(&fp(0, &[5]), |t| t == TableId(0)));
        assert!(hot.affects(&fp(0, &[0]), |_| false));
    }

    #[test]
    fn placement_delta_covers_whole_table() {
        let base = ConfigInstance::default();
        let d = ActionDelta::of(
            &base,
            &ConfigAction::SetPlacement {
                table: TableId(1),
                chunk: ChunkId(0),
                tier: Tier::Cold,
            },
        );
        assert!(d.affects(&fp(1, &[7]), |_| false));
        assert!(!d.affects(&fp(2, &[7]), |_| false));
        // Crossing the hot boundary is global.
        assert!(d.affects(&fp(2, &[7]), |t| t == TableId(2)));
    }
}
