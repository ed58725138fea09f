//! Chunks: horizontal partitions of a table.
//!
//! A chunk owns one [`Segment`] per column, per-segment statistics, an
//! optional per-column [`ChunkIndex`], and its placement [`Tier`]. All
//! tuning actions land here.

use smdb_common::{ColumnId, Error, Result};

use crate::encoding::{EncodingKind, Segment};
use crate::index::{ChunkIndex, IndexKind};
use crate::placement::Tier;
use crate::stats::SegmentStats;
use crate::value::ColumnValues;

/// One horizontal partition of a table.
#[derive(Debug, Clone)]
pub struct Chunk {
    segments: Vec<Segment>,
    stats: Vec<SegmentStats>,
    indexes: Vec<Option<ChunkIndex>>,
    tier: Tier,
    rows: usize,
}

impl Chunk {
    /// Builds a chunk from raw per-column data (all columns must have the
    /// same length). Segments start unencoded, unindexed, on the hot tier.
    pub fn from_columns(columns: Vec<ColumnValues>) -> Result<Chunk> {
        let rows = columns.first().map_or(0, |c| c.len());
        if columns.iter().any(|c| c.len() != rows) {
            return Err(Error::invalid("column lengths differ within chunk"));
        }
        let stats = columns.iter().map(SegmentStats::compute).collect();
        let segments = columns
            .iter()
            .map(|c| Segment::encode(c, EncodingKind::Unencoded))
            .collect();
        let indexes = columns.iter().map(|_| None).collect();
        Ok(Chunk {
            segments,
            stats,
            indexes,
            tier: Tier::Hot,
            rows,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.segments.len()
    }

    /// The segment of column `col`.
    pub fn segment(&self, col: ColumnId) -> Result<&Segment> {
        self.segments
            .get(col.0 as usize)
            .ok_or_else(|| Error::not_found("column", format!("{col}")))
    }

    /// Statistics of column `col`, written once, at construction: no
    /// encoding, index or tier change touches them.
    pub fn stats(&self, col: ColumnId) -> Result<&SegmentStats> {
        self.stats
            .get(col.0 as usize)
            .ok_or_else(|| Error::not_found("column", format!("{col}")))
    }

    /// The index on column `col`, if any.
    pub fn index(&self, col: ColumnId) -> Option<&ChunkIndex> {
        self.indexes.get(col.0 as usize)?.as_ref()
    }

    /// Current placement tier.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Moves the chunk to `tier`.
    pub fn set_tier(&mut self, tier: Tier) {
        self.tier = tier;
    }

    /// Re-encodes column `col` with `kind` (with fallback semantics, see
    /// [`Segment::encode`]). Any existing index remains valid because
    /// values and positions are unchanged.
    pub fn set_encoding(&mut self, col: ColumnId, kind: EncodingKind) -> Result<EncodingKind> {
        let idx = col.0 as usize;
        let seg = self
            .segments
            .get(idx)
            .ok_or_else(|| Error::not_found("column", format!("{col}")))?;
        let raw = seg.decode();
        let new_seg = Segment::encode(&raw, kind);
        let applied = new_seg.encoding();
        self.segments[idx] = new_seg;
        Ok(applied)
    }

    /// Creates an index of `kind` on column `col`. Replaces an existing
    /// index of a different kind; creating the same kind twice is an
    /// error (the framework should know the current configuration).
    pub fn create_index(&mut self, col: ColumnId, kind: IndexKind) -> Result<()> {
        let idx = col.0 as usize;
        if idx >= self.segments.len() {
            return Err(Error::not_found("column", format!("{col}")));
        }
        if let Some(existing) = &self.indexes[idx] {
            if existing.kind() == kind {
                return Err(Error::Configuration(format!(
                    "index {kind} already exists on column {col}"
                )));
            }
        }
        self.indexes[idx] = Some(match kind {
            crate::index::IndexKind::CompositeHash { second } => {
                let second_idx = second.0 as usize;
                let second_segment = self
                    .segments
                    .get(second_idx)
                    .ok_or_else(|| Error::not_found("column", format!("{second}")))?;
                if second_idx == idx {
                    return Err(Error::Configuration(
                        "composite index requires two distinct columns".into(),
                    ));
                }
                ChunkIndex::build_composite(second, &self.segments[idx], second_segment)
            }
            _ => ChunkIndex::build(kind, &self.segments[idx]),
        });
        Ok(())
    }

    /// Drops the index on column `col`. Dropping a non-existent index is
    /// an error.
    pub fn drop_index(&mut self, col: ColumnId) -> Result<()> {
        let idx = col.0 as usize;
        if idx >= self.segments.len() {
            return Err(Error::not_found("column", format!("{col}")));
        }
        if self.indexes[idx].take().is_none() {
            return Err(Error::Configuration(format!(
                "no index to drop on column {col}"
            )));
        }
        Ok(())
    }

    /// Memory of all segments (table data) in bytes.
    pub fn data_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.memory_bytes()).sum()
    }

    /// Memory of all indexes in bytes.
    pub fn index_bytes(&self) -> usize {
        self.indexes
            .iter()
            .flatten()
            .map(|i| i.memory_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ScanPredicate;

    fn chunk() -> Chunk {
        Chunk::from_columns(vec![
            ColumnValues::Int(vec![1, 2, 3, 2]),
            ColumnValues::Float(vec![0.5, 1.5, 2.5, 3.5]),
        ])
        .unwrap()
    }

    #[test]
    fn construction_checks_lengths() {
        let bad = Chunk::from_columns(vec![
            ColumnValues::Int(vec![1]),
            ColumnValues::Int(vec![1, 2]),
        ]);
        assert!(bad.is_err());
        let ok = chunk();
        assert_eq!(ok.rows(), 4);
        assert_eq!(ok.arity(), 2);
    }

    #[test]
    fn encoding_changes_apply_with_fallback() {
        let mut c = chunk();
        let applied = c
            .set_encoding(ColumnId(0), EncodingKind::Dictionary)
            .unwrap();
        assert_eq!(applied, EncodingKind::Dictionary);
        // Floats cannot be dictionary encoded: falls back.
        let applied = c
            .set_encoding(ColumnId(1), EncodingKind::Dictionary)
            .unwrap();
        assert_eq!(applied, EncodingKind::Unencoded);
    }

    #[test]
    fn index_lifecycle() {
        let mut c = chunk();
        assert!(c.index(ColumnId(0)).is_none());
        c.create_index(ColumnId(0), IndexKind::Hash).unwrap();
        assert!(c.index(ColumnId(0)).is_some());
        // Duplicate same-kind creation is rejected.
        assert!(c.create_index(ColumnId(0), IndexKind::Hash).is_err());
        // Replacing with another kind is allowed.
        c.create_index(ColumnId(0), IndexKind::BTree).unwrap();
        assert_eq!(c.index(ColumnId(0)).unwrap().kind(), IndexKind::BTree);
        c.drop_index(ColumnId(0)).unwrap();
        assert!(c.drop_index(ColumnId(0)).is_err());
    }

    #[test]
    fn index_survives_reencoding() {
        let mut c = chunk();
        c.create_index(ColumnId(0), IndexKind::Hash).unwrap();
        c.set_encoding(ColumnId(0), EncodingKind::RunLength)
            .unwrap();
        let mut out = Vec::new();
        assert!(c
            .index(ColumnId(0))
            .unwrap()
            .probe(&ScanPredicate::eq(ColumnId(0), 2i64), &mut out));
        out.sort_unstable();
        assert_eq!(out, vec![1, 3]);
    }

    #[test]
    fn memory_accounting_splits_data_and_indexes() {
        let mut c = chunk();
        let data_before = c.data_bytes();
        assert_eq!(c.index_bytes(), 0);
        c.create_index(ColumnId(0), IndexKind::BTree).unwrap();
        assert!(c.index_bytes() > 0);
        assert_eq!(c.data_bytes(), data_before);
    }

    #[test]
    fn tier_moves() {
        let mut c = chunk();
        assert_eq!(c.tier(), Tier::Hot);
        c.set_tier(Tier::Cold);
        assert_eq!(c.tier(), Tier::Cold);
    }
}
