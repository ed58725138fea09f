//! Per-chunk secondary indexes.
//!
//! Indexes attach to a single segment (one column of one chunk), matching
//! Hyrise's chunk-granular physical design: the tuner can index only the
//! hot chunks of a skewed attribute (Section II-B of the paper).
//!
//! Two kinds exist:
//! * [`IndexKind::Hash`] — point (`Eq`) lookups only, O(1) probes.
//! * [`IndexKind::BTree`] — point and range lookups over the total value
//!   order.

pub mod btree;
pub mod composite;
pub mod hash;

use smdb_common::{ColumnId, Error, Result};
use smdb_durable::{ByteReader, ByteWriter, Decode, Encode};

use crate::encoding::Segment;
use crate::scan::{PredicateOp, ScanPredicate};

/// Whether `value` is a `Float` literal several `Int` keys equal under
/// `Value::cmp`: an integral value of magnitude 2^53 or more, onto which
/// neighbouring `i64`s round. A hash lookup finds one such key, so a
/// probe for this value walks every key, as the row filter would match.
fn equals_many_ints(value: &crate::value::Value) -> bool {
    matches!(value, crate::value::Value::Float(f) if f.abs() >= 9_007_199_254_740_992.0 && f.fract() == 0.0)
}

use btree::BTreeIndex;
use composite::CompositeHashIndex;
use hash::HashIndex;

/// The kind of a per-chunk index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IndexKind {
    Hash,
    BTree,
    /// Multi-attribute hash index over the target column and `second`
    /// (the paper's "set of lists of attributes" candidates); answers
    /// conjunctive equality on both columns with one probe.
    CompositeHash {
        second: ColumnId,
    },
}

impl IndexKind {
    /// The single-attribute index kinds, for candidate enumeration
    /// (composite candidates are enumerated from predicate pairs).
    pub const ALL: [IndexKind; 2] = [IndexKind::Hash, IndexKind::BTree];

    /// Whether the kind can answer `op` on its *leading* column. For a
    /// composite index the engine additionally requires an equality
    /// predicate on the second column.
    pub fn supports(self, op: PredicateOp) -> bool {
        match self {
            IndexKind::Hash | IndexKind::CompositeHash { .. } => matches!(op, PredicateOp::Eq),
            IndexKind::BTree => true,
        }
    }

    /// Short label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            IndexKind::Hash => "hash",
            IndexKind::BTree => "btree",
            IndexKind::CompositeHash { .. } => "hash2",
        }
    }
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexKind::CompositeHash { second } => write!(f, "hash2(+{second})"),
            _ => f.write_str(self.label()),
        }
    }
}

/// A built per-chunk index.
#[derive(Debug, Clone)]
pub enum ChunkIndex {
    Hash(HashIndex),
    BTree(BTreeIndex),
    Composite {
        second: ColumnId,
        index: CompositeHashIndex,
    },
}

impl ChunkIndex {
    /// Builds a single-attribute index of the given kind over a segment.
    /// Composite indexes are built with [`ChunkIndex::build_composite`].
    pub fn build(kind: IndexKind, segment: &Segment) -> ChunkIndex {
        match kind {
            IndexKind::Hash => ChunkIndex::Hash(HashIndex::build(segment)),
            IndexKind::BTree => ChunkIndex::BTree(BTreeIndex::build(segment)),
            // Composite kinds need the second segment; every real caller
            // routes them through `build_composite`. Degrade to a hash
            // index on the leading column rather than panicking.
            IndexKind::CompositeHash { .. } => ChunkIndex::Hash(HashIndex::build(segment)),
        }
    }

    /// Builds a composite index over the leading and second segments.
    pub fn build_composite(
        second: ColumnId,
        first_segment: &Segment,
        second_segment: &Segment,
    ) -> ChunkIndex {
        ChunkIndex::Composite {
            second,
            index: CompositeHashIndex::build(first_segment, second_segment),
        }
    }

    /// The kind of this index.
    pub fn kind(&self) -> IndexKind {
        match self {
            ChunkIndex::Hash(_) => IndexKind::Hash,
            ChunkIndex::BTree(_) => IndexKind::BTree,
            ChunkIndex::Composite { second, .. } => IndexKind::CompositeHash { second: *second },
        }
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            ChunkIndex::Hash(i) => i.memory_bytes(),
            ChunkIndex::BTree(i) => i.memory_bytes(),
            ChunkIndex::Composite { index, .. } => index.memory_bytes(),
        }
    }

    /// Probes a single-attribute index with `pred`, appending matching
    /// positions to `out`. Returns `false` (leaving `out` untouched) when
    /// the index cannot answer the predicate alone — composite indexes
    /// always return `false` here; the engine probes them with
    /// [`ChunkIndex::probe_composite`] when both predicates are present.
    pub fn probe(&self, pred: &ScanPredicate, out: &mut Vec<u32>) -> bool {
        if !self.kind().supports(pred.op) {
            return false;
        }
        match self {
            ChunkIndex::Hash(i) => i.probe_eq(&pred.value, out),
            ChunkIndex::BTree(i) => i.probe(pred, out),
            ChunkIndex::Composite { .. } => return false,
        }
        true
    }

    /// Probes a composite index with equality values for both columns.
    /// Returns `false` for non-composite indexes.
    pub fn probe_composite(
        &self,
        first: &crate::value::Value,
        second_value: &crate::value::Value,
        out: &mut Vec<u32>,
    ) -> bool {
        match self {
            ChunkIndex::Composite { index, .. } => {
                index.probe_eq(first, second_value, out);
                true
            }
            _ => false,
        }
    }
}

/// One tag byte; the composite kind carries its second column.
impl Encode for IndexKind {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            IndexKind::Hash => w.u8(0),
            IndexKind::BTree => w.u8(1),
            IndexKind::CompositeHash { second } => {
                w.u8(2);
                second.encode(w);
            }
        }
    }
}

impl Decode for IndexKind {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(IndexKind::Hash),
            1 => Ok(IndexKind::BTree),
            2 => Ok(IndexKind::CompositeHash {
                second: ColumnId::decode(r)?,
            }),
            other => Err(Error::invalid(format!("unknown index kind tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::EncodingKind;
    use crate::value::ColumnValues;
    use smdb_common::ColumnId;

    fn segment() -> Segment {
        Segment::encode(
            &ColumnValues::Int(vec![5, 3, 5, 8, 1, 3]),
            EncodingKind::Unencoded,
        )
    }

    #[test]
    fn hash_answers_eq_only() {
        let idx = ChunkIndex::build(IndexKind::Hash, &segment());
        let mut out = Vec::new();
        assert!(idx.probe(&ScanPredicate::eq(ColumnId(0), 5i64), &mut out));
        out.sort_unstable();
        assert_eq!(out, vec![0, 2]);
        let mut out2 = Vec::new();
        assert!(!idx.probe(
            &ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, 5i64),
            &mut out2
        ));
        assert!(out2.is_empty());
    }

    #[test]
    fn btree_answers_ranges() {
        let idx = ChunkIndex::build(IndexKind::BTree, &segment());
        let mut out = Vec::new();
        assert!(idx.probe(&ScanPredicate::between(ColumnId(0), 3i64, 5i64), &mut out));
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 2, 5]);
    }

    #[test]
    fn both_kinds_agree_with_scan() {
        let seg = segment();
        let pred = ScanPredicate::eq(ColumnId(0), 3i64);
        let mut scan = Vec::new();
        seg.filter(&pred, &mut scan);
        for kind in IndexKind::ALL {
            let idx = ChunkIndex::build(kind, &seg);
            let mut got = Vec::new();
            assert!(idx.probe(&pred, &mut got));
            got.sort_unstable();
            assert_eq!(got, scan, "probe mismatch for {kind}");
        }
    }

    #[test]
    fn kind_support_matrix() {
        assert!(IndexKind::Hash.supports(PredicateOp::Eq));
        assert!(!IndexKind::Hash.supports(PredicateOp::Between));
        assert!(IndexKind::BTree.supports(PredicateOp::Between));
        assert!(IndexKind::BTree.supports(PredicateOp::Eq));
    }
}
