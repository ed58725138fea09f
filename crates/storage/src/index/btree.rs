//! Ordered (B-tree) index: value → posting list, supporting point and
//! range probes over the total value order.

use std::collections::BTreeMap;
use std::ops::Bound;

use crate::encoding::Segment;
use crate::scan::ScanPredicate;
use crate::value::Value;

/// A B-tree index over one segment.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    map: BTreeMap<Value, Vec<u32>>,
    entry_bytes: usize,
}

impl BTreeIndex {
    /// Builds the index by a single pass over the segment.
    pub fn build(segment: &Segment) -> BTreeIndex {
        let mut map: BTreeMap<Value, Vec<u32>> = BTreeMap::new();
        let mut entry_bytes = 0usize;
        for row in 0..segment.len() {
            let v = segment.value_at(row);
            let posting = map.entry(v).or_insert_with(|| {
                entry_bytes += 64; // node + key overhead estimate
                Vec::new()
            });
            posting.push(row as u32);
            entry_bytes += 4;
        }
        BTreeIndex { map, entry_bytes }
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Approximate memory footprint.
    pub fn memory_bytes(&self) -> usize {
        self.entry_bytes
    }

    /// Appends all positions matching `pred` to `out`: one range over the
    /// interval the predicate admits.
    pub fn probe(&self, pred: &ScanPredicate, out: &mut Vec<u32>) {
        let bounds = pred.bounds();
        // An inverted interval admits nothing, and `BTreeMap::range`
        // panics on one.
        if let (
            Bound::Included(lo) | Bound::Excluded(lo),
            Bound::Included(hi) | Bound::Excluded(hi),
        ) = bounds
        {
            if lo > hi {
                return;
            }
        }
        // A bound several Int keys equal (`super::equals_many_ints`)
        // stops the range at the first of them; walk every key instead.
        let many = |bound: Bound<&Value>| matches!(bound, Bound::Included(v) | Bound::Excluded(v) if super::equals_many_ints(v));
        if many(bounds.0) || many(bounds.1) {
            for (_, postings) in self.map.iter().filter(|(key, _)| pred.matches(key)) {
                out.extend_from_slice(postings);
            }
            return;
        }
        for (_, postings) in self.map.range::<Value, _>(bounds) {
            out.extend_from_slice(postings);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::EncodingKind;
    use crate::scan::PredicateOp;
    use crate::value::ColumnValues;
    use smdb_common::ColumnId;

    fn index() -> BTreeIndex {
        BTreeIndex::build(&Segment::encode(
            &ColumnValues::Int(vec![10, 30, 20, 10, 40]),
            EncodingKind::Unencoded,
        ))
    }

    #[test]
    fn point_probe() {
        let idx = index();
        let mut out = Vec::new();
        idx.probe(&ScanPredicate::eq(ColumnId(0), 10i64), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 3]);
    }

    #[test]
    fn range_probes_respect_bounds() {
        let idx = index();
        let mut out = Vec::new();
        idx.probe(
            &ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, 30i64),
            &mut out,
        );
        out.sort_unstable();
        assert_eq!(out, vec![0, 2, 3]);
        out.clear();
        idx.probe(
            &ScanPredicate::cmp(ColumnId(0), PredicateOp::Ge, 30i64),
            &mut out,
        );
        out.sort_unstable();
        assert_eq!(out, vec![1, 4]);
        out.clear();
        idx.probe(&ScanPredicate::between(ColumnId(0), 20i64, 30i64), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn distinct_key_count() {
        assert_eq!(index().distinct_keys(), 4);
    }

    #[test]
    fn empty_probe() {
        let idx = index();
        let mut out = Vec::new();
        idx.probe(&ScanPredicate::eq(ColumnId(0), 99i64), &mut out);
        idx.probe(&ScanPredicate::between(ColumnId(0), 30i64, 20i64), &mut out);
        assert!(out.is_empty());
    }
}
