//! Frame-of-reference encoding for integer segments: values are stored as
//! `base + u32 offset`, halving memory for narrow-range integers.

use crate::encoding::int_bounds;
use crate::scan::ScanPredicate;
use crate::value::ColumnValues;

/// A frame-of-reference-encoded integer segment.
#[derive(Debug, Clone)]
pub struct ForSegment {
    base: i64,
    offsets: Vec<u32>,
}

impl ForSegment {
    /// Attempts to encode; returns `None` for non-integer data or when the
    /// value range exceeds `u32::MAX`.
    pub fn try_encode(values: &ColumnValues) -> Option<Self> {
        let ColumnValues::Int(v) = values else {
            return None;
        };
        if v.is_empty() {
            return Some(ForSegment {
                base: 0,
                offsets: Vec::new(),
            });
        }
        let (base, max) = v
            .iter()
            .fold((i64::MAX, i64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        let range = (max as i128) - (base as i128);
        if range > u32::MAX as i128 {
            return None;
        }
        let offsets = v.iter().map(|&x| (x - base) as u32).collect();
        Some(ForSegment { base, offsets })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the segment holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The frame base (minimum value).
    pub fn base(&self) -> i64 {
        self.base
    }

    /// The per-row offset array; the kernel layer scans it directly.
    pub(crate) fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Approximate memory footprint.
    pub fn memory_bytes(&self) -> usize {
        8 + self.offsets.len() * 4
    }

    /// Random access.
    pub fn value_at(&self, row: usize) -> i64 {
        self.base + self.offsets[row] as i64
    }

    /// Decodes to raw integers.
    pub fn decode(&self) -> Vec<i64> {
        self.offsets.iter().map(|&o| self.base + o as i64).collect()
    }

    /// The offsets `[lo, hi]` holding values `pred` admits, `None` when
    /// no offset can: the predicate's integer interval rebased once into
    /// offset space and clamped to the encodable window. The scalar
    /// filter and the kernel both scan by it.
    pub(crate) fn offset_interval(&self, pred: &ScanPredicate) -> Option<(u32, u32)> {
        let (lo, hi) = int_bounds(pred)?;
        let lo_off = lo.saturating_sub(self.base);
        let hi_off = hi.saturating_sub(self.base);
        if hi_off < 0 || lo_off > u32::MAX as i64 {
            return None;
        }
        Some((lo_off.max(0) as u32, hi_off.min(u32::MAX as i64) as u32))
    }

    /// Encoding-specific filter: one offset interval, then a scan of u32s.
    pub fn filter(&self, pred: &ScanPredicate, out: &mut Vec<u32>) {
        let Some((lo, hi)) = self.offset_interval(pred) else {
            return;
        };
        for (i, &o) in self.offsets.iter().enumerate() {
            if o >= lo && o <= hi {
                out.push(i as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::PredicateOp;
    use smdb_common::ColumnId;

    #[test]
    fn roundtrip() {
        let s = ForSegment::try_encode(&ColumnValues::Int(vec![100, 105, 102, 100])).unwrap();
        assert_eq!(s.base(), 100);
        assert_eq!(s.decode(), vec![100, 105, 102, 100]);
        assert_eq!(s.value_at(1), 105);
    }

    #[test]
    fn wide_range_unsupported() {
        let s = ForSegment::try_encode(&ColumnValues::Int(vec![i64::MIN, i64::MAX]));
        assert!(s.is_none());
    }

    #[test]
    fn non_int_unsupported() {
        assert!(ForSegment::try_encode(&ColumnValues::Float(vec![1.0])).is_none());
        assert!(ForSegment::try_encode(&ColumnValues::Text(vec!["a".into()])).is_none());
    }

    #[test]
    fn filter_in_offset_space() {
        let s = ForSegment::try_encode(&ColumnValues::Int(vec![100, 105, 102, 100, 110])).unwrap();
        let mut out = Vec::new();
        s.filter(&ScanPredicate::eq(ColumnId(0), 100i64), &mut out);
        assert_eq!(out, vec![0, 3]);
        out.clear();
        s.filter(
            &ScanPredicate::between(ColumnId(0), 101i64, 106i64),
            &mut out,
        );
        assert_eq!(out, vec![1, 2]);
        out.clear();
        s.filter(
            &ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, 100i64),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn out_of_window_predicates_match_nothing() {
        let s = ForSegment::try_encode(&ColumnValues::Int(vec![100, 105])).unwrap();
        let mut out = Vec::new();
        s.filter(&ScanPredicate::eq(ColumnId(0), 99i64), &mut out);
        assert!(out.is_empty());
        s.filter(&ScanPredicate::eq(ColumnId(0), 1000i64), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn memory_is_half_of_raw() {
        let data: Vec<i64> = (0..1024).collect();
        let s = ForSegment::try_encode(&ColumnValues::Int(data)).unwrap();
        assert_eq!(s.memory_bytes(), 8 + 1024 * 4);
    }

    #[test]
    fn empty_encodes() {
        let s = ForSegment::try_encode(&ColumnValues::Int(vec![])).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.decode(), Vec::<i64>::new());
    }
}
