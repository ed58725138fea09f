//! Per-segment statistics.
//!
//! Statistics serve two masters: the engine prunes chunks by min/max, and
//! the *cost estimators* (crate `smdb-cost`) derive selectivity estimates
//! from them — they are the only information about the data that
//! estimators are allowed to see.

use std::collections::HashSet;
use std::ops::Bound;

use crate::scan::ScanPredicate;
use crate::value::{ColumnValues, Value};

/// Statistics for one segment (one column of one chunk).
#[derive(Debug, Clone)]
pub struct SegmentStats {
    pub rows: u64,
    pub min: Option<Value>,
    pub max: Option<Value>,
    pub distinct: u64,
    /// Fraction of rows whose value equals the most frequent value; a
    /// cheap skew indicator.
    pub top_frequency: f64,
    /// Number of equal-value runs in storage order (the column's
    /// "clustering factor"): `rows` for fully shuffled data, `distinct`
    /// for perfectly clustered data. Drives run-length estimates.
    pub runs: u64,
}

impl SegmentStats {
    /// Computes statistics by one pass over the raw values.
    pub fn compute(values: &ColumnValues) -> SegmentStats {
        let rows = values.len() as u64;
        if rows == 0 {
            return SegmentStats {
                rows: 0,
                min: None,
                max: None,
                distinct: 0,
                top_frequency: 0.0,
                runs: 0,
            };
        }
        let mut min = values.value_at(0);
        let mut max = values.value_at(0);
        let mut counts: std::collections::HashMap<Value, u64> = std::collections::HashMap::new();
        let mut runs = 1u64;
        let mut prev = values.value_at(0);
        for row in 0..values.len() {
            let v = values.value_at(row);
            if row > 0 && v != prev {
                runs += 1;
            }
            prev = v.clone();
            if v < min {
                min = v.clone();
            }
            if v > max {
                max = v.clone();
            }
            *counts.entry(v).or_insert(0) += 1;
        }
        let distinct = counts.len() as u64;
        let top = counts.values().copied().max().unwrap_or(0);
        SegmentStats {
            rows,
            min: Some(min),
            max: Some(max),
            distinct,
            top_frequency: top as f64 / rows as f64,
            runs,
        }
    }

    /// Estimated selectivity (matching fraction) of `pred` over this
    /// segment, using the uniform-within-range assumption. Returns a value
    /// in `[0, 1]`. It reads the predicate's [`ScanPredicate::bounds`],
    /// the interval every encoding, kernel and index evaluates: a point
    /// interval is one of `distinct` values, any other the fraction of
    /// `[min, max]` it covers, an unbounded end reading the segment's own.
    pub fn estimate_selectivity(&self, pred: &ScanPredicate) -> f64 {
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            return 0.0;
        };
        if !pred.overlaps_range(min, max) {
            return 0.0;
        }
        let (lower, upper) = pred.bounds();
        if let (Bound::Included(a), Bound::Included(b)) = (lower, upper) {
            if std::ptr::eq(a, b) {
                return if self.distinct == 0 {
                    0.0
                } else {
                    1.0 / self.distinct as f64
                };
            }
        }
        // Numeric range fraction when both ends are numeric; otherwise a
        // fixed guess.
        let (Some(lo), Some(hi)) = (min.as_f64(), max.as_f64()) else {
            return 0.33;
        };
        let width = (hi - lo).max(f64::MIN_POSITIVE);
        let end = |bound: Bound<&Value>| match bound {
            Bound::Included(v) | Bound::Excluded(v) => Some(v.as_f64()),
            Bound::Unbounded => None,
        };
        let frac = match (end(lower), end(upper)) {
            (None, upper) => (upper.flatten().unwrap_or(hi) - lo) / width,
            (Some(lower), None) => (hi - lower.unwrap_or(lo)) / width,
            (Some(lower), Some(upper)) => {
                (upper.unwrap_or(hi).min(hi) - lower.unwrap_or(lo).max(lo)) / width
            }
        };
        frac.clamp(0.0, 1.0)
    }

    /// Whether a predicate can be satisfied by *any* row of the segment.
    pub fn can_match(&self, pred: &ScanPredicate) -> bool {
        match (&self.min, &self.max) {
            (Some(min), Some(max)) => pred.overlaps_range(min, max),
            _ => false,
        }
    }
}

/// Distinct values helper used by tests and generators.
pub fn distinct_values(values: &ColumnValues) -> usize {
    let mut set = HashSet::new();
    for row in 0..values.len() {
        set.insert(values.value_at(row));
    }
    set.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::ColumnId;

    #[test]
    fn compute_basic_stats() {
        let s = SegmentStats::compute(&ColumnValues::Int(vec![5, 1, 5, 9, 5]));
        assert_eq!(s.rows, 5);
        assert_eq!(s.min, Some(Value::Int(1)));
        assert_eq!(s.max, Some(Value::Int(9)));
        assert_eq!(s.distinct, 3);
        assert!((s.top_frequency - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_stats() {
        let s = SegmentStats::compute(&ColumnValues::Int(vec![]));
        assert_eq!(s.rows, 0);
        assert!(s.min.is_none());
        assert_eq!(
            s.estimate_selectivity(&ScanPredicate::eq(ColumnId(0), 1i64)),
            0.0
        );
        assert!(!s.can_match(&ScanPredicate::eq(ColumnId(0), 1i64)));
    }

    #[test]
    fn eq_selectivity_uses_distinct() {
        let s = SegmentStats::compute(&ColumnValues::Int((0..100).collect()));
        let sel = s.estimate_selectivity(&ScanPredicate::eq(ColumnId(0), 42i64));
        assert!((sel - 0.01).abs() < 1e-12);
    }

    #[test]
    fn range_selectivity_is_proportional() {
        let s = SegmentStats::compute(&ColumnValues::Int((0..=100).collect()));
        let sel = s.estimate_selectivity(&ScanPredicate::between(ColumnId(0), 0i64, 50i64));
        assert!((sel - 0.5).abs() < 0.02);
        let sel = s.estimate_selectivity(&ScanPredicate::cmp(
            ColumnId(0),
            crate::scan::PredicateOp::Ge,
            90i64,
        ));
        assert!((sel - 0.1).abs() < 0.02);
    }

    #[test]
    fn non_overlapping_predicate_zero() {
        let s = SegmentStats::compute(&ColumnValues::Int(vec![10, 20]));
        assert_eq!(
            s.estimate_selectivity(&ScanPredicate::eq(ColumnId(0), 99i64)),
            0.0
        );
        assert!(!s.can_match(&ScanPredicate::eq(ColumnId(0), 99i64)));
    }

    /// A `Between` without an upper bound admits its lower bound alone —
    /// the point every encoding, kernel and index evaluates — so it is
    /// estimated as that point, on integer, float and dictionary-encoded
    /// text segments alike.
    #[test]
    fn upperless_between_estimates_like_eq() {
        use crate::chunk::Chunk;
        use crate::scan::PredicateOp;
        use crate::EncodingKind;
        let upperless = |value: Value| ScanPredicate {
            column: ColumnId(0),
            op: PredicateOp::Between,
            value,
            upper: None,
        };
        let text: Vec<String> = (0..60).map(|i| format!("k{:02}", i % 12)).collect();
        let mut chunk = Chunk::from_columns(vec![ColumnValues::Text(text)]).unwrap();
        chunk
            .set_encoding(ColumnId(0), EncodingKind::Dictionary)
            .unwrap();
        let dictionary = chunk.stats(ColumnId(0)).unwrap().clone();
        let segments = [
            (
                SegmentStats::compute(&ColumnValues::Int((0..100).collect())),
                Value::Int(42),
            ),
            (
                SegmentStats::compute(&ColumnValues::Float(
                    (0..50).map(|i| i as f64 * 0.5).collect(),
                )),
                Value::Float(3.5),
            ),
            (dictionary, Value::Text("k03".into())),
        ];
        for (stats, value) in segments {
            let eq = ScanPredicate::eq(ColumnId(0), value.clone());
            let point = stats.estimate_selectivity(&eq);
            assert!(point > 0.0 && point < 0.5, "{value:?}: {point}");
            assert_eq!(
                stats.estimate_selectivity(&upperless(value.clone())),
                point,
                "{value:?}"
            );
        }
    }

    #[test]
    fn distinct_values_helper() {
        assert_eq!(distinct_values(&ColumnValues::Int(vec![1, 1, 2, 3, 3])), 3);
    }
}
