//! Segment encodings.
//!
//! A *segment* is one column of one chunk. Every segment is stored in one
//! of four encodings, each with its own memory footprint and scan path:
//!
//! * [`Unencoded`](EncodingKind::Unencoded) — plain vectors; baseline.
//! * [`Dictionary`](EncodingKind::Dictionary) — sorted dictionary +
//!   fixed-width codes; predicates are resolved on the dictionary once and
//!   then evaluated as integer comparisons over the codes, which makes
//!   scans *faster* than unencoded and makes index construction cheaper
//!   (the dependency between the compression and indexing features that
//!   Section III of the paper uses as its running example).
//! * [`RunLength`](EncodingKind::RunLength) — (value, run-length) pairs;
//!   excellent for sorted or low-cardinality data.
//! * [`FrameOfReference`](EncodingKind::FrameOfReference) — integers as
//!   `base + u32 offset`; halves memory for narrow-range integers.
//!
//! Encoding a segment is *fallible in kind but not in effect*: requesting
//! an encoding a segment does not support (e.g. frame-of-reference for
//! text) falls back to the unencoded representation, mirroring how real
//! column stores pick a legal encoding. The actually applied kind is
//! reported by [`Segment::encoding`].

pub mod dictionary;
pub mod frame_of_reference;
pub mod run_length;

use std::ops::Bound;

use crate::scan::{clears_lower, clears_upper, cmp_int, cmp_text, ScanPredicate};
use crate::value::{ColumnValues, DataType, Value};

use dictionary::DictionarySegment;
use frame_of_reference::ForSegment;
use run_length::RunLengthSegment;

/// The encoding applied to a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EncodingKind {
    Unencoded,
    Dictionary,
    RunLength,
    FrameOfReference,
}

smdb_durable::durable_enum!(EncodingKind, "encoding", {
    EncodingKind::Unencoded => 0,
    EncodingKind::Dictionary => 1,
    EncodingKind::RunLength => 2,
    EncodingKind::FrameOfReference => 3,
});

impl EncodingKind {
    /// All encodings, for candidate enumeration.
    pub const ALL: [EncodingKind; 4] = [
        EncodingKind::Unencoded,
        EncodingKind::Dictionary,
        EncodingKind::RunLength,
        EncodingKind::FrameOfReference,
    ];

    /// Short label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            EncodingKind::Unencoded => "raw",
            EncodingKind::Dictionary => "dict",
            EncodingKind::RunLength => "rle",
            EncodingKind::FrameOfReference => "for",
        }
    }
}

impl std::fmt::Display for EncodingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// An encoded segment: one column of one chunk.
#[derive(Debug, Clone)]
pub enum Segment {
    Unencoded(ColumnValues),
    Dictionary(DictionarySegment),
    RunLength(RunLengthSegment),
    FrameOfReference(ForSegment),
}

impl Segment {
    /// Encodes `values` with the requested kind, falling back to
    /// `Unencoded` when the kind does not support the data (type or value
    /// range).
    pub fn encode(values: &ColumnValues, kind: EncodingKind) -> Segment {
        match kind {
            EncodingKind::Unencoded => Segment::Unencoded(values.clone()),
            EncodingKind::Dictionary => match DictionarySegment::try_encode(values) {
                Some(seg) => Segment::Dictionary(seg),
                None => Segment::Unencoded(values.clone()),
            },
            EncodingKind::RunLength => Segment::RunLength(RunLengthSegment::encode(values)),
            EncodingKind::FrameOfReference => match ForSegment::try_encode(values) {
                Some(seg) => Segment::FrameOfReference(seg),
                None => Segment::Unencoded(values.clone()),
            },
        }
    }

    /// The encoding actually in effect (after any fallback).
    pub fn encoding(&self) -> EncodingKind {
        match self {
            Segment::Unencoded(_) => EncodingKind::Unencoded,
            Segment::Dictionary(_) => EncodingKind::Dictionary,
            Segment::RunLength(_) => EncodingKind::RunLength,
            Segment::FrameOfReference(_) => EncodingKind::FrameOfReference,
        }
    }

    /// Number of rows in the segment.
    pub fn len(&self) -> usize {
        match self {
            Segment::Unencoded(v) => v.len(),
            Segment::Dictionary(s) => s.len(),
            Segment::RunLength(s) => s.len(),
            Segment::FrameOfReference(s) => s.len(),
        }
    }

    /// Whether the segment holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The data type stored in the segment.
    pub fn data_type(&self) -> DataType {
        match self {
            Segment::Unencoded(v) => v.data_type(),
            Segment::Dictionary(s) => s.data_type(),
            Segment::RunLength(s) => s.data_type(),
            Segment::FrameOfReference(_) => DataType::Int,
        }
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            Segment::Unencoded(v) => v.raw_bytes(),
            Segment::Dictionary(s) => s.memory_bytes(),
            Segment::RunLength(s) => s.memory_bytes(),
            Segment::FrameOfReference(s) => s.memory_bytes(),
        }
    }

    /// Random access to row `row`.
    pub fn value_at(&self, row: usize) -> Value {
        match self {
            Segment::Unencoded(v) => v.value_at(row),
            Segment::Dictionary(s) => s.value_at(row),
            Segment::RunLength(s) => s.value_at(row),
            Segment::FrameOfReference(s) => Value::Int(s.value_at(row)),
        }
    }

    /// Decodes back to raw column values (round-trip used in tests and
    /// re-encoding).
    pub fn decode(&self) -> ColumnValues {
        match self {
            Segment::Unencoded(v) => v.clone(),
            Segment::Dictionary(s) => s.decode(),
            Segment::RunLength(s) => s.decode(),
            Segment::FrameOfReference(s) => ColumnValues::Int(s.decode()),
        }
    }

    /// Appends to `out` the positions (row offsets within the chunk) whose
    /// value satisfies `pred`, using the encoding-specific fast path.
    pub fn filter(&self, pred: &ScanPredicate, out: &mut Vec<u32>) {
        match self {
            Segment::Unencoded(v) => filter_unencoded(v, pred, out),
            Segment::Dictionary(s) => s.filter(pred, out),
            Segment::RunLength(s) => s.filter(pred, out),
            Segment::FrameOfReference(s) => s.filter(pred, out),
        }
    }

    /// The number of scan work units a full filter pass touches: rows
    /// for positional encodings, *runs* for run-length (RLE evaluates the
    /// predicate once per run, so its cost tracks the run count).
    pub fn scan_units(&self) -> usize {
        match self {
            Segment::RunLength(s) => s.run_count(),
            other => other.len(),
        }
    }

    /// Retains in `positions` only those that satisfy `pred` (refinement
    /// of an earlier filter by another predicate).
    pub fn refine(&self, pred: &ScanPredicate, positions: &mut Vec<u32>) {
        positions.retain(|&p| pred.matches(&self.value_at(p as usize)));
    }
}

fn filter_unencoded(values: &ColumnValues, pred: &ScanPredicate, out: &mut Vec<u32>) {
    match values {
        ColumnValues::Int(v) => {
            // Lower the predicate to i64 bounds once.
            let Some((lo, hi)) = int_bounds(pred) else {
                return;
            };
            for (i, &x) in v.iter().enumerate() {
                if x >= lo && x <= hi {
                    out.push(i as u32);
                }
            }
        }
        ColumnValues::Float(v) => {
            for (i, &x) in v.iter().enumerate() {
                if pred.matches(&Value::Float(x)) {
                    out.push(i as u32);
                }
            }
        }
        ColumnValues::Text(v) => {
            for (i, s) in v.iter().enumerate() {
                // Avoid cloning each string into a Value.
                if pred.admits_by(|lit| cmp_text(s, lit)) {
                    out.push(i as u32);
                }
            }
        }
    }
}

/// Lowers a predicate over an integer column to the inclusive `[lo, hi]`
/// of integers it admits, `None` when it admits none. `Int(x).cmp(lit)`
/// never decreases as `x` grows, whatever the literal's type, so each
/// bound lowers to one integer: an Int literal by arithmetic, any other
/// by a binary search over `i64` (a Text literal, above every number,
/// admits nothing as a lower bound and everything as an upper one).
pub(crate) fn int_bounds(pred: &ScanPredicate) -> Option<(i64, i64)> {
    let (lo, hi) = pred.bounds();
    let lo = match lo {
        Bound::Unbounded => i64::MIN,
        Bound::Included(Value::Int(l)) => *l,
        Bound::Excluded(Value::Int(l)) => l.checked_add(1)?,
        _ => first_int(|x| clears_lower(lo, |lit| cmp_int(x, lit)))?,
    };
    let hi = match hi {
        Bound::Unbounded => i64::MAX,
        Bound::Included(Value::Int(h)) => *h,
        Bound::Excluded(Value::Int(h)) => h.checked_sub(1)?,
        _ => match first_int(|x| !clears_upper(hi, |lit| cmp_int(x, lit))) {
            Some(above) => above.checked_sub(1)?,
            None => i64::MAX,
        },
    };
    (lo <= hi).then_some((lo, hi))
}

/// The smallest `x` for which `holds(x)`, given that `holds` never turns
/// false again once true; `None` when it never holds.
fn first_int(holds: impl Fn(i64) -> bool) -> Option<i64> {
    let (mut lo, mut hi) = (i64::MIN, i64::MAX);
    if !holds(hi) {
        return None;
    }
    while lo < hi {
        let mid = ((i128::from(lo) + i128::from(hi)) >> 1) as i64;
        if holds(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::PredicateOp;
    use smdb_common::ColumnId;

    fn ints(v: Vec<i64>) -> ColumnValues {
        ColumnValues::Int(v)
    }

    #[test]
    fn encode_fallbacks() {
        let floats = ColumnValues::Float(vec![1.0, 2.0]);
        let seg = Segment::encode(&floats, EncodingKind::FrameOfReference);
        assert_eq!(seg.encoding(), EncodingKind::Unencoded);
        let seg = Segment::encode(&floats, EncodingKind::Dictionary);
        assert_eq!(seg.encoding(), EncodingKind::Unencoded);
    }

    #[test]
    fn all_encodings_roundtrip_ints() {
        let data = ints(vec![5, 5, 5, 9, 1, 1, 3, 3, 3, 3]);
        for kind in EncodingKind::ALL {
            let seg = Segment::encode(&data, kind);
            assert_eq!(seg.decode(), data, "roundtrip failed for {kind}");
            assert_eq!(seg.len(), 10);
        }
    }

    #[test]
    fn all_encodings_filter_consistently() {
        let data = ints(vec![5, 5, 5, 9, 1, 1, 3, 3, 3, 3]);
        let preds = vec![
            ScanPredicate::eq(ColumnId(0), 3i64),
            ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, 5i64),
            ScanPredicate::between(ColumnId(0), 3i64, 5i64),
            ScanPredicate::cmp(ColumnId(0), PredicateOp::Ge, 9i64),
        ];
        let reference = Segment::encode(&data, EncodingKind::Unencoded);
        for pred in &preds {
            let mut expect = Vec::new();
            reference.filter(pred, &mut expect);
            for kind in EncodingKind::ALL {
                let seg = Segment::encode(&data, kind);
                let mut got = Vec::new();
                seg.filter(pred, &mut got);
                assert_eq!(got, expect, "filter mismatch for {kind} / {pred:?}");
            }
        }
    }

    #[test]
    fn refine_narrows_positions() {
        let data = ints(vec![1, 2, 3, 4, 5]);
        let seg = Segment::encode(&data, EncodingKind::Unencoded);
        let mut pos = vec![0u32, 2, 4];
        seg.refine(
            &ScanPredicate::cmp(ColumnId(0), PredicateOp::Ge, 3i64),
            &mut pos,
        );
        assert_eq!(pos, vec![2, 4]);
    }

    #[test]
    fn text_filtering() {
        let data = ColumnValues::Text(vec!["b".into(), "a".into(), "c".into(), "a".into()]);
        let seg = Segment::encode(&data, EncodingKind::Unencoded);
        let mut out = Vec::new();
        seg.filter(&ScanPredicate::eq(ColumnId(0), "a"), &mut out);
        assert_eq!(out, vec![1, 3]);
        out.clear();
        seg.filter(
            &ScanPredicate::cmp(ColumnId(0), PredicateOp::Le, "b"),
            &mut out,
        );
        assert_eq!(out, vec![0, 1, 3]);
    }

    #[test]
    fn int_bounds_lowering() {
        let c = ColumnId(0);
        let lower = |p: ScanPredicate| int_bounds(&p);
        assert_eq!(
            lower(ScanPredicate::cmp(c, PredicateOp::Lt, 10i64)),
            Some((i64::MIN, 9))
        );
        assert_eq!(lower(ScanPredicate::between(c, 2i64, 8i64)), Some((2, 8)));
        // Cross-type literals lower where `Value::cmp` puts them.
        assert_eq!(
            lower(ScanPredicate::cmp(c, PredicateOp::Lt, 2.5f64)),
            Some((i64::MIN, 2))
        );
        assert_eq!(lower(ScanPredicate::eq(c, 3.0f64)), Some((3, 3)));
        assert_eq!(
            lower(ScanPredicate::cmp(c, PredicateOp::Lt, "a")),
            Some((i64::MIN, i64::MAX))
        );
        assert_eq!(lower(ScanPredicate::eq(c, "x")), None);
        // An upper-less Between is equality; an inverted one is empty.
        let upperless = ScanPredicate {
            column: c,
            op: PredicateOp::Between,
            value: Value::Int(4),
            upper: None,
        };
        assert_eq!(lower(upperless), Some((4, 4)));
        assert_eq!(lower(ScanPredicate::between(c, 8i64, 2i64)), None);

        // Brute force: the lowered interval holds exactly the integers
        // `matches` admits, at the ends of the domain too.
        let lits = [
            Value::Int(i64::MIN),
            Value::Int(-3),
            Value::Int(i64::MAX),
            Value::Float(-2.5),
            Value::Float(2.0),
            Value::Float(-0.0),
            Value::Float(9.3e18),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Text("a".into()),
        ];
        let xs = [
            i64::MIN,
            i64::MIN + 1,
            -4,
            -3,
            -2,
            -1,
            0,
            1,
            2,
            3,
            i64::MAX - 1,
            i64::MAX,
        ];
        let ops = [
            PredicateOp::Eq,
            PredicateOp::Lt,
            PredicateOp::Le,
            PredicateOp::Gt,
            PredicateOp::Ge,
            PredicateOp::Between,
        ];
        for value in &lits {
            for upper in lits.iter().map(Some).chain([None]) {
                for op in ops {
                    if upper.is_some() && op != PredicateOp::Between {
                        continue;
                    }
                    let p = ScanPredicate {
                        column: c,
                        op,
                        value: value.clone(),
                        upper: upper.cloned(),
                    };
                    let bounds = int_bounds(&p);
                    for x in xs {
                        let lowered = bounds.is_some_and(|(lo, hi)| lo <= x && x <= hi);
                        assert_eq!(lowered, p.matches(&Value::Int(x)), "{p:?} at {x}");
                    }
                }
            }
        }
    }

    #[test]
    fn dictionary_saves_memory_on_low_cardinality() {
        let data = ints((0..10_000).map(|i| i % 8).collect());
        let raw = Segment::encode(&data, EncodingKind::Unencoded);
        let dict = Segment::encode(&data, EncodingKind::Dictionary);
        assert_eq!(dict.encoding(), EncodingKind::Dictionary);
        // Codes are u32 instead of i64 values: just over half the footprint.
        assert!(dict.memory_bytes() < raw.memory_bytes() * 6 / 10);
    }
}
