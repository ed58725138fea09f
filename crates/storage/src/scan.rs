//! Scan predicates and aggregates — the low-level query surface of the
//! storage engine.
//!
//! The query crate lowers its logical queries to these structures; the
//! engine evaluates them per chunk along the access path
//! [`crate::access`] chooses.
//!
//! A predicate admits one interval of values under `Value::cmp`'s total
//! order, stated once by [`ScanPredicate::bounds`]. Row checks, chunk
//! pruning, B-tree range probes, the dictionary code interval and the
//! integer and float key lowerings all derive from it, so an encoding or
//! an index changes what a predicate costs, never which rows it returns.

use std::cmp::Ordering;
use std::ops::Bound;

use smdb_common::ColumnId;
use smdb_durable::{durable_enum, durable_struct};

use crate::value::Value;

/// Comparison operator of a scan predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredicateOp {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
    /// Inclusive range `lo <= x <= hi`.
    Between,
}

durable_enum!(PredicateOp, "predicate op", {
    PredicateOp::Eq => 0,
    PredicateOp::Lt => 1,
    PredicateOp::Le => 2,
    PredicateOp::Gt => 3,
    PredicateOp::Ge => 4,
    PredicateOp::Between => 5,
});

impl PredicateOp {
    /// Whether the operator describes a range (benefits from ordered
    /// indexes) rather than a point lookup.
    pub fn is_range(self) -> bool {
        !matches!(self, PredicateOp::Eq)
    }
}

/// A single column-vs-constant predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPredicate {
    pub column: ColumnId,
    pub op: PredicateOp,
    /// Comparison value; for `Between` this is the lower bound.
    pub value: Value,
    /// Upper bound, only used by `Between`.
    pub upper: Option<Value>,
}

durable_struct!(ScanPredicate {
    column,
    op,
    value,
    upper
});

impl ScanPredicate {
    /// Point equality predicate.
    pub fn eq(column: ColumnId, value: impl Into<Value>) -> Self {
        ScanPredicate {
            column,
            op: PredicateOp::Eq,
            value: value.into(),
            upper: None,
        }
    }

    /// Single-sided comparison predicate.
    pub fn cmp(column: ColumnId, op: PredicateOp, value: impl Into<Value>) -> Self {
        debug_assert!(!matches!(op, PredicateOp::Between));
        ScanPredicate {
            column,
            op,
            value: value.into(),
            upper: None,
        }
    }

    /// Inclusive range predicate.
    pub fn between(column: ColumnId, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        ScanPredicate {
            column,
            op: PredicateOp::Between,
            value: lo.into(),
            upper: Some(hi.into()),
        }
    }

    /// The interval of values the predicate admits, under `Value::cmp`'s
    /// total order. A `Between` without an upper bound admits its lower
    /// bound alone; one whose upper bound lies below its lower bound
    /// admits nothing. Every other reading of the predicate derives from
    /// this one statement.
    pub fn bounds(&self) -> (Bound<&Value>, Bound<&Value>) {
        use Bound::{Excluded, Included, Unbounded};
        let v = &self.value;
        match self.op {
            PredicateOp::Eq => (Included(v), Included(v)),
            PredicateOp::Lt => (Unbounded, Excluded(v)),
            PredicateOp::Le => (Unbounded, Included(v)),
            PredicateOp::Gt => (Excluded(v), Unbounded),
            PredicateOp::Ge => (Included(v), Unbounded),
            PredicateOp::Between => (Included(v), Included(self.upper.as_ref().unwrap_or(v))),
        }
    }

    /// Evaluates the predicate against a concrete value.
    pub fn matches(&self, v: &Value) -> bool {
        self.admits_by(|lit| v.cmp(lit))
    }

    /// Evaluates the predicate on a value known only through `ord`, its
    /// order against a literal (`value.cmp(lit)`), so a caller holding a
    /// raw `i64`, `f64` or `&str` never builds a [`Value`]. A point
    /// interval costs one comparison.
    #[inline(always)]
    pub(crate) fn admits_by(&self, ord: impl Fn(&Value) -> Ordering) -> bool {
        match self.bounds() {
            (Bound::Included(lo), Bound::Included(hi)) if std::ptr::eq(lo, hi) => ord(lo).is_eq(),
            (lo, hi) => clears_lower(lo, &ord) && clears_upper(hi, &ord),
        }
    }

    /// Whether a chunk whose column values span `[min, max]` can contain a
    /// match — used for chunk pruning.
    pub fn overlaps_range(&self, min: &Value, max: &Value) -> bool {
        self.admits_min(min) && self.admits_max(max)
    }

    /// The lower half of [`ScanPredicate::overlaps_range`]: whether a
    /// chunk whose smallest value is `min` can hold a match, i.e. `min`
    /// clears the upper bound. Once false it stays false for every larger
    /// `min`, so over chunks whose mins never decrease it holds on a
    /// prefix.
    pub fn admits_min(&self, min: &Value) -> bool {
        clears_upper(self.bounds().1, |lit| min.cmp(lit))
    }

    /// The upper half of [`ScanPredicate::overlaps_range`]: whether a
    /// chunk whose largest value is `max` can hold a match, i.e. `max`
    /// clears the lower bound. Once true it stays true for every larger
    /// `max`, so over chunks whose maxes never decrease it holds on a
    /// suffix.
    pub fn admits_max(&self, max: &Value) -> bool {
        clears_lower(self.bounds().0, |lit| max.cmp(lit))
    }
}

/// Whether a value ordered against literals by `ord` is not below the
/// lower bound `lo`.
#[inline(always)]
pub(crate) fn clears_lower(lo: Bound<&Value>, ord: impl Fn(&Value) -> Ordering) -> bool {
    match lo {
        Bound::Included(l) => ord(l).is_ge(),
        Bound::Excluded(l) => ord(l).is_gt(),
        Bound::Unbounded => true,
    }
}

/// Whether a value ordered against literals by `ord` is not above the
/// upper bound `hi`.
#[inline(always)]
pub(crate) fn clears_upper(hi: Bound<&Value>, ord: impl Fn(&Value) -> Ordering) -> bool {
    match hi {
        Bound::Included(h) => ord(h).is_le(),
        Bound::Excluded(h) => ord(h).is_lt(),
        Bound::Unbounded => true,
    }
}

/// `Value::Int(x).cmp(lit)` without building the [`Value`].
#[inline(always)]
pub(crate) fn cmp_int(x: i64, lit: &Value) -> Ordering {
    match lit {
        Value::Int(b) => x.cmp(b),
        Value::Float(b) => (x as f64).total_cmp(b),
        Value::Text(_) => Ordering::Less,
    }
}

/// `Value::Float(x).cmp(lit)` without building the [`Value`].
#[inline(always)]
pub(crate) fn cmp_float(x: f64, lit: &Value) -> Ordering {
    match lit {
        Value::Int(b) => x.total_cmp(&(*b as f64)),
        Value::Float(b) => x.total_cmp(b),
        Value::Text(_) => Ordering::Less,
    }
}

/// `Value::Text(x).cmp(lit)` without building the [`Value`].
#[inline(always)]
pub(crate) fn cmp_text(x: &str, lit: &Value) -> Ordering {
    match lit {
        Value::Text(t) => x.cmp(t.as_str()),
        _ => Ordering::Greater,
    }
}

/// Aggregate operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateOp {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

durable_enum!(AggregateOp, "aggregate op", {
    AggregateOp::Count => 0,
    AggregateOp::Sum => 1,
    AggregateOp::Avg => 2,
    AggregateOp::Min => 3,
    AggregateOp::Max => 4,
});

/// An aggregate over the rows matching the predicates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    pub op: AggregateOp,
    /// Aggregated column; ignored for `Count`.
    pub column: ColumnId,
}

durable_struct!(Aggregate { op, column });

impl Aggregate {
    /// Creates an aggregate specification.
    pub fn new(op: AggregateOp, column: ColumnId) -> Self {
        Aggregate { op, column }
    }

    /// `COUNT(*)`.
    pub fn count() -> Self {
        Aggregate {
            op: AggregateOp::Count,
            column: ColumnId(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_matches() {
        let p = ScanPredicate::eq(ColumnId(0), 5i64);
        assert!(p.matches(&Value::Int(5)));
        assert!(!p.matches(&Value::Int(6)));
    }

    #[test]
    fn between_matches_inclusive() {
        let p = ScanPredicate::between(ColumnId(0), 2i64, 4i64);
        assert!(p.matches(&Value::Int(2)));
        assert!(p.matches(&Value::Int(4)));
        assert!(!p.matches(&Value::Int(5)));
        assert!(!p.matches(&Value::Int(1)));
    }

    #[test]
    fn comparisons_match() {
        let lt = ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, 3i64);
        assert!(lt.matches(&Value::Int(2)) && !lt.matches(&Value::Int(3)));
        let ge = ScanPredicate::cmp(ColumnId(0), PredicateOp::Ge, 3i64);
        assert!(ge.matches(&Value::Int(3)) && !ge.matches(&Value::Int(2)));
    }

    /// Every operator written out whole, as one match over `Value`'s
    /// comparison operators.
    fn matches_reference(p: &ScanPredicate, v: &Value) -> bool {
        match p.op {
            PredicateOp::Eq => v == &p.value,
            PredicateOp::Lt => v < &p.value,
            PredicateOp::Le => v <= &p.value,
            PredicateOp::Gt => v > &p.value,
            PredicateOp::Ge => v >= &p.value,
            PredicateOp::Between => v >= &p.value && v <= p.upper.as_ref().unwrap_or(&p.value),
        }
    }

    #[test]
    fn the_interval_reads_as_each_operator() {
        let values = [
            Value::Int(1),
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(2.5),
            Value::Int(3),
            Value::Text("a".into()),
            Value::Text("b".into()),
        ];
        for value in &values {
            for upper in [None, Some(Value::Int(3)), Some(Value::Int(1))] {
                for op in [
                    PredicateOp::Eq,
                    PredicateOp::Lt,
                    PredicateOp::Le,
                    PredicateOp::Gt,
                    PredicateOp::Ge,
                    PredicateOp::Between,
                ] {
                    let p = ScanPredicate {
                        column: ColumnId(0),
                        op,
                        value: value.clone(),
                        upper: upper.clone(),
                    };
                    for v in &values {
                        assert_eq!(p.matches(v), matches_reference(&p, v), "{p:?} on {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn pruning_respects_ranges() {
        let min = Value::Int(10);
        let max = Value::Int(20);
        assert!(ScanPredicate::eq(ColumnId(0), 15i64).overlaps_range(&min, &max));
        assert!(!ScanPredicate::eq(ColumnId(0), 25i64).overlaps_range(&min, &max));
        assert!(!ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, 10i64).overlaps_range(&min, &max));
        assert!(ScanPredicate::cmp(ColumnId(0), PredicateOp::Le, 10i64).overlaps_range(&min, &max));
        assert!(ScanPredicate::between(ColumnId(0), 18i64, 30i64).overlaps_range(&min, &max));
        assert!(!ScanPredicate::between(ColumnId(0), 21i64, 30i64).overlaps_range(&min, &max));
    }

    /// The two-sided prune test written out whole, as one match.
    fn overlaps_reference(p: &ScanPredicate, min: &Value, max: &Value) -> bool {
        match p.op {
            PredicateOp::Eq => &p.value >= min && &p.value <= max,
            PredicateOp::Lt => min < &p.value,
            PredicateOp::Le => min <= &p.value,
            PredicateOp::Gt => max > &p.value,
            PredicateOp::Ge => max >= &p.value,
            PredicateOp::Between => {
                let hi = p.upper.as_ref().unwrap_or(&p.value);
                max >= &p.value && min <= hi
            }
        }
    }

    #[test]
    fn overlap_is_both_halves() {
        let p = |op, v: Value| ScanPredicate {
            column: ColumnId(0),
            op,
            value: v,
            upper: None,
        };
        let mut preds: Vec<ScanPredicate> = [
            PredicateOp::Eq,
            PredicateOp::Lt,
            PredicateOp::Le,
            PredicateOp::Gt,
            PredicateOp::Ge,
            PredicateOp::Between,
        ]
        .into_iter()
        .flat_map(|op| [p(op, Value::Int(15)), p(op, Value::Float(15.5))])
        .collect();
        preds.push(ScanPredicate::between(ColumnId(0), 12i64, 18.5f64));
        preds.push(ScanPredicate::between(ColumnId(0), 25i64, 30i64));
        let bounds = [5i64, 10, 15, 16, 20, 25].map(Value::Int);
        for p in &preds {
            for min in &bounds {
                for max in bounds.iter().chain([&Value::Float(15.5)]) {
                    let both = p.admits_min(min) && p.admits_max(max);
                    assert_eq!(
                        both,
                        overlaps_reference(p, min, max),
                        "{p:?} [{min}, {max}]"
                    );
                    assert_eq!(p.overlaps_range(min, max), both);
                }
            }
        }
        // Each half constrains one end only.
        let ge = ScanPredicate::cmp(ColumnId(0), PredicateOp::Ge, 15i64);
        assert!(ge.admits_min(&Value::Int(99)) && !ge.admits_max(&Value::Int(14)));
        let lt = ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, 15i64);
        assert!(lt.admits_max(&Value::Int(0)) && !lt.admits_min(&Value::Int(15)));
    }

    #[test]
    fn row_oracles_mirror_value_cmp() {
        let lits = [
            Value::Int(-3),
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Text("m".into()),
        ];
        for lit in &lits {
            for x in [-3i64, 0, 2, i64::MAX] {
                assert_eq!(cmp_int(x, lit), Value::Int(x).cmp(lit), "{x} vs {lit}");
            }
            for x in [-0.0, 0.0, 2.0, f64::NAN, f64::NEG_INFINITY] {
                assert_eq!(cmp_float(x, lit), Value::Float(x).cmp(lit), "{x} vs {lit}");
            }
            for x in ["", "m", "z"] {
                assert_eq!(cmp_text(x, lit), Value::from(x).cmp(lit), "{x} vs {lit}");
            }
        }
    }

    #[test]
    fn range_detection() {
        assert!(!PredicateOp::Eq.is_range());
        assert!(PredicateOp::Between.is_range());
        assert!(PredicateOp::Lt.is_range());
    }
}
