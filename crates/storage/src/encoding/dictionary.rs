//! Dictionary encoding: a sorted dictionary of distinct values plus
//! fixed-width (u32) codes per row.
//!
//! Because the dictionary is sorted, comparison predicates are resolved
//! *once* on the dictionary (binary search → code interval) and then the
//! scan is a tight loop of integer comparisons over the codes. Index
//! construction over a dictionary segment can likewise work on codes,
//! which is why the engine charges lower build cost there.

use std::cmp::Ordering;
use std::ops::Range;

use crate::scan::{clears_lower, clears_upper, cmp_int, cmp_text, ScanPredicate};
use crate::value::{ColumnValues, DataType, Value};

/// Dictionary payload: either integer or text dictionaries are supported;
/// floats fall back to unencoded at the [`Segment::encode`] level.
#[derive(Debug, Clone)]
enum Dict {
    Int(Vec<i64>),
    Text(Vec<String>),
}

/// A dictionary-encoded segment.
#[derive(Debug, Clone)]
pub struct DictionarySegment {
    dict: Dict,
    codes: Vec<u32>,
}

impl DictionarySegment {
    /// Attempts to dictionary-encode; returns `None` for unsupported types
    /// (floats).
    pub fn try_encode(values: &ColumnValues) -> Option<Self> {
        match values {
            ColumnValues::Int(v) => {
                let mut dict: Vec<i64> = v.clone();
                dict.sort_unstable();
                dict.dedup();
                let codes = v
                    .iter()
                    // Every source value is in the dict by construction, so
                    // `Err` is unreachable; its insertion point is a benign
                    // fallback that keeps this path panic-free.
                    .map(|x| dict.binary_search(x).unwrap_or_else(|i| i) as u32)
                    .collect();
                Some(DictionarySegment {
                    dict: Dict::Int(dict),
                    codes,
                })
            }
            ColumnValues::Text(v) => {
                let mut dict: Vec<String> = v.clone();
                dict.sort_unstable();
                dict.dedup();
                let codes = v
                    .iter()
                    .map(|x| dict.binary_search(x).unwrap_or_else(|i| i) as u32)
                    .collect();
                Some(DictionarySegment {
                    dict: Dict::Text(dict),
                    codes,
                })
            }
            ColumnValues::Float(_) => None,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the segment holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of distinct values.
    pub fn dictionary_size(&self) -> usize {
        match &self.dict {
            Dict::Int(d) => d.len(),
            Dict::Text(d) => d.len(),
        }
    }

    /// Stored data type.
    pub fn data_type(&self) -> DataType {
        match &self.dict {
            Dict::Int(_) => DataType::Int,
            Dict::Text(_) => DataType::Text,
        }
    }

    /// Approximate memory footprint.
    pub fn memory_bytes(&self) -> usize {
        let dict_bytes = match &self.dict {
            Dict::Int(d) => d.len() * 8,
            Dict::Text(d) => d.iter().map(|s| 24 + s.len()).sum(),
        };
        dict_bytes + self.codes.len() * 4
    }

    /// Random access.
    pub fn value_at(&self, row: usize) -> Value {
        let code = self.codes[row] as usize;
        match &self.dict {
            Dict::Int(d) => Value::Int(d[code]),
            Dict::Text(d) => Value::Text(d[code].clone()),
        }
    }

    /// The per-row code array; the kernel layer scans it directly.
    pub(crate) fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The sorted integer dictionary, when the payload is integers.
    pub(crate) fn int_dict(&self) -> Option<&[i64]> {
        match &self.dict {
            Dict::Int(d) => Some(d),
            Dict::Text(_) => None,
        }
    }

    /// The sorted text dictionary, when the payload is strings.
    pub(crate) fn text_dict(&self) -> Option<&[String]> {
        match &self.dict {
            Dict::Int(_) => None,
            Dict::Text(d) => Some(d),
        }
    }

    /// Decoded value of one dictionary code.
    pub(crate) fn value_of_code(&self, code: u32) -> Value {
        match &self.dict {
            Dict::Int(d) => Value::Int(d[code as usize]),
            Dict::Text(d) => Value::Text(d[code as usize].clone()),
        }
    }

    /// Decodes to raw values.
    pub fn decode(&self) -> ColumnValues {
        match &self.dict {
            Dict::Int(d) => ColumnValues::Int(self.codes.iter().map(|&c| d[c as usize]).collect()),
            Dict::Text(d) => {
                ColumnValues::Text(self.codes.iter().map(|&c| d[c as usize].clone()).collect())
            }
        }
    }

    /// Resolves `pred` to an inclusive code interval `[lo, hi]`, or `None`
    /// when no code can match. The kernel layer reuses this translation
    /// for its batched code scans.
    pub(crate) fn code_interval(&self, pred: &ScanPredicate) -> Option<(u32, u32)> {
        // The dictionary is sorted, so the codes of the values the
        // predicate's interval admits are contiguous.
        let codes = match &self.dict {
            Dict::Int(d) => admitted(d, pred, |&x, lit| cmp_int(x, lit)),
            Dict::Text(d) => admitted(d, pred, |x, lit| cmp_text(x, lit)),
        };
        (!codes.is_empty()).then(|| (codes.start as u32, codes.end as u32 - 1))
    }

    /// Encoding-specific filter: predicate → code interval → tight code scan.
    pub fn filter(&self, pred: &ScanPredicate, out: &mut Vec<u32>) {
        let Some((lo, hi)) = self.code_interval(pred) else {
            return;
        };
        if lo == hi {
            for (i, &c) in self.codes.iter().enumerate() {
                if c == lo {
                    out.push(i as u32);
                }
            }
        } else {
            for (i, &c) in self.codes.iter().enumerate() {
                if c >= lo && c <= hi {
                    out.push(i as u32);
                }
            }
        }
    }
}

/// The index range of the sorted `dict` whose entries `pred` admits: one
/// `partition_point` per bound, comparing entries by `cmp`.
fn admitted<T>(
    dict: &[T],
    pred: &ScanPredicate,
    cmp: impl Fn(&T, &Value) -> Ordering,
) -> Range<usize> {
    let (lo, hi) = pred.bounds();
    let start = dict.partition_point(|x| !clears_lower(lo, |lit| cmp(x, lit)));
    let end = dict.partition_point(|x| clears_upper(hi, |lit| cmp(x, lit)));
    start..end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::PredicateOp;
    use smdb_common::ColumnId;

    fn seg(v: Vec<i64>) -> DictionarySegment {
        DictionarySegment::try_encode(&ColumnValues::Int(v)).unwrap()
    }

    #[test]
    fn encode_builds_sorted_dedup_dict() {
        let s = seg(vec![30, 10, 20, 10, 30, 30]);
        assert_eq!(s.dictionary_size(), 3);
        assert_eq!(s.len(), 6);
        assert_eq!(s.decode(), ColumnValues::Int(vec![30, 10, 20, 10, 30, 30]));
    }

    #[test]
    fn eq_filter_hits_exact_code() {
        let s = seg(vec![30, 10, 20, 10, 30, 30]);
        let mut out = Vec::new();
        s.filter(&ScanPredicate::eq(ColumnId(0), 30i64), &mut out);
        assert_eq!(out, vec![0, 4, 5]);
    }

    #[test]
    fn range_filters_resolve_on_dict() {
        let s = seg(vec![5, 1, 9, 3, 7]);
        let mut out = Vec::new();
        s.filter(&ScanPredicate::between(ColumnId(0), 3i64, 7i64), &mut out);
        assert_eq!(out, vec![0, 3, 4]);
        out.clear();
        s.filter(
            &ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, 5i64),
            &mut out,
        );
        assert_eq!(out, vec![1, 3]);
        out.clear();
        s.filter(
            &ScanPredicate::cmp(ColumnId(0), PredicateOp::Gt, 7i64),
            &mut out,
        );
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn no_match_interval_is_empty() {
        let s = seg(vec![2, 4, 6]);
        let mut out = Vec::new();
        s.filter(&ScanPredicate::eq(ColumnId(0), 5i64), &mut out);
        assert!(out.is_empty());
        s.filter(
            &ScanPredicate::cmp(ColumnId(0), PredicateOp::Gt, 6i64),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn text_dictionary() {
        let s = DictionarySegment::try_encode(&ColumnValues::Text(vec![
            "pear".into(),
            "apple".into(),
            "mango".into(),
            "apple".into(),
        ]))
        .unwrap();
        assert_eq!(s.dictionary_size(), 3);
        let mut out = Vec::new();
        s.filter(&ScanPredicate::eq(ColumnId(0), "apple"), &mut out);
        assert_eq!(out, vec![1, 3]);
    }

    #[test]
    fn float_unsupported() {
        assert!(DictionarySegment::try_encode(&ColumnValues::Float(vec![1.0])).is_none());
    }

    #[test]
    fn cross_type_literals_follow_the_total_order() {
        let s = seg(vec![1, 2, 3]);
        let filtered = |p: ScanPredicate| {
            let mut out = Vec::new();
            s.filter(&p, &mut out);
            out
        };
        // Text sorts above every number; Float compares numerically.
        assert!(filtered(ScanPredicate::eq(ColumnId(0), "one")).is_empty());
        let below_text = ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, "one");
        assert_eq!(filtered(below_text), vec![0, 1, 2]);
        assert_eq!(filtered(ScanPredicate::eq(ColumnId(0), 2.0f64)), vec![1]);
        let below = ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, 2.5f64);
        assert_eq!(filtered(below), vec![0, 1]);
    }
}
