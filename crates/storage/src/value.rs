//! Typed values and column data.
//!
//! The store supports three data types — 64-bit integers, 64-bit floats
//! and UTF-8 text — which is enough to express the analytic workloads the
//! experiments use while keeping encodings simple. [`Value`] implements a
//! *total* order (floats via `total_cmp`) so that values can key B-tree
//! indexes and sort dictionaries.

use std::cmp::Ordering;
use std::fmt;

use smdb_common::Result;
use smdb_durable::{durable_enum, ByteReader, ByteWriter, Decode, Encode};

/// The data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Text,
}

durable_enum!(DataType, "data type", {
    DataType::Int => 0,
    DataType::Float => 1,
    DataType::Text => 2,
});

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "int"),
            DataType::Float => write!(f, "float"),
            DataType::Text => write!(f, "text"),
        }
    }
}

/// A single typed value.
#[derive(Debug, Clone)]
pub enum Value {
    Int(i64),
    Float(f64),
    Text(String),
}

impl Value {
    /// The data type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Text(_) => DataType::Text,
        }
    }

    /// Interprets the value as `f64` where a numeric reading exists.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Text(_) => None,
        }
    }

    /// Interprets the value as `i64` if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Approximate heap + inline size in bytes, for memory accounting.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Text(s) => 24 + s.len(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: values of the same type compare naturally (floats via
    /// `total_cmp`); across types the order is Int < Float < Text, except
    /// that Int and Float compare numerically when both are finite, which
    /// lets mixed numeric predicates behave intuitively.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(_), _) => Ordering::Greater,
            (_, Text(_)) => Ordering::Less,
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            // Hash Int and Float through a common numeric image so that
            // `Int(2) == Float(2.0)` implies equal hashes.
            Value::Int(i) => (*i as f64).to_bits().hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Text(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

/// Column-major raw data for one column of one chunk (pre-encoding).
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnValues {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Text(Vec<String>),
}

impl ColumnValues {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnValues::Int(v) => v.len(),
            ColumnValues::Float(v) => v.len(),
            ColumnValues::Text(v) => v.len(),
        }
    }

    /// Whether the column holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The data type of the column.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnValues::Int(_) => DataType::Int,
            ColumnValues::Float(_) => DataType::Float,
            ColumnValues::Text(_) => DataType::Text,
        }
    }

    /// The value at `row` (panics if out of bounds).
    pub fn value_at(&self, row: usize) -> Value {
        match self {
            ColumnValues::Int(v) => Value::Int(v[row]),
            ColumnValues::Float(v) => Value::Float(v[row]),
            ColumnValues::Text(v) => Value::Text(v[row].clone()),
        }
    }

    /// Creates an empty column of the given type.
    pub fn empty(dt: DataType) -> ColumnValues {
        match dt {
            DataType::Int => ColumnValues::Int(Vec::new()),
            DataType::Float => ColumnValues::Float(Vec::new()),
            DataType::Text => ColumnValues::Text(Vec::new()),
        }
    }

    /// Appends a value; returns `false` on type mismatch.
    pub fn push(&mut self, v: Value) -> bool {
        match (self, v) {
            (ColumnValues::Int(col), Value::Int(x)) => {
                col.push(x);
                true
            }
            (ColumnValues::Float(col), Value::Float(x)) => {
                col.push(x);
                true
            }
            (ColumnValues::Text(col), Value::Text(x)) => {
                col.push(x);
                true
            }
            _ => false,
        }
    }

    /// Raw memory footprint of the unencoded representation.
    pub fn raw_bytes(&self) -> usize {
        match self {
            ColumnValues::Int(v) => v.len() * 8,
            ColumnValues::Float(v) => v.len() * 8,
            ColumnValues::Text(v) => v.iter().map(|s| 24 + s.len()).sum(),
        }
    }
}

/// One tag byte, then the payload.
impl Encode for Value {
    fn encode(&self, w: &mut ByteWriter) {
        self.data_type().encode(w);
        match self {
            Value::Int(x) => x.encode(w),
            Value::Float(x) => x.encode(w),
            Value::Text(s) => s.encode(w),
        }
    }
}

impl Decode for Value {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match DataType::decode(r)? {
            DataType::Int => Value::Int(i64::decode(r)?),
            DataType::Float => Value::Float(f64::decode(r)?),
            DataType::Text => Value::Text(String::decode(r)?),
        })
    }
}

impl ColumnValues {
    /// Writes what precedes the values: the data-type tag and the count.
    /// With [`ColumnValues::encode_elements`] it lets a column held as
    /// several segments be streamed into the layout of one.
    pub fn encode_head(data_type: DataType, len: usize, w: &mut ByteWriter) {
        data_type.encode(w);
        len.encode(w);
    }

    /// Writes the values alone, in order.
    pub fn encode_elements(&self, w: &mut ByteWriter) {
        match self {
            ColumnValues::Int(v) => v.iter().for_each(|x| x.encode(w)),
            ColumnValues::Float(v) => v.iter().for_each(|x| x.encode(w)),
            ColumnValues::Text(v) => v.iter().for_each(|x| x.encode(w)),
        }
    }
}

/// The data-type tag, then the raw values as a counted list.
impl Encode for ColumnValues {
    fn encode(&self, w: &mut ByteWriter) {
        Self::encode_head(self.data_type(), self.len(), w);
        self.encode_elements(w);
    }
}

impl Decode for ColumnValues {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match DataType::decode(r)? {
            DataType::Int => ColumnValues::Int(Vec::decode(r)?),
            DataType::Float => ColumnValues::Float(Vec::decode(r)?),
            DataType::Text => ColumnValues::Text(Vec::decode(r)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Float(1.5) < Value::Float(2.5));
        assert!(Value::Text("a".into()) < Value::Text("b".into()));
    }

    #[test]
    fn mixed_numeric_order() {
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(0.5) < Value::Int(1));
        assert_eq!(Value::Int(2), Value::Float(2.0));
    }

    #[test]
    fn text_sorts_after_numbers() {
        assert!(Value::Int(i64::MAX) < Value::Text("".into()));
        assert!(Value::Float(f64::INFINITY) < Value::Text("".into()));
    }

    #[test]
    fn hash_consistent_with_eq_for_numerics() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Value::Int(2));
        assert!(s.contains(&Value::Float(2.0)));
    }

    #[test]
    fn nan_is_ordered_totally() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Float(1.0) < nan);
    }

    #[test]
    fn column_values_roundtrip() {
        let mut col = ColumnValues::empty(DataType::Int);
        assert!(col.push(Value::Int(7)));
        assert!(!col.push(Value::Text("x".into())));
        assert_eq!(col.len(), 1);
        assert_eq!(col.value_at(0), Value::Int(7));
        assert_eq!(col.raw_bytes(), 8);
    }

    #[test]
    fn value_sizes() {
        assert_eq!(Value::Int(0).size_bytes(), 8);
        assert_eq!(Value::Text("abcd".into()).size_bytes(), 28);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.0f64), Value::Float(2.0));
        assert_eq!(Value::from("x"), Value::Text("x".into()));
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Text("x".into()).as_f64(), None);
        assert_eq!(Value::Int(3).as_i64(), Some(3));
        assert_eq!(Value::Float(3.0).as_i64(), None);
    }
}
