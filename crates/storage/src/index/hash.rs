//! Hash index: value → posting list of row positions. Point lookups only.

use std::collections::HashMap;

use crate::encoding::Segment;
use crate::value::Value;

/// A hash index over one segment.
#[derive(Debug, Clone)]
pub struct HashIndex {
    map: HashMap<Value, Vec<u32>>,
    entry_bytes: usize,
}

impl HashIndex {
    /// Builds the index by a single pass over the segment.
    pub fn build(segment: &Segment) -> HashIndex {
        let mut map: HashMap<Value, Vec<u32>> = HashMap::new();
        let mut entry_bytes = 0usize;
        for row in 0..segment.len() {
            let v = segment.value_at(row);
            let posting = map.entry(v).or_insert_with(|| {
                entry_bytes += 48; // bucket + key overhead estimate
                Vec::new()
            });
            posting.push(row as u32);
            entry_bytes += 4;
        }
        HashIndex { map, entry_bytes }
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Approximate memory footprint.
    pub fn memory_bytes(&self) -> usize {
        self.entry_bytes
    }

    /// Appends all positions holding `value` to `out`, in ascending
    /// order.
    pub fn probe_eq(&self, value: &Value, out: &mut Vec<u32>) {
        if super::equals_many_ints(value) {
            let start = out.len();
            for (_, postings) in self.map.iter().filter(|(key, _)| *key == value) {
                out.extend_from_slice(postings);
            }
            out[start..].sort_unstable();
        } else if let Some(postings) = self.map.get(value) {
            out.extend_from_slice(postings);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::EncodingKind;
    use crate::value::ColumnValues;

    #[test]
    fn probe_returns_all_positions() {
        let seg = Segment::encode(
            &ColumnValues::Int(vec![4, 2, 4, 4, 7]),
            EncodingKind::Unencoded,
        );
        let idx = HashIndex::build(&seg);
        assert_eq!(idx.distinct_keys(), 3);
        let mut out = Vec::new();
        idx.probe_eq(&Value::Int(4), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 2, 3]);
        out.clear();
        idx.probe_eq(&Value::Int(99), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn builds_over_encoded_segments() {
        let seg = Segment::encode(
            &ColumnValues::Int(vec![4, 2, 4, 4, 7]),
            EncodingKind::Dictionary,
        );
        let idx = HashIndex::build(&seg);
        let mut out = Vec::new();
        idx.probe_eq(&Value::Int(2), &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn memory_grows_with_keys_and_rows() {
        let small = HashIndex::build(&Segment::encode(
            &ColumnValues::Int(vec![1; 100]),
            EncodingKind::Unencoded,
        ));
        let large = HashIndex::build(&Segment::encode(
            &ColumnValues::Int((0..100).collect()),
            EncodingKind::Unencoded,
        ));
        assert!(large.memory_bytes() > small.memory_bytes());
    }
}
