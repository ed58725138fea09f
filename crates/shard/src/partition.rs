//! Chunk-granular range partitioning.
//!
//! A shard owns a *contiguous run of whole chunks* of the logical table,
//! never row sub-ranges, and shard `s`'s run precedes shard `s + 1`'s.
//! Both choices serve the bitwise-identity contract: the
//! storage engine merges per-chunk partials in chunk-index order, and
//! float aggregation is non-associative, so results stay bit-identical
//! across shard counts only if the sharded execution can reproduce the
//! unsharded combine tree exactly — i.e. produce the *same* per-chunk
//! partials and fold them once in the *same* global order. With
//! ascending contiguous runs, concatenating the shards' partials in
//! ascending shard order *is* that order. Contiguity also keeps a
//! sorted clustering key (the tenant column) local to one shard.
//!
//! Rebuilding a shard's table from its chunks' concatenated rows
//! reproduces the global chunk boundaries because every chunk except
//! the globally last one is exactly `chunk_rows` rows, and the globally
//! last (possibly short) chunk has the highest index, hence sorts last
//! inside whichever shard it lands in.

use smdb_common::{Error, Result};
use smdb_storage::value::ColumnValues;

/// A partitioning scheme: how many shards the table's chunks are split
/// over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    pub shards: usize,
}

impl ShardSpec {
    /// A range-partitioned spec over `shards` shards.
    pub fn range(shards: usize) -> ShardSpec {
        ShardSpec { shards }
    }
}

/// Assigns `chunks` global chunk indices to `spec.shards` shards.
/// Returns one ascending global-chunk-index list per shard, each
/// starting where the previous one ended; every chunk appears in
/// exactly one list.
pub fn assign_chunks(chunks: usize, spec: &ShardSpec) -> Result<Vec<Vec<usize>>> {
    if spec.shards == 0 {
        return Err(Error::invalid("shard count must be at least 1"));
    }
    let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); spec.shards];
    // Balanced contiguous ranges: the first `chunks % shards` shards get
    // one extra chunk.
    let base = chunks / spec.shards;
    let extra = chunks % spec.shards;
    let mut next = 0usize;
    for (s, list) in per_shard.iter_mut().enumerate() {
        let take = base + usize::from(s < extra);
        list.extend(next..next + take);
        next += take;
    }
    Ok(per_shard)
}

/// Number of chunks a table of `rows` rows splits into at `chunk_rows`.
pub fn chunk_count(rows: usize, chunk_rows: usize) -> usize {
    rows.div_ceil(chunk_rows.max(1))
}

/// Extracts the rows of the given global chunks (ascending order) from
/// full-table columns, concatenated — the raw data for one shard's
/// table. Re-chunking the result at `chunk_rows` reproduces exactly the
/// listed global chunks (see the module docs for why).
pub fn shard_columns(
    columns: &[ColumnValues],
    chunk_rows: usize,
    chunk_ids: &[usize],
) -> Vec<ColumnValues> {
    columns
        .iter()
        .map(|col| match col {
            ColumnValues::Int(v) => {
                ColumnValues::Int(gather_rows(v, chunk_rows, chunk_ids, |x| *x))
            }
            ColumnValues::Float(v) => {
                ColumnValues::Float(gather_rows(v, chunk_rows, chunk_ids, |x| *x))
            }
            ColumnValues::Text(v) => {
                ColumnValues::Text(gather_rows(v, chunk_rows, chunk_ids, Clone::clone))
            }
        })
        .collect()
}

fn gather_rows<T, U>(
    values: &[T],
    chunk_rows: usize,
    chunk_ids: &[usize],
    f: impl Fn(&T) -> U,
) -> Vec<U> {
    let mut out = Vec::new();
    for &chunk in chunk_ids {
        let start = chunk * chunk_rows;
        let end = ((chunk + 1) * chunk_rows).min(values.len());
        out.extend(values[start..end.max(start)].iter().map(&f));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_assignment_is_contiguous_balanced_and_total() {
        let per_shard = assign_chunks(10, &ShardSpec::range(4)).unwrap();
        assert_eq!(
            per_shard,
            vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7], vec![8, 9]]
        );
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert!(assign_chunks(4, &ShardSpec::range(0)).is_err());
    }

    #[test]
    fn shard_columns_gathers_whole_chunks_with_short_tail() {
        let col = ColumnValues::Int((0..10).collect());
        // chunk_rows 4 → chunks [0..4), [4..8), [8..10).
        assert_eq!(chunk_count(10, 4), 3);
        let got = shard_columns(&[col], 4, &[0, 2]);
        assert_eq!(got, vec![ColumnValues::Int(vec![0, 1, 2, 3, 8, 9])]);
    }
}
