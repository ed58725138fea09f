//! Tables: a schema plus a sequence of chunks.

use std::ops::Range;

use smdb_common::{ChunkId, ColumnId, Error, Result};
use smdb_durable::{ByteReader, ByteWriter, Decode, Encode};

use crate::chunk::Chunk;
use crate::scan::ScanPredicate;
use crate::schema::Schema;
use crate::value::{ColumnValues, Value};

/// An in-memory chunked table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    chunks: Vec<Chunk>,
    target_chunk_rows: usize,
    /// Per column: every chunk has a min and a max, and both never
    /// decrease in chunk order. Chunk statistics are written once, at
    /// construction, so no encoding, index or tier change can stale it.
    monotone: Vec<bool>,
}

impl Table {
    /// Builds a table by splitting full-column data into chunks of
    /// `target_chunk_rows` rows.
    pub fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<ColumnValues>,
        target_chunk_rows: usize,
    ) -> Result<Table> {
        if target_chunk_rows == 0 {
            return Err(Error::invalid("target_chunk_rows must be > 0"));
        }
        if columns.len() != schema.arity() {
            return Err(Error::invalid(format!(
                "expected {} columns, got {}",
                schema.arity(),
                columns.len()
            )));
        }
        for ((_, def), col) in schema.iter().zip(&columns) {
            if def.data_type != col.data_type() {
                return Err(Error::invalid(format!(
                    "column '{}' type mismatch: schema {} vs data {}",
                    def.name,
                    def.data_type,
                    col.data_type()
                )));
            }
        }
        let rows = columns.first().map_or(0, |c| c.len());
        if columns.iter().any(|c| c.len() != rows) {
            return Err(Error::invalid("column lengths differ"));
        }
        let mut chunks = Vec::new();
        let mut start = 0usize;
        while start < rows {
            let end = (start + target_chunk_rows).min(rows);
            let chunk_cols: Vec<ColumnValues> = columns
                .iter()
                .map(|c| slice_column(c, start, end))
                .collect();
            chunks.push(Chunk::from_columns(chunk_cols)?);
            start = end;
        }
        let monotone = (0..schema.arity())
            .map(|col| is_monotone(&chunks, ColumnId(col as u16)))
            .collect();
        Ok(Table {
            name: name.into(),
            schema,
            chunks,
            target_chunk_rows,
            monotone,
        })
    }

    /// Builds a table from row-major data.
    pub fn from_rows(
        name: impl Into<String>,
        schema: Schema,
        rows: Vec<Vec<Value>>,
        target_chunk_rows: usize,
    ) -> Result<Table> {
        let mut columns: Vec<ColumnValues> = schema
            .columns()
            .iter()
            .map(|c| ColumnValues::empty(c.data_type))
            .collect();
        for (r, row) in rows.into_iter().enumerate() {
            if row.len() != schema.arity() {
                return Err(Error::invalid(format!("row {r} has wrong arity")));
            }
            for (c, v) in row.into_iter().enumerate() {
                if !columns[c].push(v) {
                    return Err(Error::invalid(format!("row {r} column {c} type mismatch")));
                }
            }
        }
        Table::from_columns(name, schema, columns, target_chunk_rows)
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total number of rows.
    pub fn rows(&self) -> usize {
        self.chunks.iter().map(|c| c.rows()).sum()
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The configured chunk size.
    pub fn target_chunk_rows(&self) -> usize {
        self.target_chunk_rows
    }

    /// Immutable access to chunk `id`.
    pub fn chunk(&self, id: ChunkId) -> Result<&Chunk> {
        self.chunks
            .get(id.0 as usize)
            .ok_or_else(|| Error::not_found("chunk", format!("{id}")))
    }

    /// Mutable access to chunk `id`.
    pub fn chunk_mut(&mut self, id: ChunkId) -> Result<&mut Chunk> {
        self.chunks
            .get_mut(id.0 as usize)
            .ok_or_else(|| Error::not_found("chunk", format!("{id}")))
    }

    /// Iterator over `(ChunkId, &Chunk)`.
    pub fn chunks(&self) -> impl Iterator<Item = (ChunkId, &Chunk)> {
        self.chunks
            .iter()
            .enumerate()
            .map(|(i, c)| (ChunkId(i as u32), c))
    }

    /// Resolves a column name.
    pub fn column_id(&self, name: &str) -> Result<ColumnId> {
        self.schema.column_id(name)
    }

    /// Table data bytes across all chunks (excluding indexes).
    pub fn data_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.data_bytes()).sum()
    }

    /// Index bytes across all chunks.
    pub fn index_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.index_bytes()).sum()
    }

    /// The chunk run `[lo, hi)` outside which min/max pruning rules out
    /// every chunk for `predicates`. Each predicate on a monotone column
    /// narrows it by two binary searches over the same comparisons the
    /// prune test makes: its admitted mins are a prefix of the chunks and
    /// its admitted maxes a suffix. Predicates on other columns leave it
    /// whole, and a chunk inside the run may still be pruned.
    pub(crate) fn chunk_run(&self, predicates: &[ScanPredicate]) -> Range<usize> {
        let (mut lo, mut hi) = (0, self.chunks.len());
        for p in predicates {
            if self.monotone.get(p.column.0 as usize) != Some(&true) {
                continue;
            }
            let min_admitted = |c: &Chunk| {
                let min = c.stats(p.column).ok().and_then(|s| s.min.as_ref());
                min.is_some_and(|m| p.admits_min(m))
            };
            let max_refused = |c: &Chunk| {
                let max = c.stats(p.column).ok().and_then(|s| s.max.as_ref());
                max.is_some_and(|m| !p.admits_max(m))
            };
            hi = hi.min(self.chunks.partition_point(min_admitted));
            lo = lo.max(self.chunks.partition_point(max_refused));
        }
        lo.min(hi)..hi
    }
}

/// Whether every chunk has a min and a max on `col` and neither ever
/// decreases in chunk order.
fn is_monotone(chunks: &[Chunk], col: ColumnId) -> bool {
    let bounds: Option<Vec<(&Value, &Value)>> = chunks
        .iter()
        .map(|c| {
            let s = c.stats(col).ok()?;
            Some((s.min.as_ref()?, s.max.as_ref()?))
        })
        .collect();
    bounds.is_some_and(|b| b.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1))
}

fn slice_column(col: &ColumnValues, start: usize, end: usize) -> ColumnValues {
    match col {
        ColumnValues::Int(v) => ColumnValues::Int(v[start..end].to_vec()),
        ColumnValues::Float(v) => ColumnValues::Float(v[start..end].to_vec()),
        ColumnValues::Text(v) => ColumnValues::Text(v[start..end].to_vec()),
    }
}

impl Table {
    /// Writes the table's durable layout: name, schema, chunking target,
    /// then every column's raw values — byte for byte
    /// [`ColumnValues::encode`] of the whole column, streamed one decoded
    /// chunk segment at a time under a single row count. The on-disk
    /// form is therefore independent of the physical design — recovery
    /// re-applies the recovered configuration to rebuild encodings and
    /// indexes from raw values. Not an [`Encode`] impl because it is the
    /// one encoder that can fail: a segment lookup returns `Result`.
    pub fn encode(&self, w: &mut ByteWriter) -> Result<()> {
        self.name.encode(w);
        self.schema.encode(w);
        self.target_chunk_rows.encode(w);
        let rows = self.rows();
        for (col_id, def) in self.schema.iter() {
            ColumnValues::encode_head(def.data_type, rows, w);
            for chunk in &self.chunks {
                let values = chunk.segment(col_id)?.decode();
                if values.data_type() != def.data_type {
                    return Err(Error::invalid("chunk segment type mismatch"));
                }
                values.encode_elements(w);
            }
        }
        Ok(())
    }
}

/// Re-chunks the raw columns at the recorded target size.
impl Decode for Table {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let name = String::decode(r)?;
        let schema = Schema::decode(r)?;
        let target_chunk_rows = usize::decode(r)?;
        let columns = (0..schema.arity())
            .map(|_| ColumnValues::decode(r))
            .collect::<Result<_>>()?;
        Table::from_columns(name, schema, columns, target_chunk_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::PredicateOp;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("b", DataType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn chunking_splits_rows() {
        let t = Table::from_columns(
            "t",
            schema(),
            vec![
                ColumnValues::Int((0..10).collect()),
                ColumnValues::Float((0..10).map(|i| i as f64).collect()),
            ],
            4,
        )
        .unwrap();
        assert_eq!(t.rows(), 10);
        assert_eq!(t.chunk_count(), 3);
        assert_eq!(t.chunk(ChunkId(0)).unwrap().rows(), 4);
        assert_eq!(t.chunk(ChunkId(2)).unwrap().rows(), 2);
    }

    #[test]
    fn from_rows_equivalent() {
        let rows = vec![
            vec![Value::Int(1), Value::Float(0.1)],
            vec![Value::Int(2), Value::Float(0.2)],
        ];
        let t = Table::from_rows("t", schema(), rows, 10).unwrap();
        assert_eq!(t.rows(), 2);
        assert_eq!(t.chunk_count(), 1);
    }

    #[test]
    fn schema_validation() {
        // Arity mismatch.
        assert!(Table::from_columns("t", schema(), vec![ColumnValues::Int(vec![])], 4).is_err());
        // Type mismatch.
        assert!(Table::from_columns(
            "t",
            schema(),
            vec![
                ColumnValues::Float(vec![1.0]),
                ColumnValues::Float(vec![1.0])
            ],
            4
        )
        .is_err());
        // Zero chunk size.
        assert!(Table::from_columns(
            "t",
            schema(),
            vec![ColumnValues::Int(vec![1]), ColumnValues::Float(vec![1.0])],
            0
        )
        .is_err());
        // Length mismatch.
        assert!(Table::from_columns(
            "t",
            schema(),
            vec![
                ColumnValues::Int(vec![1, 2]),
                ColumnValues::Float(vec![1.0])
            ],
            4
        )
        .is_err());
    }

    #[test]
    fn row_arity_validation() {
        let rows = vec![vec![Value::Int(1)]];
        assert!(Table::from_rows("t", schema(), rows, 4).is_err());
    }

    #[test]
    fn chunk_iteration_order() {
        let t = Table::from_columns(
            "t",
            schema(),
            vec![
                ColumnValues::Int((0..6).collect()),
                ColumnValues::Float((0..6).map(|i| i as f64).collect()),
            ],
            3,
        )
        .unwrap();
        let ids: Vec<u32> = t.chunks().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn monotone_columns_are_detected() {
        let int = |name| ColumnDef::new(name, DataType::Int);
        let schema = Schema::new(vec![
            int("up"),
            int("flat"),
            int("saw"),
            int("shrinking"),
            ColumnDef::new("tag", DataType::Text),
        ])
        .unwrap();
        let t = Table::from_columns(
            "t",
            schema,
            vec![
                // Chunks [0,1,2] [2,3,4] [5]: a duplicate spans a boundary.
                ColumnValues::Int(vec![0, 1, 2, 2, 3, 4, 5]),
                ColumnValues::Int(vec![7; 7]),
                ColumnValues::Int(vec![0, 1, 2, 0, 1, 2, 0]),
                // Mins rise (0, 1, 6) but maxes fall (9, 8, 6).
                ColumnValues::Int(vec![0, 9, 5, 1, 8, 2, 6]),
                ColumnValues::Text(
                    ["a", "b", "c", "c", "d", "e", "f"]
                        .map(String::from)
                        .to_vec(),
                ),
            ],
            3,
        )
        .unwrap();
        assert_eq!(t.monotone, [true, true, false, false, true]);
        // A freshly decoded table detects the same.
        let mut w = ByteWriter::new();
        t.encode(&mut w).unwrap();
        let back: Table = smdb_durable::decode_all(&w.into_bytes()).unwrap();
        assert_eq!(back.monotone, t.monotone);

        let run = |p: ScanPredicate| t.chunk_run(&[p]);
        assert_eq!(run(ScanPredicate::eq(ColumnId(0), 2i64)), 0..2);
        // No row holds 2.5, but chunk 1 spans it: the run is the prune
        // test's answer, not the data's.
        assert_eq!(run(ScanPredicate::eq(ColumnId(0), 2.5f64)), 1..2);
        assert_eq!(
            run(ScanPredicate::cmp(ColumnId(0), PredicateOp::Gt, 4i64)),
            2..3
        );
        assert_eq!(
            run(ScanPredicate::cmp(ColumnId(0), PredicateOp::Lt, 0i64)),
            0..0
        );
        assert_eq!(run(ScanPredicate::between(ColumnId(0), 3i64, 9i64)), 1..3);
        assert!(run(ScanPredicate::eq(ColumnId(1), 8i64)).is_empty());
        assert_eq!(run(ScanPredicate::eq(ColumnId(4), "c")), 0..2);
        // A non-monotone column leaves the run whole; predicates intersect.
        assert_eq!(run(ScanPredicate::eq(ColumnId(3), 99i64)), 0..3);
        let both = [
            ScanPredicate::eq(ColumnId(3), 99i64),
            ScanPredicate::cmp(ColumnId(0), PredicateOp::Ge, 3i64),
            ScanPredicate::cmp(ColumnId(0), PredicateOp::Le, 4i64),
        ];
        assert_eq!(t.chunk_run(&both), 1..2);
    }

    fn text_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Float),
            ColumnDef::new("tag", DataType::Text),
        ])
        .unwrap();
        Table::from_columns(
            "events",
            schema,
            vec![
                ColumnValues::Int((0..10).collect()),
                ColumnValues::Float((0..10).map(|i| i as f64 * 0.5).collect()),
                ColumnValues::Text((0..10).map(|i| format!("t{i}")).collect()),
            ],
            4,
        )
        .unwrap()
    }

    fn encoded(table: &Table) -> Vec<u8> {
        let mut w = ByteWriter::new();
        table.encode(&mut w).unwrap();
        w.into_bytes()
    }

    #[test]
    fn table_roundtrips_including_rechunking() {
        let table = text_table();
        let bytes = encoded(&table);
        let back: Table = smdb_durable::decode_all(&bytes).unwrap();
        assert_eq!(back.name(), table.name());
        assert_eq!(back.rows(), table.rows());
        assert_eq!(back.chunk_count(), table.chunk_count());
        assert_eq!(back.schema(), table.schema());
        assert_eq!(encoded(&back), bytes, "re-encoding is byte-identical");
    }

    #[test]
    fn encoded_table_serializes_to_same_raw_bytes() {
        // Streaming chunk by chunk writes what encoding each whole column
        // would.
        let mut whole = ByteWriter::new();
        "events".to_string().encode(&mut whole);
        text_table().schema().encode(&mut whole);
        4usize.encode(&mut whole);
        ColumnValues::Int((0..10).collect()).encode(&mut whole);
        ColumnValues::Float((0..10).map(|i| i as f64 * 0.5).collect()).encode(&mut whole);
        ColumnValues::Text((0..10).map(|i| format!("t{i}")).collect()).encode(&mut whole);
        assert_eq!(encoded(&text_table()), whole.into_bytes());

        let mut table = text_table();
        table
            .chunk_mut(ChunkId(0))
            .unwrap()
            .set_encoding(ColumnId(0), crate::encoding::EncodingKind::Dictionary)
            .unwrap();
        assert_eq!(
            encoded(&text_table()),
            encoded(&table),
            "snapshots are encoding-independent"
        );
    }
}
