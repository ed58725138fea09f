//! Table schemas.

use smdb_common::{ColumnId, Error, Result};
use smdb_durable::{ByteReader, ByteWriter, Decode, Encode};

use crate::value::DataType;

/// Definition of one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
}

smdb_durable::durable_struct!(ColumnDef { name, data_type });

impl ColumnDef {
    /// Creates a column definition.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered list of column definitions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Creates a schema from column definitions. Column names must be
    /// unique.
    pub fn new(columns: Vec<ColumnDef>) -> Result<Self> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(Error::invalid(format!(
                    "duplicate column name '{}'",
                    c.name
                )));
            }
        }
        Ok(Schema { columns })
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// All column definitions, in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// The definition of column `id`.
    pub fn column(&self, id: ColumnId) -> Result<&ColumnDef> {
        self.columns
            .get(id.0 as usize)
            .ok_or_else(|| Error::not_found("column", format!("{id}")))
    }

    /// Resolves a column name to its id.
    pub fn column_id(&self, name: &str) -> Result<ColumnId> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .map(|i| ColumnId(i as u16))
            .ok_or_else(|| Error::not_found("column", name))
    }

    /// Iterator over `(ColumnId, &ColumnDef)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ColumnId, &ColumnDef)> {
        self.columns
            .iter()
            .enumerate()
            .map(|(i, c)| (ColumnId(i as u16), c))
    }
}

impl Encode for Schema {
    fn encode(&self, w: &mut ByteWriter) {
        self.columns.encode(w);
    }
}

/// Decoding re-validates through [`Schema::new`] (unique names).
impl Decode for Schema {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Schema::new(Vec::decode(r)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("price", DataType::Float),
            ColumnDef::new("name", DataType::Text),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_by_name_and_id() {
        let s = sample();
        assert_eq!(s.arity(), 3);
        let id = s.column_id("price").unwrap();
        assert_eq!(id, ColumnId(1));
        assert_eq!(s.column(id).unwrap().data_type, DataType::Float);
    }

    #[test]
    fn unknown_column_errors() {
        let s = sample();
        assert!(s.column_id("nope").is_err());
        assert!(s.column(ColumnId(9)).is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("a", DataType::Int),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let s = sample();
        let ids: Vec<_> = s.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
