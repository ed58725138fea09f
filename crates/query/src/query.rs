//! The query model: parameterised predicate scans with optional
//! aggregates.

use std::sync::Arc;

use smdb_common::{ColumnId, Result, TableId};
use smdb_durable::{ByteReader, ByteWriter, Decode, Encode};
use smdb_storage::{Aggregate, ScanPredicate};

use crate::logical::LogicalTemplate;

/// One executable query: a conjunctive predicate scan over a single table
/// with an optional aggregate.
///
/// Queries are *instances of templates*: two queries with the same table,
/// predicate shapes and aggregate but different literals share a
/// [`LogicalTemplate`] and hence a plan-cache entry.
///
/// The name, label and predicates are shared, so a clone allocates
/// nothing: the forecast clones each template's example query into
/// every scenario it builds.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    table: TableId,
    table_name: Arc<str>,
    predicates: Arc<[ScanPredicate]>,
    aggregate: Option<Aggregate>,
    /// GROUP BY column (requires an aggregate).
    group_by: Option<ColumnId>,
    /// Human-readable template label, e.g. `"q6_discount_scan"`.
    label: Arc<str>,
    /// Precomputed template fingerprint (plan-cache key); computing it
    /// once at construction keeps the monitoring path allocation-free.
    fingerprint: u64,
    /// Precomputed instance fingerprint: the template fingerprint mixed
    /// with the predicate literals, so two instances of one template with
    /// different literals are distinguishable (what-if cost-cache key).
    instance_fingerprint: u64,
}

impl Query {
    /// Creates a query.
    pub fn new(
        table: TableId,
        table_name: impl Into<String>,
        predicates: Vec<ScanPredicate>,
        aggregate: Option<Aggregate>,
        label: impl Into<String>,
    ) -> Self {
        let mut query = Query {
            table,
            table_name: Arc::from(table_name.into()),
            predicates: predicates.into(),
            aggregate,
            group_by: None,
            label: Arc::from(label.into()),
            fingerprint: 0,
            instance_fingerprint: 0,
        };
        query.refresh_fingerprints();
        query
    }

    /// Adds a GROUP BY column (builder style); the aggregate is computed
    /// per distinct value of that column.
    pub fn with_group_by(mut self, column: ColumnId) -> Self {
        self.group_by = Some(column);
        self.refresh_fingerprints();
        self
    }

    fn refresh_fingerprints(&mut self) {
        use std::hash::{Hash, Hasher};
        self.fingerprint = self.template().fingerprint();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.fingerprint.hash(&mut h);
        for p in self.predicates.iter() {
            p.value.hash(&mut h);
            p.upper.hash(&mut h);
        }
        self.instance_fingerprint = h.finish();
    }

    /// The GROUP BY column, if any.
    pub fn group_by(&self) -> Option<ColumnId> {
        self.group_by
    }

    /// The target table.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// The target table's name.
    pub fn table_name(&self) -> &str {
        &self.table_name
    }

    /// The conjunctive predicates.
    pub fn predicates(&self) -> &[ScanPredicate] {
        &self.predicates
    }

    /// The aggregate, if any.
    pub fn aggregate(&self) -> Option<&Aggregate> {
        self.aggregate.as_ref()
    }

    /// The template label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Strips literals, producing the logical template.
    pub fn template(&self) -> LogicalTemplate {
        LogicalTemplate::of(self)
    }

    /// The (precomputed) template fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The (precomputed) instance fingerprint: template plus literals.
    pub fn instance_fingerprint(&self) -> u64 {
        self.instance_fingerprint
    }
}

/// The constructor's arguments in order; the fingerprints are derived
/// and recomputed on decode.
impl Encode for Query {
    fn encode(&self, w: &mut ByteWriter) {
        self.table.encode(w);
        w.str(&self.table_name);
        self.predicates.encode(w);
        self.aggregate.encode(w);
        self.group_by.encode(w);
        w.str(&self.label);
    }
}

impl Decode for Query {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let mut query = Query {
            table: TableId::decode(r)?,
            table_name: String::decode(r)?.into(),
            predicates: Vec::<ScanPredicate>::decode(r)?.into(),
            aggregate: Option::decode(r)?,
            group_by: Option::decode(r)?,
            label: String::decode(r)?.into(),
            fingerprint: 0,
            instance_fingerprint: 0,
        };
        query.refresh_fingerprints();
        Ok(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::ColumnId;
    use smdb_storage::{AggregateOp, PredicateOp};

    fn q(value: i64) -> Query {
        Query::new(
            TableId(0),
            "orders",
            vec![ScanPredicate::eq(ColumnId(2), value)],
            Some(Aggregate::new(AggregateOp::Sum, ColumnId(3))),
            "orders_by_status",
        )
    }

    #[test]
    fn same_shape_same_fingerprint() {
        assert_eq!(q(1).fingerprint(), q(99).fingerprint());
    }

    #[test]
    fn instance_fingerprint_distinguishes_literals() {
        assert_ne!(q(1).instance_fingerprint(), q(99).instance_fingerprint());
        assert_eq!(q(5).instance_fingerprint(), q(5).instance_fingerprint());
        // Different templates never share instance fingerprints either.
        let other = Query::new(
            TableId(0),
            "orders",
            vec![ScanPredicate::cmp(ColumnId(2), PredicateOp::Lt, 1i64)],
            None,
            "orders_by_status",
        );
        assert_ne!(q(1).instance_fingerprint(), other.instance_fingerprint());
    }

    #[test]
    fn different_shape_different_fingerprint() {
        let a = q(1);
        let b = Query::new(
            TableId(0),
            "orders",
            vec![ScanPredicate::cmp(ColumnId(2), PredicateOp::Lt, 1i64)],
            a.aggregate().copied(),
            "orders_by_status",
        );
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn accessors() {
        let query = q(5);
        assert_eq!(query.table(), TableId(0));
        assert_eq!(query.table_name(), "orders");
        assert_eq!(query.predicates().len(), 1);
        assert!(query.aggregate().is_some());
        assert_eq!(query.label(), "orders_by_status");
    }
}

#[cfg(test)]
mod group_by_query_tests {
    use super::*;
    use smdb_common::ColumnId;
    use smdb_storage::{Aggregate, AggregateOp};

    fn base() -> Query {
        Query::new(
            TableId(0),
            "t",
            vec![ScanPredicate::eq(ColumnId(0), 1i64)],
            Some(Aggregate::new(AggregateOp::Sum, ColumnId(1))),
            "report",
        )
    }

    #[test]
    fn group_by_changes_the_template() {
        let plain = base();
        let grouped = base().with_group_by(ColumnId(2));
        assert_ne!(plain.fingerprint(), grouped.fingerprint());
        assert_eq!(grouped.group_by(), Some(ColumnId(2)));
        assert_eq!(plain.group_by(), None);
        // Different group columns are different templates too.
        let other = base().with_group_by(ColumnId(0));
        assert_ne!(grouped.fingerprint(), other.fingerprint());
    }

    #[test]
    fn grouped_instances_share_templates_across_literals() {
        let a = Query::new(
            TableId(0),
            "t",
            vec![ScanPredicate::eq(ColumnId(0), 1i64)],
            Some(Aggregate::new(AggregateOp::Sum, ColumnId(1))),
            "report",
        )
        .with_group_by(ColumnId(2));
        let b = Query::new(
            TableId(0),
            "t",
            vec![ScanPredicate::eq(ColumnId(0), 99i64)],
            Some(Aggregate::new(AggregateOp::Sum, ColumnId(1))),
            "report",
        )
        .with_group_by(ColumnId(2));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
