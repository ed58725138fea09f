//! A TPC-H-flavoured schema and query templates.
//!
//! Three tables — `lineitem`, `orders`, `customer` — populated with the
//! statistical properties the experiments need: a sorted surrogate key
//! (chunk pruning), Zipf-skewed foreign keys (per-chunk indexing),
//! low-cardinality status columns (dictionary/RLE benefits) and
//! correlated date columns (range pruning). Fourteen parameterised query
//! templates cover point lookups, selective and broad range scans,
//! global aggregations and GROUP BY reports.

use rand::rngs::StdRng;
use rand::RngExt;
use smdb_common::{derive_seed, seeded_rng, Result, TableId};
use smdb_query::Query;
use smdb_storage::{
    Aggregate, AggregateOp, ColumnDef, DataType, PredicateOp, ScanPredicate, Schema, StorageEngine,
    Table,
};

use crate::data;
use crate::zipf::Zipf;

/// Table handles of the generated catalog.
#[derive(Debug, Clone, Copy)]
pub struct TpchCatalog {
    pub lineitem: TableId,
    pub orders: TableId,
    pub customer: TableId,
    /// Rows in `lineitem` (orders has 1/4, customer 1/20).
    pub lineitem_rows: usize,
}

/// Column indices of `lineitem` (keep in sync with [`build_catalog`]).
pub mod li {
    pub const ORDERKEY: u16 = 0;
    pub const PARTKEY: u16 = 1;
    pub const QUANTITY: u16 = 2;
    pub const DISCOUNT: u16 = 3;
    pub const EXTENDEDPRICE: u16 = 4;
    pub const SHIPDATE: u16 = 5;
    pub const RETURNFLAG: u16 = 6;
}

/// Column indices of `orders`.
pub mod ord {
    pub const ORDERKEY: u16 = 0;
    pub const CUSTKEY: u16 = 1;
    pub const STATUS: u16 = 2;
    pub const TOTALPRICE: u16 = 3;
    pub const ORDERDATE: u16 = 4;
}

/// Column indices of `customer`.
pub mod cust {
    pub const CUSTKEY: u16 = 0;
    pub const NATIONKEY: u16 = 1;
    pub const ACCTBAL: u16 = 2;
}

/// Number of part keys (Zipf domain).
pub const PART_KEYS: usize = 200;
/// Number of customer keys per customer row factor.
pub const NATIONS: i64 = 25;
/// Ship/order date domain in days.
pub const DATE_DAYS: i64 = 2400;

/// Builds the three tables into `engine`, deterministically under `seed`.
pub fn build_catalog(
    engine: &mut StorageEngine,
    lineitem_rows: usize,
    chunk_rows: usize,
    seed: u64,
) -> Result<TpchCatalog> {
    let orders_rows = (lineitem_rows / 4).max(1);
    let customer_rows = (lineitem_rows / 20).max(1);

    // lineitem
    let mut rng = seeded_rng(derive_seed(seed, 1));
    let lineitem_schema = Schema::new(vec![
        ColumnDef::new("l_orderkey", DataType::Int),
        ColumnDef::new("l_partkey", DataType::Int),
        ColumnDef::new("l_quantity", DataType::Int),
        ColumnDef::new("l_discount", DataType::Int),
        ColumnDef::new("l_extendedprice", DataType::Float),
        ColumnDef::new("l_shipdate", DataType::Int),
        ColumnDef::new("l_returnflag", DataType::Int),
    ])?;
    let orderkey = {
        // Each order has ~4 line items: orderkey = row / 4 (sorted).
        smdb_storage::value::ColumnValues::Int((0..lineitem_rows as i64).map(|i| i / 4).collect())
    };
    let shipdate = {
        // Dates correlated with orderkey: sorted-ish with noise.
        let step = (DATE_DAYS as f64 / lineitem_rows as f64).max(1e-9);
        smdb_storage::value::ColumnValues::Int(
            (0..lineitem_rows)
                .map(|i| {
                    let base = (i as f64 * step) as i64;
                    (base + rng.random_range(0..30)).min(DATE_DAYS)
                })
                .collect(),
        )
    };
    let lineitem = Table::from_columns(
        "lineitem",
        lineitem_schema,
        vec![
            orderkey,
            data::zipf_ints(&mut rng, lineitem_rows, PART_KEYS, 1.2),
            data::uniform_ints(&mut rng, lineitem_rows, 1, 50),
            data::uniform_ints(&mut rng, lineitem_rows, 0, 10),
            data::uniform_floats(&mut rng, lineitem_rows, 900.0, 105_000.0),
            shipdate,
            data::uniform_ints(&mut rng, lineitem_rows, 0, 2),
        ],
        chunk_rows,
    )?;

    // orders
    let mut rng = seeded_rng(derive_seed(seed, 2));
    let orders_schema = Schema::new(vec![
        ColumnDef::new("o_orderkey", DataType::Int),
        ColumnDef::new("o_custkey", DataType::Int),
        ColumnDef::new("o_status", DataType::Int),
        ColumnDef::new("o_totalprice", DataType::Float),
        ColumnDef::new("o_orderdate", DataType::Int),
    ])?;
    let orders = Table::from_columns(
        "orders",
        orders_schema,
        vec![
            data::sorted_ints(orders_rows),
            data::zipf_ints(&mut rng, orders_rows, customer_rows.max(2), 1.1),
            data::uniform_ints(&mut rng, orders_rows, 0, 3),
            data::uniform_floats(&mut rng, orders_rows, 850.0, 560_000.0),
            data::correlated_ints(&mut rng, orders_rows, 0, 2),
        ],
        chunk_rows,
    )?;

    // customer
    let mut rng = seeded_rng(derive_seed(seed, 3));
    let customer_schema = Schema::new(vec![
        ColumnDef::new("c_custkey", DataType::Int),
        ColumnDef::new("c_nationkey", DataType::Int),
        ColumnDef::new("c_acctbal", DataType::Float),
    ])?;
    let customer = Table::from_columns(
        "customer",
        customer_schema,
        vec![
            data::sorted_ints(customer_rows),
            data::uniform_ints(&mut rng, customer_rows, 0, NATIONS - 1),
            data::uniform_floats(&mut rng, customer_rows, -999.0, 9999.0),
        ],
        chunk_rows,
    )?;

    Ok(TpchCatalog {
        lineitem: engine.create_table(lineitem)?,
        orders: engine.create_table(orders)?,
        customer: engine.create_table(customer)?,
        lineitem_rows,
    })
}

/// Number of query templates.
pub const NUM_TEMPLATES: usize = 14;

/// Parameterised query templates over the catalog.
#[derive(Debug, Clone)]
pub struct TpchTemplates {
    catalog: TpchCatalog,
    part_zipf: Zipf,
}

impl TpchTemplates {
    /// Creates the template set.
    pub fn new(catalog: TpchCatalog) -> Self {
        TpchTemplates {
            catalog,
            part_zipf: Zipf::new(PART_KEYS, 1.2),
        }
    }

    /// The catalog handles.
    pub fn catalog(&self) -> &TpchCatalog {
        &self.catalog
    }

    /// Template names, indexed by template id.
    pub fn names() -> [&'static str; NUM_TEMPLATES] {
        [
            "q1_pricing_by_shipdate",
            "q6_revenue_forecast",
            "order_point_lookup",
            "orders_by_status",
            "customers_by_nation",
            "part_popularity",
            "quantity_band",
            "orders_by_daterange",
            "returnflag_price",
            "orders_by_customer",
            "high_balance_customers",
            "lineitem_key_range",
            "q1_revenue_by_returnflag",
            "order_value_by_status",
        ]
    }

    /// Samples a concrete instance of template `id` modulo
    /// [`NUM_TEMPLATES`] (literals drawn from `rng`).
    pub fn sample(&self, id: usize, rng: &mut StdRng) -> Query {
        let c = &self.catalog;
        let orders_rows = (c.lineitem_rows / 4).max(1) as i64;
        let customer_rows = (c.lineitem_rows / 20).max(1) as i64;
        let names = Self::names();
        match id % NUM_TEMPLATES {
            0 => {
                let cutoff = rng.random_range(DATE_DAYS / 2..DATE_DAYS);
                Query::new(
                    c.lineitem,
                    "lineitem",
                    vec![ScanPredicate::cmp(
                        smdb_common::ColumnId(li::SHIPDATE),
                        PredicateOp::Le,
                        cutoff,
                    )],
                    Some(Aggregate::new(
                        AggregateOp::Sum,
                        smdb_common::ColumnId(li::EXTENDEDPRICE),
                    )),
                    names[0],
                )
            }
            1 => {
                let start = rng.random_range(0..DATE_DAYS - 365);
                let disc = rng.random_range(1..9);
                Query::new(
                    c.lineitem,
                    "lineitem",
                    vec![
                        ScanPredicate::between(
                            smdb_common::ColumnId(li::SHIPDATE),
                            start,
                            start + 365,
                        ),
                        ScanPredicate::between(
                            smdb_common::ColumnId(li::DISCOUNT),
                            disc - 1,
                            disc + 1,
                        ),
                        ScanPredicate::cmp(
                            smdb_common::ColumnId(li::QUANTITY),
                            PredicateOp::Lt,
                            24i64,
                        ),
                    ],
                    Some(Aggregate::new(
                        AggregateOp::Sum,
                        smdb_common::ColumnId(li::EXTENDEDPRICE),
                    )),
                    names[1],
                )
            }
            2 => Query::new(
                c.orders,
                "orders",
                vec![ScanPredicate::eq(
                    smdb_common::ColumnId(ord::ORDERKEY),
                    rng.random_range(0..orders_rows),
                )],
                Some(Aggregate::count()),
                names[2],
            ),
            3 => Query::new(
                c.orders,
                "orders",
                vec![ScanPredicate::eq(
                    smdb_common::ColumnId(ord::STATUS),
                    rng.random_range(0..4i64),
                )],
                Some(Aggregate::count()),
                names[3],
            ),
            4 => Query::new(
                c.customer,
                "customer",
                vec![ScanPredicate::eq(
                    smdb_common::ColumnId(cust::NATIONKEY),
                    rng.random_range(0..NATIONS),
                )],
                Some(Aggregate::new(
                    AggregateOp::Avg,
                    smdb_common::ColumnId(cust::ACCTBAL),
                )),
                names[4],
            ),
            5 => Query::new(
                c.lineitem,
                "lineitem",
                vec![ScanPredicate::eq(
                    smdb_common::ColumnId(li::PARTKEY),
                    self.part_zipf.sample(rng) as i64,
                )],
                Some(Aggregate::count()),
                names[5],
            ),
            6 => {
                let lo = rng.random_range(1..40i64);
                Query::new(
                    c.lineitem,
                    "lineitem",
                    vec![ScanPredicate::between(
                        smdb_common::ColumnId(li::QUANTITY),
                        lo,
                        lo + 10,
                    )],
                    Some(Aggregate::new(
                        AggregateOp::Sum,
                        smdb_common::ColumnId(li::QUANTITY),
                    )),
                    names[6],
                )
            }
            7 => {
                let lo = rng.random_range(0..(2 * orders_rows / 3).max(1));
                Query::new(
                    c.orders,
                    "orders",
                    vec![ScanPredicate::between(
                        smdb_common::ColumnId(ord::ORDERDATE),
                        lo,
                        lo + orders_rows / 10,
                    )],
                    Some(Aggregate::count()),
                    names[7],
                )
            }
            8 => Query::new(
                c.lineitem,
                "lineitem",
                vec![ScanPredicate::eq(
                    smdb_common::ColumnId(li::RETURNFLAG),
                    rng.random_range(0..3i64),
                )],
                Some(Aggregate::new(
                    AggregateOp::Avg,
                    smdb_common::ColumnId(li::EXTENDEDPRICE),
                )),
                names[8],
            ),
            9 => Query::new(
                c.orders,
                "orders",
                vec![ScanPredicate::eq(
                    smdb_common::ColumnId(ord::CUSTKEY),
                    rng.random_range(1..customer_rows.max(2)),
                )],
                Some(Aggregate::count()),
                names[9],
            ),
            10 => Query::new(
                c.customer,
                "customer",
                vec![ScanPredicate::cmp(
                    smdb_common::ColumnId(cust::ACCTBAL),
                    PredicateOp::Gt,
                    rng.random_range(5000..9000) as f64,
                )],
                Some(Aggregate::count()),
                names[10],
            ),
            11 => {
                let max_key = (c.lineitem_rows as i64 / 4).max(2);
                let lo = rng.random_range(0..(max_key * 2 / 3).max(1));
                Query::new(
                    c.lineitem,
                    "lineitem",
                    vec![ScanPredicate::between(
                        smdb_common::ColumnId(li::ORDERKEY),
                        lo,
                        lo + max_key / 20,
                    )],
                    Some(Aggregate::count()),
                    names[11],
                )
            }
            // Q1-style grouped report: revenue per return flag for a
            // shipdate horizon (GROUP BY + SUM).
            12 => {
                let cutoff = rng.random_range(DATE_DAYS / 2..DATE_DAYS);
                Query::new(
                    c.lineitem,
                    "lineitem",
                    vec![ScanPredicate::cmp(
                        smdb_common::ColumnId(li::SHIPDATE),
                        PredicateOp::Le,
                        cutoff,
                    )],
                    Some(Aggregate::new(
                        AggregateOp::Sum,
                        smdb_common::ColumnId(li::EXTENDEDPRICE),
                    )),
                    names[12],
                )
                .with_group_by(smdb_common::ColumnId(li::RETURNFLAG))
            }
            // 13: mean order value per status over a date window.
            _ => {
                let lo = rng.random_range(0..(2 * orders_rows / 3).max(1));
                Query::new(
                    c.orders,
                    "orders",
                    vec![ScanPredicate::between(
                        smdb_common::ColumnId(ord::ORDERDATE),
                        lo,
                        lo + orders_rows / 5,
                    )],
                    Some(Aggregate::new(
                        AggregateOp::Avg,
                        smdb_common::ColumnId(ord::TOTALPRICE),
                    )),
                    names[13],
                )
                .with_group_by(smdb_common::ColumnId(ord::STATUS))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (StorageEngine, TpchTemplates) {
        let mut engine = StorageEngine::default();
        let catalog = build_catalog(&mut engine, 8000, 1000, 42).unwrap();
        (engine, TpchTemplates::new(catalog))
    }

    #[test]
    fn catalog_builds_with_expected_shapes() {
        let (engine, templates) = setup();
        let c = templates.catalog();
        assert_eq!(engine.table(c.lineitem).unwrap().rows(), 8000);
        assert_eq!(engine.table(c.orders).unwrap().rows(), 2000);
        assert_eq!(engine.table(c.customer).unwrap().rows(), 400);
        assert_eq!(engine.table(c.lineitem).unwrap().chunk_count(), 8);
    }

    #[test]
    fn all_templates_execute() {
        let (engine, templates) = setup();
        let mut rng = seeded_rng(7);
        for id in 0..NUM_TEMPLATES {
            let q = templates.sample(id, &mut rng);
            let out = engine
                .scan(q.table(), q.predicates(), q.aggregate())
                .unwrap_or_else(|e| panic!("template {id} failed: {e}"));
            assert!(out.sim_cost.ms() > 0.0, "template {id} free?");
        }
    }

    #[test]
    fn templates_are_stable_fingerprints() {
        let (_, templates) = setup();
        let mut rng_a = seeded_rng(1);
        let mut rng_b = seeded_rng(2);
        for id in 0..NUM_TEMPLATES {
            let a = templates.sample(id, &mut rng_a);
            // Ids wrap modulo NUM_TEMPLATES.
            let b = templates.sample(id + NUM_TEMPLATES, &mut rng_b);
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "template {id} fingerprint varies with literals or does not wrap"
            );
        }
    }

    #[test]
    fn distinct_templates_distinct_fingerprints() {
        let (_, templates) = setup();
        let mut rng = seeded_rng(1);
        let mut fps = std::collections::HashSet::new();
        for id in 0..NUM_TEMPLATES {
            fps.insert(templates.sample(id, &mut rng).fingerprint());
        }
        assert_eq!(fps.len(), NUM_TEMPLATES);
    }

    #[test]
    fn deterministic_catalog() {
        let mut e1 = StorageEngine::default();
        let mut e2 = StorageEngine::default();
        build_catalog(&mut e1, 2000, 500, 5).unwrap();
        build_catalog(&mut e2, 2000, 500, 5).unwrap();
        let q = |e: &StorageEngine| {
            e.scan(
                TableId(0),
                &[ScanPredicate::eq(smdb_common::ColumnId(li::PARTKEY), 1i64)],
                None,
            )
            .unwrap()
            .rows_matched
        };
        assert_eq!(q(&e1), q(&e2));
    }

    #[test]
    fn partkey_column_is_skewed() {
        let (engine, templates) = setup();
        let c = templates.catalog();
        let hot = engine
            .scan(
                c.lineitem,
                &[ScanPredicate::eq(smdb_common::ColumnId(li::PARTKEY), 1i64)],
                None,
            )
            .unwrap()
            .rows_matched;
        let cold = engine
            .scan(
                c.lineitem,
                &[ScanPredicate::eq(
                    smdb_common::ColumnId(li::PARTKEY),
                    PART_KEYS as i64,
                )],
                None,
            )
            .unwrap()
            .rows_matched;
        assert!(hot > cold * 10, "hot {hot} vs cold {cold}");
    }
}
