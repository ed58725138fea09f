//! Quickstart: build a small database, let the framework observe a
//! workload, tune, and measure the improvement.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use smdb::core::driver::Driver;
use smdb::core::FeatureKind;
use smdb::cost::CalibratedCostModel;
use smdb::prelude::*;
use smdb::query::{Database, Query};
use smdb::storage::value::ColumnValues;
use smdb::storage::{ColumnDef, DataType, ScanPredicate, Schema, StorageEngine, Table};

fn main() {
    // 1. A table: 100k rows, 10k-row chunks, one low-cardinality key.
    let schema = Schema::new(vec![
        ColumnDef::new("key", DataType::Int),
        ColumnDef::new("value", DataType::Float),
    ])
    .expect("schema is valid");
    let n = 100_000i64;
    let table = Table::from_columns(
        "events",
        schema,
        vec![
            ColumnValues::Int((0..n).map(|i| i % 500).collect()),
            ColumnValues::Float((0..n).map(|i| i as f64).collect()),
        ],
        10_000,
    )
    .expect("table builds");
    let mut engine = StorageEngine::default();
    let table_id = engine.create_table(table).expect("unique name");
    let db = Database::new(engine);

    // 2. The self-management driver: a learned cost model and two
    //    managed features.
    let model = Arc::new(CalibratedCostModel::new());
    let driver = Driver::builder(db.clone())
        .learned_estimator(model)
        .features(vec![FeatureKind::Indexing, FeatureKind::Compression])
        .build();

    // 3. Serve a point-lookup workload for a few buckets; the framework
    //    observes through the plan cache (zero-ish overhead).
    let workload: Vec<Query> = (0..300)
        .map(|i| {
            Query::new(
                table_id,
                "events",
                vec![ScanPredicate::eq(
                    smdb::common::ColumnId(0),
                    (i % 500) as i64,
                )],
                None,
                "point_by_key",
            )
        })
        .collect();
    for bucket in 0..3 {
        let report = driver.run_bucket(&workload).expect("queries run");
        println!(
            "bucket {bucket}: {} queries, {:.1} ms total",
            report.queries_run,
            report.bucket_cost.ms()
        );
    }

    // 4. Tune and compare.
    let before: Cost = workload
        .iter()
        .map(|q| db.run_query(q).expect("runs").output.sim_cost)
        .sum();
    let tuning = driver.force_tune().expect("tuning succeeds");
    let after: Cost = workload
        .iter()
        .map(|q| db.run_query(q).expect("runs").output.sim_cost)
        .sum();

    println!(
        "\napplied {} configuration actions:",
        tuning.applied_actions
    );
    for proposal in &tuning.proposals {
        println!(
            "  {}: {} candidates -> {} chosen (accepted: {})",
            proposal.feature,
            proposal.candidates_enumerated,
            proposal.chosen,
            proposal.accepted()
        );
    }
    println!(
        "\nworkload cost: {:.1} ms -> {:.1} ms ({:.1}x faster)",
        before.ms(),
        after.ms(),
        before.ms() / after.ms().max(1e-9)
    );
    assert!(after < before, "tuning should improve this workload");
}
