//! E8 — workload compression via query clustering (Sections II-C,
//! III-A): clustering cuts prediction + tuning time with bounded loss in
//! cost accuracy and tuning quality.

use std::time::Instant;

use rand::RngExt;
use smdb_common::{seeded_rng, LogicalTime};
use smdb_core::tuner::standard_tuner;
use smdb_core::{ConstraintSet, FeatureKind};
use smdb_cost::WhatIf;
use smdb_forecast::{PredictorConfig, WorkloadHistory, WorkloadPredictor};
use smdb_query::{PlanCache, Query};
use smdb_storage::{Aggregate, AggregateOp, ConfigInstance, PredicateOp, ScanPredicate};

use crate::setup::{build_engine, train_calibrated, DEFAULT_CHUNK, DEFAULT_ROWS, DEFAULT_SEED};
use crate::table::{f2, f3, TableBuilder};

/// Builds a large, diverse template population (hundreds of distinct
/// templates across the three tables).
fn build_templates(engine: &smdb_storage::StorageEngine) -> Vec<Query> {
    let mut out = Vec::new();
    for (tid, table) in engine.tables() {
        for (col, def) in table.schema().iter() {
            if def.data_type == smdb_storage::DataType::Text {
                continue;
            }
            for op in [PredicateOp::Eq, PredicateOp::Le, PredicateOp::Between] {
                for agg in [None, Some(Aggregate::new(AggregateOp::Count, col))] {
                    let pred = match op {
                        PredicateOp::Between => ScanPredicate::between(col, 1i64, 10i64),
                        _ => ScanPredicate::cmp(col, op, 5i64),
                    };
                    out.push(Query::new(
                        tid,
                        table.name(),
                        vec![pred],
                        agg,
                        format!("{}_{}_{:?}_{}", table.name(), col, op, agg.is_some()),
                    ));
                }
            }
        }
    }
    out
}

pub fn run() {
    println!("\n=== E8: workload compression via query clustering ===\n");
    let (engine, tpch) = build_engine(DEFAULT_ROWS, DEFAULT_CHUNK, DEFAULT_SEED);
    let model = train_calibrated(&engine, &tpch, 240, DEFAULT_SEED ^ 8).unwrap();
    let what_if = WhatIf::new(model);

    // Simulate a 12-bucket history over the large template population.
    let templates = build_templates(&engine);
    println!("Distinct query templates observed: {}\n", templates.len());
    let mut cache = PlanCache::new(templates.len() * 2);
    let mut history = WorkloadHistory::new();
    let mut rng = seeded_rng(DEFAULT_SEED ^ 21);
    for bucket in 0..12u64 {
        for (i, q) in templates.iter().enumerate() {
            // Stable per-template intensity with noise.
            let base = 1.0 + (i % 7) as f64;
            let count = (base + rng.random::<f64>() * 2.0).round() as usize;
            let cost = smdb_common::Cost(0.5 + (i % 11) as f64 * 0.3);
            for _ in 0..count {
                cache.record(q, cost, LogicalTime(bucket));
            }
        }
        history.observe(LogicalTime(bucket), &cache.snapshot());
    }

    let constraints = ConstraintSet {
        index_memory_bytes: Some(8 * 1024 * 1024),
        ..ConstraintSet::default()
    };

    // Reference: uncompressed expected workload cost estimate.
    let reference_forecast = WorkloadPredictor::new(PredictorConfig {
        clusters: None,
        samples: 0,
        ..PredictorConfig::default()
    })
    .predict(&history);
    let reference_cost = what_if
        .workload_cost(
            &engine,
            &reference_forecast.expected().unwrap().workload,
            &ConfigInstance::default(),
        )
        .unwrap();

    let mut table = TableBuilder::new(&[
        "clusters k",
        "forecast queries",
        "predict (ms)",
        "tune (ms)",
        "total (ms)",
        "est. cost error %",
        "tuned-config cost (ms)",
    ]);

    for k in [None, Some(64), Some(16), Some(4)] {
        let predictor = WorkloadPredictor::new(PredictorConfig {
            clusters: k,
            samples: 0,
            seed: DEFAULT_SEED,
        });
        let start = Instant::now();
        let forecast = predictor.predict(&history);
        let predict_ms = start.elapsed().as_secs_f64() * 1000.0;

        let tuner = standard_tuner(FeatureKind::Indexing, what_if.clone());
        let start = Instant::now();
        let proposal = tuner
            .propose(&engine, &ConfigInstance::default(), &forecast, &constraints)
            .unwrap();
        let tune_ms = start.elapsed().as_secs_f64() * 1000.0;

        // Accuracy: expected-cost estimate of the (possibly compressed)
        // forecast vs the uncompressed reference.
        let est = what_if
            .workload_cost(
                &engine,
                &forecast.expected().unwrap().workload,
                &ConfigInstance::default(),
            )
            .unwrap();
        let err = (est.ms() - reference_cost.ms()).abs() / reference_cost.ms() * 100.0;

        // Quality: estimated cost of the *uncompressed* workload under
        // the config tuned from the compressed forecast.
        let tuned_cost = what_if
            .workload_cost(
                &engine,
                &reference_forecast.expected().unwrap().workload,
                &proposal.target.unwrap_or_default(),
            )
            .unwrap();

        table.row(vec![
            k.map_or("none (full)".to_string(), |k| k.to_string()),
            forecast.expected().unwrap().workload.len().to_string(),
            f3(predict_ms),
            f2(tune_ms),
            f2(predict_ms + tune_ms),
            f2(err),
            f2(tuned_cost.ms()),
        ]);
    }
    table.print();
    println!(
        "\n(Reference uncompressed estimate: {:.2} ms. Compression trades bounded accuracy\n loss for superlinear prediction+tuning speedups — Section II-C.)",
        reference_cost.ms()
    );
}
