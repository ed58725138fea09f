//! E1 — Figure 1 reproduced behaviourally: the full component pipeline
//! (plan cache → predictor → tuners → organizer → executor → feedback
//! loop) running end to end, with workload cost dropping after tuning.

use std::sync::Arc;

use smdb_core::driver::OrderingPolicy;
use smdb_core::{ConstraintSet, Driver, FeatureKind};
use smdb_cost::CalibratedCostModel;

use crate::setup::{build_database, sample_queries, DEFAULT_CHUNK, DEFAULT_ROWS, DEFAULT_SEED};
use crate::table::{f2, f3, TableBuilder};

pub fn run() {
    println!("\n=== E1: end-to-end self-management pipeline (Figure 1) ===\n");
    let (db, templates) = build_database(DEFAULT_ROWS, DEFAULT_CHUNK, DEFAULT_SEED);
    let model = Arc::new(CalibratedCostModel::new());
    let driver = Driver::builder(db.clone())
        .learned_estimator(model.clone())
        .features(vec![
            FeatureKind::Indexing,
            FeatureKind::Compression,
            FeatureKind::Placement,
            FeatureKind::BufferPool,
        ])
        .ordering_policy(OrderingPolicy::LpOptimized)
        .constraints(ConstraintSet {
            index_memory_bytes: Some(12 * 1024 * 1024),
            ..ConstraintSet::default()
        })
        .build();

    // Blended HTAP mix: analytic scans and selective point lookups, so
    // all four features have real work to do.
    let mix: Vec<f64> = smdb_workload::generators::scan_heavy_mix()
        .iter()
        .zip(&smdb_workload::generators::point_heavy_mix())
        .map(|(a, b)| a + b)
        .collect();
    let queries_per_bucket = 200;

    let mut table = TableBuilder::new(&[
        "bucket",
        "phase",
        "queries",
        "bucket cost (ms)",
        "mean resp (ms)",
        "plan-cache templates",
        "cost-model obs",
    ]);

    // Phase 1: observe.
    let mut pre_tune_cost = 0.0;
    for bucket in 0..4u64 {
        let queries = sample_queries(&templates, &mix, queries_per_bucket, DEFAULT_SEED + bucket);
        let report = driver.run_bucket(&queries).unwrap();
        pre_tune_cost = report.bucket_cost.ms();
        table.row(vec![
            bucket.to_string(),
            "observe".into(),
            report.queries_run.to_string(),
            f2(report.bucket_cost.ms()),
            f3(driver.kpis().snapshot().mean_response.ms()),
            db.plan_cache().len().to_string(),
            model.observations().to_string(),
        ]);
    }

    // First tuning pass (forced; the organizer path is exercised in its
    // own tests). The cost model has only observed the *untuned*
    // configuration so far, so it prices encodings but cannot yet price
    // index probes on encoded data.
    let tuning = driver.force_tune().unwrap();

    // Phase 2: keep serving — the model now observes the tuned
    // configuration online (the paper's adaptive cost estimation).
    for bucket in 4..8u64 {
        let queries = sample_queries(&templates, &mix, queries_per_bucket, DEFAULT_SEED + bucket);
        let report = driver.run_bucket(&queries).unwrap();
        table.row(vec![
            bucket.to_string(),
            "tuned #1".into(),
            report.queries_run.to_string(),
            f2(report.bucket_cost.ms()),
            f3(driver.kpis().snapshot().mean_response.ms()),
            db.plan_cache().len().to_string(),
            model.observations().to_string(),
        ]);
    }

    // Second pass: with post-reconfiguration observations absorbed, the
    // model can now price the remaining features (e.g. indexing on
    // dictionary-encoded chunks).
    let tuning2 = driver.force_tune().unwrap();
    let mut post_tune_cost = 0.0;
    for bucket in 8..12u64 {
        let queries = sample_queries(&templates, &mix, queries_per_bucket, DEFAULT_SEED + bucket);
        let report = driver.run_bucket(&queries).unwrap();
        post_tune_cost = report.bucket_cost.ms();
        table.row(vec![
            bucket.to_string(),
            "tuned #2".into(),
            report.queries_run.to_string(),
            f2(report.bucket_cost.ms()),
            f3(driver.kpis().snapshot().mean_response.ms()),
            db.plan_cache().len().to_string(),
            model.observations().to_string(),
        ]);
    }
    table.print();

    for (pass, t) in [(1, &tuning), (2, &tuning2)] {
        println!("\nTuning pass #{pass} (trigger {:?}):", t.trigger);
        let mut t2 = TableBuilder::new(&[
            "step",
            "feature",
            "candidates",
            "chosen",
            "pred. benefit (ms)",
            "reconf cost (ms)",
            "accepted",
        ]);
        for (i, p) in t.proposals.iter().enumerate() {
            t2.row(vec![
                (i + 1).to_string(),
                p.feature.to_string(),
                p.candidates_enumerated.to_string(),
                p.chosen.to_string(),
                f2(p.predicted_benefit.ms()),
                f2(p.reconfiguration_cost.ms()),
                p.accepted().to_string(),
            ]);
        }
        t2.print();
    }

    let config = db.engine().current_config();
    println!(
        "\nFinal configuration: {} indexes, {} encodings, {} placements, buffer {} MB",
        config.indexes.len(),
        config.encodings.len(),
        config.placements.len(),
        config.knobs.buffer_pool_mb,
    );
    println!(
        "Applied actions: {} + {}   measured reconfiguration cost: {:.2} ms",
        tuning.applied_actions,
        tuning2.applied_actions,
        (tuning.reconfiguration_cost + tuning2.reconfiguration_cost).ms()
    );
    println!(
        "Bucket cost before tuning: {pre_tune_cost:.2} ms   after: {post_tune_cost:.2} ms   speedup: {:.2}x",
        pre_tune_cost / post_tune_cost.max(1e-9)
    );
    println!(
        "Stored configuration instances (feedback loop): {}",
        driver.config_storage().len()
    );
}
