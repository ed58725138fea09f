//! E9 — adaptive cost estimation (Sections II-A(d), V): the calibrated
//! model converges to low error as observations accrue, while the
//! hardware-oblivious logical model stays biased — and better cost
//! models produce better tuning decisions.

use std::sync::Arc;

use smdb_common::seeded_rng;
use smdb_core::tuner::standard_tuner;
use smdb_core::{ConstraintSet, FeatureKind};
use smdb_cost::features::ConfigContext;
use smdb_cost::{CalibratedCostModel, CostEstimator, LogicalCostModel, WhatIf};
use smdb_storage::ConfigInstance;
use smdb_workload::tpch::NUM_TEMPLATES;

use crate::setup::{
    build_engine, forecast_from_mix, ground_truth_cost_under, DEFAULT_CHUNK, DEFAULT_ROWS,
    DEFAULT_SEED,
};
use crate::table::{f2, TableBuilder};

/// Mean relative error of an estimator on a held-out query set, under a
/// configuration that exercises encodings and placement (where the
/// logical model is blind).
fn mean_rel_error(
    estimator: &dyn CostEstimator,
    engine: &smdb_storage::StorageEngine,
    config: &ConfigInstance,
    queries: &[smdb_query::Query],
) -> f64 {
    // Evaluate against the ground truth on a clone with config applied.
    let mut clone = engine.clone();
    let actions = clone.current_config().diff(config);
    clone.apply_all(&actions).unwrap();
    let ctx = ConfigContext::new(engine, config);
    let mut total = 0.0;
    let mut n = 0usize;
    for q in queries {
        let actual = clone
            .scan(q.table(), q.predicates(), q.aggregate())
            .unwrap()
            .sim_cost;
        if actual.ms() < 0.05 {
            continue;
        }
        let predicted = estimator.query_cost(engine, &ctx, q, config).unwrap();
        total += ((predicted.ms() - actual.ms()) / actual.ms()).abs();
        n += 1;
    }
    total / n.max(1) as f64
}

pub fn run() {
    println!("\n=== E9: adaptive (learned) vs logical cost models ===\n");
    let (engine, templates) = build_engine(DEFAULT_ROWS, DEFAULT_CHUNK, DEFAULT_SEED);
    let base = engine.current_config();
    let ctx = ConfigContext::new(&engine, &base);

    // Held-out evaluation queries + an encoding/placement-rich config.
    let mut rng = seeded_rng(DEFAULT_SEED ^ 0x99);
    let holdout: Vec<_> = (0..3 * NUM_TEMPLATES)
        .map(|i| templates.sample(i % NUM_TEMPLATES, &mut rng))
        .collect();
    let mut rich = base.clone();
    let lineitem = templates.catalog().lineitem;
    for chunk in 0..4u32 {
        rich.encodings.insert(
            smdb_common::ChunkColumnRef::new(lineitem.0, 1, chunk),
            smdb_storage::EncodingKind::Dictionary,
        );
        rich.placements.insert(
            (lineitem, smdb_common::ChunkId(chunk + 4)),
            smdb_storage::Tier::Warm,
        );
    }

    let logical = LogicalCostModel::default();
    let logical_base_err = mean_rel_error(&logical, &engine, &base, &holdout);
    let logical_rich_err = mean_rel_error(&logical, &engine, &rich, &holdout);

    let mut table = TableBuilder::new(&[
        "model",
        "training obs",
        "rel. error (plain config) %",
        "rel. error (encoded+tiered config) %",
    ]);
    table.row(vec![
        "logical".into(),
        "-".into(),
        f2(logical_base_err * 100.0),
        f2(logical_rich_err * 100.0),
    ]);

    // Adaptive training: observations alternate between the plain engine
    // and a physically diverse variant, as they would in production where
    // the configuration keeps changing under the model.
    let mut variant = engine.clone();
    let variant_actions = base.diff(&rich);
    variant.apply_all(&variant_actions).unwrap();
    let variant_config = variant.current_config();
    let variant_ctx = ConfigContext::new(&variant, &variant_config);

    let model = Arc::new(CalibratedCostModel::new());
    let mut train_rng = seeded_rng(DEFAULT_SEED ^ 0xAA);
    let mut trained = 0usize;
    for target in [10usize, 50, 200, 1000, 5000] {
        while trained < target {
            let q = templates.sample(trained % NUM_TEMPLATES, &mut train_rng);
            if trained.is_multiple_of(2) {
                let out = engine
                    .scan(q.table(), q.predicates(), q.aggregate())
                    .unwrap();
                model
                    .observe_with_ctx(&engine, &ctx, &q, &base, out.sim_cost)
                    .unwrap();
            } else {
                let out = variant
                    .scan(q.table(), q.predicates(), q.aggregate())
                    .unwrap();
                model
                    .observe_with_ctx(&variant, &variant_ctx, &q, &variant_config, out.sim_cost)
                    .unwrap();
            }
            trained += 1;
        }
        model.refit().unwrap();
        table.row(vec![
            "calibrated".into(),
            target.to_string(),
            f2(mean_rel_error(model.as_ref(), &engine, &base, &holdout) * 100.0),
            f2(mean_rel_error(model.as_ref(), &engine, &rich, &holdout) * 100.0),
        ]);
    }
    table.print();

    // Better cost model ⇒ better tuning decisions (compression feature,
    // where the logical model is blind).
    println!("\nTuning quality by cost model (compression feature):\n");
    let mix = smdb_workload::generators::scan_heavy_mix();
    let forecast = forecast_from_mix(&templates, &mix, 300.0, DEFAULT_SEED ^ 0xBB);
    let expected = forecast.expected().unwrap().workload.clone();
    let mut t2 = TableBuilder::new(&[
        "cost model",
        "accepted actions",
        "ground-truth workload cost after tuning (ms)",
    ]);
    for (name, what_if) in [
        (
            "logical",
            WhatIf::new(Arc::new(LogicalCostModel::default()) as Arc<dyn CostEstimator>),
        ),
        (
            "calibrated (5000 obs)",
            WhatIf::new(model.clone() as Arc<dyn CostEstimator>),
        ),
    ] {
        let tuner = standard_tuner(FeatureKind::Compression, what_if);
        let proposal = tuner
            .propose(&engine, &base, &forecast, &ConstraintSet::none())
            .unwrap();
        let tuned = proposal.target.as_ref().unwrap_or(&base);
        let cost = ground_truth_cost_under(&engine, &expected, tuned).unwrap();
        t2.row(vec![
            name.into(),
            proposal.actions.len().to_string(),
            f2(cost.ms()),
        ]);
    }
    t2.print();
    println!("\n(The logical model cannot see encodings, so it never proposes compression;\n the calibrated model does and realizes actual savings.)");
}
