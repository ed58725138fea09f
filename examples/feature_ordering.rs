//! Combined tuning of multiple dependent features (Section III).
//!
//! Determines impact ratios `W∅/W_A` and the dependence matrix `d_{A,B}`
//! automatically, picks the tuning order that maximizes the objective of
//! the paper's integer LP, and verifies it against the ILP itself.
//!
//! ```text
//! cargo run --release --example feature_ordering
//! ```

use std::sync::Arc;

use smdb::core::tuner::standard_tuner;
use smdb::core::{ConstraintSet, FeatureKind, MultiFeatureTuner};
use smdb::cost::{CalibratedCostModel, WhatIf};
use smdb::forecast::{ForecastSet, ScenarioKind, WorkloadScenario};
use smdb::query::Workload;
use smdb::storage::StorageEngine;
use smdb::workload::generators::scan_heavy_mix;
use smdb::workload::tpch::{build_catalog, TpchTemplates, NUM_TEMPLATES};

fn main() {
    let mut engine = StorageEngine::default();
    let catalog = build_catalog(&mut engine, 20_000, 2_000, 5).expect("catalog builds");
    let templates = TpchTemplates::new(catalog);

    // Train the adaptive cost model — on the plain engine *and* a
    // physically diverse variant, so every encoding/index regime has
    // observations (the paper's start-up calibration run).
    let model = Arc::new(CalibratedCostModel::new());
    let mut rng = smdb::common::seeded_rng(9);
    let mut variant = engine.clone();
    let lineitem = templates.catalog().lineitem;
    for chunk in 0..4u32 {
        for (col, kind) in [
            (1u16, smdb::storage::EncodingKind::Dictionary),
            (5u16, smdb::storage::EncodingKind::Dictionary),
        ] {
            variant
                .apply_action(&smdb::storage::ConfigAction::SetEncoding {
                    target: smdb::common::ChunkColumnRef {
                        table: lineitem,
                        column: smdb::common::ColumnId(col),
                        chunk: smdb::common::ChunkId(chunk),
                    },
                    kind,
                })
                .expect("applies");
        }
        variant
            .apply_action(&smdb::storage::ConfigAction::CreateIndex {
                target: smdb::common::ChunkColumnRef {
                    table: lineitem,
                    column: smdb::common::ColumnId(1),
                    chunk: smdb::common::ChunkId(chunk),
                },
                kind: smdb::storage::IndexKind::Hash,
            })
            .expect("applies");
    }
    for eng in [&engine, &variant] {
        let config = eng.current_config();
        for i in 0..150 {
            let q = templates.sample(i % NUM_TEMPLATES, &mut rng);
            let out = eng
                .scan_grouped(q.table(), q.predicates(), q.aggregate(), q.group_by())
                .expect("scan runs");
            model
                .observe(eng, &q, &config, out.sim_cost)
                .expect("observation absorbed");
        }
    }
    model.refit().expect("model fits");
    let what_if = WhatIf::new(model);

    // One expected scenario from a blended HTAP mix.
    let mix: Vec<f64> = scan_heavy_mix()
        .iter()
        .zip(&smdb::workload::generators::point_heavy_mix())
        .map(|(a, b)| a + b)
        .collect();
    let total: f64 = mix.iter().sum();
    let mut workload = Workload::default();
    for (id, &m) in mix.iter().enumerate() {
        workload.push(templates.sample(id, &mut rng), m / total * 250.0);
    }
    let forecast = ForecastSet {
        scenarios: vec![WorkloadScenario {
            kind: ScenarioKind::Expected,
            name: "expected".into(),
            probability: 1.0,
            workload,
        }],
    };

    // Multi-feature tuner over indexing + compression (the paper's
    // running example of dependent features).
    let features = [FeatureKind::Indexing, FeatureKind::Compression];
    let tuners = features
        .iter()
        .map(|&f| standard_tuner(f, what_if.clone()))
        .collect();
    let multi = MultiFeatureTuner::new(tuners, what_if);

    let base = engine.current_config();
    // A tight index-memory budget makes the index selection depend on
    // what compression chose first (cheaper, smaller indexes on
    // dictionary segments) — the dependence the ordering LP exploits.
    let constraints = ConstraintSet {
        index_memory_bytes: Some(512 * 1024),
        ..ConstraintSet::default()
    };
    let report = multi
        .analyze(&engine, &forecast, &base, &constraints)
        .expect("analysis succeeds");

    println!("W_empty = {:.1} ms", report.w_empty.ms());
    for (i, f) in report.features.iter().enumerate() {
        println!(
            "  tune {f:>12} alone: W = {:>8.1} ms   impact = {:.2}",
            report.w_single[i].ms(),
            report.impact[i]
        );
    }
    println!(
        "\nd_{{indexing,compression}} = {:.3}   d_{{compression,indexing}} = {:.3}",
        report.dependence[0][1], report.dependence[1][0]
    );

    let optimized = multi.lp_order(&report).expect("small enough");
    let problem = report.ordering_problem().expect("problem builds");
    let ilp = smdb::lp::solve_reference(&problem).expect("ILP solves");
    let name = |order: &[usize]| -> String {
        order
            .iter()
            .map(|&i| report.features[i].label())
            .collect::<Vec<_>>()
            .join(" -> ")
    };
    println!(
        "\noptimized order:     {}  (objective {:.3})",
        name(&optimized.order),
        optimized.objective
    );
    println!(
        "ILP reference order: {}  (objective {:.3})",
        name(&ilp.order),
        ilp.objective
    );
    assert!((optimized.objective - ilp.objective).abs() < 1e-6);

    // Tune recursively in the optimized order and report the outcome.
    let run = multi
        .tune_in_order(&engine, &forecast, &base, &constraints, &optimized.order)
        .expect("recursive tuning succeeds");
    let final_cost = multi
        .what_if()
        .workload_cost(
            &engine,
            &forecast.expected().expect("expected exists").workload,
            run.final_config.as_ref().unwrap_or(&base),
        )
        .expect("costing succeeds");
    println!(
        "\nafter recursive tuning in optimized order: {:.1} ms  ({:.2}x better than W_empty)",
        final_cost.ms(),
        report.w_empty.ms() / final_cost.ms().max(1e-9)
    );
}
