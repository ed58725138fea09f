//! E4 — LP-based order optimization (Section III-B): model sizes match
//! the paper's `2|S|²−|S|` / `2|S|²` formulas, the paper's ILP and the
//! exact permutation search production orders by reach the same optimum,
//! and the optimized order beats naive orders on realized workload cost.

use std::time::Instant;

use rand::RngExt;
use smdb_common::seeded_rng;
use smdb_core::tuner::standard_tuner;
use smdb_core::{ConstraintSet, FeatureKind, MultiFeatureTuner};
use smdb_cost::WhatIf;
use smdb_lp::audit::solve_reference;
use smdb_lp::ordering::OrderingProblem;

use crate::report;

use crate::setup::{
    build_engine, forecast_from_mix, train_calibrated, DEFAULT_CHUNK, DEFAULT_ROWS, DEFAULT_SEED,
};
use crate::table::{f2, f3, TableBuilder};

/// Sizes whose model is built and counted against the paper's formulas.
const SIZE_ROWS: std::ops::RangeInclusive<usize> = 2..=9;
/// Sizes the ILP reference is also solved at: branch-and-bound grows
/// from milliseconds at |S| = 5 to seconds beyond it.
const SOLVE_ROWS: std::ops::RangeInclusive<usize> = 2..=5;

pub fn run() {
    println!("\n=== E4: LP-based feature-order optimization (Section III-B) ===\n");
    let synthetic_equal = sizes_and_solves();
    let real_equal = real_feature_ordering();
    report::record(
        "e4",
        "ilp_matches_exhaustive",
        (synthetic_equal && real_equal).into(),
    );
}

/// Objectives the ILP and the exhaustive search agree on.
fn same_objective(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-6
}

/// Part 1: model sizes vs the paper's formulas on synthetic dependence
/// matrices, and for small |S| the ILP reference vs exact permutation
/// search. Returns whether the two objectives agree at every solved size.
fn sizes_and_solves() -> bool {
    println!("Model sizes and solve times (synthetic d matrices):\n");
    let mut table = TableBuilder::new(&[
        "|S|",
        "vars (model)",
        "vars (2n^2-n)",
        "constraints (model)",
        "constraints (2n^2)",
        "ILP solve (ms)",
        "exhaustive (ms)",
        "permutations",
        "objective equal",
    ]);
    let mut all_equal = true;
    for n in SIZE_ROWS {
        let problem = synthetic_problem(n);
        let model = problem.build_model().expect("model builds");
        let mut row = vec![
            n.to_string(),
            model.num_vars().to_string(),
            OrderingProblem::paper_variable_count(n).to_string(),
            model.num_constraints().to_string(),
            OrderingProblem::paper_constraint_count(n).to_string(),
        ];
        if SOLVE_ROWS.contains(&n) {
            let start = Instant::now();
            let ilp = solve_reference(&problem).unwrap();
            let ilp_ms = start.elapsed().as_secs_f64() * 1000.0;
            let start = Instant::now();
            let exhaustive = problem.solve().unwrap();
            let exhaustive_ms = start.elapsed().as_secs_f64() * 1000.0;
            let equal = same_objective(ilp.objective, exhaustive.objective);
            all_equal &= equal;
            row.extend([
                f3(ilp_ms),
                f3(exhaustive_ms),
                exhaustive.nodes.to_string(),
                equal.to_string(),
            ]);
        } else {
            row.extend(["-".to_string(), "-".into(), "-".into(), "-".into()]);
        }
        table.row(row);
    }
    table.print();
    all_equal
}

/// A seeded instance with reciprocal dependence ratios in [0.5, 2] and
/// impact weights in [1, 2].
fn synthetic_problem(n: usize) -> OrderingProblem {
    let mut rng = seeded_rng(DEFAULT_SEED + n as u64);
    let mut d = vec![vec![1.0; n]; n];
    let mut w = vec![vec![1.0; n]; n];
    for a in 0..n {
        for b in 0..n {
            if a < b {
                let v: f64 = 0.5 + rng.random::<f64>() * 1.5;
                d[a][b] = v;
                d[b][a] = 1.0 / v;
            }
            if a != b {
                w[a][b] = 1.0 + rng.random::<f64>();
            }
        }
    }
    OrderingProblem::new(d, w).unwrap()
}

/// Part 2: order quality on the real four-feature system — the
/// exhaustive order vs the ILP reference, impact order, registration
/// order and its reverse, judged by the estimated workload cost after
/// recursive tuning. Returns whether the two optima agree.
fn real_feature_ordering() -> bool {
    println!("\nRealized tuning quality by feature order (4 real features):\n");
    let (mut engine, templates) = build_engine(DEFAULT_ROWS, DEFAULT_CHUNK, DEFAULT_SEED);
    let hot_capacity = crate::setup::apply_pressure(&mut engine, &templates);
    let model = train_calibrated(&engine, &templates, 240, DEFAULT_SEED ^ 4).unwrap();
    let what_if = WhatIf::new(model);
    let features = [
        FeatureKind::Indexing,
        FeatureKind::Compression,
        FeatureKind::Placement,
        FeatureKind::BufferPool,
    ];
    let tuners = features
        .iter()
        .map(|&f| standard_tuner(f, what_if.clone()))
        .collect();
    let multi = MultiFeatureTuner::new(tuners, what_if.clone());

    // Blended HTAP mix: analytic scans (compression / placement /
    // buffer work) plus selective point lookups (index work).
    let mix: Vec<f64> = smdb_workload::generators::scan_heavy_mix()
        .iter()
        .zip(&smdb_workload::generators::point_heavy_mix())
        .map(|(a, b)| a + b)
        .collect();
    let forecast = forecast_from_mix(&templates, &mix, 300.0, DEFAULT_SEED ^ 11);
    let constraints = ConstraintSet {
        index_memory_bytes: Some(8 * 1024 * 1024),
        hot_tier_bytes: Some(hot_capacity),
        ..ConstraintSet::default()
    };
    let base = engine.current_config();

    let report = multi
        .analyze(&engine, &forecast, &base, &constraints)
        .unwrap();
    let problem = report.ordering_problem().unwrap();
    let exhaustive = multi.lp_order(&report).unwrap();
    let ilp = solve_reference(&problem).unwrap();

    // Evaluate orders by tuning recursively and estimating final cost.
    let orders: Vec<(String, Vec<usize>)> = vec![
        ("exhaustive".into(), exhaustive.order.clone()),
        ("ILP reference".into(), ilp.order.clone()),
        ("impact-ranked".into(), report.impact_order()),
        ("registration".into(), (0..4).collect()),
        ("reversed".into(), (0..4).rev().collect()),
    ];

    let expected = forecast.expected().unwrap().workload.clone();
    let w_empty = report.w_empty;
    let mut table = TableBuilder::new(&[
        "order policy",
        "order",
        "objective",
        "est. final cost (ms)",
        "improvement vs W_empty",
    ]);
    for (name, order) in orders {
        let run = multi
            .tune_in_order(&engine, &forecast, &base, &constraints, &order)
            .unwrap();
        let final_cost = what_if
            .workload_cost(
                &engine,
                &expected,
                run.final_config.as_ref().unwrap_or(&base),
            )
            .unwrap();
        let order_str: Vec<&str> = order.iter().map(|&i| features[i].label()).collect();
        table.row(vec![
            name,
            order_str.join(" -> "),
            f3(problem.order_objective(&order)),
            f2(final_cost.ms()),
            format!("{:.2}x", w_empty.ms() / final_cost.ms().max(1e-9)),
        ]);
    }
    table.print();
    let equal = same_objective(ilp.objective, exhaustive.objective);
    println!(
        "\nILP objective {:.3} == exhaustive objective {:.3}: {equal}",
        ilp.objective, exhaustive.objective,
    );
    equal
}
