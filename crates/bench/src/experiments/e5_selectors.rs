//! E5 — selector classes (Section II-D(c)): greedy vs optimal vs genetic
//! vs robust on real index-selection instances, trading solution quality
//! against runtime exactly as the paper describes.

use std::time::Instant;

use smdb_core::enumerator::IndexEnumerator;
use smdb_core::selectors::{
    GeneticSelector, GreedySelector, OptimalSelector, RiskCriterion, RobustSelector, Selector,
};
use smdb_core::{Enumerator, SelectionInput, WhatIfAssessor};
use smdb_cost::WhatIf;
use smdb_storage::ConfigInstance;

use crate::report;
use crate::setup::{
    build_engine, forecast_from_mix, forecast_from_mixes, train_calibrated, DEFAULT_CHUNK,
    DEFAULT_ROWS, DEFAULT_SEED,
};
use crate::table::{bytes_h, f2, TableBuilder};

pub fn run() {
    println!("\n=== E5: selector classes — quality vs runtime (Section II-D(c)) ===\n");
    let (engine, templates) = build_engine(DEFAULT_ROWS, DEFAULT_CHUNK, DEFAULT_SEED);
    let model = train_calibrated(&engine, &templates, 240, DEFAULT_SEED ^ 5).unwrap();
    let what_if = WhatIf::new(model);

    // A workload touching many columns → a large index-candidate set.
    let mix = vec![1.0; smdb_workload::tpch::NUM_TEMPLATES];
    let forecast = forecast_from_mix(&templates, &mix, 400.0, DEFAULT_SEED ^ 13);
    let base = ConfigInstance::default();

    let enumerator = IndexEnumerator::default();
    let candidates = enumerator.enumerate(&engine, &base, &forecast).unwrap();
    let assessor = WhatIfAssessor::new(what_if.clone(), 0.9);
    let assessments = assessor
        .assess(&engine, &base, &forecast, &candidates)
        .unwrap();
    let total_bytes: f64 = assessments.iter().map(|a| a.budget_weight()).sum();
    println!(
        "Index-selection instance: {} candidates, {} total candidate bytes\n",
        candidates.len(),
        bytes_h(total_bytes as u64)
    );

    let selectors: Vec<(&str, Box<dyn Selector>)> = vec![
        ("greedy", Box::new(GreedySelector)),
        ("optimal", Box::new(OptimalSelector)),
        ("genetic", Box::new(GeneticSelector::default())),
        (
            "robust(worst-case)",
            Box::new(RobustSelector::new(RiskCriterion::WorstCase)),
        ),
    ];

    let mut table = TableBuilder::new(&[
        "selector",
        "budget",
        "chosen",
        "total benefit (ms)",
        "% of optimal",
        "runtime (µs)",
        "feasible",
    ]);

    for budget_frac in [0.02, 0.05, 0.15, 0.4] {
        let budget = (total_bytes * budget_frac) as i64;
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(budget),
            scenario_base_costs: None,
        };
        // Reference: optimal value.
        let optimal_value: f64 = {
            let chosen = OptimalSelector.select(&input).unwrap();
            chosen
                .iter()
                .map(|&i| assessments[i].expected_desirability())
                .sum()
        };
        for (name, selector) in &selectors {
            let start = Instant::now();
            let chosen = selector.select(&input).unwrap();
            let us = start.elapsed().as_secs_f64() * 1e6;
            let value: f64 = chosen
                .iter()
                .map(|&i| assessments[i].expected_desirability())
                .sum();
            table.row(vec![
                name.to_string(),
                format!("{:.0}%", budget_frac * 100.0),
                chosen.len().to_string(),
                f2(value),
                format!("{:.1}%", value / optimal_value.max(1e-9) * 100.0),
                f2(us),
                input.is_feasible(&chosen).to_string(),
            ]);
        }
    }
    table.print();
    println!("\n(Robust trades expected-case benefit for scenario stability; see E6.)");

    assessment_caching(&engine, &templates, &what_if);
    hard_instances();
}

/// Delta-aware what-if caching on the full assessment fan-out: the same
/// candidate set assessed by the pre-delta baseline (every query
/// re-costed per candidate) and by the delta-aware cached assessor,
/// checking bit-identical benefits.
fn assessment_caching(
    engine: &smdb_storage::StorageEngine,
    templates: &smdb_workload::tpch::TpchTemplates,
    what_if: &WhatIf,
) {
    use smdb_workload::generators::{point_heavy_mix, scan_heavy_mix};

    println!("\nDelta-aware what-if caching on candidate assessment:\n");
    let n = smdb_workload::tpch::NUM_TEMPLATES;
    let forecast = forecast_from_mixes(
        templates,
        &[
            (vec![1.0; n], 0.6, 400.0),
            (scan_heavy_mix(), 0.25, 400.0),
            (point_heavy_mix(), 0.15, 400.0),
        ],
        DEFAULT_SEED ^ 21,
    );
    let base = ConfigInstance::default();
    let candidates = IndexEnumerator::default()
        .enumerate(engine, &base, &forecast)
        .unwrap();

    let estimator = what_if.estimator().clone();
    let actions: Vec<_> = candidates.iter().map(|c| c.action.clone()).collect();
    let start = Instant::now();
    let plain = crate::setup::full_recompute_benefits(
        engine,
        &base,
        &forecast,
        &actions,
        estimator.clone(),
    )
    .unwrap();
    let uncached_ms = start.elapsed().as_secs_f64() * 1000.0;

    // Cold pass fills the cache; the warm passes are the steady state of
    // a tuning loop, which re-assesses the same candidate sets while the
    // workload and configuration drift slowly. The same assessor keeps
    // its cold pass's prices and only re-weighs them; a fresh assessor
    // on the warm cache re-prices every candidate from cached costs.
    let cached_what_if = WhatIf::new(estimator);
    let cached = WhatIfAssessor::new(cached_what_if.clone(), 0.9);
    let timed = |assessor: &WhatIfAssessor| {
        let start = Instant::now();
        let got = assessor
            .assess(engine, &base, &forecast, &candidates)
            .unwrap();
        (got, start.elapsed().as_secs_f64() * 1000.0)
    };
    let (delta, cold_ms) = timed(&cached);
    let (memo_warm, memo_warm_ms) = timed(&cached);
    // The hit rate of the cold and kept-price passes: kept prices count
    // the hits re-pricing would have.
    let stats = cached_what_if.cache_stats().expect("cache enabled");
    let (warm, warm_ms) = timed(&WhatIfAssessor::new(cached_what_if.clone(), 0.9));

    let identical = plain.iter().enumerate().all(|(i, want)| {
        [&delta, &memo_warm, &warm]
            .iter()
            .all(|pass| pass[i].per_scenario == *want)
    });

    let mut table = TableBuilder::new(&["assessor pass", "wall (ms)"]);
    table.row(vec!["full recompute (pre-delta)".into(), f2(uncached_ms)]);
    table.row(vec!["cached, cold (fills cache)".into(), f2(cold_ms)]);
    table.row(vec!["cached, cache-warm (re-prices)".into(), f2(warm_ms)]);
    table.row(vec![
        "cached, memo-warm (kept prices)".into(),
        f2(memo_warm_ms),
    ]);
    table.print();
    println!(
        "\n{} candidates x {} scenarios: cache-warm speedup {:.1}x over uncached, \
         {} hits / {} misses over the cold and memo-warm passes, \
         assessments bit-identical: {identical}",
        candidates.len(),
        forecast.len(),
        uncached_ms / warm_ms.max(1e-9),
        stats.hits,
        stats.misses,
    );
    report::record("e5", "assess_candidates", (candidates.len() as u64).into());
    report::record("e5", "assess_uncached_ms", uncached_ms.into());
    report::record("e5", "assess_cached_cold_ms", cold_ms.into());
    report::record("e5", "assess_cached_warm_ms", warm_ms.into());
    report::record("e5", "assess_memo_warm_ms", memo_warm_ms.into());
    report::record(
        "e5",
        "warm_speedup",
        (uncached_ms / warm_ms.max(1e-9)).into(),
    );
    report::record("e5", "cache_hit_rate", stats.hit_rate().into());
    report::record("e5", "assessments_identical", identical.into());
}

/// Synthetic correlated knapsacks — the regime where greedy's ratio rule
/// provably loses to the exact solver and the genetic selector lands in
/// between, illustrating the paper's quality-vs-runtime trade-off.
fn hard_instances() {
    use rand::RngExt;
    use smdb_common::{seeded_rng, Cost};
    use smdb_core::candidate::{Assessment, Candidate};
    use smdb_storage::{ConfigAction, IndexKind};

    println!("\nSynthetic correlated knapsack instances (greedy's hard regime):\n");
    let mut table = TableBuilder::new(&[
        "instance",
        "items",
        "greedy % of optimal",
        "genetic % of optimal",
        "greedy (µs)",
        "optimal (µs)",
        "genetic (µs)",
    ]);
    for (label, n, seed) in [
        ("corr-30", 30usize, 1u64),
        ("corr-45", 45, 2),
        ("corr-60", 60, 3),
    ] {
        let mut rng = seeded_rng(seed);
        let mut candidates = Vec::with_capacity(n);
        let mut assessments = Vec::with_capacity(n);
        for i in 0..n {
            // Strongly correlated: value = weight + constant — the
            // classic hard family for greedy.
            let weight = 10.0 + (rng.random::<f64>() * 90.0).round();
            let value = weight + 12.0;
            candidates.push(Candidate::new(
                ConfigAction::CreateIndex {
                    target: smdb_common::ChunkColumnRef::new(0, 0, i as u32),
                    kind: IndexKind::Hash,
                },
                None,
            ));
            assessments.push(Assessment {
                candidate: i,
                per_scenario: vec![value],
                probabilities: vec![1.0].into(),
                confidence: 1.0,
                permanent_bytes: weight as i64,
                one_time_cost: Cost(1.0),
            });
        }
        let budget = (assessments
            .iter()
            .map(|a| a.permanent_bytes as f64)
            .sum::<f64>()
            * 0.35) as i64;
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(budget),
            scenario_base_costs: None,
        };
        let value_of = |chosen: &[usize]| -> f64 {
            chosen
                .iter()
                .map(|&i| assessments[i].expected_desirability())
                .sum()
        };
        let time_it = |s: &dyn Selector| -> (f64, f64) {
            let start = Instant::now();
            let chosen = s.select(&input).unwrap();
            (value_of(&chosen), start.elapsed().as_secs_f64() * 1e6)
        };
        let (gv, gt) = time_it(&GreedySelector);
        let (ov, ot) = time_it(&OptimalSelector);
        let (av, at) = time_it(&GeneticSelector::default());
        table.row(vec![
            label.into(),
            n.to_string(),
            format!("{:.2}%", gv / ov * 100.0),
            format!("{:.2}%", av / ov * 100.0),
            f2(gt),
            f2(ot),
            f2(at),
        ]);
    }
    table.print();
}
