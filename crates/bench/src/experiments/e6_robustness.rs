//! E6 — robust configurations under workload uncertainty (Sections II-C,
//! II-D(c)): risk-averse selectors sacrifice a little expected-case
//! performance to bound the worst case across forecast scenarios.

use smdb_common::Result;
use smdb_core::enumerator::IndexEnumerator;
use smdb_core::selectors::{GreedySelector, RiskCriterion, RobustSelector, Selector};

/// The true expected-case baseline: scores candidates by their
/// desirability in the *expected scenario only*, ignoring the rest of the
/// forecast distribution — what a non-robust tuner that only looks at the
/// point forecast would do.
struct ExpectedOnlyGreedy;

impl Selector for ExpectedOnlyGreedy {
    fn name(&self) -> &str {
        "expected_only"
    }
    fn select(&self, input: &smdb_core::SelectionInput<'_>) -> Result<Vec<usize>> {
        // Reuse the budget/group-aware greedy frame with a scenario-0 score.
        let mut scored: Vec<(usize, f64)> = input
            .assessments
            .iter()
            .enumerate()
            .map(|(i, a)| (i, a.per_scenario[0]))
            .filter(|&(_, d)| d > 0.0)
            .collect();
        scored.sort_by(|a, b| {
            let ra = a.1 / input.assessments[a.0].budget_weight().max(1e-9);
            let rb = b.1 / input.assessments[b.0].budget_weight().max(1e-9);
            rb.total_cmp(&ra)
        });
        let mut chosen = Vec::new();
        let mut used = 0.0;
        let mut groups = std::collections::HashSet::new();
        let budget = input.memory_budget_bytes.map(|b| b as f64);
        for (i, _) in scored {
            if let Some(g) = input.candidates[i].exclusive_group {
                if groups.contains(&g) {
                    continue;
                }
            }
            let w = input.assessments[i].budget_weight();
            if let Some(b) = budget {
                if used + w > b + 1e-6 {
                    continue;
                }
            }
            if let Some(g) = input.candidates[i].exclusive_group {
                groups.insert(g);
            }
            used += w;
            chosen.push(i);
        }
        Ok(chosen)
    }
}
use smdb_core::{Enumerator, SelectionInput, WhatIfAssessor};
use smdb_cost::WhatIf;
use smdb_storage::ConfigInstance;
use smdb_workload::generators::{point_heavy_mix, scan_heavy_mix};

use crate::setup::{
    build_engine, forecast_from_mixes, ground_truth_cost_under, train_calibrated, DEFAULT_CHUNK,
    DEFAULT_ROWS, DEFAULT_SEED,
};
use crate::table::{f2, TableBuilder};

pub fn run() {
    println!("\n=== E6: robust vs expected-case selection under workload shift ===\n");
    let (engine, templates) = build_engine(DEFAULT_ROWS, DEFAULT_CHUNK, DEFAULT_SEED);
    let model = train_calibrated(&engine, &templates, 240, DEFAULT_SEED ^ 6).unwrap();
    let what_if = WhatIf::new(model);

    // Scenario set: the expected mix is scan-heavy, but with meaningful
    // probability the workload shifts point-heavy or doubles in volume.
    let scan = scan_heavy_mix();
    let point = point_heavy_mix();
    let forecast = forecast_from_mixes(
        &templates,
        &[
            (scan.clone(), 0.55, 300.0),
            (point.clone(), 0.25, 300.0),
            (scan.clone(), 0.20, 900.0), // 3x volume surge
        ],
        DEFAULT_SEED ^ 17,
    );
    println!(
        "Scenarios: {} (expected scan-heavy 55%, shift point-heavy 25%, surge 20%)\n",
        forecast.len()
    );

    let base = ConfigInstance::default();
    let candidates = IndexEnumerator::default()
        .enumerate(&engine, &base, &forecast)
        .unwrap();
    let assessor = WhatIfAssessor::new(what_if, 0.9);
    let assessments = assessor
        .assess(&engine, &base, &forecast, &candidates)
        .unwrap();
    let base_costs = assessor.scenario_costs(&engine, &base, &forecast).unwrap();
    let total_bytes: f64 = assessments.iter().map(|a| a.budget_weight()).sum();
    let budget = (total_bytes * 0.2) as i64;

    let selectors: Vec<(&str, Box<dyn Selector>)> = vec![
        (
            "expected-scenario-only greedy",
            Box::new(ExpectedOnlyGreedy),
        ),
        ("probability-weighted greedy", Box::new(GreedySelector)),
        (
            "robust mean-variance (λ=1)",
            Box::new(RobustSelector::new(RiskCriterion::MeanVariance {
                lambda: 1.0,
            })),
        ),
        (
            "robust worst-case",
            Box::new(RobustSelector::new(RiskCriterion::WorstCase)),
        ),
        (
            "robust CVaR(α=0.3)",
            Box::new(RobustSelector::new(RiskCriterion::Cvar { alpha: 0.3 })),
        ),
    ];

    let mut table = TableBuilder::new(&[
        "selector",
        "chosen",
        "expected-scenario cost (ms)",
        "worst-scenario cost (ms)",
        "cost std across scenarios",
    ]);

    for (name, selector) in &selectors {
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(budget),
            scenario_base_costs: Some(base_costs.clone()),
        };
        let chosen = selector.select(&input).unwrap();
        let mut config = base.clone();
        for &i in &chosen {
            config.apply(&candidates[i].action);
        }
        // Ground-truth evaluation of the chosen config per scenario.
        let mut costs = Vec::new();
        for s in forecast.iter() {
            costs.push(
                ground_truth_cost_under(&engine, &s.workload, &config)
                    .unwrap()
                    .ms(),
            );
        }
        let expected_cost = costs[0];
        let worst = costs.iter().copied().fold(f64::MIN, f64::max);
        let mean = costs.iter().sum::<f64>() / costs.len() as f64;
        let std =
            (costs.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / costs.len() as f64).sqrt();
        table.row(vec![
            name.to_string(),
            chosen.len().to_string(),
            f2(expected_cost),
            f2(worst),
            f2(std),
        ]);
    }
    table.print();
    println!(
        "\n(Robust selectors should show equal-or-worse expected cost but lower worst-case\n cost / variance than the expected-case selector — the paper's robustness story.)"
    );
}
