//! Robust vs expected-case tuning under workload uncertainty.
//!
//! The forecast says "probably scan-heavy", but with real probability the
//! workload turns point-heavy. A risk-averse selector gives up a little
//! expected-case performance to avoid being wrong-footed — the paper's
//! robustness argument (Sections II-C, II-D(c)).
//!
//! ```text
//! cargo run --release --example robust_tuning
//! ```

use smdb::core::enumerator::IndexEnumerator;
use smdb::core::selectors::{GreedySelector, RiskCriterion, RobustSelector, Selector};
use smdb::core::{Enumerator, SelectionInput, WhatIfAssessor};
use smdb::cost::{CalibratedCostModel, WhatIf};
use smdb::forecast::{ForecastSet, ScenarioKind, WorkloadScenario};
use smdb::prelude::*;
use smdb::query::Workload;
use smdb::storage::StorageEngine;
use smdb::workload::generators::{point_heavy_mix, scan_heavy_mix};
use smdb::workload::tpch::{build_catalog, TpchTemplates, NUM_TEMPLATES};

fn mix_workload(templates: &TpchTemplates, mix: &[f64], total: f64, seed: u64) -> Workload {
    let mut rng = smdb::common::seeded_rng(seed);
    let sum: f64 = mix.iter().sum();
    let mut w = Workload::default();
    for (id, &m) in mix.iter().enumerate().take(NUM_TEMPLATES) {
        w.push(templates.sample(id, &mut rng), m / sum * total);
    }
    w
}

fn main() {
    let mut engine = StorageEngine::default();
    let catalog = build_catalog(&mut engine, 20_000, 2_000, 11).expect("catalog builds");
    let templates = TpchTemplates::new(catalog);

    // Train the adaptive cost model on live executions.
    let model = std::sync::Arc::new(CalibratedCostModel::new());
    let config = engine.current_config();
    let mut rng = smdb::common::seeded_rng(3);
    for i in 0..200 {
        let q = templates.sample(i % NUM_TEMPLATES, &mut rng);
        let out = engine
            .scan(q.table(), q.predicates(), q.aggregate())
            .expect("scan runs");
        model
            .observe(&engine, &q, &config, out.sim_cost)
            .expect("observation absorbed");
    }
    model.refit().expect("model fits");
    let what_if = WhatIf::new(model);

    // Two futures: 65 % scan-heavy, 35 % point-heavy.
    let scenarios = ForecastSet {
        scenarios: vec![
            WorkloadScenario {
                kind: ScenarioKind::Expected,
                name: "scan-heavy".into(),
                probability: 0.65,
                workload: mix_workload(&templates, &scan_heavy_mix(), 200.0, 21),
            },
            WorkloadScenario {
                kind: ScenarioKind::Sampled,
                name: "point-heavy shift".into(),
                probability: 0.35,
                workload: mix_workload(&templates, &point_heavy_mix(), 200.0, 22),
            },
        ],
    };

    // Enumerate + assess index candidates once; select twice.
    let base = engine.current_config();
    let candidates = IndexEnumerator::default()
        .enumerate(&engine, &base, &scenarios)
        .expect("enumeration succeeds");
    let assessments = WhatIfAssessor::new(what_if, 0.9)
        .assess(&engine, &base, &scenarios, &candidates)
        .expect("assessment succeeds");
    let budget: f64 = assessments.iter().map(|a| a.budget_weight()).sum::<f64>() * 0.15;
    let input = SelectionInput {
        candidates: &candidates,
        assessments: &assessments,
        memory_budget_bytes: Some(budget as i64),
        scenario_base_costs: None,
    };

    println!(
        "{} index candidates, budget {:.1} KiB\n",
        candidates.len(),
        budget / 1024.0
    );
    for (name, selector) in [
        (
            "expected-case greedy",
            Box::new(GreedySelector) as Box<dyn Selector>,
        ),
        (
            "robust worst-case",
            Box::new(RobustSelector::new(RiskCriterion::WorstCase)),
        ),
    ] {
        let chosen = selector.select(&input).expect("selection succeeds");
        // Evaluate the chosen configuration under each scenario for real.
        let mut tuned = engine.clone();
        let mut target = base.clone();
        for &i in &chosen {
            target.apply(&candidates[i].action);
        }
        tuned.apply_all(&base.diff(&target)).expect("actions apply");
        print!("{name:>22}: {} indexes |", chosen.len());
        for s in scenarios.iter() {
            let cost: Cost = s
                .workload
                .queries()
                .iter()
                .map(|wq| {
                    tuned
                        .scan(
                            wq.query.table(),
                            wq.query.predicates(),
                            wq.query.aggregate(),
                        )
                        .expect("scan runs")
                        .sim_cost
                        * wq.weight
                })
                .sum();
            print!("  {} = {:.1} ms", s.name, cost.ms());
        }
        println!();
    }
    println!("\n(The robust selection should lose less when the shift scenario strikes.)");
}
