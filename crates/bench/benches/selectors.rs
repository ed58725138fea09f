//! Criterion bench for E5: selector runtimes on a 120-candidate
//! selection instance.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rand::RngExt;
use smdb_common::{seeded_rng, Cost};
use smdb_core::candidate::{Assessment, Candidate, SelectionInput};
use smdb_core::selectors::{
    GeneticSelector, GreedySelector, OptimalSelector, RiskCriterion, RobustSelector, Selector,
};
use smdb_storage::{ConfigAction, IndexKind};

fn instance(n: usize) -> (Vec<Candidate>, Vec<Assessment>, i64) {
    let mut rng = seeded_rng(42);
    let mut candidates = Vec::with_capacity(n);
    let mut assessments = Vec::with_capacity(n);
    for i in 0..n {
        candidates.push(Candidate::new(
            ConfigAction::CreateIndex {
                target: smdb_common::ChunkColumnRef::new(0, (i % 8) as u16, (i / 8) as u32),
                kind: IndexKind::Hash,
            },
            None,
        ));
        let d1 = rng.random::<f64>() * 20.0 - 2.0;
        let d2 = rng.random::<f64>() * 20.0 - 2.0;
        assessments.push(Assessment {
            candidate: i,
            per_scenario: vec![d1, d2],
            probabilities: vec![0.6, 0.4].into(),
            confidence: 0.9,
            permanent_bytes: 100 + (rng.random::<f64>() * 900.0) as i64,
            one_time_cost: Cost(1.0),
        });
    }
    let budget: i64 = assessments
        .iter()
        .map(|a| a.budget_weight() as i64)
        .sum::<i64>()
        / 3;
    (candidates, assessments, budget)
}

fn bench_selectors(c: &mut Criterion) {
    let (candidates, assessments, budget) = instance(120);
    let input = SelectionInput {
        candidates: &candidates,
        assessments: &assessments,
        memory_budget_bytes: Some(budget),
        scenario_base_costs: None,
    };
    let mut group = c.benchmark_group("selectors");
    group.bench_function("greedy_120", |b| {
        b.iter(|| black_box(GreedySelector.select(&input).unwrap()))
    });
    group.bench_function("optimal_120", |b| {
        b.iter(|| black_box(OptimalSelector.select(&input).unwrap()))
    });
    group.bench_function("robust_worst_case_120", |b| {
        let s = RobustSelector::new(RiskCriterion::WorstCase);
        b.iter(|| black_box(s.select(&input).unwrap()))
    });
    group.bench_function("robust_cvar_120", |b| {
        let s = RobustSelector::new(RiskCriterion::Cvar { alpha: 0.3 });
        b.iter(|| black_box(s.select(&input).unwrap()))
    });
    group.sample_size(10);
    group.bench_function("genetic_120", |b| {
        let s = GeneticSelector::default();
        b.iter(|| black_box(s.select(&input).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_selectors);
criterion_main!(benches);
