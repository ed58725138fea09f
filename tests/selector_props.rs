//! Property-based tests for the selector classes: feasibility under
//! arbitrary budgets/groups and the quality ordering
//! `optimal ≥ genetic ≥ greedy` (genetic is greedy-seeded).

use proptest::prelude::*;

use smdb::common::{ChunkColumnRef, Cost};
use smdb::core::candidate::{Assessment, Candidate, SelectionInput};
use smdb::core::selectors::{
    GeneticSelector, GreedySelector, OptimalSelector, RiskCriterion, RobustSelector, Selector,
};
use smdb::storage::{ConfigAction, IndexKind};

#[derive(Debug, Clone)]
struct Item {
    desirability: Vec<f64>,
    bytes: i64,
    group: Option<u64>,
}

fn items(max_n: usize) -> impl Strategy<Value = Vec<Item>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(-20.0f64..40.0, 2),
            0i64..2_000,
            proptest::option::of(0u64..4),
        )
            .prop_map(|(desirability, bytes, group)| Item {
                desirability,
                bytes,
                group,
            }),
        1..max_n,
    )
}

fn build(items: &[Item]) -> (Vec<Candidate>, Vec<Assessment>) {
    let candidates: Vec<Candidate> = items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            Candidate::new(
                ConfigAction::CreateIndex {
                    target: ChunkColumnRef::new(0, 0, i as u32),
                    kind: IndexKind::Hash,
                },
                item.group,
            )
        })
        .collect();
    let assessments: Vec<Assessment> = items
        .iter()
        .enumerate()
        .map(|(i, item)| Assessment {
            candidate: i,
            per_scenario: item.desirability.clone(),
            probabilities: vec![0.5, 0.5].into(),
            confidence: 1.0,
            permanent_bytes: item.bytes,
            one_time_cost: Cost(1.0),
        })
        .collect();
    (candidates, assessments)
}

fn value(assessments: &[Assessment], chosen: &[usize]) -> f64 {
    chosen
        .iter()
        .map(|&i| assessments[i].expected_desirability())
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_selectors_feasible(spec in items(24), budget in 0i64..20_000) {
        let (candidates, assessments) = build(&spec);
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(budget),
            scenario_base_costs: None,
        };
        let selectors: Vec<Box<dyn Selector>> = vec![
            Box::new(GreedySelector),
            Box::new(OptimalSelector),
            Box::new(GeneticSelector { generations: 10, population: 16, ..GeneticSelector::default() }),
            Box::new(RobustSelector::new(RiskCriterion::WorstCase)),
            Box::new(RobustSelector::new(RiskCriterion::MeanVariance { lambda: 1.0 })),
            Box::new(RobustSelector::new(RiskCriterion::Cvar { alpha: 0.4 })),
        ];
        for s in &selectors {
            let chosen = s.select(&input).expect("selection succeeds");
            prop_assert!(input.is_feasible(&chosen), "{} infeasible: {chosen:?}", s.name());
            // No duplicates.
            let mut dedup = chosen.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), chosen.len());
        }
    }

    #[test]
    fn quality_ordering_holds(spec in items(20), budget in 100i64..10_000) {
        let (candidates, assessments) = build(&spec);
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(budget),
            scenario_base_costs: None,
        };
        let greedy = value(&assessments, &GreedySelector.select(&input).expect("greedy"));
        let optimal = value(&assessments, &OptimalSelector.select(&input).expect("optimal"));
        let genetic = value(
            &assessments,
            &GeneticSelector { generations: 20, population: 24, ..GeneticSelector::default() }
                .select(&input)
                .expect("genetic"),
        );
        prop_assert!(optimal >= greedy - 1e-9, "optimal {optimal} < greedy {greedy}");
        prop_assert!(optimal >= genetic - 1e-9, "optimal {optimal} < genetic {genetic}");
        prop_assert!(genetic >= greedy - 1e-9, "genetic {genetic} < greedy {greedy} (greedy-seeded)");
        prop_assert!(greedy >= 0.0);
    }

    #[test]
    fn unbudgeted_optimal_takes_exactly_the_positive_ungrouped(spec in items(16)) {
        let (candidates, assessments) = build(&spec);
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: None,
            scenario_base_costs: None,
        };
        let chosen = OptimalSelector.select(&input).expect("optimal");
        for (i, a) in assessments.iter().enumerate() {
            let positive = a.expected_desirability() > 0.0;
            if candidates[i].exclusive_group.is_none() {
                prop_assert_eq!(chosen.contains(&i), positive,
                    "ungrouped candidate {} mis-selected", i);
            } else if chosen.contains(&i) {
                prop_assert!(positive, "negative grouped candidate {} selected", i);
            }
        }
    }
}
