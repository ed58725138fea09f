//! The optimal selector: exact selection under the memory budget and
//! exclusivity groups.
//!
//! "Optimal selectors find optimal configurations … usually based on
//! off-the-shelf solvers … might lead to long runtimes." (Section
//! II-D(c); cf. Dash et al., CoPhy.)
//!
//! Group-free instances (and instances whose groups have at most one
//! beneficial member, the common case for index alternatives) reduce to
//! a plain 0/1 knapsack, solved by the specialised branch-and-bound in
//! `smdb-lp`. Instances with real multi-member groups are a
//! multiple-choice knapsack and are solved exactly as an integer LP —
//! slower, as the paper warns, but optimal.

use std::collections::HashMap;

use smdb_common::Result;
use smdb_lp::branch_bound::solve_ilp;
use smdb_lp::knapsack::solve_knapsack;
use smdb_lp::model::{ConstraintOp, LpModel};

use crate::candidate::SelectionInput;
use crate::selectors::Selector;

/// Exact selection (knapsack / multiple-choice knapsack).
#[derive(Debug, Clone, Default)]
pub struct OptimalSelector;

impl Selector for OptimalSelector {
    fn name(&self) -> &str {
        "optimal"
    }

    fn select(&self, input: &SelectionInput<'_>) -> Result<Vec<usize>> {
        // Positive candidates only; group by exclusivity.
        let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut free_items: Vec<usize> = Vec::new();
        for (i, a) in input.assessments.iter().enumerate() {
            if a.expected_desirability() <= 0.0 {
                continue;
            }
            match input.candidates[i].exclusive_group {
                None => free_items.push(i),
                Some(g) => groups.entry(g).or_default().push(i),
            }
        }
        // Singleton groups behave like free items.
        let mut multi_groups: Vec<Vec<usize>> = Vec::new();
        for (_, members) in groups {
            if members.len() == 1 {
                free_items.push(members[0]);
            } else {
                multi_groups.push(members);
            }
        }
        free_items.sort_unstable();
        multi_groups.sort();

        if multi_groups.is_empty() {
            return self.knapsack_path(input, &free_items);
        }
        self.ilp_path(input, &free_items, &multi_groups)
    }
}

impl OptimalSelector {
    /// Plain 0/1 knapsack over `items`.
    fn knapsack_path(&self, input: &SelectionInput<'_>, items: &[usize]) -> Result<Vec<usize>> {
        match input.memory_budget_bytes {
            None => Ok(items.to_vec()),
            Some(budget) => {
                let values: Vec<f64> = items
                    .iter()
                    .map(|&i| input.assessments[i].expected_desirability())
                    .collect();
                let weights: Vec<f64> = items
                    .iter()
                    .map(|&i| input.assessments[i].budget_weight())
                    .collect();
                let sol = solve_knapsack(&values, &weights, budget.max(0) as f64)?;
                Ok(sol.chosen.into_iter().map(|k| items[k]).collect())
            }
        }
    }

    /// Multiple-choice knapsack as an exact integer LP.
    fn ilp_path(
        &self,
        input: &SelectionInput<'_>,
        free_items: &[usize],
        multi_groups: &[Vec<usize>],
    ) -> Result<Vec<usize>> {
        let all: Vec<usize> = free_items
            .iter()
            .chain(multi_groups.iter().flatten())
            .copied()
            .collect();
        let mut model = LpModel::new();
        let vars: Vec<_> = all
            .iter()
            .map(|&i| {
                model.add_binary(
                    format!("c{i}"),
                    input.assessments[i].expected_desirability(),
                )
            })
            .collect();
        let var_of: HashMap<usize, _> = all.iter().copied().zip(vars.iter().copied()).collect();
        if let Some(budget) = input.memory_budget_bytes {
            let coeffs: Vec<_> = all
                .iter()
                .map(|&i| (var_of[&i], input.assessments[i].budget_weight()))
                .collect();
            model.add_constraint("budget", coeffs, ConstraintOp::Le, budget.max(0) as f64)?;
        }
        for (g, members) in multi_groups.iter().enumerate() {
            let coeffs: Vec<_> = members.iter().map(|&i| (var_of[&i], 1.0)).collect();
            model.add_constraint(format!("group{g}"), coeffs, ConstraintOp::Le, 1.0)?;
        }
        let sol = solve_ilp(&model)?;
        let mut chosen: Vec<usize> = all
            .iter()
            .enumerate()
            .filter(|(k, _)| sol.x[*k].round() as i64 == 1)
            .map(|(_, &i)| i)
            .collect();
        chosen.sort_unstable();
        Ok(chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selectors::testkit::fixture;
    use crate::selectors::GreedySelector;

    fn value(assessments: &[crate::candidate::Assessment], chosen: &[usize]) -> f64 {
        chosen
            .iter()
            .map(|&i| assessments[i].expected_desirability())
            .sum()
    }

    #[test]
    fn beats_greedy_on_adversarial_instance() {
        // Classic greedy trap: the ratio-best item blocks the optimum.
        // Budget 10. Item 0: value 9, weight 6 (ratio 1.5) — greedy takes
        // it and can fit nothing else. Items 1, 2: value 6, weight 5
        // (ratio 1.2 each) — together they are the optimum (12).
        let (candidates, assessments) = fixture(&[(9.0, 6, None), (6.0, 5, None), (6.0, 5, None)]);
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(10),
            scenario_base_costs: None,
        };
        let optimal = OptimalSelector.select(&input).unwrap();
        let greedy = GreedySelector.select(&input).unwrap();
        assert_eq!(value(&assessments, &optimal), 12.0);
        assert_eq!(value(&assessments, &greedy), 9.0);
        assert!(input.is_feasible(&optimal));
    }

    #[test]
    fn multi_member_groups_solved_exactly() {
        // Group 7 offers a light member (value 10, weight 10) and a
        // heavy one (value 20, weight 95). Budget 100. Density-reduction
        // would keep only the light member and then take item 2 (value 5,
        // weight 85): total 15. True optimum: heavy member + nothing
        // (20) vs light + item 2 (15) — the ILP must find 20... unless
        // light + item 2 + slack fits better. Weights: heavy 95 alone =
        // 20; light 10 + item2 85 = 95 ≤ 100 → 15. Optimum is 20.
        let (candidates, assessments) =
            fixture(&[(10.0, 10, Some(7)), (20.0, 95, Some(7)), (5.0, 85, None)]);
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(100),
            scenario_base_costs: None,
        };
        let chosen = OptimalSelector.select(&input).unwrap();
        assert_eq!(value(&assessments, &chosen), 20.0, "{chosen:?}");
        assert!(input.is_feasible(&chosen));
    }

    #[test]
    fn group_choice_interacts_with_budget() {
        // Optimum takes the *lower-value* group member to free budget
        // for another item: group {A: v8 w8, B: v6 w2}, item C: v5 w6,
        // budget 8 → B + C = 11 beats A = 8.
        let (candidates, assessments) =
            fixture(&[(8.0, 8, Some(1)), (6.0, 2, Some(1)), (5.0, 6, None)]);
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(8),
            scenario_base_costs: None,
        };
        let chosen = OptimalSelector.select(&input).unwrap();
        assert_eq!(value(&assessments, &chosen), 11.0, "{chosen:?}");
    }

    #[test]
    fn no_budget_selects_best_per_group_and_all_positive() {
        let (candidates, assessments) = fixture(&[
            (10.0, 10, Some(7)),
            (20.0, 10, Some(7)),
            (-2.0, 0, None),
            (5.0, 10, None),
        ]);
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: None,
            scenario_base_costs: None,
        };
        let mut chosen = OptimalSelector.select(&input).unwrap();
        chosen.sort_unstable();
        assert_eq!(chosen, vec![1, 3]);
    }
}
