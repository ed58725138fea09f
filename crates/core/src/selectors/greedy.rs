//! The greedy selector: desirability-per-cost ratio, first-fit.
//!
//! "Choosing the candidates with the highest ratio first and proceeding
//! until the constraint is violated. The strength of the greedy selector
//! is its short runtime." (Section II-D(c))

use smdb_common::Result;

use crate::candidate::SelectionInput;
use crate::selectors::{greedy_by_score, Selector};

/// Greedy selection by expected desirability per byte.
#[derive(Debug, Clone, Default)]
pub struct GreedySelector;

impl Selector for GreedySelector {
    fn name(&self) -> &str {
        "greedy"
    }

    fn select(&self, input: &SelectionInput<'_>) -> Result<Vec<usize>> {
        Ok(greedy_by_score(input, |a| a.expected_desirability()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selectors::testkit::fixture;

    #[test]
    fn picks_by_ratio_not_absolute_value() {
        // Candidate 0: value 10, weight 100 (ratio 0.1).
        // Candidates 1+2: value 6 each, weight 50 (ratio 0.12).
        let (candidates, assessments) =
            fixture(&[(10.0, 100, None), (6.0, 50, None), (6.0, 50, None)]);
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(100),
            scenario_base_costs: None,
        };
        let chosen = GreedySelector.select(&input).unwrap();
        let mut sorted = chosen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2]);
    }

    #[test]
    fn unbudgeted_takes_all_positive() {
        let (candidates, assessments) =
            fixture(&[(3.0, 10, None), (-1.0, 10, None), (2.0, 999, None)]);
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: None,
            scenario_base_costs: None,
        };
        let mut chosen = GreedySelector.select(&input).unwrap();
        chosen.sort_unstable();
        assert_eq!(chosen, vec![0, 2]);
    }

    #[test]
    fn empty_input_empty_selection() {
        let (candidates, assessments) = fixture(&[]);
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(10),
            scenario_base_costs: None,
        };
        assert!(GreedySelector.select(&input).unwrap().is_empty());
    }
}
