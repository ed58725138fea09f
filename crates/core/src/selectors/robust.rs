//! Robust / risk-averse selectors (Section II-D(c)).
//!
//! "Selectors that act risk-averse are a good choice for scenarios in
//! which stable performance in most cases is preferred over best
//! performance in the expected case. Criteria based on mean-variance
//! optimization, utility functions, value at risk, and worst-case
//! considerations can be used." (cf. Mozafari et al., CliffGuard.)
//!
//! The selector scores each candidate by a risk criterion over its
//! per-scenario desirabilities and then runs budgeted greedy selection on
//! that score.

use smdb_common::Result;

use crate::candidate::{Assessment, SelectionInput};
use crate::selectors::{greedy_by_score, Selector};

/// The risk criterion used to collapse per-scenario desirabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RiskCriterion {
    /// `mean − λ·std`: mean-variance optimization.
    MeanVariance { lambda: f64 },
    /// The minimum desirability across scenarios.
    WorstCase,
    /// Expected desirability over the `alpha` worst probability mass
    /// (conditional value at risk).
    Cvar { alpha: f64 },
}

impl RiskCriterion {
    /// Collapses an assessment to a scalar robust score.
    pub fn score(&self, a: &Assessment) -> f64 {
        match *self {
            RiskCriterion::MeanVariance { lambda } => {
                a.expected_desirability() - lambda * a.desirability_std()
            }
            RiskCriterion::WorstCase => a.worst_desirability(),
            RiskCriterion::Cvar { alpha } => cvar(a, alpha),
        }
    }

    /// Short label.
    pub fn label(&self) -> String {
        match self {
            RiskCriterion::MeanVariance { lambda } => format!("mean_var(λ={lambda})"),
            RiskCriterion::WorstCase => "worst_case".to_string(),
            RiskCriterion::Cvar { alpha } => format!("cvar(α={alpha})"),
        }
    }
}

/// Expected desirability over the worst `alpha` probability mass.
fn cvar(a: &Assessment, alpha: f64) -> f64 {
    let alpha = alpha.clamp(1e-6, 1.0);
    // Sort scenarios ascending by desirability.
    let mut pairs: Vec<(f64, f64)> = a
        .per_scenario
        .iter()
        .zip(a.probabilities.iter())
        .map(|(&d, &p)| (d, p))
        .collect();
    pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut remaining = alpha;
    let mut acc = 0.0;
    for (d, p) in pairs {
        if remaining <= 0.0 {
            break;
        }
        let take = p.min(remaining);
        acc += d * take;
        remaining -= take;
    }
    acc / alpha
}

/// Risk-averse greedy selection.
#[derive(Debug, Clone)]
pub struct RobustSelector {
    pub criterion: RiskCriterion,
}

impl RobustSelector {
    /// Creates a robust selector with the given criterion.
    pub fn new(criterion: RiskCriterion) -> Self {
        RobustSelector { criterion }
    }
}

impl Selector for RobustSelector {
    fn name(&self) -> &str {
        "robust"
    }

    fn select(&self, input: &SelectionInput<'_>) -> Result<Vec<usize>> {
        // Worst-case selection is a *set-level* objective: minimize the
        // final configuration's maximum scenario cost. When the caller
        // supplies base costs we run the cost-aware greedy; otherwise we
        // fall back to the per-candidate max-min-benefit score.
        if self.criterion == RiskCriterion::WorstCase {
            if let Some(base_costs) = &input.scenario_base_costs {
                return Ok(worst_case_cost_greedy(input, base_costs));
            }
        }
        Ok(greedy_by_score(input, |a| self.criterion.score(a)))
    }
}

/// Greedy minimization of the maximum scenario cost: each step picks the
/// feasible candidate with the best marginal benefit *in the currently
/// worst scenario* per byte, until no candidate improves that scenario.
fn worst_case_cost_greedy(input: &SelectionInput<'_>, base_costs: &[f64]) -> Vec<usize> {
    let mut residual: Vec<f64> = base_costs.to_vec();
    let mut chosen: Vec<usize> = Vec::new();
    let mut used_groups = std::collections::HashSet::new();
    let mut used_bytes = 0.0f64;
    let budget = input.memory_budget_bytes.map(|b| b as f64);
    let mut available: Vec<bool> = vec![true; input.candidates.len()];

    while let Some(worst_s) =
        (0..residual.len()).max_by(|&a, &b| residual[a].total_cmp(&residual[b]))
    {
        // `worst_s` is the scenario currently dominating the worst case.
        // Best feasible candidate for that scenario, by benefit per byte.
        let mut best: Option<(usize, f64)> = None;
        for (i, a) in input.assessments.iter().enumerate() {
            if !available[i] {
                continue;
            }
            let d = *a.per_scenario.get(worst_s).unwrap_or(&0.0);
            if d <= 0.0 {
                continue;
            }
            if let Some(g) = input.candidates[i].exclusive_group {
                if used_groups.contains(&g) {
                    continue;
                }
            }
            let w = a.budget_weight();
            if let Some(b) = budget {
                if used_bytes + w > b + 1e-6 {
                    continue;
                }
            }
            let ratio = if w > 0.0 { d / w } else { f64::INFINITY };
            if best.is_none_or(|(_, s)| ratio > s) {
                best = Some((i, ratio));
            }
        }
        let Some((pick, _)) = best else {
            break;
        };
        available[pick] = false;
        if let Some(g) = input.candidates[pick].exclusive_group {
            used_groups.insert(g);
        }
        used_bytes += input.assessments[pick].budget_weight();
        for (r, d) in residual
            .iter_mut()
            .zip(&input.assessments[pick].per_scenario)
        {
            *r -= d; // candidate benefits apply in every scenario
        }
        chosen.push(pick);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selectors::testkit::fixture_scenarios;

    #[test]
    fn criteria_score_sensibly() {
        let (_, assessments) = fixture_scenarios(
            &[0.5, 0.5],
            &[
                (vec![10.0, 10.0], 1), // stable
                (vec![22.0, 0.0], 1),  // volatile, higher mean
            ],
        );
        let stable = &assessments[0];
        let volatile = &assessments[1];
        // Plain expectation prefers the volatile one.
        assert!(volatile.expected_desirability() > stable.expected_desirability());
        // Every risk criterion prefers the stable one.
        for criterion in [
            RiskCriterion::MeanVariance { lambda: 1.0 },
            RiskCriterion::WorstCase,
            RiskCriterion::Cvar { alpha: 0.5 },
        ] {
            assert!(
                criterion.score(stable) > criterion.score(volatile),
                "criterion {criterion:?}"
            );
        }
    }

    #[test]
    fn selection_prefers_stable_candidates_under_budget() {
        let (candidates, assessments) = fixture_scenarios(
            &[0.5, 0.5],
            &[
                (vec![10.0, 10.0], 100),
                (vec![25.0, -2.0], 100), // higher mean, can hurt
            ],
        );
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(100),
            scenario_base_costs: None,
        };
        let chosen = RobustSelector::new(RiskCriterion::WorstCase)
            .select(&input)
            .unwrap();
        assert_eq!(chosen, vec![0]);
    }

    #[test]
    fn cvar_interpolates_between_worst_and_mean() {
        let (_, assessments) =
            fixture_scenarios(&[0.25, 0.25, 0.25, 0.25], &[(vec![0.0, 4.0, 8.0, 12.0], 1)]);
        let a = &assessments[0];
        let worst = RiskCriterion::Cvar { alpha: 0.25 }.score(a);
        let half = RiskCriterion::Cvar { alpha: 0.5 }.score(a);
        let full = RiskCriterion::Cvar { alpha: 1.0 }.score(a);
        assert!((worst - 0.0).abs() < 1e-9);
        assert!((half - 2.0).abs() < 1e-9);
        assert!((full - a.expected_desirability()).abs() < 1e-9);
    }

    #[test]
    fn mean_variance_lambda_zero_is_plain_expectation() {
        let (_, assessments) = fixture_scenarios(&[0.5, 0.5], &[(vec![3.0, 9.0], 1)]);
        let a = &assessments[0];
        let score = RiskCriterion::MeanVariance { lambda: 0.0 }.score(a);
        assert!((score - a.expected_desirability()).abs() < 1e-12);
    }
}

#[cfg(test)]
mod cost_aware_tests {
    use super::*;
    use crate::selectors::testkit::fixture_scenarios;

    #[test]
    fn cost_aware_worst_case_targets_dominating_scenario() {
        // Scenario 1 dominates the base cost. Candidate 0 helps scenario
        // 0 a lot but scenario 1 barely; candidate 1 is the reverse. The
        // benefit-space worst-case score prefers candidate 0 (its minimum
        // benefit 4 > candidate 1's minimum 2); the cost-aware greedy
        // must instead attack scenario 1 first via candidate 1.
        let (candidates, assessments) =
            fixture_scenarios(&[0.5, 0.5], &[(vec![20.0, 4.0], 10), (vec![2.0, 30.0], 10)]);
        let input_with_costs = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(10), // exactly one candidate fits
            scenario_base_costs: Some(vec![50.0, 200.0]),
        };
        let chosen = RobustSelector::new(RiskCriterion::WorstCase)
            .select(&input_with_costs)
            .unwrap();
        assert_eq!(chosen, vec![1], "must attack the dominating scenario");

        // Without base costs: falls back to max-min benefit → candidate 0.
        let input_no_costs = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(10),
            scenario_base_costs: None,
        };
        let fallback = RobustSelector::new(RiskCriterion::WorstCase)
            .select(&input_no_costs)
            .unwrap();
        assert_eq!(fallback, vec![0]);
    }

    #[test]
    fn cost_aware_selection_is_feasible_and_terminates() {
        let (candidates, assessments) = fixture_scenarios(
            &[0.4, 0.6],
            &[
                (vec![5.0, 1.0], 4),
                (vec![1.0, 5.0], 4),
                (vec![3.0, 3.0], 4),
                (vec![-1.0, -1.0], 1),
            ],
        );
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(8),
            scenario_base_costs: Some(vec![100.0, 100.0]),
        };
        let chosen = RobustSelector::new(RiskCriterion::WorstCase)
            .select(&input)
            .unwrap();
        assert!(input.is_feasible(&chosen));
        assert!(chosen.len() <= 2);
        assert!(!chosen.contains(&3), "never pick harmful candidates");
    }
}
