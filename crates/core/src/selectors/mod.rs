//! Selectors (Section II-D(c)).
//!
//! "A selector chooses candidates based on the previous assessments and
//! specified constraints." The paper names four classes, all implemented
//! here:
//!
//! * [`greedy::GreedySelector`] — desirability-per-cost ratio until the
//!   budget is exhausted; fastest.
//! * [`optimal::OptimalSelector`] — exact 0/1 knapsack via
//!   branch-and-bound (`smdb-lp`); best quality, slowest.
//! * [`genetic::GeneticSelector`] — mutation/selection/crossover for
//!   search spaces too large for exact solutions.
//! * [`robust::RobustSelector`] — risk-averse criteria (mean-variance,
//!   worst case, CVaR) over the per-scenario desirabilities.
//!
//! [`iterative::IterativeGreedy`] adds the paper's re-assessment
//! round-trips. The tuner needs none of these trait objects: it selects
//! greedily from each candidate's expected desirability and budget
//! weight (`greedy_over`), all the greedy selector reads of an
//! assessment. The others serve the selector experiments (E5, E6).

pub mod genetic;
pub mod greedy;
pub mod iterative;
pub mod optimal;
pub mod robust;

use smdb_common::Result;

use crate::candidate::{Candidate, SelectionInput};

pub use genetic::GeneticSelector;
pub use greedy::GreedySelector;
pub use iterative::IterativeGreedy;
pub use optimal::OptimalSelector;
pub use robust::{RiskCriterion, RobustSelector};

/// Chooses a feasible subset of candidates.
pub trait Selector: Send + Sync {
    /// Human-readable name.
    fn name(&self) -> &str;

    /// Returns indices of chosen candidates. Implementations must respect
    /// the budget and exclusivity groups
    /// ([`SelectionInput::is_feasible`]).
    fn select(&self, input: &SelectionInput<'_>) -> Result<Vec<usize>>;
}

/// Shared helper: greedy selection by an arbitrary score function.
/// Candidates with non-positive score are never chosen; groups and the
/// budget are respected. Returns indices in score order.
pub(crate) fn greedy_by_score(
    input: &SelectionInput<'_>,
    score: impl Fn(&crate::candidate::Assessment) -> f64,
) -> Vec<usize> {
    greedy_over(
        input.candidates,
        input
            .assessments
            .iter()
            .map(|a| (score(a), a.budget_weight())),
        input.memory_budget_bytes,
    )
}

/// [`greedy_by_score`] over each candidate's `(score, budget weight)`,
/// in candidate order — the tuner's selection.
pub(crate) fn greedy_over(
    candidates: &[Candidate],
    scored: impl Iterator<Item = (f64, f64)>,
    memory_budget_bytes: Option<i64>,
) -> Vec<usize> {
    let mut ranked: Vec<(usize, f64, f64, f64)> = scored
        .enumerate()
        .filter(|&(_, (s, _))| s > 0.0)
        .map(|(i, (s, weight))| {
            // Ratio for budgeted problems; plain score when free.
            let ratio = if weight > 0.0 {
                s / weight
            } else {
                f64::INFINITY
            };
            (i, s, ratio, weight)
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.2.total_cmp(&a.2)
            .then(b.1.total_cmp(&a.1))
            .then(a.0.cmp(&b.0))
    });

    let mut chosen = Vec::new();
    let mut used_groups = std::collections::HashSet::new();
    let mut used_bytes = 0.0f64;
    let budget = memory_budget_bytes.map(|b| b as f64);
    for (i, _, _, w) in ranked {
        if let Some(g) = candidates[i].exclusive_group {
            if used_groups.contains(&g) {
                continue;
            }
        }
        if let Some(b) = budget {
            if used_bytes + w > b + 1e-6 {
                continue;
            }
        }
        if let Some(g) = candidates[i].exclusive_group {
            used_groups.insert(g);
        }
        used_bytes += w;
        chosen.push(i);
    }
    chosen
}

#[cfg(test)]
pub(crate) mod testkit {
    //! Shared fixtures for selector tests.

    use smdb_common::{ChunkColumnRef, Cost};
    use smdb_storage::{ConfigAction, IndexKind};

    use crate::candidate::{Assessment, Candidate};

    /// Builds `n` candidates with the given (desirability, bytes, group)
    /// triples; single scenario.
    pub fn fixture(spec: &[(f64, i64, Option<u64>)]) -> (Vec<Candidate>, Vec<Assessment>) {
        let candidates: Vec<Candidate> = spec
            .iter()
            .enumerate()
            .map(|(i, &(_, _, group))| {
                Candidate::new(
                    ConfigAction::CreateIndex {
                        target: ChunkColumnRef::new(0, 0, i as u32),
                        kind: IndexKind::Hash,
                    },
                    group,
                )
            })
            .collect();
        let assessments: Vec<Assessment> = spec
            .iter()
            .enumerate()
            .map(|(i, &(d, bytes, _))| Assessment {
                candidate: i,
                per_scenario: vec![d],
                probabilities: vec![1.0].into(),
                confidence: 1.0,
                permanent_bytes: bytes,
                one_time_cost: Cost(1.0),
            })
            .collect();
        (candidates, assessments)
    }

    /// Multi-scenario fixture: each entry is (per_scenario, bytes).
    pub fn fixture_scenarios(
        probabilities: &[f64],
        spec: &[(Vec<f64>, i64)],
    ) -> (Vec<Candidate>, Vec<Assessment>) {
        let candidates: Vec<Candidate> = spec
            .iter()
            .enumerate()
            .map(|(i, _)| {
                Candidate::new(
                    ConfigAction::CreateIndex {
                        target: ChunkColumnRef::new(0, 0, i as u32),
                        kind: IndexKind::Hash,
                    },
                    None,
                )
            })
            .collect();
        let assessments: Vec<Assessment> = spec
            .iter()
            .enumerate()
            .map(|(i, (per_scenario, bytes))| Assessment {
                candidate: i,
                per_scenario: per_scenario.clone(),
                probabilities: probabilities.into(),
                confidence: 1.0,
                permanent_bytes: *bytes,
                one_time_cost: Cost(1.0),
            })
            .collect();
        (candidates, assessments)
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::fixture;
    use super::*;

    #[test]
    fn greedy_by_score_respects_everything() {
        let (candidates, assessments) = fixture(&[
            (10.0, 100, Some(1)),
            (9.0, 100, Some(1)), // same group as 0
            (-5.0, 10, None),    // negative: never chosen
            (8.0, 100, None),
            (1.0, 0, None), // free: always fits
        ]);
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(150),
            scenario_base_costs: None,
        };
        let chosen = greedy_by_score(&input, |a| a.expected_desirability());
        assert!(input.is_feasible(&chosen));
        assert!(chosen.contains(&4), "free candidate always fits");
        assert!(chosen.contains(&0), "best of group 1");
        assert!(!chosen.contains(&1));
        assert!(!chosen.contains(&2));
        assert!(!chosen.contains(&3), "budget exhausted by 0");
    }
}
