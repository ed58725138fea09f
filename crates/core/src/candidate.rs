//! Candidates, assessments and selection inputs — the data flowing
//! through the tuning pipeline (Section II-D).

use std::sync::Arc;

use smdb_common::Cost;
use smdb_storage::ConfigAction;

/// A tuning candidate: one configuration action the tuner may take.
///
/// "Candidates can be of various forms to represent different types,
/// i.e., physical design features or knobs" — here every candidate
/// carries the [`ConfigAction`] that would realise it.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The action realising this candidate.
    pub action: ConfigAction,
    /// Candidates sharing an `exclusive_group` are mutually exclusive
    /// alternatives (e.g. hash vs B-tree index on the same segment, or
    /// the discretised values of one knob); a selector may pick at most
    /// one per group.
    pub exclusive_group: Option<u64>,
}

impl Candidate {
    /// Creates a candidate.
    pub fn new(action: ConfigAction, exclusive_group: Option<u64>) -> Self {
        Candidate {
            action,
            exclusive_group,
        }
    }
}

/// The assessor's verdict on one candidate (Section II-D(b)).
#[derive(Debug, Clone, PartialEq)]
pub struct Assessment {
    /// Index of the assessed candidate in the candidate list.
    pub candidate: usize,
    /// Desirability per forecast scenario: the estimated workload-cost
    /// reduction (ms, possibly negative) of applying this candidate alone.
    pub per_scenario: Vec<f64>,
    /// Scenario probabilities aligned with `per_scenario` (one slice
    /// shared by every assessment of a pass).
    pub probabilities: Arc<[f64]>,
    /// Certainty of the assessment in `[0, 1]`.
    pub confidence: f64,
    /// Permanent cost: memory delta in bytes (negative = frees memory).
    pub permanent_bytes: i64,
    /// One-time reconfiguration cost of applying the candidate.
    pub one_time_cost: Cost,
}

impl Assessment {
    /// Probability-weighted expected desirability.
    pub fn expected_desirability(&self) -> f64 {
        expected_desirability(self.per_scenario.iter().copied(), &self.probabilities)
    }

    /// Worst-case (minimum) desirability across scenarios.
    pub fn worst_desirability(&self) -> f64 {
        self.per_scenario
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Probability-weighted standard deviation of desirability.
    pub fn desirability_std(&self) -> f64 {
        let mean = self.expected_desirability();
        let var: f64 = self
            .per_scenario
            .iter()
            .zip(self.probabilities.iter())
            .map(|(d, p)| p * (d - mean).powi(2))
            .sum();
        var.max(0.0).sqrt()
    }

    /// Memory the candidate *consumes* (clamped at zero: freeing memory
    /// never violates a budget).
    pub fn budget_weight(&self) -> f64 {
        budget_weight(self.permanent_bytes)
    }
}

/// [`Assessment::expected_desirability`] of these per-scenario
/// desirabilities, for callers that have not built the assessment.
pub(crate) fn expected_desirability(
    per_scenario: impl Iterator<Item = f64>,
    probabilities: &[f64],
) -> f64 {
    per_scenario.zip(probabilities).map(|(d, p)| d * p).sum()
}

/// [`Assessment::budget_weight`] of a permanent cost.
pub(crate) fn budget_weight(permanent_bytes: i64) -> f64 {
    permanent_bytes.max(0) as f64
}

/// Everything a selector sees (Section II-D(c)).
#[derive(Debug)]
pub struct SelectionInput<'a> {
    pub candidates: &'a [Candidate],
    pub assessments: &'a [Assessment],
    /// Memory budget for the selection's permanent costs, if any.
    pub memory_budget_bytes: Option<i64>,
    /// Estimated workload cost per scenario under the base configuration
    /// (aligned with each assessment's `per_scenario`). Lets set-level
    /// selectors reason about worst-case *cost*, not just per-candidate
    /// benefit. `None` when the caller did not price the base.
    pub scenario_base_costs: Option<Vec<f64>>,
}

impl SelectionInput<'_> {
    /// Verifies that `chosen` (indices into `candidates`) respects the
    /// budget and exclusivity groups. Used by tests and as a debug
    /// assertion after selection.
    pub fn is_feasible(&self, chosen: &[usize]) -> bool {
        is_feasible(
            self.candidates,
            |i| self.assessments[i].budget_weight(),
            chosen,
            self.memory_budget_bytes,
        )
    }
}

/// Whether `chosen` (indices into `candidates`) respects the exclusivity
/// groups and, by each candidate's budget weight, the budget.
pub(crate) fn is_feasible(
    candidates: &[Candidate],
    weight: impl Fn(usize) -> f64,
    chosen: &[usize],
    memory_budget_bytes: Option<i64>,
) -> bool {
    let mut groups = std::collections::HashSet::new();
    let mut bytes = 0.0f64;
    for &i in chosen {
        if i >= candidates.len() {
            return false;
        }
        if let Some(g) = candidates[i].exclusive_group {
            if !groups.insert(g) {
                return false;
            }
        }
        bytes += weight(i);
    }
    match memory_budget_bytes {
        Some(budget) => bytes <= budget as f64 + 1e-6,
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::ChunkColumnRef;
    use smdb_storage::IndexKind;

    fn assessment(candidate: usize, per_scenario: Vec<f64>, bytes: i64) -> Assessment {
        let n = per_scenario.len();
        Assessment {
            candidate,
            per_scenario,
            probabilities: vec![1.0 / n as f64; n].into(),
            confidence: 1.0,
            permanent_bytes: bytes,
            one_time_cost: Cost(1.0),
        }
    }

    fn candidate(group: Option<u64>) -> Candidate {
        Candidate::new(
            ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(0, 0, 0),
                kind: IndexKind::Hash,
            },
            group,
        )
    }

    #[test]
    fn statistics_of_assessment() {
        let a = assessment(0, vec![10.0, 2.0, 6.0], 100);
        assert!((a.expected_desirability() - 6.0).abs() < 1e-9);
        assert_eq!(a.worst_desirability(), 2.0);
        assert!(a.desirability_std() > 0.0);
        assert_eq!(a.budget_weight(), 100.0);
        // Freed memory never counts against the budget.
        assert_eq!(assessment(0, vec![1.0], -50).budget_weight(), 0.0);
    }

    #[test]
    fn feasibility_checks_budget_and_groups() {
        let candidates = vec![candidate(Some(1)), candidate(Some(1)), candidate(None)];
        let assessments = vec![
            assessment(0, vec![5.0], 60),
            assessment(1, vec![4.0], 60),
            assessment(2, vec![3.0], 60),
        ];
        let input = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: Some(130),
            scenario_base_costs: None,
        };
        assert!(input.is_feasible(&[0, 2]));
        assert!(!input.is_feasible(&[0, 1])); // same group
        assert!(!input.is_feasible(&[0, 1, 2])); // group + budget
        assert!(!input.is_feasible(&[9])); // out of range
        let unbounded = SelectionInput {
            candidates: &candidates,
            assessments: &assessments,
            memory_budget_bytes: None,
            scenario_base_costs: None,
        };
        assert!(unbounded.is_feasible(&[0, 2]));
    }
}
