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

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

use smdb_common::Result;
use smdb_cost::cache::KeyHasher;

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
            .enumerate()
            .map(|(i, a)| (i, score(a), a.budget_weight())),
        input.memory_budget_bytes,
    )
}

/// [`greedy_by_score`] over `(candidate, score, budget weight)` triples
/// — the tuner's selection. A candidate left out is never chosen, like
/// one whose score is not positive.
pub(crate) fn greedy_over(
    candidates: &[Candidate],
    scored: impl Iterator<Item = (usize, f64, f64)>,
    memory_budget_bytes: Option<i64>,
) -> Vec<usize> {
    // Each candidate's rank as integers: ratio and score descending in
    // `f64::total_cmp` order (their total-order keys, reversed), then
    // the candidate index — a total order, so the unstable sort ranks
    // exactly as a stable sort by `total_cmp` would, in integer
    // compares.
    let desc = |x: f64| Reverse(total_order_key(x));
    let mut ranked: Vec<((Reverse<i64>, Reverse<i64>, usize), f64)> = scored
        .filter(|&(_, s, _)| s > 0.0)
        .map(|(i, s, weight)| {
            // Ratio for budgeted problems; plain score when free.
            let ratio = if weight > 0.0 {
                s / weight
            } else {
                f64::INFINITY
            };
            ((desc(ratio), desc(s), i), weight)
        })
        .collect();
    ranked.sort_unstable_by_key(|&(rank, _)| rank);

    // The exclusive groups a chosen candidate took: only ever asked
    // whether it holds a group, never iterated. The ids are hashes
    // already (`enumerator::group_of`), so each is its own bucket key.
    // Sized for every ranked candidate, so a pass that takes most of
    // them never rehashes.
    let mut taken: HashSet<u64, BuildHasherDefault<KeyHasher>> =
        HashSet::with_capacity_and_hasher(ranked.len(), Default::default());
    let mut chosen = Vec::with_capacity(ranked.len());
    let mut used_bytes = 0.0f64;
    let budget = memory_budget_bytes.map(|b| b as f64);
    for ((.., i), w) in ranked {
        let group = candidates[i].exclusive_group;
        if group.is_some_and(|g| taken.contains(&g)) {
            continue;
        }
        if let Some(b) = budget {
            if used_bytes + w > b + 1e-6 {
                continue;
            }
        }
        taken.extend(group);
        used_bytes += w;
        chosen.push(i);
    }
    chosen
}

/// Relative slack by which a group's chosen candidate must out-save each
/// other member per byte, on every query, in [`weight_free`]. A score is
/// a sum of non-negative products over the pass's rows, so its float
/// error is below `(rows + scenarios + 3) · ε` relative; this slack
/// covers that for up to ~2 million rows, and the certificate checks the
/// row count.
pub(crate) const DOMINANCE_SLACK: f64 = 1e-9;

/// What a [`weight_free`] choice holds under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Gains {
    /// The smallest positive saving of a candidate greedy can choose:
    /// a distinct query gains when some row of it weighs this above 0.
    pub least: f64,
    /// The largest saving, bounding every score.
    pub most: f64,
    /// The chosen candidates' budget weights, summed exactly.
    pub chosen_bytes: i64,
}

/// Whether `chosen` — [`greedy_over`]'s choice from `open`, in candidate
/// order — is its choice under *every* re-weighting of the pass's
/// distinct queries that leaves each of them gaining (see [`Gains`]) and
/// a budget of at least the chosen bytes, proven from each candidate's
/// `savings` (`(distinct query, saving)` pairs):
///
/// * every candidate of `open` that saves on some query saves ≥ 0 on
///   every one, so it scores above 0 under such weights, and any other
///   scores at most 0;
/// * every such candidate left out shares its exclusive group with a
///   chosen one — greedy skipped nothing for bytes;
/// * which out-saves it per byte on every query by [`DOMINANCE_SLACK`],
///   so it ranks first in its group under every such weighting.
///
/// Greedy then takes exactly `chosen`, in some order, and no partial sum
/// of its integer byte weights exceeds the budget.
pub(crate) fn weight_free<'s>(
    candidates: &[Candidate],
    open: &[(usize, f64, f64)],
    savings: impl Fn(usize) -> Option<&'s [(usize, f64)]>,
    chosen: &[usize],
) -> Option<Gains> {
    let weight = |i: usize| {
        let at = open.binary_search_by_key(&i, |s| s.0).ok()?;
        Some(open[at].2)
    };
    let mut taken: HashMap<u64, (usize, f64), BuildHasherDefault<KeyHasher>> = HashMap::default();
    let mut chosen_bytes = 0i64;
    for &i in chosen {
        let w = weight(i)?;
        chosen_bytes = chosen_bytes.checked_add(w as i64)?;
        taken.extend(candidates[i].exclusive_group.map(|g| (g, (i, w))));
    }
    let mut sorted = chosen.to_vec();
    sorted.sort_unstable();
    let (mut least, mut most) = (f64::INFINITY, 0.0f64);
    for &(i, _, w) in open {
        let saved = savings(i)?;
        let gains = saved.iter().any(|&(_, s)| s > 0.0);
        let is_chosen = sorted.binary_search(&i).is_ok();
        if !gains {
            // Scores at most 0 (or NaN) under non-negative weights.
            if is_chosen {
                return None;
            }
            continue;
        }
        for &(_, s) in saved {
            if s.is_nan() || s < 0.0 {
                return None;
            }
            if s > 0.0 {
                least = least.min(s);
                most = most.max(s);
            }
        }
        if is_chosen {
            continue;
        }
        let group = candidates[i].exclusive_group?;
        let &(winner, winner_bytes) = taken.get(&group)?;
        if !dominates(savings(winner)?, winner_bytes, saved, w) {
            return None;
        }
    }
    Some(Gains {
        // Nothing gains: any positive weight then keeps it so.
        least: if least.is_finite() { least } else { 1.0 },
        most,
        chosen_bytes,
    })
}

/// Whether a candidate saving `win` at budget weight `win_bytes` ranks
/// ahead of one saving `other` at `other_bytes` in [`greedy_over`]'s
/// order under every non-negative weighting where both score above 0:
/// a free candidate's ratio is infinite, so it leads any paid one;
/// otherwise its saving per byte (plain saving, when both are free)
/// must exceed the other's on every query the other saves on.
fn dominates(
    win: &[(usize, f64)],
    win_bytes: f64,
    other: &[(usize, f64)],
    other_bytes: f64,
) -> bool {
    let (win_scale, other_scale) = match (win_bytes > 0.0, other_bytes > 0.0) {
        (false, true) => return true,
        (true, false) => return false,
        (true, true) => (other_bytes, win_bytes),
        (false, false) => (1.0, 1.0),
    };
    let mut at = 0;
    other.iter().filter(|&&(_, s)| s > 0.0).all(|&(q, s)| {
        while win.get(at).is_some_and(|&(wq, _)| wq < q) {
            at += 1;
        }
        let w = win
            .get(at)
            .filter(|&&(wq, _)| wq == q)
            .map_or(0.0, |&(_, w)| w);
        w * win_scale >= (1.0 + DOMINANCE_SLACK) * s * other_scale
    })
}

/// The integer whose order is `f64::total_cmp`'s: the sign-magnitude
/// bits folded to two's complement, as `total_cmp` itself does.
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
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

    /// The selection by a stable `total_cmp` sort and a SipHash set of
    /// taken groups.
    fn greedy_with_hash_set(
        candidates: &[Candidate],
        scored: &[(usize, f64, f64)],
        memory_budget_bytes: Option<i64>,
    ) -> Vec<usize> {
        let mut ranked: Vec<(usize, f64, f64, f64)> = scored
            .iter()
            .filter(|&&(_, s, _)| s > 0.0)
            .map(|&(i, s, w)| (i, s, if w > 0.0 { s / w } else { f64::INFINITY }, w))
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

    #[test]
    fn total_order_key_orders_as_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1.5,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                let want = a.total_cmp(&b);
                assert_eq!(total_order_key(a).cmp(&total_order_key(b)), want, "{a} {b}");
            }
        }
    }

    /// The integer-keyed ranking and the pass-through group set choose
    /// what the reference chose, over
    /// random lists with tied scores and ratios, free and costly
    /// candidates, few groups shared by many candidates (including
    /// `u64::MAX`), binding and slack budgets, and candidates left out.
    #[test]
    fn group_table_matches_the_hash_set() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for case in 0..2_000 {
            let n = rng.random_range(0..24);
            let spec: Vec<(f64, i64, Option<u64>)> = (0..n)
                .map(|_| {
                    let score = [
                        -1.0,
                        0.0,
                        -0.0,
                        1.0,
                        2.0,
                        4.0,
                        f64::INFINITY,
                        f64::NAN,
                        5e-324,
                    ][rng.random_range(0..9)];
                    let bytes = [-10, 0, 10, 20, 40][rng.random_range(0..5)];
                    let group = match rng.random_range(0..5) {
                        0 => None,
                        1 => Some(u64::MAX),
                        _ => Some(rng.random_range(0..4) * 1_000_003),
                    };
                    (score, bytes, group)
                })
                .collect();
            let (candidates, assessments) = fixture(&spec);
            let scored: Vec<(usize, f64, f64)> = assessments
                .iter()
                .enumerate()
                .filter(|_| rng.random_range(0..8) > 0)
                .map(|(i, a)| (i, a.expected_desirability(), a.budget_weight()))
                .collect();
            let budget = [None, Some(0), Some(25), Some(60)][rng.random_range(0..4)];
            let got = greedy_over(&candidates, scored.iter().copied(), budget);
            let want = greedy_with_hash_set(&candidates, &scored, budget);
            assert_eq!(got, want, "case {case}: {spec:?} {budget:?}");
        }
    }
}
