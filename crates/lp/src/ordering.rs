//! The paper's feature-order optimization (Section III-B).
//!
//! Given the set of features `S`, dependence ratios
//! `d_{A,B} = W_{B,A} / W_{A,B}` and impact weights `W∅ / W_{A,B}`, the
//! paper chooses the tuning order with the integer LP below:
//!
//! ```text
//! maximize   Σ_{A,B∈S, A≠B}  y_{A,B} · d_{A,B} · W∅/W_{A,B}
//! subject to Σ_k x_{A,k} = 1                      (A ∈ S)
//!            Σ_A x_{A,k} = 1                      (k = 1..|S|)
//!            y_{A,B} + y_{B,A} = 1                (A ∈ S, B ∈ S\{A})
//!            |S|·y_{A,B} ≥ Σ_k k·x_{B,k} − Σ_k k·x_{A,k}
//! ```
//!
//! `x_{A,k} = 1` iff feature `A` is tuned in step `k`; `y_{A,B} = 1` iff
//! `A` is tuned before `B`. The builder reproduces the paper's model
//! *verbatim*, including the duplicated coupling rows over ordered pairs,
//! so the model has exactly `2|S|² − |S|` variables and `2|S|²`
//! constraints — experiment E4 checks these counts against the formulas.
//!
//! [`OrderingProblem::solve`] maximizes the same objective by exact
//! permutation search: at the system's four features that is 24 orders
//! and microseconds, where branch-and-bound over the model takes
//! milliseconds. The model is kept as the audited reference
//! ([`crate::audit::solve_reference`]).

#![allow(clippy::needless_range_loop)] // dense matrix index arithmetic reads clearest with explicit indices

use smdb_common::{Error, Result};

use crate::model::{ConstraintOp, LpModel, VarId};

/// Largest `|S|` the exhaustive search accepts (`10!` ≈ 3.6 M orders).
const MAX_FEATURES: usize = 10;

/// Orders whose objectives differ by at most this much are tied; the
/// lexicographically smallest of them wins.
pub const TIE_TOLERANCE: f64 = 1e-9;

/// Inputs of the ordering problem for `n` features.
///
/// ```
/// use smdb_lp::ordering::OrderingProblem;
/// // Feature 0 strongly prefers running before feature 1.
/// let d = vec![vec![1.0, 4.0], vec![0.25, 1.0]];
/// let w = vec![vec![1.0; 2]; 2];
/// let problem = OrderingProblem::new(d, w).unwrap();
/// let solution = problem.solve().unwrap();
/// assert_eq!(solution.order, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct OrderingProblem {
    /// `d[a][b]` = dependence ratio `d_{A,B}` (diagonal ignored).
    pub dependence: Vec<Vec<f64>>,
    /// `impact[a][b]` = `W∅ / W_{A,B}` (diagonal ignored).
    pub impact: Vec<Vec<f64>>,
}

/// A solved ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderingSolution {
    /// `order[k]` = feature tuned in step `k`.
    pub order: Vec<usize>,
    /// Objective value achieved.
    pub objective: f64,
    /// Search effort: the `|S|!` permutations [`OrderingProblem::solve`]
    /// evaluates, or the ILP reference's branch-and-bound nodes.
    pub nodes: usize,
}

impl OrderingProblem {
    /// Creates a problem after validating matrix shapes.
    pub fn new(dependence: Vec<Vec<f64>>, impact: Vec<Vec<f64>>) -> Result<Self> {
        let n = dependence.len();
        if n == 0 {
            return Err(Error::invalid("at least one feature required"));
        }
        if dependence.iter().any(|r| r.len() != n)
            || impact.len() != n
            || impact.iter().any(|r| r.len() != n)
        {
            return Err(Error::invalid("dependence/impact must be square n×n"));
        }
        Ok(OrderingProblem { dependence, impact })
    }

    /// Number of features `|S|`.
    pub fn num_features(&self) -> usize {
        self.dependence.len()
    }

    /// The pair weight `c_{A,B} = d_{A,B} · W∅/W_{A,B}` of the objective.
    pub fn pair_weight(&self, a: usize, b: usize) -> f64 {
        self.dependence[a][b] * self.impact[a][b]
    }

    /// Objective value of a concrete order (sum of `c_{A,B}` over pairs
    /// where `A` precedes `B`).
    pub fn order_objective(&self, order: &[usize]) -> f64 {
        let mut total = 0.0;
        for i in 0..order.len() {
            for j in (i + 1)..order.len() {
                total += self.pair_weight(order[i], order[j]);
            }
        }
        total
    }

    /// Builds the paper's integer LP. Errors only on internal
    /// inconsistency (a constraint referencing a variable that was never
    /// created), which would mean the builder itself drifted from the
    /// formulation.
    pub fn build_model(&self) -> Result<LpModel> {
        let n = self.num_features();
        let mut m = LpModel::new();

        // x_{A,k}: n² binaries, objective 0.
        let mut x = vec![vec![VarId(0); n]; n];
        for (a, row) in x.iter_mut().enumerate() {
            for (k, slot) in row.iter_mut().enumerate() {
                *slot = m.add_binary(format!("x_{a}_{k}"), 0.0);
            }
        }
        // y_{A,B}: n² − n binaries with objective c_{A,B}.
        let mut y = vec![vec![None::<VarId>; n]; n];
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    y[a][b] = Some(m.add_binary(format!("y_{a}_{b}"), self.pair_weight(a, b)));
                }
            }
        }

        // Each feature in exactly one step.
        for (a, row) in x.iter().enumerate() {
            let coeffs = row.iter().map(|&v| (v, 1.0)).collect();
            m.add_constraint(format!("feat_{a}"), coeffs, ConstraintOp::Eq, 1.0)?;
        }
        // Each step hosts exactly one feature.
        for k in 0..n {
            let coeffs = (0..n).map(|a| (x[a][k], 1.0)).collect();
            m.add_constraint(format!("step_{k}"), coeffs, ConstraintOp::Eq, 1.0)?;
        }
        // Coupling, built over *ordered* pairs exactly as the paper
        // counts them (each unordered pair appears twice).
        let yvar = |a: usize, b: usize| -> Result<VarId> {
            y[a][b].ok_or_else(|| Error::invalid("ordering model lost an off-diagonal y"))
        };
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let yab = yvar(a, b)?;
                let yba = yvar(b, a)?;
                m.add_constraint(
                    format!("sym_{a}_{b}"),
                    vec![(yab, 1.0), (yba, 1.0)],
                    ConstraintOp::Eq,
                    1.0,
                )?;
                // n·y_{A,B} − Σ_k k·x_{B,k} + Σ_k k·x_{A,k} ≥ 0, k = 1..n.
                let mut coeffs = vec![(yab, n as f64)];
                for k in 0..n {
                    coeffs.push((x[b][k], -((k + 1) as f64)));
                    coeffs.push((x[a][k], (k + 1) as f64));
                }
                m.add_constraint(format!("prec_{a}_{b}"), coeffs, ConstraintOp::Ge, 0.0)?;
            }
        }
        Ok(m)
    }

    /// Encodes a permutation as a feasible assignment of the model's
    /// variables (x block row-major, then y block in (a, b) order).
    pub fn encode_order(&self, order: &[usize]) -> Vec<f64> {
        let n = self.num_features();
        let mut pos = vec![0usize; n];
        for (k, &a) in order.iter().enumerate() {
            pos[a] = k;
        }
        let mut x = vec![0.0; n * n];
        for a in 0..n {
            x[a * n + pos[a]] = 1.0;
        }
        let mut full = x;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    full.push(if pos[a] < pos[b] { 1.0 } else { 0.0 });
                }
            }
        }
        full
    }

    /// The objective-maximal order, found by evaluating all `|S|!`
    /// permutations; among orders within [`TIE_TOLERANCE`] of the
    /// optimum the lexicographically smallest wins, so features with no
    /// measured dependence keep their registration order. Refuses
    /// `|S| > 10`.
    pub fn solve(&self) -> Result<OrderingSolution> {
        let n = self.num_features();
        let _span = smdb_obs::span!("lp", "ordering_solve", { features: n });
        smdb_obs::metrics::counter("lp.ordering_solves").inc();
        if n > MAX_FEATURES {
            return Err(Error::invalid(format!(
                "exhaustive search over {n}! permutations refused (n > {MAX_FEATURES})"
            )));
        }
        let mut perm: Vec<usize> = (0..n).collect();
        let mut best = f64::NEG_INFINITY;
        let mut nodes = 0usize;
        loop {
            best = best.max(self.order_objective(&perm));
            nodes += 1;
            if !next_permutation(&mut perm) {
                break;
            }
        }
        // Second walk: the first order (lexicographically) that ties the
        // optimum. It stops at the latest on the optimum itself.
        let mut order: Vec<usize> = (0..n).collect();
        let mut objective = self.order_objective(&order);
        while objective < best - TIE_TOLERANCE && next_permutation(&mut order) {
            objective = self.order_objective(&order);
        }
        smdb_obs::metrics::gauge("lp.ordering_objective").set(objective);
        smdb_obs::metrics::observe("lp.ordering_nodes", nodes as f64);
        Ok(OrderingSolution {
            order,
            objective,
            nodes,
        })
    }

    /// The paper's variable-count formula `2|S|² − |S|`.
    pub fn paper_variable_count(n: usize) -> usize {
        2 * n * n - n
    }

    /// The paper's constraint-count formula `2|S|²`.
    pub fn paper_constraint_count(n: usize) -> usize {
        2 * n * n
    }
}

/// Advances `perm` to its lexicographic successor in place; returns
/// `false` (leaving `perm` unchanged) when it is already the last
/// permutation. Starting from `0..n` this visits all `n!` orders.
fn next_permutation(perm: &mut [usize]) -> bool {
    let Some(i) = (1..perm.len()).rev().find(|&i| perm[i - 1] < perm[i]) else {
        return false;
    };
    let pivot = i - 1;
    // `perm[i]` exceeds the pivot, so the search always finds some `j`.
    let j = (i..perm.len())
        .rev()
        .find(|&j| perm[j] > perm[pivot])
        .unwrap_or(i);
    perm.swap(pivot, j);
    perm[i..].reverse();
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_impact(n: usize) -> Vec<Vec<f64>> {
        vec![vec![1.0; n]; n]
    }

    #[test]
    fn model_sizes_match_paper_formulas() {
        for n in 2..=6 {
            let p = OrderingProblem::new(vec![vec![1.0; n]; n], uniform_impact(n)).unwrap();
            let m = p.build_model().expect("model builds");
            assert_eq!(
                m.num_vars(),
                OrderingProblem::paper_variable_count(n),
                "vars at n={n}"
            );
            assert_eq!(
                m.num_constraints(),
                OrderingProblem::paper_constraint_count(n),
                "constraints at n={n}"
            );
        }
    }

    #[test]
    fn next_permutation_walks_all_orders_lexicographically() {
        let mut perm = vec![0, 1, 2];
        let mut seen = vec![perm.clone()];
        while next_permutation(&mut perm) {
            seen.push(perm.clone());
        }
        assert_eq!(
            seen,
            vec![
                vec![0, 1, 2],
                vec![0, 2, 1],
                vec![1, 0, 2],
                vec![1, 2, 0],
                vec![2, 0, 1],
                vec![2, 1, 0],
            ]
        );
        assert_eq!(perm, vec![2, 1, 0], "the last order is left in place");
        assert!(!next_permutation(&mut []));
    }

    #[test]
    fn strong_pairwise_preference_is_respected() {
        // d_{0,1} >> 1 means tuning 0 before 1 is much better.
        let mut d = vec![vec![1.0; 2]; 2];
        d[0][1] = 3.0;
        d[1][0] = 1.0 / 3.0;
        let p = OrderingProblem::new(d, uniform_impact(2)).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.order, vec![0, 1]);
        assert!((s.objective - 3.0).abs() < 1e-6);
        assert_eq!(s.nodes, 2);
    }

    #[test]
    fn three_feature_chain() {
        // Prefer 2 before 0 before 1.
        let n = 3;
        let mut d = vec![vec![1.0; n]; n];
        d[2][0] = 2.0;
        d[0][2] = 0.5;
        d[0][1] = 2.0;
        d[1][0] = 0.5;
        d[2][1] = 2.0;
        d[1][2] = 0.5;
        let p = OrderingProblem::new(d, uniform_impact(n)).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.order, vec![2, 0, 1]);
        assert_eq!(s.nodes, 6);
    }

    #[test]
    fn solution_is_a_permutation_and_matches_order_objective() {
        let n = 4;
        // Deterministic pseudo-random-ish asymmetric matrix.
        let mut d = vec![vec![1.0; n]; n];
        let mut w = vec![vec![1.0; n]; n];
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    d[a][b] = 0.5 + ((a * 7 + b * 13) % 10) as f64 / 5.0;
                    w[a][b] = 1.0 + ((a * 3 + b * 5) % 7) as f64 / 3.0;
                }
            }
        }
        let p = OrderingProblem::new(d, w).unwrap();
        let s = p.solve().unwrap();
        let mut seen = s.order.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert!((p.order_objective(&s.order) - s.objective).abs() < 1e-12);
        assert_eq!(s.nodes, 24);
    }

    #[test]
    fn single_feature_trivial() {
        let p = OrderingProblem::new(vec![vec![1.0]], vec![vec![1.0]]).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.order, vec![0]);
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn refuses_oversized_instances() {
        let n = MAX_FEATURES + 1;
        let p = OrderingProblem::new(vec![vec![1.0; n]; n], uniform_impact(n)).unwrap();
        assert!(p.solve().is_err());
    }

    #[test]
    fn shape_validation() {
        assert!(OrderingProblem::new(vec![], vec![]).is_err());
        assert!(OrderingProblem::new(vec![vec![1.0, 2.0]], vec![vec![1.0]]).is_err());
    }

    /// Section III-B: "a consistent order satisfying all preferred
    /// pairwise relations cannot be assumed to exist." Cyclic preferences
    /// (A before B, B before C, C before A) admit no order satisfying all
    /// three; the search must still return the best compromise.
    #[test]
    fn cyclic_preferences_still_solve_to_best_compromise() {
        let n = 3;
        let mut d = vec![vec![1.0; n]; n];
        // A<B, B<C, C<A preferences with differing strengths.
        d[0][1] = 3.0;
        d[1][0] = 1.0 / 3.0;
        d[1][2] = 2.0;
        d[2][1] = 0.5;
        d[2][0] = 1.5;
        d[0][2] = 1.0 / 1.5;
        let p = OrderingProblem::new(d, uniform_impact(n)).unwrap();
        let s = p.solve().unwrap();
        // The strongest relation (A before B, weight 3) must be honoured;
        // the weakest (C before A, 1.5) is the one sacrificed.
        assert_eq!(s.order, vec![0, 1, 2]);
        assert!((s.objective - (3.0 + 2.0 + 1.0 / 1.5)).abs() < 1e-12);
    }

    /// With all-equal weights every permutation is optimal, and the tie
    /// goes to registration order with the objective `n(n-1)/2 · c`.
    #[test]
    fn all_equal_weights_keep_registration_order() {
        for n in 1..=6 {
            let p = OrderingProblem::new(vec![vec![1.0; n]; n], vec![vec![2.0; n]; n]).unwrap();
            let s = p.solve().unwrap();
            assert_eq!(s.order, (0..n).collect::<Vec<_>>(), "n={n}");
            assert!((s.objective - (n * (n - 1)) as f64).abs() < 1e-12);
        }
    }
}
