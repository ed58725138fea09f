//! Branch-and-bound integer programming over simplex relaxations.

use smdb_common::{Error, Result};

use crate::model::LpModel;
use crate::simplex::{solve_lp_with_bounds, LpStatus};

/// Integrality tolerance: a value within this distance of an integer
/// counts as integral.
const INT_TOL: f64 = 1e-6;

/// Node cap of [`solve_ilp`]: generous for the models this crate builds,
/// finite for pathological ones.
const MAX_NODES: usize = 200_000;

/// Result of an ILP solve.
#[derive(Debug, Clone)]
pub struct IlpSolution {
    pub x: Vec<f64>,
    pub objective: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
}

/// Solves `model` to proven integer optimality (maximization) by
/// best-first branch-and-bound on the integer variables.
///
/// Returns `Err(Optimization)` when the model is infeasible and
/// `Err(Numeric)` if the node cap is hit before optimality is proven.
pub fn solve_ilp(model: &LpModel) -> Result<IlpSolution> {
    solve_ilp_capped(model, MAX_NODES)
}

/// Like [`solve_ilp`] with an explicit branch-and-bound node cap.
fn solve_ilp_capped(model: &LpModel, max_nodes: usize) -> Result<IlpSolution> {
    let int_vars = model.integer_vars();
    let root_lower: Vec<f64> = model.variables().iter().map(|v| v.lower).collect();
    let root_upper: Vec<f64> = model.variables().iter().map(|v| v.upper).collect();

    // Best-first: process nodes in order of their parent relaxation bound.
    let mut heap: Vec<Node> = vec![Node {
        lower: root_lower,
        upper: root_upper,
        bound: f64::INFINITY,
    }];
    let mut best: Option<IlpSolution> = None;
    let mut nodes = 0usize;

    while let Some(node) = pop_best(&mut heap) {
        // Bound-based pruning against the incumbent.
        if let Some(b) = &best {
            if node.bound <= b.objective + 1e-9 {
                continue;
            }
        }
        nodes += 1;
        if nodes > max_nodes {
            return Err(Error::Numeric(format!(
                "branch-and-bound node limit ({max_nodes}) reached"
            )));
        }

        let relax = solve_lp_with_bounds(model, &node.lower, &node.upper)?;
        match relax.status {
            LpStatus::Infeasible => continue,
            LpStatus::Unbounded => {
                return Err(Error::Optimization(
                    "ILP relaxation unbounded; add finite bounds".into(),
                ))
            }
            LpStatus::Optimal => {}
        }
        if let Some(b) = &best {
            if relax.objective <= b.objective + 1e-9 {
                continue;
            }
        }

        // Most fractional integer variable.
        let mut branch_var = None;
        let mut best_frac = INT_TOL;
        for &v in &int_vars {
            let xv = relax.x[v.0];
            let frac = (xv - xv.round()).abs();
            if frac > best_frac {
                best_frac = frac;
                branch_var = Some(v);
            }
        }

        match branch_var {
            None => {
                // Integral: round integer components exactly and accept.
                let mut x = relax.x.clone();
                for &v in &int_vars {
                    x[v.0] = x[v.0].round();
                }
                let objective = model.objective_value(&x);
                let better = best
                    .as_ref()
                    .is_none_or(|b| objective > b.objective + 1e-12);
                if better {
                    best = Some(IlpSolution {
                        x,
                        objective,
                        nodes,
                    });
                }
            }
            Some(v) => {
                let xv = relax.x[v.0];
                // Down branch: x_v <= floor.
                let mut down_upper = node.upper.clone();
                down_upper[v.0] = xv.floor();
                heap.push(Node {
                    lower: node.lower.clone(),
                    upper: down_upper,
                    bound: relax.objective,
                });
                // Up branch: x_v >= ceil.
                let mut up_lower = node.lower.clone();
                up_lower[v.0] = xv.ceil();
                heap.push(Node {
                    lower: up_lower,
                    upper: node.upper,
                    bound: relax.objective,
                });
            }
        }
    }

    match best {
        Some(mut sol) => {
            sol.nodes = nodes;
            Ok(sol)
        }
        None => Err(Error::Optimization("ILP infeasible".into())),
    }
}

/// One open branch-and-bound node: a box of variable bounds plus the
/// parent relaxation's objective (an upper bound on anything inside).
#[derive(Debug)]
struct Node {
    lower: Vec<f64>,
    upper: Vec<f64>,
    bound: f64,
}

fn pop_best(heap: &mut Vec<Node>) -> Option<Node> {
    if heap.is_empty() {
        return None;
    }
    let mut best_i = 0;
    for i in 1..heap.len() {
        if heap[i].bound > heap[best_i].bound {
            best_i = i;
        }
    }
    Some(heap.swap_remove(best_i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp::*, VarKind::*};

    #[test]
    fn integer_knapsack_via_ilp() {
        // max 8a + 11b + 6c + 4d s.t. 5a + 7b + 4c + 3d <= 14, binaries.
        // Optimum: a + b + d? 8+11+4=23 weight 15 > 14. a+b=19 w12; b+c+d=21 w14 ✓
        let mut m = LpModel::new();
        let a = m.add_binary("a", 8.0);
        let b = m.add_binary("b", 11.0);
        let c = m.add_binary("c", 6.0);
        let d = m.add_binary("d", 4.0);
        m.add_constraint("w", vec![(a, 5.0), (b, 7.0), (c, 4.0), (d, 3.0)], Le, 14.0)
            .unwrap();
        let s = solve_ilp(&m).unwrap();
        assert!((s.objective - 21.0).abs() < 1e-6);
        assert_eq!(s.x[0].round() as i64, 0);
        assert_eq!(s.x[1].round() as i64, 1);
        assert_eq!(s.x[2].round() as i64, 1);
        assert_eq!(s.x[3].round() as i64, 1);
    }

    #[test]
    fn mixed_integer() {
        // max x + y, x integer in [0,10], y continuous in [0, 10],
        // x + 2y <= 7.5, 2x + y <= 9 → try x=3: y <= 2.25, y <= 3 → 5.25.
        // x=4: y<=1.75, y<=1 → 5.0. x=2: y<=2.75 → 4.75. So 5.25 at x=3.
        let mut m = LpModel::new();
        let x = m.add_var("x", 0.0, 10.0, 1.0, Integer).unwrap();
        let y = m.add_var("y", 0.0, 10.0, 1.0, Continuous).unwrap();
        m.add_constraint("a", vec![(x, 1.0), (y, 2.0)], Le, 7.5)
            .unwrap();
        m.add_constraint("b", vec![(x, 2.0), (y, 1.0)], Le, 9.0)
            .unwrap();
        let s = solve_ilp(&m).unwrap();
        assert!((s.objective - 5.25).abs() < 1e-6, "got {}", s.objective);
        assert!((s.x[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_ilp_errors() {
        let mut m = LpModel::new();
        let x = m.add_binary("x", 1.0);
        m.add_constraint("c", vec![(x, 1.0)], Ge, 2.0).unwrap();
        assert!(solve_ilp(&m).is_err());
    }

    #[test]
    fn equality_constrained_assignment() {
        // 2x2 assignment: maximize 5x00 + 1x01 + 2x10 + 4x11 with row/col
        // sums = 1 → diagonal, objective 9.
        let mut m = LpModel::new();
        let x00 = m.add_binary("x00", 5.0);
        let x01 = m.add_binary("x01", 1.0);
        let x10 = m.add_binary("x10", 2.0);
        let x11 = m.add_binary("x11", 4.0);
        m.add_constraint("r0", vec![(x00, 1.0), (x01, 1.0)], Eq, 1.0)
            .unwrap();
        m.add_constraint("r1", vec![(x10, 1.0), (x11, 1.0)], Eq, 1.0)
            .unwrap();
        m.add_constraint("c0", vec![(x00, 1.0), (x10, 1.0)], Eq, 1.0)
            .unwrap();
        m.add_constraint("c1", vec![(x01, 1.0), (x11, 1.0)], Eq, 1.0)
            .unwrap();
        let s = solve_ilp(&m).unwrap();
        assert!((s.objective - 9.0).abs() < 1e-6);
    }

    #[test]
    fn node_limit_respected() {
        let mut m = LpModel::new();
        // A problem that needs at least a couple of nodes.
        let vars: Vec<_> = (0..6)
            .map(|i| m.add_binary(format!("x{i}"), 1.0 + i as f64 * 0.3))
            .collect();
        let coeffs: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, 2.0 + i as f64))
            .collect();
        m.add_constraint("w", coeffs, Le, 11.0).unwrap();
        // The root relaxation is fractional, so one node cannot prove
        // optimality.
        assert!(solve_ilp_capped(&m, 1).is_err());
        let s = solve_ilp(&m).unwrap();
        assert!(s.nodes > 1);
        assert!(m.is_feasible(&s.x, 1e-6));
    }
}
