//! Structural audit of the ordering ILP against the paper's formulas.
//!
//! Section III-B gives exact model sizes — `2|S|² − |S|` variables and
//! `2|S|²` constraints — and four constraint families: per-feature and
//! per-step assignment rows, symmetry rows `y_{A,B} + y_{B,A} = 1`, and
//! precedence-coupling rows with the `|S|` big-M coefficient on `y`.
//! This module rebuilds the model for a given `|S|` and checks every one
//! of those properties, returning a structured report that `smdb-lint
//! --audit-lp` renders and a tier-1 test pins.
//!
//! It also holds the one solve of the verbatim model,
//! [`solve_reference`]: production orders features by exact
//! permutation search ([`OrderingProblem::solve`]), and tests, experiment
//! E4 and the `lp_ordering` bench check that search against the ILP.

use smdb_common::{Error, Result};

use crate::branch_bound::solve_ilp;
use crate::model::{ConstraintOp, VarKind};
use crate::ordering::{OrderingProblem, OrderingSolution};

/// Solves the paper's ordering ILP by branch-and-bound and decodes the
/// order from `x_{A,k}`; `nodes` counts branch-and-bound nodes.
pub fn solve_reference(problem: &OrderingProblem) -> Result<OrderingSolution> {
    let n = problem.num_features();
    let sol = solve_ilp(&problem.build_model()?)?;
    // x_{A,k} are variables 0..n² in row-major order.
    let mut order = vec![usize::MAX; n];
    for (a, row) in sol.x.chunks(n).take(n).enumerate() {
        for (k, &v) in row.iter().enumerate() {
            if v.round() as i64 == 1 {
                order[k] = a;
            }
        }
    }
    if order.contains(&usize::MAX) {
        return Err(Error::Optimization(
            "ordering ILP produced no valid permutation".into(),
        ));
    }
    Ok(OrderingSolution {
        order,
        objective: sol.objective,
        nodes: sol.nodes,
    })
}

/// One verified property of the model.
#[derive(Debug, Clone)]
pub struct AuditCheck {
    /// What was checked, e.g. `"variables = 2n^2 - n"`.
    pub name: String,
    /// The value the paper's formulation demands.
    pub expected: String,
    /// The value the built model actually has.
    pub actual: String,
    pub passed: bool,
}

impl AuditCheck {
    fn counts(name: impl Into<String>, expected: usize, actual: usize) -> Self {
        AuditCheck {
            name: name.into(),
            expected: expected.to_string(),
            actual: actual.to_string(),
            passed: expected == actual,
        }
    }

    fn flag(name: impl Into<String>, expected: impl Into<String>, ok: bool) -> Self {
        let expected = expected.into();
        AuditCheck {
            name: name.into(),
            actual: if ok {
                expected.clone()
            } else {
                "violated".to_owned()
            },
            expected,
            passed: ok,
        }
    }
}

/// The full audit of one model instance.
#[derive(Debug, Clone)]
pub struct ModelAudit {
    /// `|S|` — number of features.
    pub n: usize,
    pub checks: Vec<AuditCheck>,
}

impl ModelAudit {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The failed checks, if any.
    pub fn failures(&self) -> Vec<&AuditCheck> {
        self.checks.iter().filter(|c| !c.passed).collect()
    }
}

/// A deterministic, asymmetric problem instance used for auditing —
/// varied pair weights make the objective-wiring check meaningful.
pub fn audit_instance(n: usize) -> Result<OrderingProblem> {
    if n == 0 {
        return Err(Error::invalid("audit requires at least one feature"));
    }
    let mut dependence = vec![vec![1.0; n]; n];
    let mut impact = vec![vec![1.0; n]; n];
    for (a, row) in dependence.iter_mut().enumerate() {
        for (b, d) in row.iter_mut().enumerate() {
            if a != b {
                *d = 0.5 + ((a * 7 + b * 3) % 5) as f64 / 4.0;
            }
        }
    }
    for (a, row) in impact.iter_mut().enumerate() {
        for (b, w) in row.iter_mut().enumerate() {
            if a != b {
                *w = 1.0 + ((a * 11 + b * 5) % 3) as f64 / 2.0;
            }
        }
    }
    OrderingProblem::new(dependence, impact)
}

/// Builds the ordering model for `n` features and audits its structure.
pub fn audit_ordering_model(n: usize) -> Result<ModelAudit> {
    let problem = audit_instance(n)?;
    let model = problem.build_model()?;
    let mut checks = Vec::new();

    // Paper size formulas.
    checks.push(AuditCheck::counts(
        "variables = 2n^2 - n",
        OrderingProblem::paper_variable_count(n),
        model.num_vars(),
    ));
    checks.push(AuditCheck::counts(
        "constraints = 2n^2",
        OrderingProblem::paper_constraint_count(n),
        model.num_constraints(),
    ));

    // Variable block structure: n² x-vars (objective 0) followed by
    // n² − n y-vars carrying the pair weights; everything binary.
    let all_binary = model
        .variables()
        .iter()
        .all(|v| v.kind == VarKind::Integer && exact(v.lower, 0.0) && exact(v.upper, 1.0));
    checks.push(AuditCheck::flag(
        "all variables binary in [0, 1]",
        "binary",
        all_binary,
    ));
    let x_vars = model
        .variables()
        .iter()
        .filter(|v| v.name.starts_with("x_"))
        .count();
    let y_vars = model
        .variables()
        .iter()
        .filter(|v| v.name.starts_with("y_"))
        .count();
    checks.push(AuditCheck::counts("x_{A,k} variables = n^2", n * n, x_vars));
    checks.push(AuditCheck::counts(
        "y_{A,B} variables = n^2 - n",
        n * n - n,
        y_vars,
    ));
    let x_objectives_zero = model
        .variables()
        .iter()
        .filter(|v| v.name.starts_with("x_"))
        .all(|v| exact(v.objective, 0.0));
    checks.push(AuditCheck::flag(
        "x variables carry no objective weight",
        "objective 0",
        x_objectives_zero,
    ));
    let y_objectives_wired = model
        .variables()
        .iter()
        .filter(|v| v.name.starts_with("y_"))
        .all(|v| match parse_pair(&v.name) {
            Some((a, b)) => exact(v.objective, problem.pair_weight(a, b)),
            None => false,
        });
    checks.push(AuditCheck::flag(
        "y_{A,B} objective = d_{A,B} * Winf/W_{A,B}",
        "pair weights",
        y_objectives_wired,
    ));

    // Constraint families.
    let feat: Vec<_> = family(&model, "feat_");
    let step: Vec<_> = family(&model, "step_");
    let sym: Vec<_> = family(&model, "sym_");
    let prec: Vec<_> = family(&model, "prec_");
    checks.push(AuditCheck::counts(
        "feature-assignment rows = n",
        n,
        feat.len(),
    ));
    checks.push(AuditCheck::counts(
        "step-assignment rows = n",
        n,
        step.len(),
    ));
    checks.push(AuditCheck::counts(
        "symmetry rows y_{A,B}+y_{B,A}=1 = n^2 - n",
        n * n - n,
        sym.len(),
    ));
    checks.push(AuditCheck::counts(
        "precedence-coupling rows = n^2 - n",
        n * n - n,
        prec.len(),
    ));
    checks.push(AuditCheck::flag(
        "assignment rows are Eq with rhs 1 and n unit coefficients",
        "sum = 1",
        feat.iter().chain(step.iter()).all(|c| {
            c.op == ConstraintOp::Eq
                && exact(c.rhs, 1.0)
                && c.coeffs.len() == n
                && c.coeffs.iter().all(|&(_, a)| exact(a, 1.0))
        }),
    ));
    checks.push(AuditCheck::flag(
        "symmetry rows pair two unit coefficients, Eq 1",
        "y + y' = 1",
        sym.iter().all(|c| {
            c.op == ConstraintOp::Eq
                && exact(c.rhs, 1.0)
                && c.coeffs.len() == 2
                && c.coeffs.iter().all(|&(_, a)| exact(a, 1.0))
        }),
    ));
    checks.push(AuditCheck::flag(
        "coupling rows are Ge 0 with |S| coefficient on y",
        "n*y >= step gap",
        prec.iter().all(|c| {
            c.op == ConstraintOp::Ge
                && exact(c.rhs, 0.0)
                && c.coeffs.len() == 1 + 2 * n
                && c.coeffs
                    .first()
                    .is_some_and(|&(v, a)| exact(a, n as f64) && v.0 >= n * n)
        }),
    ));

    // End-to-end sanity: any permutation encodes to a feasible point.
    let order: Vec<usize> = (0..n).collect();
    let feasible = model.is_feasible(&problem.encode_order(&order), 1e-9);
    checks.push(AuditCheck::flag(
        "identity permutation encodes feasibly",
        "feasible",
        feasible,
    ));

    Ok(ModelAudit { n, checks })
}

/// Audits the model across a range of sizes; returns the per-size reports.
pub fn audit_range(lo: usize, hi: usize) -> Result<Vec<ModelAudit>> {
    (lo..=hi).map(audit_ordering_model).collect()
}

fn family<'m>(model: &'m crate::model::LpModel, prefix: &str) -> Vec<&'m crate::model::Constraint> {
    model
        .constraints()
        .iter()
        .filter(|c| c.name.starts_with(prefix))
        .collect()
}

/// Exact equality of *constructed* model constants. The builder writes
/// these values as literals, so bitwise agreement is the correct test —
/// and `total_cmp` keeps the toolkit's no-float-`==` rule intact.
fn exact(x: f64, y: f64) -> bool {
    x.total_cmp(&y).is_eq()
}

/// Parses `y_3_1` → `(3, 1)`.
fn parse_pair(name: &str) -> Option<(usize, usize)> {
    let mut parts = name.split('_');
    parts.next()?;
    let a = parts.next()?.parse().ok()?;
    let b = parts.next()?.parse().ok()?;
    Some((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_passes_for_paper_range() {
        for n in 2..=8 {
            let audit = audit_ordering_model(n).expect("audit builds");
            assert!(audit.passed(), "n={n} failures: {:?}", audit.failures());
        }
    }

    #[test]
    fn audit_pins_size_three() {
        let audit = audit_ordering_model(3).expect("audit builds");
        let vars: usize = audit.checks[0].actual.parse().expect("count");
        let cons: usize = audit.checks[1].actual.parse().expect("count");
        assert_eq!(vars, 15);
        assert_eq!(cons, 18);
    }

    #[test]
    fn reference_solve_decodes_the_optimal_permutation() {
        for n in 1..=4 {
            let problem = audit_instance(n).expect("instance builds");
            let reference = solve_reference(&problem).expect("ILP solves");
            let mut sorted = reference.order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "n={n}");
            assert!((problem.order_objective(&reference.order) - reference.objective).abs() < 1e-6);
            let exhaustive = problem.solve().expect("small n");
            assert!((reference.objective - exhaustive.objective).abs() < 1e-6);
        }
    }

    #[test]
    fn audit_rejects_zero_features() {
        assert!(audit_ordering_model(0).is_err());
    }

    #[test]
    fn range_covers_each_size() {
        let all = audit_range(2, 5).expect("audits build");
        let sizes: Vec<usize> = all.iter().map(|a| a.n).collect();
        assert_eq!(sizes, vec![2, 3, 4, 5]);
    }

    #[test]
    fn parse_pair_roundtrip() {
        assert_eq!(parse_pair("y_3_1"), Some((3, 1)));
        assert_eq!(parse_pair("x_2_2"), Some((2, 2)));
        assert_eq!(parse_pair("nope"), None);
    }
}
