//! # smdb-lp — linear and integer programming toolkit
//!
//! Section III-B of the paper formulates feature ordering as an integer
//! linear program and notes it "can be solved using off-the-shelf
//! solvers". No solver is available offline, so this crate *is* the
//! solver (see DESIGN.md §4):
//!
//! * [`model`] — an LP/ILP model builder (variables with bounds and
//!   integrality, linear constraints, max/min objective),
//! * [`simplex`] — a dense two-phase primal simplex with Bland's rule,
//! * [`branch_bound`] — exact branch-and-bound over simplex relaxations,
//!   used by the optimal selector's multiple-choice path and the
//!   ordering reference,
//! * [`ordering`] — the feature-ordering problem: the paper's ILP
//!   (`x_{A,k}`, `y_{A,B}`, permutation + coupling constraints) built
//!   verbatim with its exact variable/constraint counts, and the exact
//!   lexicographic permutation search that production orders by,
//! * [`knapsack`] — the 0/1 knapsack solved by the optimal selector, with
//!   a specialised branch-and-bound and a DP cross-check,
//! * [`audit`] — structural verification of the ordering model against
//!   the paper's size formulas and constraint families, consumed by
//!   `smdb-lint --audit-lp`, plus the reference ILP solve that tests and
//!   experiment E4 check the permutation search against.

pub mod audit;
pub mod branch_bound;
pub mod knapsack;
pub mod model;
pub mod ordering;
pub mod simplex;

pub use audit::{audit_ordering_model, audit_range, solve_reference, AuditCheck, ModelAudit};
pub use branch_bound::{solve_ilp, IlpSolution};
pub use model::{ConstraintOp, LpModel, VarId, VarKind};
pub use ordering::{OrderingProblem, OrderingSolution};
pub use simplex::{solve_lp, LpSolution, LpStatus};
