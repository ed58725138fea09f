//! Float comparison seams.
//!
//! The `no-float-eq` lint bans direct `==`/`!=` against float literals in
//! the numerical crates (`crates/cost`, `crates/lp`): a raw comparison
//! hides whether the author meant a *tolerance* decision or an *exact*
//! structural test. This module is the designated seam — callers name the
//! intent and the lint stays clean.

/// Exact zero test. Use only where zero is a *structural* value (a
/// skipped tableau entry, an absent coefficient, a zero knapsack
/// weight), never as a tolerance on a computed result.
pub fn exactly_zero(x: f64) -> bool {
    // `abs` folds -0.0 into 0.0; NaN compares false, i.e. "not zero".
    x.abs() == 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_test_is_exact() {
        assert!(exactly_zero(0.0));
        assert!(exactly_zero(-0.0));
        assert!(!exactly_zero(1e-300));
        assert!(!exactly_zero(-1e-300));
        assert!(!exactly_zero(f64::NAN));
    }
}
