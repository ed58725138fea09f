//! The framework-wide cost unit.
//!
//! The paper (Section II-A(d)) requires that *all* decisions — workload
//! processing, one-time reconfiguration actions, permanent overheads — are
//! "estimated in the same unit, for instance, runtime". [`Cost`] is that
//! unit: an abstract millisecond of runtime. It is a thin newtype over
//! `f64` with the arithmetic the tuning pipeline needs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An amount of abstract runtime (milliseconds).
///
/// Values are non-negative by convention in most contexts (a workload
/// cost), but differences of costs (a *benefit*) may be negative, so the
/// type does not enforce a sign.
///
/// ```
/// use smdb_common::Cost;
/// let scan = Cost::from_ms(12.0);
/// let probe = Cost::from_ms(2.5);
/// let benefit = scan - probe;
/// assert_eq!(benefit.ms(), 9.5);
/// assert_eq!(scan.ratio(probe), Some(4.8));
/// let total: Cost = [scan, probe].into_iter().sum();
/// assert_eq!(total, Cost::from_ms(14.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Cost(pub f64);

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost = Cost(0.0);

    /// Creates a cost from a raw millisecond value.
    #[inline]
    pub fn from_ms(ms: f64) -> Self {
        Cost(ms)
    }

    /// The raw millisecond value.
    #[inline]
    pub fn ms(self) -> f64 {
        self.0
    }

    /// Returns `true` if the value is finite (neither NaN nor infinite).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// The smaller of two costs (total order; NaN-propagating like `f64::min`).
    #[inline]
    pub fn min(self, other: Cost) -> Cost {
        Cost(self.0.min(other.0))
    }

    /// The larger of two costs.
    #[inline]
    pub fn max(self, other: Cost) -> Cost {
        Cost(self.0.max(other.0))
    }

    /// `self / other`, returning `None` when `other` is zero.
    ///
    /// Used for the paper's impact ratios `W∅ / W_A` and dependence ratios
    /// `d_{A,B} = W_{B,A} / W_{A,B}` (Section III-A), where a zero
    /// denominator would indicate a degenerate workload.
    #[inline]
    pub fn ratio(self, other: Cost) -> Option<f64> {
        if other.0 == 0.0 {
            None
        } else {
            Some(self.0 / other.0)
        }
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*} ms", prec, self.0)
        } else {
            write!(f, "{:.3} ms", self.0)
        }
    }
}

impl Add for Cost {
    type Output = Cost;
    #[inline]
    fn add(self, rhs: Cost) -> Cost {
        Cost(self.0 + rhs.0)
    }
}

impl AddAssign for Cost {
    #[inline]
    fn add_assign(&mut self, rhs: Cost) {
        self.0 += rhs.0;
    }
}

impl Sub for Cost {
    type Output = Cost;
    #[inline]
    fn sub(self, rhs: Cost) -> Cost {
        Cost(self.0 - rhs.0)
    }
}

impl SubAssign for Cost {
    #[inline]
    fn sub_assign(&mut self, rhs: Cost) {
        self.0 -= rhs.0;
    }
}

impl Neg for Cost {
    type Output = Cost;
    #[inline]
    fn neg(self) -> Cost {
        Cost(-self.0)
    }
}

impl Mul<f64> for Cost {
    type Output = Cost;
    #[inline]
    fn mul(self, rhs: f64) -> Cost {
        Cost(self.0 * rhs)
    }
}

impl Mul<Cost> for f64 {
    type Output = Cost;
    #[inline]
    fn mul(self, rhs: Cost) -> Cost {
        Cost(self * rhs.0)
    }
}

impl Div<f64> for Cost {
    type Output = Cost;
    #[inline]
    fn div(self, rhs: f64) -> Cost {
        Cost(self.0 / rhs)
    }
}

impl Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        Cost(iter.map(|c| c.0).sum())
    }
}

impl<'a> Sum<&'a Cost> for Cost {
    fn sum<I: Iterator<Item = &'a Cost>>(iter: I) -> Cost {
        Cost(iter.map(|c| c.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Cost::from_ms(10.0);
        let b = Cost::from_ms(4.0);
        assert_eq!((a + b).ms(), 14.0);
        assert_eq!((a - b).ms(), 6.0);
        assert_eq!((a * 2.0).ms(), 20.0);
        assert_eq!((a / 2.0).ms(), 5.0);
        assert_eq!((-a).ms(), -10.0);
        assert_eq!((2.0 * b).ms(), 8.0);
    }

    #[test]
    fn sum_over_iterators() {
        let costs = [Cost(1.0), Cost(2.5), Cost(3.5)];
        let owned: Cost = costs.iter().copied().sum();
        let borrowed: Cost = costs.iter().sum();
        assert_eq!(owned.ms(), 7.0);
        assert_eq!(borrowed.ms(), 7.0);
    }

    #[test]
    fn ratio_guards_against_zero() {
        assert_eq!(Cost(8.0).ratio(Cost(2.0)), Some(4.0));
        assert_eq!(Cost(8.0).ratio(Cost::ZERO), None);
    }

    #[test]
    fn min_max() {
        let a = Cost(3.0);
        let b = Cost(-1.0);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn display_formats_with_unit() {
        assert_eq!(format!("{}", Cost(1.5)), "1.500 ms");
        assert_eq!(format!("{:.1}", Cost(1.55)), "1.6 ms");
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut c = Cost::ZERO;
        c += Cost(2.0);
        c += Cost(3.0);
        c -= Cost(1.0);
        assert_eq!(c.ms(), 4.0);
    }
}
