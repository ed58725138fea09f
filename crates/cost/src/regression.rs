//! Ordinary least squares via incrementally maintained normal equations.
//!
//! The calibrated cost model accumulates `XᵀX` and `Xᵀy` online (O(k²)
//! per observation) and refits by solving `(XᵀX + λI) w = Xᵀy` with
//! Gaussian elimination — the "simple linear regressions" cost-model
//! option the paper cites (Zhu & Larson).

use smdb_common::float::exactly_zero;
use smdb_common::{Error, Result};

/// Incrementally trained least-squares regression.
#[derive(Debug, Clone)]
pub struct OnlineRegression {
    k: usize,
    /// Upper-triangular-complete Gram matrix XᵀX, row-major k×k.
    gram: Vec<f64>,
    /// Xᵀy.
    moment: Vec<f64>,
    /// Ridge term keeping the system well-posed before enough data arrives.
    lambda: f64,
    observations: usize,
}

impl OnlineRegression {
    /// Creates a regression over `k` features with ridge parameter
    /// `lambda` (must be positive to guarantee solvability).
    pub fn new(k: usize, lambda: f64) -> Result<Self> {
        if k == 0 {
            return Err(Error::invalid("at least one feature required"));
        }
        if lambda <= 0.0 {
            return Err(Error::invalid("lambda must be positive"));
        }
        Ok(Self::with_valid(k, lambda))
    }

    /// [`new`](Self::new) for arguments that hold `k > 0` and
    /// `lambda > 0` by construction.
    pub(crate) fn with_valid(k: usize, lambda: f64) -> Self {
        OnlineRegression {
            k,
            gram: vec![0.0; k * k],
            moment: vec![0.0; k],
            lambda,
            observations: 0,
        }
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.k
    }

    /// Number of observations absorbed.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Per-feature training support: the Gram diagonal (`Σ x_i²` over all
    /// observations). A zero entry means the feature has never been
    /// active in training, so its fitted weight (0 via ridge/NNLS)
    /// carries no information.
    pub fn support(&self) -> Vec<f64> {
        (0..self.k).map(|i| self.gram[i * self.k + i]).collect()
    }

    /// Absorbs one observation `(x, y)`.
    pub fn observe(&mut self, x: &[f64], y: f64) -> Result<()> {
        if x.len() != self.k {
            return Err(Error::invalid(format!(
                "expected {} features, got {}",
                self.k,
                x.len()
            )));
        }
        for i in 0..self.k {
            for j in 0..self.k {
                self.gram[i * self.k + j] += x[i] * x[j];
            }
            self.moment[i] += x[i] * y;
        }
        self.observations += 1;
        Ok(())
    }

    /// Solves for the (unconstrained) weight vector.
    pub fn fit(&self) -> Result<Vec<f64>> {
        self.fit_subset(&vec![true; self.k])
    }

    /// Solves for the non-negative least-squares weight vector by the
    /// Lawson-Hanson active-set algorithm over the normal equations.
    ///
    /// Physical cost coefficients (ms per unit of work) are non-negative;
    /// constraining the fit prevents pathological extrapolation on
    /// feature mixes outside the training distribution.
    pub fn fit_nonnegative(&self) -> Result<Vec<f64>> {
        let k = self.k;
        let mut passive = vec![false; k];
        let mut x = vec![0.0f64; k];

        // Gradient of ½‖Ax−y‖² at x: Gram·x − moment (descent = negative).
        let gradient = |x: &[f64]| -> Vec<f64> {
            (0..k)
                .map(|i| {
                    self.moment[i]
                        - (0..k).map(|j| self.gram[i * k + j] * x[j]).sum::<f64>()
                        - self.lambda * x[i]
                })
                .collect()
        };

        for _outer in 0..4 * k + 16 {
            // Most promising restricted variable.
            let w = gradient(&x);
            let enter = (0..k)
                .filter(|&i| !passive[i])
                .max_by(|&a, &b| w[a].total_cmp(&w[b]));
            match enter {
                Some(j) if w[j] > 1e-10 => passive[j] = true,
                _ => return Ok(x), // KKT satisfied
            }

            // Inner loop: solve on the passive set; walk back along the
            // segment to keep feasibility, dropping variables that hit 0.
            loop {
                let z = self.fit_subset(&passive)?;
                let negative: Vec<usize> =
                    (0..k).filter(|&i| passive[i] && z[i] <= 1e-12).collect();
                if negative.is_empty() {
                    x = z;
                    break;
                }
                let mut alpha = f64::INFINITY;
                for &i in &negative {
                    let denom = x[i] - z[i];
                    if denom > 0.0 {
                        alpha = alpha.min(x[i] / denom);
                    }
                }
                if !alpha.is_finite() {
                    alpha = 0.0;
                }
                for i in 0..k {
                    if passive[i] {
                        x[i] += alpha * (z[i] - x[i]);
                        if x[i] <= 1e-12 {
                            x[i] = 0.0;
                            passive[i] = false;
                        }
                    }
                }
                if passive.iter().all(|&p| !p) {
                    break;
                }
            }
        }
        Ok(x)
    }

    /// Solves the normal equations restricted to `active` features;
    /// inactive features get weight zero.
    fn fit_subset(&self, active: &[bool]) -> Result<Vec<f64>> {
        let idx: Vec<usize> = (0..self.k).filter(|&i| active[i]).collect();
        let m = idx.len();
        if m == 0 {
            return Ok(vec![0.0; self.k]);
        }
        // Augmented matrix [Gram + λI | moment] over active features.
        let mut a = vec![0.0f64; m * (m + 1)];
        for (r, &i) in idx.iter().enumerate() {
            for (c, &j) in idx.iter().enumerate() {
                a[r * (m + 1) + c] =
                    self.gram[i * self.k + j] + if i == j { self.lambda } else { 0.0 };
            }
            a[r * (m + 1) + m] = self.moment[i];
        }
        let sub = solve_augmented(&mut a, m)?;
        let mut w = vec![0.0; self.k];
        for (r, &i) in idx.iter().enumerate() {
            w[i] = sub[r];
        }
        Ok(w)
    }
}

/// Gaussian elimination with partial pivoting on an augmented `k×(k+1)`
/// system.
fn solve_augmented(a: &mut [f64], k: usize) -> Result<Vec<f64>> {
    let cols = k + 1;
    for col in 0..k {
        // Partial pivot.
        let mut pivot_row = col;
        let mut pivot_val = a[col * cols + col].abs();
        for row in (col + 1)..k {
            let v = a[row * cols + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = row;
            }
        }
        if pivot_val < 1e-12 {
            return Err(Error::Numeric("singular normal equations".into()));
        }
        if pivot_row != col {
            for j in 0..cols {
                a.swap(col * cols + j, pivot_row * cols + j);
            }
        }
        let pivot = a[col * cols + col];
        for row in (col + 1)..k {
            let factor = a[row * cols + col] / pivot;
            if !exactly_zero(factor) {
                for j in col..cols {
                    a[row * cols + j] -= factor * a[col * cols + j];
                }
            }
        }
    }
    // Back substitution.
    let mut w = vec![0.0f64; k];
    for row in (0..k).rev() {
        let mut acc = a[row * cols + k];
        for j in (row + 1)..k {
            acc -= a[row * cols + j] * w[j];
        }
        w[row] = acc / a[row * cols + row];
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_relation() {
        // y = 2 + 3a - b, with an intercept feature.
        let mut reg = OnlineRegression::new(3, 1e-9).unwrap();
        let data = [
            (1.0, 0.0, 0.0),
            (1.0, 1.0, 0.0),
            (1.0, 0.0, 1.0),
            (1.0, 2.0, 1.0),
            (1.0, 3.0, 5.0),
            (1.0, -1.0, 2.0),
        ];
        for (one, a, b) in data {
            reg.observe(&[one, a, b], 2.0 + 3.0 * a - b).unwrap();
        }
        let w = reg.fit().unwrap();
        assert!((w[0] - 2.0).abs() < 1e-6, "{w:?}");
        assert!((w[1] - 3.0).abs() < 1e-6);
        assert!((w[2] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn ridge_keeps_underdetermined_systems_solvable() {
        let mut reg = OnlineRegression::new(3, 1e-3).unwrap();
        reg.observe(&[1.0, 2.0, 4.0], 10.0).unwrap();
        // Only one observation for three features: pure OLS is singular,
        // ridge is not.
        let w = reg.fit().unwrap();
        assert!(w.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn dimension_checks() {
        assert!(OnlineRegression::new(0, 1.0).is_err());
        assert!(OnlineRegression::new(2, 0.0).is_err());
        let mut reg = OnlineRegression::new(2, 1.0).unwrap();
        assert!(reg.observe(&[1.0], 1.0).is_err());
        assert_eq!(reg.observations(), 0);
        reg.observe(&[1.0, 2.0], 1.0).unwrap();
        assert_eq!(reg.observations(), 1);
    }

    #[test]
    fn noisy_fit_approximates() {
        // y = 5x + noise; deterministic pseudo-noise.
        let mut reg = OnlineRegression::new(2, 1e-6).unwrap();
        for i in 0..200 {
            let x = i as f64 / 10.0;
            let noise = (((i * 2654435761u64 as usize) % 100) as f64 - 49.5) / 500.0;
            reg.observe(&[1.0, x], 5.0 * x + noise).unwrap();
        }
        let w = reg.fit().unwrap();
        assert!(w[0].abs() < 0.1, "intercept {w:?}");
        assert!((w[1] - 5.0).abs() < 0.05);
    }
}

#[cfg(test)]
mod nonneg_tests {
    use super::*;

    #[test]
    fn nonnegative_fit_clamps() {
        // True relation has a negative coefficient; the constrained fit
        // must return all-non-negative weights that still explain most of
        // the signal.
        let mut reg = OnlineRegression::new(2, 1e-9).unwrap();
        for i in 0..50 {
            let a = i as f64;
            let b = (i % 7) as f64;
            reg.observe(&[a, b], 3.0 * a - 0.5 * b).unwrap();
        }
        let w = reg.fit_nonnegative().unwrap();
        assert!(w.iter().all(|&x| x >= 0.0), "{w:?}");
        assert!((w[0] - 3.0).abs() < 0.2, "{w:?}");
    }

    #[test]
    fn nonnegative_matches_unconstrained_when_already_feasible() {
        let mut reg = OnlineRegression::new(2, 1e-9).unwrap();
        for i in 0..40 {
            let a = i as f64;
            let b = ((i * 3) % 11) as f64;
            reg.observe(&[a, b], 2.0 * a + 4.0 * b).unwrap();
        }
        let free = reg.fit().unwrap();
        let constrained = reg.fit_nonnegative().unwrap();
        for (x, y) in free.iter().zip(&constrained) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn all_negative_signal_gives_zero_weights() {
        let mut reg = OnlineRegression::new(1, 1e-9).unwrap();
        for i in 1..20 {
            reg.observe(&[i as f64], -(i as f64)).unwrap();
        }
        let w = reg.fit_nonnegative().unwrap();
        assert_eq!(w, vec![0.0]);
    }
}
