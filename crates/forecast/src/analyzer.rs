//! The workload-analyzer interface.
//!
//! "The system can consist of multiple workload analyzer instances that
//! each employ different methods to create forecasts" (Section II-C).
//! Analyzers are pure functions over count series, so they compose and
//! exchange freely.

/// Forecasts future per-bucket execution counts from an observed series.
pub trait WorkloadAnalyzer: Send + Sync {
    /// Human-readable name, used in experiment tables.
    fn name(&self) -> &str;

    /// Forecasts the next `horizon` buckets of a series. Implementations
    /// must return exactly `horizon` non-negative values and tolerate
    /// short (even empty) series.
    fn forecast(&self, series: &[f64], horizon: usize) -> Vec<f64>;

    /// One-step-ahead backtest residuals: for each prefix of at least
    /// `min_train` points, forecast the next point and record the error.
    /// Used to estimate forecast uncertainty for worst-case scenarios.
    fn backtest_residuals(&self, series: &[f64], min_train: usize) -> Vec<f64> {
        let mut residuals = Vec::new();
        self.extend_backtest_residuals(series, min_train, &mut residuals);
        residuals
    }

    /// Appends the backtest residuals of points `from..series.len()`.
    /// The residual of point `t` reads only `series[..=t]`, so a caller
    /// holding the residuals of a prefix extends them with the new
    /// points alone and gets the from-scratch vector bit for bit.
    fn extend_backtest_residuals(&self, series: &[f64], from: usize, residuals: &mut Vec<f64>) {
        for t in from..series.len() {
            let pred = self.forecast(&series[..t], 1);
            if let Some(&p) = pred.first() {
                residuals.push(series[t] - p);
            }
        }
    }
}

/// Sample standard deviation of residuals (0 for < 2 samples).
pub fn residual_std(residuals: &[f64]) -> f64 {
    if residuals.len() < 2 {
        return 0.0;
    }
    let n = residuals.len() as f64;
    let mean = residuals.iter().sum::<f64>() / n;
    let var = residuals.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (n - 1.0);
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Constant(f64);

    impl WorkloadAnalyzer for Constant {
        fn name(&self) -> &str {
            "constant"
        }
        fn forecast(&self, _series: &[f64], horizon: usize) -> Vec<f64> {
            vec![self.0; horizon]
        }
    }

    #[test]
    fn backtest_produces_residuals() {
        let a = Constant(5.0);
        let series = [5.0, 6.0, 4.0, 5.0];
        let r = a.backtest_residuals(&series, 1);
        assert_eq!(r, vec![1.0, -1.0, 0.0]);
    }

    #[test]
    fn residual_std_basics() {
        assert_eq!(residual_std(&[]), 0.0);
        assert_eq!(residual_std(&[1.0]), 0.0);
        let s = residual_std(&[1.0, -1.0, 1.0, -1.0]);
        assert!((s - (16.0f64 / 12.0).sqrt()).abs() < 1e-9);
    }
}
