//! Zipf-distributed sampling over `1..=n`.

use rand::rngs::StdRng;
use rand::RngExt;

/// A Zipf(s) distribution over keys `1..=n`, sampled via a precomputed
/// CDF and binary search.
///
/// ```
/// use smdb_workload::Zipf;
/// use smdb_common::seeded_rng;
/// let zipf = Zipf::new(100, 1.2);
/// let mut rng = seeded_rng(7);
/// let k = zipf.sample(&mut rng);
/// assert!((1..=100).contains(&k));
/// assert!(zipf.pmf(1) > zipf.pmf(100));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution with exponent `s` over `n` keys.
    /// `s = 0` degenerates to uniform; larger `s` means heavier skew.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "n must be positive");
        assert!(s >= 0.0, "exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Number of keys.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Samples a key in `1..=n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        // First index with cdf >= u.
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(self.cdf.len()),
        }
    }

    /// Probability mass of key `k` (1-based).
    pub fn pmf(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.cdf.len());
        if k == 1 {
            self.cdf[0]
        } else {
            self.cdf[k - 1] - self.cdf[k - 2]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::seeded_rng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 1.2);
        let total: f64 = (1..=100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skew_concentrates_mass_on_small_keys() {
        let z = Zipf::new(1000, 1.2);
        let top10: f64 = (1..=10).map(|k| z.pmf(k)).sum();
        assert!(top10 > 0.5, "top-10 mass {top10}");
        let uniform = Zipf::new(1000, 0.0);
        let top10u: f64 = (1..=10).map(|k| uniform.pmf(k)).sum();
        assert!((top10u - 0.01).abs() < 1e-9);
    }

    #[test]
    fn samples_in_range_and_skewed() {
        let z = Zipf::new(50, 1.5);
        let mut rng = seeded_rng(9);
        let mut counts = vec![0usize; 51];
        for _ in 0..10_000 {
            let k = z.sample(&mut rng);
            assert!((1..=50).contains(&k));
            counts[k] += 1;
        }
        assert!(counts[1] > counts[10]);
        assert!(counts[1] > 2000);
    }

    #[test]
    fn deterministic_sampling() {
        let z = Zipf::new(10, 1.0);
        let a: Vec<usize> = {
            let mut rng = seeded_rng(4);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = seeded_rng(4);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
