//! The workload predictor: history → (clustering) → forecast →
//! scenarios.
//!
//! Each unit's expected weight is the mean of its trailing
//! [`WINDOW`] buckets; its uncertainty is the sample deviation of the
//! one-step backtest residuals of that same forecast.
//!
//! `predict` is incremental on the unclustered path: it reads each
//! template's dense series from the history and keeps the one-step
//! backtest residuals behind the worst-case sigma across calls, so a
//! call costs one forecast plus one residual per template and new
//! bucket — not one per past bucket. The residuals are derived state:
//! reused only while the series they were computed over is a prefix of
//! the current one, rebuilt from scratch otherwise (a restored or
//! different history), never persisted.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use rand::RngExt;
use smdb_common::seeded_rng;
use smdb_query::{Query, Workload};

use crate::cluster::cluster_templates;
use crate::history::WorkloadHistory;
use crate::scenario::{ForecastSet, ScenarioKind, WorkloadScenario};

/// Buckets the moving-average forecast averages over.
const WINDOW: usize = 4;
/// Worst-case inflation in residual standard deviations.
const WORST_CASE_SIGMAS: f64 = 2.0;
/// Probability mass of the expected scenario; the rest is split between
/// worst case and samples.
const EXPECTED_PROBABILITY: f64 = 0.6;
/// Minimum training prefix for backtest residuals.
const MIN_TRAIN: usize = 3;

/// Predictor configuration.
pub struct PredictorConfig {
    /// Cluster count for workload compression; `None` disables clustering.
    pub clusters: Option<usize>,
    /// Sampled scenarios to generate besides expected and worst case.
    pub samples: usize,
    /// Seed for sampling noise and clustering.
    pub seed: u64,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            clusters: None,
            samples: 3,
            seed: 0xC0FFEE,
        }
    }
}

/// The one-step forecast: the mean of the trailing [`WINDOW`]
/// observations, 0 for an empty series.
fn forecast(series: &[f64]) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    let tail = &series[series.len().saturating_sub(WINDOW)..];
    (tail.iter().sum::<f64>() / tail.len() as f64).max(0.0)
}

/// Sample standard deviation of residuals (0 for < 2 samples).
fn residual_std(residuals: &[f64]) -> f64 {
    if residuals.len() < 2 {
        return 0.0;
    }
    let n = residuals.len() as f64;
    let mean = residuals.iter().sum::<f64>() / n;
    let var = residuals.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (n - 1.0);
    var.sqrt()
}

/// One template's one-step backtest, kept across `predict` calls.
#[derive(Default)]
struct Backtest {
    /// The series the residuals were computed over.
    seen: Vec<f64>,
    /// For each point `t >= MIN_TRAIN` of `seen`, `seen[t]` minus the
    /// forecast from `seen[..t]`.
    residuals: Vec<f64>,
}

impl Backtest {
    /// Brings the backtest up to `series` — by the new points alone when
    /// `seen` is a prefix of it — and returns the residuals. The
    /// residual of point `t` reads only `series[..=t]`, so extending
    /// gives the from-scratch vector bit for bit.
    fn extend(&mut self, series: &[f64]) -> &[f64] {
        if !series.starts_with(&self.seen) {
            self.seen.clear();
            self.residuals.clear();
        }
        let from = self.seen.len().max(MIN_TRAIN);
        for t in from..series.len() {
            self.residuals.push(series[t] - forecast(&series[..t]));
        }
        self.seen.extend_from_slice(&series[self.seen.len()..]);
        &self.residuals
    }
}

/// The workload predictor component.
pub struct WorkloadPredictor {
    config: PredictorConfig,
    /// Backtests by template fingerprint (unclustered path only).
    backtests: Mutex<BTreeMap<u64, Backtest>>,
}

impl WorkloadPredictor {
    /// Creates a predictor.
    pub fn new(config: PredictorConfig) -> Self {
        WorkloadPredictor {
            config,
            backtests: Mutex::new(BTreeMap::new()),
        }
    }

    /// The backtest cache. A panic mid-extension may have left an entry
    /// half-extended; the cache is derived, so drop it all.
    fn backtests(&self) -> MutexGuard<'_, BTreeMap<u64, Backtest>> {
        self.backtests.lock().unwrap_or_else(|poisoned| {
            let mut cache = poisoned.into_inner();
            cache.clear();
            cache
        })
    }

    /// Produces the forecast scenario set from the observed history.
    ///
    /// Per template (or per cluster representative when compression is
    /// on): forecast the next bucket as the expected weight, and
    /// estimate uncertainty from one-step backtest residuals.
    pub fn predict(&self, history: &WorkloadHistory) -> ForecastSet {
        let Some((lo, hi)) = history.span() else {
            return ForecastSet::default();
        };

        // Unit of prediction: template (with the fingerprint its
        // backtest is cached under) or cluster.
        struct Unit<'a> {
            example: &'a Query,
            series: Cow<'a, [f64]>,
            template: Option<u64>,
        }
        let units: Vec<Unit> = match self.config.clusters {
            None => history
                .iter_dense()
                .map(|(fp, th, series)| Unit {
                    example: &th.example,
                    series: Cow::Borrowed(series),
                    template: Some(fp),
                })
                .collect(),
            Some(k) => cluster_templates(history, k, self.config.seed)
                .into_iter()
                .filter_map(|cluster| {
                    // Cluster series = sum of member series; represented
                    // by the heaviest member's example query. Clusters
                    // are built from `history`, so every id resolves.
                    let example = &history.template(cluster.representative)?.example;
                    let mut series = vec![0.0; (hi - lo) as usize];
                    for th in cluster
                        .members
                        .iter()
                        .filter_map(|&fp| history.template(fp))
                    {
                        for (s, v) in series.iter_mut().zip(th.series(lo, hi)) {
                            *s += v;
                        }
                    }
                    Some(Unit {
                        example,
                        series: Cow::Owned(series),
                        template: None,
                    })
                })
                .collect(),
        };

        // Forecast each unit.
        let mut expected = Workload::default();
        let mut worst = Workload::default();
        let mut weights: Vec<f64> = Vec::with_capacity(units.len());
        let mut sigmas: Vec<f64> = Vec::with_capacity(units.len());
        let mut backtests = self.backtests();
        for unit in &units {
            let weight = forecast(&unit.series);
            let sigma = match unit.template {
                Some(fp) => residual_std(backtests.entry(fp).or_default().extend(&unit.series)),
                None => residual_std(Backtest::default().extend(&unit.series)),
            };
            weights.push(weight);
            sigmas.push(sigma);
            if weight > 0.0 || sigma > 0.0 {
                expected.push(unit.example.clone(), weight);
                worst.push(unit.example.clone(), weight + WORST_CASE_SIGMAS * sigma);
            }
        }
        drop(backtests);

        if expected.is_empty() && worst.is_empty() {
            // Nothing observed (or nothing forecast to recur): an empty
            // scenario set, not a set of empty scenarios.
            return ForecastSet::default();
        }
        let mut scenarios = vec![WorkloadScenario {
            kind: ScenarioKind::Expected,
            name: "expected/moving_average".to_owned(),
            probability: EXPECTED_PROBABILITY,
            workload: expected,
        }];
        let rest = (1.0 - EXPECTED_PROBABILITY).max(0.0);
        let worst_p = rest * 0.5;
        scenarios.push(WorkloadScenario {
            kind: ScenarioKind::WorstCase,
            name: format!("worst_case/{WORST_CASE_SIGMAS:.1}sigma"),
            probability: worst_p,
            workload: worst,
        });

        // Sampled scenarios: expected weights + Gaussian-ish noise
        // (sum of 4 uniforms, deterministic). A unit missing from the
        // expected scenario has weight 0, so it samples from 0 too.
        if self.config.samples > 0 {
            let sample_p = (rest - worst_p) / self.config.samples as f64;
            let mut rng = seeded_rng(self.config.seed ^ 0x5EED);
            for s in 0..self.config.samples {
                let mut w = Workload::default();
                for (i, unit) in units.iter().enumerate() {
                    let noise: f64 =
                        (0..4).map(|_| rng.random::<f64>() - 0.5).sum::<f64>() * sigmas[i] * 1.732; // var(sum of 4 U(-.5,.5)) = 1/3 → scale to σ²
                    let sampled = (weights[i] + noise).max(0.0);
                    if sampled > 0.0 {
                        w.push(unit.example.clone(), sampled);
                    }
                }
                scenarios.push(WorkloadScenario {
                    kind: ScenarioKind::Sampled,
                    name: format!("sample_{s}"),
                    probability: sample_p,
                    workload: w,
                });
            }
        }

        let mut set = ForecastSet { scenarios };
        set.normalize();
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::{ColumnId, Cost, LogicalTime, TableId};
    use smdb_query::{PlanCache, Query};
    use smdb_storage::ScanPredicate;

    fn q(col: u16, v: i64) -> Query {
        Query::new(
            TableId(0),
            "t",
            vec![ScanPredicate::eq(ColumnId(col), v)],
            None,
            format!("q{col}"),
        )
    }

    fn build_history(buckets: &[&[(u16, usize)]]) -> WorkloadHistory {
        let mut cache = PlanCache::default();
        let mut hist = WorkloadHistory::new();
        for (t, bucket) in buckets.iter().enumerate() {
            for &(col, count) in *bucket {
                for i in 0..count {
                    cache.record(&q(col, i as i64), Cost(1.0), LogicalTime(t as u64));
                }
            }
            hist.observe(LogicalTime(t as u64), &cache.snapshot());
        }
        hist
    }

    #[test]
    fn forecast_is_the_trailing_window_mean() {
        assert_eq!(forecast(&[]), 0.0);
        assert_eq!(forecast(&[5.0]), 5.0);
        assert_eq!(forecast(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), 4.5);
    }

    #[test]
    fn backtest_produces_residuals() {
        // t = 3: 4 − mean(4, 8, 0) = 0; t = 4: 12 − mean(4, 8, 0, 4) = 8;
        // t = 5: 2 − mean(8, 0, 4, 12) = −4 (the window drops the 4).
        let series = [4.0, 8.0, 0.0, 4.0, 12.0, 2.0];
        let mut backtest = Backtest::default();
        assert_eq!(backtest.extend(&series), [0.0, 8.0, -4.0]);
        assert_eq!(Backtest::default().extend(&series[..3]), [] as [f64; 0]);
    }

    #[test]
    fn residual_std_basics() {
        assert_eq!(residual_std(&[]), 0.0);
        assert_eq!(residual_std(&[1.0]), 0.0);
        let s = residual_std(&[1.0, -1.0, 1.0, -1.0]);
        assert!((s - (16.0f64 / 12.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn predict_extends_kept_residuals_and_rebuilds_stale_ones() {
        let buckets: [&[(u16, usize)]; 6] = [
            &[(0, 10)],
            &[(0, 2)],
            &[(0, 12)],
            &[(0, 3)],
            &[(0, 9)],
            &[(0, 6)],
        ];
        let fp = q(0, 0).fingerprint();
        let p = WorkloadPredictor::new(PredictorConfig::default());
        p.predict(&build_history(&buckets[..5]));
        const SENTINEL: f64 = 1e9;
        p.backtests().get_mut(&fp).unwrap().residuals[0] = SENTINEL;

        // An extended history appends one residual and keeps the rest.
        p.predict(&build_history(&buckets));
        let kept = p.backtests().get(&fp).unwrap().residuals.clone();
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0], SENTINEL);

        // A history that is not an extension rebuilds from scratch.
        let mut other = buckets;
        other[1] = &[(0, 7)];
        let history = build_history(&other);
        p.predict(&history);
        let rebuilt = p.backtests().get(&fp).unwrap().residuals.clone();
        let (_, _, series) = history.iter_dense().next().unwrap();
        assert_eq!(rebuilt, Backtest::default().extend(series));
    }

    #[test]
    fn expected_scenario_reflects_stable_workload() {
        let hist = build_history(&[&[(0, 10), (1, 5)], &[(0, 10), (1, 5)], &[(0, 10), (1, 5)]]);
        let p = WorkloadPredictor::new(PredictorConfig::default());
        let set = p.predict(&hist);
        let expected = set.expected().unwrap();
        assert_eq!(expected.workload.len(), 2);
        let weights: Vec<f64> = expected
            .workload
            .queries()
            .iter()
            .map(|w| w.weight)
            .collect();
        assert!(
            weights.contains(&10.0) && weights.contains(&5.0),
            "{weights:?}"
        );
        assert!((set.total_probability() - 1.0).abs() < 1e-9);
        // No residual spread, so no noise: every sample is the expected
        // workload.
        for sample in set.iter().filter(|s| s.kind == ScenarioKind::Sampled) {
            let sampled: Vec<f64> = sample.workload.queries().iter().map(|w| w.weight).collect();
            assert_eq!(sampled, weights);
        }
    }

    #[test]
    fn expected_weight_averages_the_last_four_buckets() {
        let hist = build_history(&[&[(0, 2)], &[(0, 4)], &[(0, 6)], &[(0, 8)], &[(0, 10)]]);
        let p = WorkloadPredictor::new(PredictorConfig::default());
        let set = p.predict(&hist);
        let w = set.expected().unwrap().workload.queries()[0].weight;
        assert_eq!(w, 7.0);
    }

    #[test]
    fn worst_case_at_least_expected() {
        let hist = build_history(&[&[(0, 10)], &[(0, 2)], &[(0, 12)], &[(0, 3)], &[(0, 9)]]);
        let p = WorkloadPredictor::new(PredictorConfig::default());
        let set = p.predict(&hist);
        let e = set.expected().unwrap().workload.total_weight();
        let w = set.worst_case().unwrap().workload.total_weight();
        assert!(w >= e, "worst {w} < expected {e}");
    }

    #[test]
    fn clustering_compresses_workload() {
        // 8 templates, clustering to 2.
        let mut bucket: Vec<(u16, usize)> = (0..8).map(|c| (c as u16, 4)).collect();
        bucket[0].1 = 20; // make one clearly heaviest
        let hist = build_history(&[&bucket, &bucket]);
        let config = PredictorConfig {
            clusters: Some(2),
            ..PredictorConfig::default()
        };
        let p = WorkloadPredictor::new(config);
        let set = p.predict(&hist);
        let expected = set.expected().unwrap();
        assert!(expected.workload.len() <= 2);
        // Compressed workload preserves total weight.
        let total = expected.workload.total_weight();
        assert!((total - 48.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn empty_history_empty_forecast() {
        let hist = WorkloadHistory::new();
        let p = WorkloadPredictor::new(PredictorConfig::default());
        assert!(p.predict(&hist).is_empty());
    }

    #[test]
    fn deterministic_sampling() {
        let hist = build_history(&[&[(0, 5)], &[(0, 7)], &[(0, 6)]]);
        let p1 = WorkloadPredictor::new(PredictorConfig::default());
        let p2 = WorkloadPredictor::new(PredictorConfig::default());
        let a = p1.predict(&hist);
        let b = p2.predict(&hist);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.workload.total_weight(), y.workload.total_weight());
        }
    }
}
