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
//! bucket — not one per past bucket. The residuals are derived state,
//! never persisted: reused while the history's stamp on the series is
//! the one they were kept under (the history renews a stamp whenever a
//! point it already handed out changes, so the series read before is a
//! prefix of the current one), rebuilt from scratch otherwise (a
//! restored, re-observed or different history). The residuals'
//! left-fold sum is kept beside them, so the one pass a call still
//! makes over every residual is the deviation pass.

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

/// `Iterator::sum`'s starting value for `f64`: an empty or all-`-0.0`
/// sum is `-0.0`.
const EMPTY_SUM: f64 = -0.0;

/// One template's one-step backtest, kept across `predict` calls.
struct Backtest {
    /// The stamp of the history series the residuals were read from.
    stamp: u64,
    /// How many points of that series were read.
    seen: usize,
    /// For each point `t >= MIN_TRAIN` of the series read, `series[t]`
    /// minus the forecast from `series[..t]`.
    residuals: Vec<f64>,
    /// `residuals.iter().sum()`, folded as each residual is pushed.
    sum: f64,
}

impl Default for Backtest {
    fn default() -> Self {
        Backtest {
            stamp: 0,
            seen: 0,
            residuals: Vec::new(),
            sum: EMPTY_SUM,
        }
    }
}

impl Backtest {
    /// Brings the backtest up to `series`, stamped `stamp` by the
    /// history. A matching stamp means the series read before is a
    /// prefix of this one, so only the new points are backtested; a
    /// different stamp rebuilds from scratch. The residual of point `t`
    /// reads only `series[..=t]`, so extending gives the from-scratch
    /// residuals and sum bit for bit.
    fn extend(&mut self, series: &[f64], stamp: u64) -> &Self {
        if stamp != self.stamp {
            *self = Backtest {
                stamp,
                ..Backtest::default()
            };
        }
        for t in self.seen.max(MIN_TRAIN)..series.len() {
            let residual = series[t] - forecast(&series[..t]);
            self.residuals.push(residual);
            self.sum += residual;
        }
        self.seen = series.len();
        self
    }

    /// Sample standard deviation of the residuals (0 for < 2 samples).
    /// The mean reads the kept sum; the deviation sum is the sequential
    /// left fold `Iterator::sum` makes, the one pass over every residual
    /// a warm call still makes.
    fn std(&self) -> f64 {
        let n = self.residuals.len();
        if n < 2 {
            return 0.0;
        }
        debug_assert_eq!(
            self.sum.to_bits(),
            self.residuals.iter().sum::<f64>().to_bits()
        );
        let n = n as f64;
        let mean = self.sum / n;
        let var = self
            .residuals
            .iter()
            .map(|r| (r - mean).powi(2))
            .sum::<f64>()
            / (n - 1.0);
        var.sqrt()
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
        // backtest is cached under and its series' stamp) or cluster.
        struct Unit<'a> {
            example: &'a Query,
            series: Cow<'a, [f64]>,
            template: Option<(u64, u64)>,
        }
        let units: Vec<Unit> = match self.config.clusters {
            None => history
                .iter_dense()
                .map(|(fp, th, series, stamp)| Unit {
                    example: &th.example,
                    series: Cow::Borrowed(series),
                    template: Some((fp, stamp)),
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
                    for dense in cluster.members.iter().filter_map(|&fp| history.dense(fp)) {
                        for (s, v) in series.iter_mut().zip(dense) {
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
                Some((fp, stamp)) => backtests
                    .entry(fp)
                    .or_default()
                    .extend(&unit.series, stamp)
                    .std(),
                None => Backtest::default().extend(&unit.series, 0).std(),
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
        let kept = backtest.extend(&series, 0);
        assert_eq!(kept.residuals, [0.0, 8.0, -4.0]);
        assert_eq!(kept.sum, 4.0);
        let short = Backtest::default()
            .extend(&series[..3], 0)
            .residuals
            .clone();
        assert_eq!(short, [] as [f64; 0]);
    }

    #[test]
    fn residual_std_basics() {
        let of = |residuals: &[f64]| Backtest {
            residuals: residuals.to_vec(),
            sum: residuals.iter().sum(),
            ..Backtest::default()
        };
        assert_eq!(of(&[]).std(), 0.0);
        assert_eq!(of(&[1.0]).std(), 0.0);
        let s = of(&[1.0, -1.0, 1.0, -1.0]).std();
        assert!((s - (16.0f64 / 12.0).sqrt()).abs() < 1e-9);
    }

    /// The σ that reads the kept sum is the two-pass σ bit for bit.
    #[test]
    fn kept_sum_std_equals_the_two_pass_std() {
        let mut rng = seeded_rng(7);
        for len in 0..60 {
            let series: Vec<f64> = (0..len).map(|_| rng.random_range(0..50) as f64).collect();
            let mut backtest = Backtest::default();
            let kept = backtest.extend(&series, 0);
            let n = kept.residuals.len() as f64;
            let mean = kept.residuals.iter().sum::<f64>() / n;
            let dev = kept
                .residuals
                .iter()
                .map(|r| (r - mean).powi(2))
                .sum::<f64>();
            let two_pass = if n < 2.0 {
                0.0
            } else {
                (dev / (n - 1.0)).sqrt()
            };
            assert_eq!(kept.std().to_bits(), two_pass.to_bits(), "len {len}");
        }
    }

    /// Counts are never `-0.0`, so only a planted series gives residuals
    /// that all are: `−0.0 − 0.0` where the trailing window holds a
    /// `+0.0`. Their sum is `-0.0` only when the kept sum starts where
    /// `Iterator::sum` does.
    #[test]
    fn kept_sum_of_negative_zero_residuals_starts_where_iterator_sum_does() {
        let series = [0.0, 0.0, 0.0, -0.0, -0.0, -0.0, -0.0];
        let mut backtest = Backtest::default();
        let kept = backtest.extend(&series, 0);
        assert_eq!(kept.residuals.len(), 4);
        assert!(kept
            .residuals
            .iter()
            .all(|r| r.to_bits() == (-0.0f64).to_bits()));
        assert_eq!(
            kept.sum.to_bits(),
            kept.residuals.iter().sum::<f64>().to_bits()
        );
        assert_eq!(kept.sum.to_bits(), (-0.0f64).to_bits());
        assert_eq!(kept.std(), 0.0);
    }

    /// A predict over an extension of the same history appends to the
    /// kept residuals; a re-observed bucket (a point already read
    /// changes, and with it the stamp) and a different history rebuild
    /// them from scratch.
    #[test]
    fn predict_extends_kept_residuals_and_rebuilds_stale_ones() {
        let fp = q(0, 0).fingerprint();
        let mut cache = PlanCache::default();
        let mut history = WorkloadHistory::new();
        let p = WorkloadPredictor::new(PredictorConfig::default());
        let observe = |cache: &mut PlanCache, history: &mut WorkloadHistory, t: u64, n: i64| {
            for i in 0..n {
                cache.record(&q(0, i), Cost(1.0), LogicalTime(t));
            }
            history.observe(LogicalTime(t), &cache.snapshot());
        };
        for (t, n) in [(0, 10), (1, 2), (2, 12), (3, 3), (4, 9)] {
            observe(&mut cache, &mut history, t, n);
        }
        p.predict(&history);
        // The sentinel replaces a kept residual, and the kept sum is
        // re-folded over the planted residuals so the two agree.
        const SENTINEL: f64 = 1e9;
        {
            let mut backtests = p.backtests();
            let backtest = backtests.get_mut(&fp).unwrap();
            backtest.residuals[0] = SENTINEL;
            backtest.sum = backtest.residuals.iter().sum();
        }
        let rebuilt = |p: &WorkloadPredictor, series: &[f64]| {
            let kept = p.backtests().get(&fp).unwrap().residuals.clone();
            assert_eq!(kept, Backtest::default().extend(series, 0).residuals);
        };

        // One more bucket: one residual appended, the sentinel kept.
        observe(&mut cache, &mut history, 5, 6);
        p.predict(&history);
        let kept = p.backtests().get(&fp).unwrap().residuals.clone();
        assert_eq!((kept.len(), kept[0]), (3, SENTINEL));

        // Bucket 5 again: a point already read changes.
        observe(&mut cache, &mut history, 5, 1);
        p.predict(&history);
        let series = history.dense(fp).unwrap();
        assert_eq!(series[5], 7.0);
        rebuilt(&p, series);

        // A different history that is not an extension.
        let other = build_history(&[
            &[(0, 10)],
            &[(0, 7)],
            &[(0, 12)],
            &[(0, 3)],
            &[(0, 9)],
            &[(0, 6)],
            &[(0, 4)],
        ]);
        p.predict(&other);
        rebuilt(&p, other.dense(fp).unwrap());
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
