//! The workload predictor: history → (clustering) → analyzer →
//! scenarios.
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

use crate::analyzer::{residual_std, WorkloadAnalyzer};
use crate::cluster::cluster_templates;
use crate::history::WorkloadHistory;
use crate::scenario::{ForecastSet, ScenarioKind, WorkloadScenario};

/// Predictor configuration.
pub struct PredictorConfig {
    /// Forecast horizon in buckets; per-template weights are the summed
    /// forecast counts over the horizon.
    pub horizon: usize,
    /// Cluster count for workload compression; `None` disables clustering.
    pub clusters: Option<usize>,
    /// Sampled scenarios to generate besides expected and worst case.
    pub samples: usize,
    /// Worst-case inflation in residual standard deviations.
    pub worst_case_sigmas: f64,
    /// Probability mass of the expected scenario; the rest is split
    /// between worst case and samples.
    pub expected_probability: f64,
    /// Seed for sampling noise and clustering.
    pub seed: u64,
    /// Minimum training prefix for backtest residuals.
    pub min_train: usize,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            horizon: 1,
            clusters: None,
            samples: 3,
            worst_case_sigmas: 2.0,
            expected_probability: 0.6,
            seed: 0xC0FFEE,
            min_train: 3,
        }
    }
}

/// One template's one-step backtest, kept across `predict` calls.
#[derive(Default)]
struct Backtest {
    /// The series the residuals were computed over.
    seen: Vec<f64>,
    /// `analyzer.backtest_residuals(&seen, min_train)`.
    residuals: Vec<f64>,
}

impl Backtest {
    /// Brings the backtest up to `series` — by the new points alone when
    /// `seen` is a prefix of it — and returns the residuals.
    fn extend(
        &mut self,
        analyzer: &dyn WorkloadAnalyzer,
        series: &[f64],
        min_train: usize,
    ) -> &[f64] {
        if !series.starts_with(&self.seen) {
            self.seen.clear();
            self.residuals.clear();
        }
        let from = self.seen.len().max(min_train);
        analyzer.extend_backtest_residuals(series, from, &mut self.residuals);
        self.seen.extend_from_slice(&series[self.seen.len()..]);
        &self.residuals
    }
}

/// The workload predictor component.
pub struct WorkloadPredictor {
    analyzer: Box<dyn WorkloadAnalyzer>,
    config: PredictorConfig,
    /// Backtests by template fingerprint (unclustered path only).
    backtests: Mutex<BTreeMap<u64, Backtest>>,
}

impl WorkloadPredictor {
    /// Creates a predictor around an exchangeable analyzer.
    pub fn new(analyzer: Box<dyn WorkloadAnalyzer>, config: PredictorConfig) -> Self {
        WorkloadPredictor {
            analyzer,
            config,
            backtests: Mutex::new(BTreeMap::new()),
        }
    }

    /// The backtest cache. A panic inside an analyzer may have left an
    /// entry half-extended; the cache is derived, so drop it all.
    fn backtests(&self) -> MutexGuard<'_, BTreeMap<u64, Backtest>> {
        self.backtests.lock().unwrap_or_else(|poisoned| {
            let mut cache = poisoned.into_inner();
            cache.clear();
            cache
        })
    }

    /// The analyzer's name (for experiment tables).
    pub fn analyzer_name(&self) -> &str {
        self.analyzer.name()
    }

    /// The configuration.
    pub fn config(&self) -> &PredictorConfig {
        &self.config
    }

    /// Produces the forecast scenario set from the observed history.
    ///
    /// Per template (or per cluster representative when compression is
    /// on): forecast the next `horizon` buckets, sum to an expected
    /// weight, and estimate uncertainty from one-step backtest residuals.
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
        let mut sigmas: Vec<f64> = Vec::with_capacity(units.len());
        let mut backtests = self.backtests();
        let (analyzer, min_train) = (self.analyzer.as_ref(), self.config.min_train);
        for unit in &units {
            let forecast = self.analyzer.forecast(&unit.series, self.config.horizon);
            let weight: f64 = forecast.iter().sum();
            let residual_sigma = match unit.template {
                Some(fp) => residual_std(backtests.entry(fp).or_default().extend(
                    analyzer,
                    &unit.series,
                    min_train,
                )),
                None => residual_std(&analyzer.backtest_residuals(&unit.series, min_train)),
            };
            let sigma = residual_sigma * (self.config.horizon as f64).sqrt();
            sigmas.push(sigma);
            if weight > 0.0 || sigma > 0.0 {
                expected.push(unit.example.clone(), weight);
                worst.push(
                    unit.example.clone(),
                    weight + self.config.worst_case_sigmas * sigma,
                );
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
            name: format!("expected/{}", self.analyzer.name()),
            probability: self.config.expected_probability,
            workload: expected.clone(),
        }];
        let rest = (1.0 - self.config.expected_probability).max(0.0);
        let worst_p = rest * 0.5;
        scenarios.push(WorkloadScenario {
            kind: ScenarioKind::WorstCase,
            name: format!("worst_case/{:.1}sigma", self.config.worst_case_sigmas),
            probability: worst_p,
            workload: worst,
        });

        // Sampled scenarios: expected weights + Gaussian-ish noise
        // (sum of 4 uniforms, deterministic).
        if self.config.samples > 0 {
            let sample_p = (rest - worst_p) / self.config.samples as f64;
            let mut rng = seeded_rng(self.config.seed ^ 0x5EED);
            for s in 0..self.config.samples {
                let mut w = Workload::default();
                for (i, unit) in units.iter().enumerate() {
                    let base = expected
                        .queries()
                        .iter()
                        .find(|wq| wq.query.fingerprint() == unit.example.fingerprint())
                        .map_or(0.0, |wq| wq.weight);
                    let noise: f64 =
                        (0..4).map(|_| rng.random::<f64>() - 0.5).sum::<f64>() * sigmas[i] * 1.732; // var(sum of 4 U(-.5,.5)) = 1/3 → scale to σ²
                    let sampled = (base + noise).max(0.0);
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
    use crate::analyzers::{LastValue, LinearTrend};
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
    fn expected_scenario_reflects_stable_workload() {
        let hist = build_history(&[&[(0, 10), (1, 5)], &[(0, 10), (1, 5)], &[(0, 10), (1, 5)]]);
        let p = WorkloadPredictor::new(Box::new(LastValue), PredictorConfig::default());
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
    }

    #[test]
    fn trend_analyzer_extrapolates_growth() {
        let hist = build_history(&[&[(0, 2)], &[(0, 4)], &[(0, 6)], &[(0, 8)]]);
        let p = WorkloadPredictor::new(Box::new(LinearTrend), PredictorConfig::default());
        let set = p.predict(&hist);
        let w = set.expected().unwrap().workload.queries()[0].weight;
        assert!((w - 10.0).abs() < 1e-6, "expected 10, got {w}");
    }

    #[test]
    fn worst_case_at_least_expected() {
        let hist = build_history(&[&[(0, 10)], &[(0, 2)], &[(0, 12)], &[(0, 3)], &[(0, 9)]]);
        let p = WorkloadPredictor::new(Box::new(LastValue), PredictorConfig::default());
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
        let p = WorkloadPredictor::new(Box::new(LastValue), config);
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
        let p = WorkloadPredictor::new(Box::new(LastValue), PredictorConfig::default());
        assert!(p.predict(&hist).is_empty());
    }

    #[test]
    fn deterministic_sampling() {
        let hist = build_history(&[&[(0, 5)], &[(0, 7)], &[(0, 6)]]);
        let p1 = WorkloadPredictor::new(Box::new(LastValue), PredictorConfig::default());
        let p2 = WorkloadPredictor::new(Box::new(LastValue), PredictorConfig::default());
        let a = p1.predict(&hist);
        let b = p2.predict(&hist);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.workload.total_weight(), y.workload.total_weight());
        }
    }
}
