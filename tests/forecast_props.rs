//! Property-based tests for the workload predictor: the forecast is the
//! trailing moving average, histories diff plan-cache snapshots exactly,
//! and clustering conserves weight.

use proptest::prelude::*;

use smdb::common::{ColumnId, Cost, LogicalTime, TableId};
use smdb::forecast::cluster::cluster_templates;
use smdb::forecast::{PredictorConfig, WorkloadHistory, WorkloadPredictor};
use smdb::query::{PlanCache, Query};
use smdb::storage::ScanPredicate;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn forecast_is_the_trailing_mean(
        bucket_counts in proptest::collection::vec(0usize..12, 1..40),
    ) {
        let q = template(0);
        let mut cache = PlanCache::default();
        let mut hist = WorkloadHistory::new();
        for (bucket, &count) in bucket_counts.iter().enumerate() {
            for _ in 0..count {
                cache.record(&q, Cost(1.0), LogicalTime(bucket as u64));
            }
            hist.observe(LogicalTime(bucket as u64), &cache.snapshot());
        }
        let set = WorkloadPredictor::new(PredictorConfig::default()).predict(&hist);
        for s in set.iter() {
            prop_assert!(s.workload.queries().iter().all(|wq| wq.weight.is_finite() && wq.weight >= 0.0),
                "{} has an invalid weight", s.name);
        }
        // The expected weight is the mean of the last four buckets.
        let tail = &bucket_counts[bucket_counts.len().saturating_sub(4)..];
        let mean = tail.iter().map(|&c| c as f64).sum::<f64>() / tail.len() as f64;
        let weight = set.expected().map_or(0.0, |e| e.workload.total_weight());
        prop_assert_eq!(weight.to_bits(), mean.to_bits());
    }

    #[test]
    fn history_counts_match_recorded_executions(
        bucket_counts in proptest::collection::vec(0usize..12, 1..8),
    ) {
        let q = Query::new(
            TableId(0),
            "t",
            vec![ScanPredicate::eq(ColumnId(0), 1i64)],
            None,
            "q",
        );
        let mut cache = PlanCache::default();
        let mut hist = WorkloadHistory::new();
        for (bucket, &count) in bucket_counts.iter().enumerate() {
            for _ in 0..count {
                cache.record(&q, Cost(1.0), LogicalTime(bucket as u64));
            }
            hist.observe(LogicalTime(bucket as u64), &cache.snapshot());
        }
        let total: usize = bucket_counts.iter().sum();
        if total == 0 {
            prop_assert!(hist.template(q.fingerprint()).is_none()
                || hist.template(q.fingerprint()).expect("exists").total == 0.0);
        } else {
            let th = hist.template(q.fingerprint()).expect("observed");
            let series = th.series(0, bucket_counts.len() as u64);
            let expected: Vec<f64> = bucket_counts.iter().map(|&c| c as f64).collect();
            prop_assert_eq!(series, expected);
            prop_assert_eq!(th.total, total as f64);
        }
    }

    #[test]
    fn clustering_partitions_and_conserves_weight(
        counts in proptest::collection::vec(1usize..9, 1..24),
        k in 1usize..8,
        seed in 0u64..8,
    ) {
        let mut cache = PlanCache::default();
        let mut hist = WorkloadHistory::new();
        for (i, &c) in counts.iter().enumerate() {
            let q = Query::new(
                TableId((i % 3) as u32),
                format!("t{}", i % 3),
                vec![ScanPredicate::eq(ColumnId((i % 5) as u16), i as i64)],
                None,
                format!("q{i}"),
            );
            for _ in 0..c {
                cache.record(&q, Cost(1.0), LogicalTime(0));
            }
        }
        hist.observe(LogicalTime(0), &cache.snapshot());
        let n_templates = hist.len();

        let clusters = cluster_templates(&hist, k, seed);
        let members: usize = clusters.iter().map(|c| c.members.len()).sum();
        prop_assert_eq!(members, n_templates, "partition covers all templates");
        prop_assert!(clusters.len() <= k.min(n_templates));
        let weight: f64 = clusters.iter().map(|c| c.total_weight).sum();
        let expected: f64 = hist.iter().map(|(_, th)| th.total).sum();
        prop_assert!((weight - expected).abs() < 1e-9);
        for c in &clusters {
            prop_assert!(c.members.contains(&c.representative));
        }
    }

    #[test]
    fn forecast_probabilities_normalised(
        counts in proptest::collection::vec(1usize..10, 1..6),
        samples in 0usize..4,
    ) {
        let mut cache = PlanCache::default();
        let mut hist = WorkloadHistory::new();
        for (bucket, &c) in counts.iter().enumerate() {
            let q = Query::new(
                TableId(0),
                "t",
                vec![ScanPredicate::eq(ColumnId(0), 1i64)],
                None,
                "q",
            );
            for _ in 0..c {
                cache.record(&q, Cost(1.0), LogicalTime(bucket as u64));
            }
            hist.observe(LogicalTime(bucket as u64), &cache.snapshot());
        }
        let predictor =
            WorkloadPredictor::new(PredictorConfig { samples, ..PredictorConfig::default() });
        let set = predictor.predict(&hist);
        prop_assert!(!set.is_empty());
        prop_assert!((set.total_probability() - 1.0).abs() < 1e-9);
        prop_assert!(set.expected().is_some());
        // Worst case dominates expected in total weight.
        let e = set.expected().expect("expected").workload.total_weight();
        let w = set.worst_case().expect("worst").workload.total_weight();
        prop_assert!(w >= e - 1e-9);
    }
}

// --- incremental predict == from-scratch predict ---------------------------

use smdb::common::seeded_rng;
use smdb::forecast::ForecastSet;

fn template(col: u16) -> Query {
    Query::new(
        TableId(0),
        "t",
        vec![ScanPredicate::eq(ColumnId(col), 1i64)],
        None,
        format!("q{col}"),
    )
}

/// One bucket of the seeded stream: template 0 is always busy, template
/// 1 first appears at bucket 300, template 2 is sporadic, and every
/// seventh bucket executes nothing at all.
fn record_bucket(cache: &mut PlanCache, rng: &mut impl rand::Rng, bucket: u64) {
    if bucket % 7 == 3 {
        return;
    }
    let mut run = |col: u16, count: usize| {
        for _ in 0..count {
            cache.record(&template(col), Cost(1.0), LogicalTime(bucket));
        }
    };
    run(0, 5 + rng.random_range(0..10usize) + (bucket % 12) as usize);
    if bucket >= 300 {
        run(1, 1 + rng.random_range(0..6usize));
    }
    if rng.random_range(0..3usize) == 0 {
        run(2, rng.random_range(0..4usize));
    }
}

/// `ForecastSet` as comparable bits: one line per scenario with its
/// kind, name, probability and per-query weight.
fn bits(set: &ForecastSet) -> Vec<String> {
    set.iter()
        .map(|s| {
            let weights: Vec<(u64, u64)> = s
                .workload
                .queries()
                .iter()
                .map(|wq| (wq.query.fingerprint(), wq.weight.to_bits()))
                .collect();
            let (kind, p) = (s.kind, s.probability.to_bits());
            format!("{kind:?}/{} p={p:x} {weights:x?}", s.name)
        })
        .collect()
}

/// Drives one long-lived predictor over a seeded 5,000-bucket history,
/// predicting every bucket, and compares every forecast bit for bit with
/// a fresh predictor's (no backtests yet) over the same history. Three
/// events change points the long-lived predictor already read: a bucket
/// observed twice, an export/restore of the history, and an observation
/// below the span's first bucket (every dense series shifts). Around
/// them, and at a few checkpoints, the forecast is also compared with a
/// fresh predictor's over a history rebuilt from the exported sparse
/// state (dense series re-derived from the bucket maps).
#[test]
fn incremental_predict_equals_from_scratch() {
    let buckets = 5_000;
    // The stream starts here, so a later observation can fall below it.
    let first = 8;
    let (twice, restore, below) = (1_500, 2_500, 3_500);
    let checkpoints = [1, 2, 3, 4, 5, 9, 40, 100, 300, buckets];
    let predictor = WorkloadPredictor::new(PredictorConfig::default());
    let mut rng = seeded_rng(0xF0CA57);
    let mut cache = PlanCache::default();
    let mut hist = WorkloadHistory::new();
    for done in 1..=buckets {
        let bucket = first + done - 1;
        if done == twice + 1 {
            // The bucket the last forecast read, observed again.
            record_bucket(&mut cache, &mut rng, bucket - 1);
            hist.observe(LogicalTime(bucket - 1), &cache.snapshot());
        }
        record_bucket(&mut cache, &mut rng, bucket);
        hist.observe(LogicalTime(bucket), &cache.snapshot());
        if done == restore {
            hist = WorkloadHistory::restore_state(hist.export_state());
        }
        if done == below {
            record_bucket(&mut cache, &mut rng, first - 5);
            hist.observe(LogicalTime(first - 5), &cache.snapshot());
            assert_eq!(hist.span().map(|(lo, _)| lo), Some(first - 5));
        }
        let incremental = predictor.predict(&hist);
        let fresh = WorkloadPredictor::new(PredictorConfig::default()).predict(&hist);
        assert_eq!(bits(&incremental), bits(&fresh), "after {done} buckets");
        let near_event = |at: u64| done + 1 >= at && done <= at + 2;
        if checkpoints.contains(&done) || [twice + 1, restore, below].into_iter().any(near_event) {
            let scratch_hist = WorkloadHistory::restore_state(hist.export_state());
            let scratch = WorkloadPredictor::new(PredictorConfig::default()).predict(&scratch_hist);
            assert_eq!(
                bits(&incremental),
                bits(&scratch),
                "restored, after {done} buckets"
            );
        }
    }
}
