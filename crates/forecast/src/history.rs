//! Per-template workload history.
//!
//! Built by diffing successive plan-cache observations: each call to
//! [`WorkloadHistory::observe`] attributes the executions since the last
//! observation to the current time bucket. This keeps the query path free of
//! forecasting hooks (Section II-C: "by relying on the query plan cache,
//! no further overhead is added during query execution time").
//!
//! Beside each template's persisted sparse `buckets` map the history
//! keeps its **dense** count series over the observed span, extended by
//! the one new bucket per `observe`, so the predictor reads a slice
//! instead of re-materialising the series per forecast. The dense series
//! is derived state: never exported, rebuilt by `restore_state`.
//!
//! Each dense series carries a **stamp**, unique in the process, that
//! changes whenever a point already in the series changes — a re-observed
//! bucket, a rebuild after a bucket before the span, a restored history —
//! and never when `observe` only appends. A reader that kept a prefix
//! under the same stamp therefore still holds a prefix of the series.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use smdb_common::{Cost, LogicalTime};
use smdb_query::{PlanCacheEntry, Query};

/// History of one template.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateHistory {
    /// A recent concrete instance, used to materialise forecast workloads.
    pub example: Query,
    /// Executions attributed to each observed bucket.
    pub buckets: BTreeMap<u64, f64>,
    /// Mean observed cost per execution (running).
    pub mean_cost: Cost,
    /// Total executions ever observed.
    pub total: f64,
}

smdb_durable::durable_struct!(TemplateHistory {
    example,
    buckets,
    mean_cost,
    total
});

impl TemplateHistory {
    /// Dense count series covering buckets `[from, to)` (zeros filled).
    pub fn series(&self, from: u64, to: u64) -> Vec<f64> {
        (from..to)
            .map(|b| self.buckets.get(&b).copied().unwrap_or(0.0))
            .collect()
    }
}

/// A stamp no dense series has carried before.
fn fresh_stamp() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // ordering: only uniqueness matters; no other memory is published.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A template's history plus its derived dense series.
#[derive(Debug)]
struct Tracked {
    history: TemplateHistory,
    /// `history.series(lo, hi)` over the history's span, kept current.
    dense: Vec<f64>,
    /// Changes whenever a point of `dense` changes after it was set.
    stamp: u64,
}

impl Tracked {
    fn new(history: TemplateHistory) -> Self {
        Tracked {
            history,
            dense: Vec::new(),
            stamp: fresh_stamp(),
        }
    }
}

/// Histories for all observed templates.
#[derive(Debug, Default)]
pub struct WorkloadHistory {
    templates: HashMap<u64, Tracked>,
    /// Cumulative (executions, cost) at the previous snapshot.
    last_totals: HashMap<u64, (u64, Cost)>,
    /// First and last observed bucket.
    span: Option<(u64, u64)>,
}

impl WorkloadHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        WorkloadHistory::default()
    }

    /// Absorbs the plan cache's entries at `now`, attributing all
    /// executions since the previous observation to bucket `now`. Each
    /// entry is keyed by its example's cached fingerprint, unique per
    /// entry, so the order the entries arrive in cannot matter.
    pub fn observe<'a>(
        &mut self,
        now: LogicalTime,
        entries: impl IntoIterator<Item = &'a PlanCacheEntry>,
    ) {
        let bucket = now.raw();
        let (lo, hi) = match self.span {
            None => (bucket, bucket + 1),
            Some((lo, hi)) => (lo.min(bucket), hi.max(bucket + 1)),
        };
        let lo_moved = self.span.is_some_and(|(old_lo, _)| lo < old_lo);
        self.span = Some((lo, hi));
        for entry in entries {
            let fp = entry.example.fingerprint();
            let (prev_exec, prev_cost) = self
                .last_totals
                .get(&fp)
                .copied()
                .unwrap_or((0, Cost::ZERO));
            let delta_exec = entry.executions.saturating_sub(prev_exec);
            let delta_cost = entry.total_cost - prev_cost;
            self.last_totals
                .insert(fp, (entry.executions, entry.total_cost));

            let tracked = self.templates.entry(fp).or_insert_with(|| {
                Tracked::new(TemplateHistory {
                    example: entry.example.clone(),
                    buckets: BTreeMap::new(),
                    mean_cost: Cost::ZERO,
                    total: 0.0,
                })
            });
            let hist = &mut tracked.history;
            if delta_exec > 0 {
                *hist.buckets.entry(bucket).or_insert(0.0) += delta_exec as f64;
                let new_total = hist.total + delta_exec as f64;
                // Running mean of per-execution cost.
                hist.mean_cost = (hist.mean_cost * hist.total + delta_cost) / new_total;
                hist.total = new_total;
            }
        }
        if lo_moved {
            // A bucket before the span: every dense series shifts.
            self.rebuild_dense();
            return;
        }
        let (len, at) = ((hi - lo) as usize, (bucket - lo) as usize);
        // det: each template is updated independently of visit order.
        for tracked in self.templates.values_mut() {
            let set = tracked.dense.len();
            tracked.dense.resize(len, 0.0);
            if let Some(&count) = tracked.history.buckets.get(&bucket) {
                if at < set && tracked.dense[at].to_bits() != count.to_bits() {
                    tracked.stamp = fresh_stamp();
                }
                tracked.dense[at] = count;
            }
        }
    }

    /// Re-derives every dense series from the sparse buckets.
    fn rebuild_dense(&mut self) {
        let (lo, hi) = self.span.unwrap_or((0, 0));
        // det: each template is rebuilt independently of visit order.
        for tracked in self.templates.values_mut() {
            tracked.dense = tracked.history.series(lo, hi);
            tracked.stamp = fresh_stamp();
        }
    }

    /// Number of observed templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Whether no template has been observed.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// The observed bucket span `[first, last+1)`, if any.
    pub fn span(&self) -> Option<(u64, u64)> {
        self.span
    }

    /// The history of one template.
    pub fn template(&self, fingerprint: u64) -> Option<&TemplateHistory> {
        self.templates.get(&fingerprint).map(|t| &t.history)
    }

    /// Iterates over `(fingerprint, history)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &TemplateHistory)> {
        self.iter_dense().map(|(fp, history, _, _)| (fp, history))
    }

    /// Like [`Self::iter`], with each template's dense count series over
    /// [`Self::span`] (equal to `history.series(lo, hi)`, not rebuilt)
    /// and the series' stamp (see the module docs).
    pub fn iter_dense(&self) -> impl Iterator<Item = (u64, &TemplateHistory, &[f64], u64)> {
        let mut keys: Vec<u64> = self.templates.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter().map(move |k| {
            let tracked = &self.templates[&k];
            (k, &tracked.history, tracked.dense.as_slice(), tracked.stamp)
        })
    }

    /// One template's dense count series over [`Self::span`].
    pub fn dense(&self, fingerprint: u64) -> Option<&[f64]> {
        self.templates.get(&fingerprint).map(|t| t.dense.as_slice())
    }

    /// The full history as a deterministic, serializable value (sorted by
    /// fingerprint — the hash-map iteration order never leaks out).
    pub fn export_state(&self) -> WorkloadHistoryState {
        let mut templates: Vec<(u64, TemplateHistory)> = self
            .templates
            .iter()
            .map(|(&fp, tracked)| (fp, tracked.history.clone()))
            .collect();
        templates.sort_by_key(|(fp, _)| *fp);
        let mut last_totals: Vec<(u64, u64, Cost)> = self
            .last_totals
            .iter()
            .map(|(&fp, &(exec, cost))| (fp, exec, cost))
            .collect();
        last_totals.sort_by_key(|(fp, _, _)| *fp);
        WorkloadHistoryState {
            templates,
            last_totals,
            span: self.span,
        }
    }

    /// Rebuilds a history from exported state (the dense series are
    /// re-derived here; they are not part of the state).
    pub fn restore_state(state: WorkloadHistoryState) -> Self {
        let mut history = WorkloadHistory {
            templates: state
                .templates
                .into_iter()
                .map(|(fp, history)| (fp, Tracked::new(history)))
                .collect(),
            last_totals: state
                .last_totals
                .into_iter()
                .map(|(fp, exec, cost)| (fp, (exec, cost)))
                .collect(),
            span: state.span,
        };
        history.rebuild_dense();
        history
    }
}

/// A [`WorkloadHistory`] flattened for serialization: plain sorted
/// vectors instead of hash maps, so encoding is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadHistoryState {
    /// `(template fingerprint, history)`, sorted by fingerprint.
    pub templates: Vec<(u64, TemplateHistory)>,
    /// `(template fingerprint, cumulative executions, cumulative cost)`
    /// at the previous snapshot, sorted by fingerprint.
    pub last_totals: Vec<(u64, u64, Cost)>,
    /// First and last observed bucket.
    pub span: Option<(u64, u64)>,
}

smdb_durable::durable_struct!(WorkloadHistoryState {
    templates,
    last_totals,
    span
});

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::{ColumnId, TableId};
    use smdb_query::PlanCache;
    use smdb_storage::ScanPredicate;

    fn q(v: i64) -> Query {
        Query::new(
            TableId(0),
            "t",
            vec![ScanPredicate::eq(ColumnId(0), v)],
            None,
            "q",
        )
    }

    #[test]
    fn diffs_snapshots_into_buckets() {
        let mut cache = PlanCache::default();
        let mut hist = WorkloadHistory::new();

        cache.record(&q(1), Cost(2.0), LogicalTime(0));
        cache.record(&q(2), Cost(2.0), LogicalTime(0));
        hist.observe(LogicalTime(0), &cache.snapshot());

        cache.record(&q(3), Cost(4.0), LogicalTime(1));
        hist.observe(LogicalTime(1), &cache.snapshot());
        // Bucket without activity.
        hist.observe(LogicalTime(2), &cache.snapshot());

        assert_eq!(hist.len(), 1);
        let (_, th) = hist.iter().next().unwrap();
        assert_eq!(th.series(0, 3), vec![2.0, 1.0, 0.0]);
        assert_eq!(th.total, 3.0);
        // Mean cost: (2+2+4)/3.
        assert!((th.mean_cost.ms() - 8.0 / 3.0).abs() < 1e-9);
        assert_eq!(hist.span(), Some((0, 3)));
    }

    #[test]
    fn multiple_templates_tracked_independently() {
        let mut cache = PlanCache::default();
        let mut hist = WorkloadHistory::new();
        let other = Query::new(
            TableId(1),
            "u",
            vec![ScanPredicate::eq(ColumnId(0), 1i64)],
            None,
            "other",
        );
        cache.record(&q(1), Cost(1.0), LogicalTime(0));
        cache.record(&other, Cost(1.0), LogicalTime(0));
        hist.observe(LogicalTime(0), &cache.snapshot());
        assert_eq!(hist.len(), 2);
        assert!(hist.template(q(0).fingerprint()).is_some());
        assert!(hist.template(other.fingerprint()).is_some());
    }

    #[test]
    fn example_query_is_a_concrete_instance() {
        let mut cache = PlanCache::default();
        let mut hist = WorkloadHistory::new();
        cache.record(&q(1), Cost(1.0), LogicalTime(0));
        hist.observe(LogicalTime(0), &cache.snapshot());
        cache.record(&q(42), Cost(1.0), LogicalTime(1));
        hist.observe(LogicalTime(1), &cache.snapshot());
        let th = hist.template(q(0).fingerprint()).unwrap();
        assert_eq!(
            th.example.predicates()[0].value,
            smdb_storage::Value::Int(1)
        );
    }

    #[test]
    fn dense_series_mirror_the_sparse_buckets() {
        let check = |hist: &WorkloadHistory| {
            let (lo, hi) = hist.span().unwrap();
            for (_, th, dense, _) in hist.iter_dense() {
                assert_eq!(dense, th.series(lo, hi));
            }
        };
        let other = Query::new(TableId(1), "u", vec![], None, "late");
        let mut cache = PlanCache::default();
        let mut hist = WorkloadHistory::new();
        // Buckets 5..9: one idle, a template first seen at 8, and bucket 8
        // observed twice.
        for (bucket, late) in [(5, false), (6, false), (7, false), (8, true), (8, true)] {
            if bucket != 6 {
                cache.record(&q(1), Cost(1.0), LogicalTime(bucket));
            }
            if late {
                cache.record(&other, Cost(1.0), LogicalTime(bucket));
            }
            hist.observe(LogicalTime(bucket), &cache.snapshot());
            check(&hist);
        }
        let dense_of = |q: &Query| {
            let found = hist.iter_dense().find(|(fp, ..)| *fp == q.fingerprint());
            found.unwrap().2.to_vec()
        };
        assert_eq!(dense_of(&q(1)), [1.0, 0.0, 1.0, 2.0]);
        assert_eq!(dense_of(&other), [0.0, 0.0, 0.0, 2.0]);
        // A bucket before the span shifts every series.
        cache.record(&q(1), Cost(1.0), LogicalTime(3));
        hist.observe(LogicalTime(3), &cache.snapshot());
        assert_eq!(hist.span(), Some((3, 9)));
        check(&hist);
        check(&WorkloadHistory::restore_state(hist.export_state()));
    }

    /// Observing the borrowed entries equals observing a cloned snapshot,
    /// through a seeded record sequence whose templates outnumber the
    /// cache and so keep evicting each other.
    #[test]
    fn entries_and_snapshot_observe_alike() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut cache = PlanCache::new(4);
        let (mut via_entries, mut via_snapshot) = (WorkloadHistory::new(), WorkloadHistory::new());
        for bucket in 0..40 {
            for _ in 0..rng.random_range(0..12) {
                let table = TableId(rng.random_range(0u32..9));
                let value = rng.random_range(0i64..50);
                let pred = vec![ScanPredicate::eq(ColumnId(0), value)];
                let query = Query::new(table, "t", pred, None, "q");
                let cost = Cost(rng.random_range(1i64..20) as f64 * 0.5);
                cache.record(&query, cost, LogicalTime(bucket));
            }
            via_entries.observe(LogicalTime(bucket), cache.entries());
            via_snapshot.observe(LogicalTime(bucket), &cache.snapshot());
        }
        assert!(cache.evictions() > 0, "the sequence must evict");
        assert_eq!(via_entries.export_state(), via_snapshot.export_state());
    }

    #[test]
    fn empty_history() {
        let hist = WorkloadHistory::new();
        assert!(hist.is_empty());
        assert_eq!(hist.span(), None);
    }
}
