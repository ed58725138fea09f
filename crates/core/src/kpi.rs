//! Runtime KPI collection (Section II-A(e)).
//!
//! "Runtime KPIs … are necessary for determining the impact of adjusted
//! configurations … can disclose when the configuration should be
//! adjusted … and help to identify phases of low resource utilization
//! that can be used to run resource-intensive tunings."
//!
//! DBMS KPIs here: query response times (simulated cost). System KPIs:
//! memory usage and utilization (busy time per bucket capacity).
//!
//! Serving threads write through [`KpiCollector::record_query`],
//! [`KpiCollector::record_morsels`] and [`KpiCollector::record_memory`];
//! a bucket closes with [`KpiCollector::end_bucket_accumulated`]; every
//! decision reads one [`KpiSnapshot`] taken under one lock. The snapshot
//! is the only reader, so no decision can mix two boundaries.
//!
//! Determinism: worker threads push latencies in scheduling order, so
//! the raw arrival sequence differs run to run. The collector therefore
//! keeps the latency window *bucket-aligned*: each closed bucket's
//! samples are sorted at close (`f64::total_cmp`), eviction drops whole
//! oldest buckets, and means/percentiles are computed over a sorted
//! view — every statistic read at a bucket boundary is a pure function
//! of the bucket's sample *multiset*, independent of worker count and
//! interleaving. That is what lets the flight-recorder trail serve as a
//! byte-identical oracle across same-seed runs.
//!
//! The sorted view is kept, not rebuilt: the window is held as sorted
//! runs of one value and its count, a close merges its sorted bucket's
//! runs in and an eviction merges the evicted bucket's runs back out,
//! so a snapshot at a boundary reads the window as it stands. Samples
//! equal under `total_cmp` are bit-equal, so a run stands for its
//! samples exactly, and expanding the runs gives the very sequence a
//! full sort of the buckets gives. The runs pay where a window holds
//! far fewer distinct latencies than samples. On the four benchmark
//! workloads a window of up to 4,096 samples held 14 to 133 distinct
//! values, and a close with its run merges cost 6–14 µs against
//! 24–64 µs for merging into one sorted `Vec<f64>`. A snapshot over the
//! runs cost 0.2–2.8 µs more than over the vector, and a close is the
//! more frequent of the two.

use std::collections::VecDeque;

use parking_lot::Mutex;
use smdb_common::Cost;

const LATENCY_WINDOW: usize = 4096;
const BUCKET_WINDOW: usize = 256;
/// Bucket utilization below which the system counts as idle enough for
/// resource-intensive reconfigurations.
const LOW_UTILIZATION_THRESHOLD: f64 = 0.3;

#[derive(Debug, Default)]
struct Inner {
    /// Closed latency buckets, oldest first; each bucket is sorted at
    /// close so every derived statistic is arrival-order-independent.
    closed: VecDeque<Vec<f64>>,
    /// Every sample of `closed`, as sorted `(value, count)` runs of
    /// bit-equal samples.
    window: Vec<(f64, usize)>,
    /// Total samples across `closed`.
    closed_len: usize,
    /// Latencies recorded since the last bucket close (arrival order;
    /// sorted on demand).
    open: Vec<f64>,
    utilization: VecDeque<f64>,
    memory: VecDeque<usize>,
    /// Queries served per closed bucket (throughput history).
    bucket_queries: VecDeque<u64>,
    queries_total: u64,
    /// Queries recorded since the last bucket close.
    open_bucket_queries: u64,
    /// Scan-pool morsels dispatched since the last bucket close (0 when
    /// every scan ran inline).
    open_bucket_morsels: u64,
    /// Set by [`KpiCollector::reset_latencies`]: the utilization and
    /// throughput figures predate the reconfiguration that cleared the
    /// latency window, so they must not be reported as current until a
    /// new bucket closes.
    utilization_stale: bool,
}

/// The runs of `window` with the samples of the sorted `bucket` added
/// (`add`) or taken away (a sub-multiset of the window's samples).
fn merge_runs(window: &[(f64, usize)], bucket: &[f64], add: bool) -> Vec<(f64, usize)> {
    let mut out = Vec::with_capacity(window.len() + 8);
    let mut runs = window.iter().copied().peekable();
    for same in bucket.chunk_by(|a, b| a.to_bits() == b.to_bits()) {
        let (value, n) = (same[0], same.len());
        while let Some(&run) = runs.peek() {
            if run.0.total_cmp(&value).is_ge() {
                break;
            }
            out.push(run);
            runs.next();
        }
        match runs.next_if(|run| run.0.to_bits() == value.to_bits()) {
            Some((_, count)) => {
                let count = if add {
                    count + n
                } else {
                    count.saturating_sub(n)
                };
                if count > 0 {
                    out.push((value, count));
                }
            }
            None => {
                debug_assert!(add, "evicted samples missing from the window");
                if add {
                    out.push((value, n));
                }
            }
        }
    }
    out.extend(runs);
    out
}

/// Mean, p95 and p99 of the `n` samples the sorted runs stand for: the
/// left-to-right sum of the expanded sequence, and its `ceil(n·p)`-th
/// smallest elements.
fn window_stats(runs: &[(f64, usize)], n: usize) -> (Cost, Cost, Cost) {
    if n == 0 {
        return (Cost::ZERO, Cost::ZERO, Cost::ZERO);
    }
    let sum: f64 = runs
        .iter()
        .flat_map(|&(value, count)| std::iter::repeat_n(value, count))
        .sum();
    let percentile = |p: f64| {
        let rank = percentile_rank(n, p);
        let mut seen = 0;
        for &(value, count) in runs {
            seen += count;
            if seen > rank {
                return value;
            }
        }
        0.0
    };
    (
        Cost(sum / n as f64),
        Cost(percentile(0.95)),
        Cost(percentile(0.99)),
    )
}

/// What one bucket close observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketClose {
    /// Busy time the bucket spent executing queries.
    pub busy: Cost,
    /// Busy time over bucket capacity.
    pub utilization: f64,
    /// Queries served in the bucket.
    pub queries: u64,
    /// Scan-pool morsels dispatched in the bucket (0 = all inline).
    pub morsels: u64,
}

/// A point-in-time copy of every KPI a tuning decision reads, taken
/// under one lock. Decisions made from a snapshot see one consistent
/// bucket boundary instead of a live window that worker threads keep
/// mutating — the serving runtime hands a snapshot to the tuning thread
/// with each tick.
#[derive(Debug, Clone, PartialEq)]
pub struct KpiSnapshot {
    /// Mean response over the latency window.
    pub mean_response: Cost,
    /// 95th-percentile response over the latency window.
    pub p95_response: Cost,
    /// 99th-percentile response over the latency window.
    pub p99_response: Cost,
    /// Most recent bucket utilization (`None` before the first close or
    /// while stale after a reset).
    pub utilization: Option<f64>,
    /// Latest memory sample.
    pub memory: Option<usize>,
    /// Queries served in the most recently closed bucket (`None` before
    /// the first close or while stale after a reset).
    pub last_bucket_throughput: Option<u64>,
    /// Total queries observed.
    pub queries_total: u64,
}

impl KpiSnapshot {
    /// Whether the system is idle enough for expensive reconfigurations:
    /// utilization below `LOW_UTILIZATION_THRESHOLD` (0.3). Unknown
    /// utilization counts as idle (startup window).
    pub fn is_low_utilization(&self) -> bool {
        match self.utilization {
            None => true,
            Some(u) => u < LOW_UTILIZATION_THRESHOLD,
        }
    }
}

/// Thread-safe runtime KPI collector. Decisions read it only through
/// [`KpiCollector::snapshot`].
#[derive(Debug)]
pub struct KpiCollector {
    inner: Mutex<Inner>,
    /// Work capacity of one bucket, in ms of query runtime. Utilization
    /// of a bucket = busy ms / capacity.
    pub bucket_capacity: Cost,
}

impl Default for KpiCollector {
    fn default() -> Self {
        KpiCollector::new(Cost(1000.0))
    }
}

impl KpiCollector {
    /// Creates a collector with the given bucket capacity.
    pub fn new(bucket_capacity: Cost) -> Self {
        KpiCollector {
            inner: Mutex::new(Inner::default()),
            bucket_capacity,
        }
    }

    /// Records one query's response time.
    pub fn record_query(&self, latency: Cost) {
        let mut inner = self.inner.lock();
        inner.open.push(latency.ms());
        inner.queries_total += 1;
        inner.open_bucket_queries += 1;
    }

    /// Records morsels dispatched to the scan pool on behalf of queries
    /// in the open bucket. Separate from [`KpiCollector::record_query`]
    /// because a query knows its morsel count only after execution, and
    /// inline scans contribute none.
    pub fn record_morsels(&self, morsels: u64) {
        if morsels == 0 {
            return;
        }
        self.inner.lock().open_bucket_morsels += morsels;
    }

    /// Records a memory usage sample.
    pub fn record_memory(&self, bytes: usize) {
        let mut inner = self.inner.lock();
        if inner.memory.len() == BUCKET_WINDOW {
            inner.memory.pop_front();
        }
        inner.memory.push_back(bytes);
    }

    /// Closes the open time bucket under one lock: takes it, sorts it
    /// once (so downstream sums and percentiles are independent of
    /// worker push order) and moves it into the window. Its busy time is
    /// the sum of the response times [`KpiCollector::record_query`]
    /// accumulated since the previous close, taken over the *sorted*
    /// samples: exact, identical regardless of worker count, and over
    /// exactly the samples the bucket seals. The sort may be unstable:
    /// samples equal under `total_cmp` are bit-equal, so no order among
    /// them is observable.
    pub fn end_bucket_accumulated(&self) -> BucketClose {
        let mut inner = self.inner.lock();
        let mut bucket = std::mem::take(&mut inner.open);
        bucket.sort_unstable_by(f64::total_cmp);
        let busy = Cost(bucket.iter().sum());
        let utilization = (busy.ms() / self.bucket_capacity.ms().max(1e-9)).max(0.0);
        inner.window = merge_runs(&inner.window, &bucket, true);
        inner.closed_len += bucket.len();
        inner.closed.push_back(bucket);
        // Evict whole oldest buckets past the window, always keeping the
        // newest one (a single oversized bucket stays intact).
        while inner.closed_len > LATENCY_WINDOW && inner.closed.len() > 1 {
            if let Some(old) = inner.closed.pop_front() {
                inner.window = merge_runs(&inner.window, &old, false);
                inner.closed_len -= old.len();
            }
        }
        if inner.utilization.len() == BUCKET_WINDOW {
            inner.utilization.pop_front();
        }
        inner.utilization.push_back(utilization);
        let queries = inner.open_bucket_queries;
        if inner.bucket_queries.len() == BUCKET_WINDOW {
            inner.bucket_queries.pop_front();
        }
        inner.bucket_queries.push_back(queries);
        inner.open_bucket_queries = 0;
        let morsels = inner.open_bucket_morsels;
        inner.open_bucket_morsels = 0;
        // A fresh bucket supersedes any pre-reset staleness.
        inner.utilization_stale = false;
        BucketClose {
            busy,
            utilization,
            queries,
            morsels,
        }
    }

    /// Takes a consistent [`KpiSnapshot`] under one lock. At a bucket
    /// boundary it reads the merged window as it stands; samples of a
    /// still-open bucket are sorted and merged into a copy.
    pub fn snapshot(&self) -> KpiSnapshot {
        let inner = self.inner.lock();
        let (mean_response, p95_response, p99_response) = if inner.open.is_empty() {
            window_stats(&inner.window, inner.closed_len)
        } else {
            let mut open = inner.open.clone();
            open.sort_unstable_by(f64::total_cmp);
            let runs = merge_runs(&inner.window, &open, true);
            window_stats(&runs, inner.closed_len + open.len())
        };
        let (utilization, last_bucket_throughput) = if inner.utilization_stale {
            (None, None)
        } else {
            (
                inner.utilization.back().copied(),
                inner.bucket_queries.back().copied(),
            )
        };
        KpiSnapshot {
            mean_response,
            p95_response,
            p99_response,
            utilization,
            memory: inner.memory.back().copied(),
            last_bucket_throughput,
            queries_total: inner.queries_total,
        }
    }

    /// The collector's windows as a serializable value. Taken at a bucket
    /// boundary (the only place the durability layer calls it) the open
    /// bucket is empty, so the state is a pure function of the closed
    /// sample multisets — arrival-order-independent like every other
    /// boundary statistic.
    pub fn export_state(&self) -> KpiState {
        let inner = self.inner.lock();
        KpiState {
            closed: inner.closed.iter().cloned().collect(),
            utilization: inner.utilization.iter().copied().collect(),
            memory: inner.memory.iter().copied().collect(),
            bucket_queries: inner.bucket_queries.iter().copied().collect(),
            queries_total: inner.queries_total,
            utilization_stale: inner.utilization_stale,
        }
    }

    /// Reinstates exported windows (recovery; any open-bucket samples are
    /// discarded, matching the bucket-boundary export) and merges the
    /// sorted window back up from the closed buckets.
    pub fn restore_state(&self, state: KpiState) {
        let mut inner = self.inner.lock();
        inner.window.clear();
        for bucket in &state.closed {
            inner.window = merge_runs(&inner.window, bucket, true);
        }
        inner.closed_len = state.closed.iter().map(Vec::len).sum();
        inner.closed = state.closed.into();
        inner.open.clear();
        inner.utilization = state.utilization.into();
        inner.memory = state.memory.into();
        inner.bucket_queries = state.bucket_queries.into();
        inner.queries_total = state.queries_total;
        inner.open_bucket_queries = 0;
        inner.open_bucket_morsels = 0;
        inner.utilization_stale = state.utilization_stale;
    }

    /// Clears the latency window (used after reconfigurations so the
    /// feedback loop compares before/after cleanly). Also marks the
    /// utilization and throughput figures stale: until the next bucket
    /// closes, a snapshot's `utilization` and `last_bucket_throughput`
    /// are `None` instead of pre-reconfiguration values, which must not
    /// steer a decision.
    pub fn reset_latencies(&self) {
        let mut inner = self.inner.lock();
        inner.closed.clear();
        inner.window.clear();
        inner.closed_len = 0;
        inner.open.clear();
        inner.utilization_stale = true;
    }
}

/// A [`KpiCollector`]'s windows flattened for serialization (taken and
/// restored at bucket boundaries, where the open bucket is empty).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KpiState {
    /// Closed latency buckets, oldest first, each sorted.
    pub closed: Vec<Vec<f64>>,
    /// Per-bucket utilization history, oldest first.
    pub utilization: Vec<f64>,
    /// Memory samples, oldest first.
    pub memory: Vec<usize>,
    /// Queries served per closed bucket, oldest first.
    pub bucket_queries: Vec<u64>,
    /// Total queries observed.
    pub queries_total: u64,
    /// Whether a reset left the utilization figures stale.
    pub utilization_stale: bool,
}

smdb_durable::durable_struct!(KpiState {
    closed,
    utilization,
    memory,
    bucket_queries,
    queries_total,
    utilization_stale
});

/// The 0-based rank of the `ceil(n·p)`-th smallest of `n > 0` samples —
/// the rank rule `smdb_obs::metrics::Histogram::quantile` mirrors.
fn percentile_rank(n: usize, p: f64) -> usize {
    ((n as f64 * p).ceil() as usize).clamp(1, n) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `ceil(n·p)`-th smallest element of a sorted slice (0.0 if
    /// empty).
    fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        sorted[percentile_rank(sorted.len(), p)]
    }

    /// The sorted samples the window's runs stand for.
    fn expanded(inner: &Inner) -> Vec<f64> {
        let runs = inner.window.iter();
        runs.flat_map(|&(v, c)| std::iter::repeat_n(v, c)).collect()
    }

    /// The window the merged one must equal: every closed and open sample
    /// concatenated and sorted afresh.
    fn reference_window(inner: &Inner) -> Vec<f64> {
        let mut v: Vec<f64> = inner.closed.iter().flatten().copied().collect();
        v.extend_from_slice(&inner.open);
        v.sort_unstable_by(f64::total_cmp);
        v
    }

    /// The snapshot statistics of [`reference_window`], as bits.
    fn reference_stats(k: &KpiCollector) -> [u64; 3] {
        let window = reference_window(&k.inner.lock());
        let mean = if window.is_empty() {
            0.0
        } else {
            window.iter().sum::<f64>() / window.len() as f64
        };
        [
            mean,
            percentile_of_sorted(&window, 0.95),
            percentile_of_sorted(&window, 0.99),
        ]
        .map(f64::to_bits)
    }

    fn snapshot_stats(k: &KpiCollector) -> [u64; 3] {
        let snap = k.snapshot();
        [snap.mean_response, snap.p95_response, snap.p99_response].map(|c| c.ms().to_bits())
    }

    /// Latencies with every awkward float: duplicates, ±0.0, subnormals,
    /// infinities and NaNs with payloads of either sign, arbitrary bit
    /// patterns, besides plain values.
    fn sample() -> impl Strategy<Value = f64> {
        const SPECIALS: [f64; 10] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 8.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfff0_0000_0000_0002),
        ];
        (0u32..16, 0u32..64, 0u64..=u64::MAX).prop_map(|(pick, i, raw)| match pick {
            0..=9 => f64::from(i) * 0.125,
            10..=13 => SPECIALS[i as usize % SPECIALS.len()],
            _ => f64::from_bits(raw),
        })
    }

    /// One thing that happens to a collector.
    #[derive(Debug, Clone)]
    enum Op {
        /// Record these samples, then close the bucket or leave it open.
        Bucket(Vec<f64>, bool),
        Reset,
        /// Export and restore into the same collector.
        Restore,
    }

    fn op() -> impl Strategy<Value = Op> {
        let samples = proptest::collection::vec(sample(), 0..1500);
        (0u32..15, samples, 0u32..5).prop_map(|(pick, samples, close)| match pick {
            0 => Op::Reset,
            1 | 2 => Op::Restore,
            _ => Op::Bucket(samples, close != 0),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The merged window is the concatenated-and-sorted one bit for
        /// bit after any sequence of closes, evictions past the window,
        /// resets and restores, with or without open samples, and so is
        /// every statistic a snapshot reads from it.
        #[test]
        fn merged_window_matches_a_full_sort(ops in proptest::collection::vec(op(), 1..16)) {
            let k = KpiCollector::default();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for op in ops {
                match op {
                    Op::Bucket(samples, close) => {
                        samples.iter().for_each(|&x| k.record_query(Cost(x)));
                        prop_assert_eq!(snapshot_stats(&k), reference_stats(&k), "open samples");
                        if close {
                            k.end_bucket_accumulated();
                        }
                    }
                    Op::Reset => k.reset_latencies(),
                    Op::Restore => k.restore_state(k.export_state()),
                }
                let inner = k.inner.lock();
                let mut closed_only: Vec<f64> = inner.closed.iter().flatten().copied().collect();
                closed_only.sort_unstable_by(f64::total_cmp);
                prop_assert_eq!(bits(&expanded(&inner)), bits(&closed_only));
                prop_assert_eq!(inner.closed_len, closed_only.len());
                prop_assert!(
                    inner.closed_len <= LATENCY_WINDOW || inner.closed.len() == 1,
                    "eviction keeps the window bounded"
                );
                drop(inner);
                prop_assert_eq!(snapshot_stats(&k), reference_stats(&k));
            }
        }
    }

    #[test]
    fn response_time_statistics() {
        let k = KpiCollector::default();
        for i in 1..=100 {
            k.record_query(Cost(i as f64));
        }
        let snap = k.snapshot();
        assert!((snap.mean_response.ms() - 50.5).abs() < 1e-9);
        assert_eq!(snap.p95_response.ms(), 95.0);
        assert_eq!(snap.queries_total, 100);
        k.reset_latencies();
        let snap = k.snapshot();
        assert_eq!(snap.mean_response, Cost::ZERO);
        assert_eq!(snap.queries_total, 100);
    }

    #[test]
    fn utilization_tracks_buckets() {
        let k = KpiCollector::new(Cost(100.0));
        assert!(k.snapshot().is_low_utilization(), "startup counts as idle");
        k.record_query(Cost(90.0));
        k.end_bucket_accumulated();
        let snap = k.snapshot();
        assert_eq!(snap.utilization, Some(0.9));
        assert!(!snap.is_low_utilization());
        k.record_query(Cost(10.0));
        k.end_bucket_accumulated();
        assert!(k.snapshot().is_low_utilization());
    }

    #[test]
    fn memory_samples() {
        let k = KpiCollector::default();
        assert_eq!(k.snapshot().memory, None);
        k.record_memory(1000);
        k.record_memory(2000);
        assert_eq!(k.snapshot().memory, Some(2000));
    }

    #[test]
    fn p99_and_bucket_throughput() {
        let k = KpiCollector::new(Cost(1000.0));
        for i in 1..=100 {
            k.record_query(Cost(i as f64));
        }
        let snap = k.snapshot();
        assert_eq!(snap.p99_response.ms(), 99.0);
        assert_eq!(snap.last_bucket_throughput, None, "no bucket closed yet");
        let close = k.end_bucket_accumulated();
        assert_eq!(close.queries, 100);
        assert!((close.busy.ms() - 5050.0).abs() < 1e-9);
        assert!((close.utilization - 5.05).abs() < 1e-9);
        assert_eq!(k.snapshot().last_bucket_throughput, Some(100));
        // The next bucket starts from zero.
        k.record_query(Cost(2.0));
        let close = k.end_bucket_accumulated();
        assert_eq!(close.queries, 1);
        assert_eq!(k.export_state().bucket_queries, vec![100, 1]);
    }

    #[test]
    fn morsels_are_sealed_per_bucket() {
        let k = KpiCollector::default();
        k.record_query(Cost(1.0));
        k.record_morsels(6);
        k.record_morsels(0); // inline scan contributes nothing
        k.record_morsels(2);
        let close = k.end_bucket_accumulated();
        assert_eq!(close.morsels, 8);
        // The next bucket starts from zero again.
        k.record_query(Cost(1.0));
        assert_eq!(k.end_bucket_accumulated().morsels, 0);
    }

    #[test]
    fn reset_between_buckets_stales_utilization() {
        let k = KpiCollector::new(Cost(100.0));
        k.record_query(Cost(90.0));
        k.end_bucket_accumulated();
        assert_eq!(k.snapshot().utilization, Some(0.9));
        // A reconfiguration resets the latency window mid-bucket: the
        // 0.9 figure predates the change and must not leak out.
        k.reset_latencies();
        let snap = k.snapshot();
        assert_eq!(snap.utilization, None);
        assert!(snap.is_low_utilization(), "unknown counts as startup-idle");
        // The next close refreshes the signal.
        k.record_query(Cost(10.0));
        k.end_bucket_accumulated();
        assert_eq!(k.snapshot().utilization, Some(0.1));
    }

    /// Regression for the post-reset snapshot contract: a reset marks
    /// everything derived from the pre-reconfiguration bucket stale, so
    /// the percentiles are a defined zero and the throughput is `None` —
    /// never whatever the last bucket held.
    #[test]
    fn reset_yields_defined_zero_and_none_until_next_close() {
        let k = KpiCollector::new(Cost(100.0));
        for _ in 0..10 {
            k.record_query(Cost(5.0));
        }
        k.end_bucket_accumulated();
        let snap = k.snapshot();
        assert_eq!(snap.last_bucket_throughput, Some(10));
        assert!(snap.p99_response.ms() > 0.0);

        k.reset_latencies();
        let snap = k.snapshot();
        assert_eq!(snap.p99_response, Cost::ZERO);
        assert_eq!(snap.p95_response, Cost::ZERO);
        assert_eq!(snap.mean_response, Cost::ZERO);
        assert_eq!(snap.last_bucket_throughput, None);
        assert_eq!(snap.utilization, None);

        // The next close refreshes both.
        k.record_query(Cost(2.0));
        k.end_bucket_accumulated();
        let snap = k.snapshot();
        assert_eq!(snap.last_bucket_throughput, Some(1));
        assert_eq!(snap.p99_response, Cost(2.0));
    }

    #[test]
    fn snapshot_reads_every_kpi_at_one_boundary() {
        let k = KpiCollector::new(Cost(100.0));
        for i in 1..=20 {
            k.record_query(Cost(i as f64));
        }
        k.record_memory(4096);
        k.end_bucket_accumulated();
        let snap = k.snapshot();
        assert_eq!(snap.mean_response, Cost(10.5));
        // `ceil(n·p)`-th smallest of 1..=20.
        assert_eq!(snap.p95_response, Cost(19.0));
        assert_eq!(snap.p99_response, Cost(20.0));
        assert_eq!(snap.utilization, Some(2.1));
        assert_eq!(snap.memory, Some(4096));
        assert_eq!(snap.last_bucket_throughput, Some(20));
        assert_eq!(snap.queries_total, 20);
        assert!(!snap.is_low_utilization());
        // A snapshot is a copy: later traffic does not change it.
        k.record_query(Cost(1000.0));
        assert_eq!(snap.queries_total, 20);
        assert_eq!(k.snapshot().queries_total, 21);
    }

    #[test]
    fn statistics_are_push_order_independent() {
        let asc = KpiCollector::default();
        let desc = KpiCollector::default();
        for i in 1..=100 {
            asc.record_query(Cost(i as f64));
            desc.record_query(Cost((101 - i) as f64));
        }
        let a = asc.end_bucket_accumulated();
        let b = desc.end_bucket_accumulated();
        assert_eq!(a.busy, b.busy, "sorted sum is exact");
        assert_eq!(asc.snapshot(), desc.snapshot());
    }

    /// A sample recorded while a bucket closes lands either in the sealed
    /// bucket *and* its busy time, or in neither: busy always equals the
    /// left-to-right sum of the bucket the close sealed.
    #[test]
    fn busy_is_the_sum_of_the_sealed_bucket_under_concurrent_records() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let k = KpiCollector::default();
        let stop = AtomicBool::new(false);
        // Checked after the recorder stopped: a panic inside the scope
        // would wait forever on a recorder that never stops.
        let closes: Vec<(BucketClose, Vec<f64>)> = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    k.record_query(Cost(1.0 + (i % 97) as f64 * 0.013));
                    i += 1;
                }
            });
            let closes = (0..200)
                .map(|_| {
                    // Close only while the recorder is mid-stream.
                    let total = || k.inner.lock().queries_total;
                    let seen = total();
                    while total() == seen {
                        std::hint::spin_loop();
                    }
                    let close = k.end_bucket_accumulated();
                    let sealed = k.export_state().closed.pop().unwrap_or_default();
                    (close, sealed)
                })
                .collect();
            stop.store(true, Ordering::Relaxed);
            closes
        });
        for (close, sealed) in closes {
            assert_eq!(close.busy.ms(), sealed.iter().sum::<f64>());
            assert_eq!(close.queries, sealed.len() as u64);
        }
    }

    /// The unstable sorts give the stable sort's windows bit for bit —
    /// duplicates, ±0.0, subnormals and NaN payloads included — and so
    /// the same means and percentiles.
    #[test]
    fn unstable_sorts_match_the_stable_reference_bitwise() {
        let specials = [
            1.5,
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 8.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfff0_0000_0000_0002),
            1.5,
            f64::INFINITY,
            -2.25,
        ];
        let samples: Vec<f64> = (0..350)
            .map(|i| specials[(i * 7 + i / 5) % specials.len()])
            .collect();
        let stable = |v: &[f64]| {
            let mut v = v.to_vec();
            v.sort_by(f64::total_cmp);
            v
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let k = KpiCollector::default();
        // Three sealed buckets and an open one.
        for (i, bucket) in samples.chunks(100).enumerate() {
            bucket.iter().for_each(|&x| k.record_query(Cost(x)));
            if i < 3 {
                k.end_bucket_accumulated();
            }
        }
        for (sealed, raw) in k.export_state().closed.iter().zip(samples.chunks(100)) {
            assert_eq!(bits(sealed), bits(&stable(raw)));
        }
        let window = stable(&samples);
        assert_eq!(bits(&reference_window(&k.inner.lock())), bits(&window));
        let snap = k.snapshot();
        let mean = window.iter().sum::<f64>() / window.len() as f64;
        assert_eq!(snap.mean_response.ms().to_bits(), mean.to_bits());
        for (got, p) in [(snap.p95_response, 0.95), (snap.p99_response, 0.99)] {
            assert_eq!(
                got.ms().to_bits(),
                percentile_of_sorted(&window, p).to_bits()
            );
        }
    }

    #[test]
    fn windows_are_bounded() {
        let k = KpiCollector::default();
        // 8 closed buckets of 1024 samples: eviction keeps whole buckets
        // and the total within the window.
        for bucket in 0..8 {
            for i in 0..1024 {
                k.record_query(Cost((bucket * 1024 + i) as f64));
            }
            k.end_bucket_accumulated();
        }
        let inner = k.inner.lock();
        assert!(inner.closed_len <= LATENCY_WINDOW);
        assert_eq!(inner.closed_len, 4096, "4 whole buckets retained");
        drop(inner);
        // The retained window is the most recent samples: its minimum is
        // the first sample of bucket 4.
        let p_min = percentile_of_sorted(&expanded(&k.inner.lock()), 0.0);
        assert_eq!(p_min, (4 * 1024) as f64);
    }

    #[test]
    fn export_restore_roundtrips_at_bucket_boundary() {
        let k = KpiCollector::new(Cost(100.0));
        for i in 1..=50 {
            k.record_query(Cost(i as f64));
        }
        k.record_memory(2048);
        k.end_bucket_accumulated();
        let state = k.export_state();
        let restored = KpiCollector::new(Cost(100.0));
        restored.restore_state(state.clone());
        assert_eq!(restored.snapshot(), k.snapshot());
        assert_eq!(restored.export_state(), state);
        // Staleness survives the round trip.
        k.reset_latencies();
        let stale = KpiCollector::new(Cost(100.0));
        stale.restore_state(k.export_state());
        assert_eq!(stale.snapshot().utilization, None);
    }

    #[test]
    fn one_oversized_bucket_is_kept_intact() {
        let k = KpiCollector::default();
        for i in 0..(LATENCY_WINDOW + 10) {
            k.record_query(Cost(i as f64));
        }
        k.end_bucket_accumulated();
        assert_eq!(k.inner.lock().closed_len, LATENCY_WINDOW + 10);
        // A following small bucket evicts the oversized one whole.
        k.record_query(Cost(1.0));
        k.end_bucket_accumulated();
        assert_eq!(k.inner.lock().closed_len, 1);
    }
}
