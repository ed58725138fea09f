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

impl Inner {
    /// All windowed latencies (closed buckets + open bucket), sorted.
    fn sorted_window(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.closed_len + self.open.len());
        for bucket in &self.closed {
            v.extend_from_slice(bucket);
        }
        v.extend_from_slice(&self.open);
        v.sort_unstable_by(f64::total_cmp);
        v
    }
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
        inner.closed_len += bucket.len();
        inner.closed.push_back(bucket);
        // Evict whole oldest buckets past the window, always keeping the
        // newest one (a single oversized bucket stays intact).
        while inner.closed_len > LATENCY_WINDOW && inner.closed.len() > 1 {
            if let Some(old) = inner.closed.pop_front() {
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

    /// Takes a consistent [`KpiSnapshot`] under one lock.
    pub fn snapshot(&self) -> KpiSnapshot {
        let inner = self.inner.lock();
        let window = inner.sorted_window();
        let mean_response = if window.is_empty() {
            Cost::ZERO
        } else {
            Cost(window.iter().sum::<f64>() / window.len() as f64)
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
            p95_response: Cost(percentile_of_sorted(&window, 0.95)),
            p99_response: Cost(percentile_of_sorted(&window, 0.99)),
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
    /// discarded, matching the bucket-boundary export).
    pub fn restore_state(&self, state: KpiState) {
        let mut inner = self.inner.lock();
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

/// The `ceil(n·p)`-th smallest element of a sorted slice (0.0 if empty)
/// — the rank rule `smdb_obs::metrics::Histogram::quantile` mirrors.
fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(bits(&k.inner.lock().sorted_window()), bits(&window));
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
        let p_min = percentile_of_sorted(&k.inner.lock().sorted_window(), 0.0);
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
