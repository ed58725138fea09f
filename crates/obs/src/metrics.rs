//! A process-global metrics registry.
//!
//! Counters and gauges are lock-free handles; histograms are log-linear
//! (power-of-two exponent ranges split into [`SUB_BUCKETS`] linear
//! sub-buckets) and merge by index-wise count addition, which makes the
//! merge exactly associative and commutative. Quantiles use the same
//! rank rule as the KPI snapshot's `p95_response` / `p99_response`
//! (`ceil(n·p)`-th smallest) and return the containing bucket's upper bound, so they
//! agree with the exact percentile to within one sub-bucket width.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use smdb_common::json::Json;

/// Linear sub-buckets per power-of-two range.
pub const SUB_BUCKETS: usize = 32;
/// Values below `2^MIN_EXP` land in the underflow bucket 0.
const MIN_EXP: i32 = -32;
/// Values at or above `2^(MAX_EXP+1)` clamp into the last range.
const MAX_EXP: i32 = 63;

/// A monotonically increasing counter: an independent statistic that
/// publishes no other memory, so every access is relaxed.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Overwrites the total (restoring a persisted counter).
    pub fn set(&self, n: u64) {
        // ordering: relaxed like every counter access; it orders nothing else.
        self.0.store(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Returns the total and resets it to zero in one step, so every
    /// `add` lands in exactly one take, even one racing with it.
    pub fn take(&self) -> u64 {
        // ordering: relaxed like every counter access; the swap alone keeps each add in one take.
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// A last-value-wins gauge (f64 bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 before the first set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A mergeable log-linear histogram over non-negative samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Sparse bucket index → count. Index 0 is the underflow bucket
    /// (zeros, negatives, sub-`2^MIN_EXP` values); index `i ≥ 1` covers
    /// `(lower, upper]` with `upper = 2^e · (1 + (sub+1)/K)` for
    /// `e = MIN_EXP + (i−1)/K`, `sub = (i−1) mod K`, `K = SUB_BUCKETS`.
    counts: BTreeMap<u32, u64>,
    total: u64,
}

fn bucket_of(value: f64) -> u32 {
    if !(value.is_finite() && value > 0.0) {
        return 0;
    }
    // IEEE exponent extraction is exact for normals; subnormals report
    // a tiny exponent and clamp into the underflow range like any value
    // below 2^MIN_EXP.
    let raw_exp = ((value.to_bits() >> 52) & 0x7ff) as i32 - 1023;
    let exp = raw_exp.clamp(MIN_EXP, MAX_EXP);
    let scale = 2.0f64.powi(exp);
    // value/scale ∈ [1, 2) whenever exp was not clamped; clamp the
    // fraction so out-of-range values saturate at the range edges.
    let frac = (value / scale - 1.0).clamp(0.0, 1.0 - f64::EPSILON);
    let sub = (frac * SUB_BUCKETS as f64) as u32;
    (exp - MIN_EXP) as u32 * SUB_BUCKETS as u32 + sub + 1
}

fn bucket_upper_bound(index: u32) -> f64 {
    if index == 0 {
        return 0.0;
    }
    let exp = MIN_EXP + ((index - 1) as usize / SUB_BUCKETS) as i32;
    let sub = (index - 1) as usize % SUB_BUCKETS;
    2.0f64.powi(exp) * (1.0 + (sub + 1) as f64 / SUB_BUCKETS as f64)
}

impl Histogram {
    /// Width of the bucket `value` falls into — the quantile error bound.
    pub fn bucket_width(value: f64) -> f64 {
        let index = bucket_of(value);
        if index == 0 {
            return 0.0;
        }
        let exp = MIN_EXP + ((index - 1) as usize / SUB_BUCKETS) as i32;
        2.0f64.powi(exp) / SUB_BUCKETS as f64
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        *self.counts.entry(bucket_of(value)).or_insert(0) += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Merges another histogram into this one (index-wise addition —
    /// exactly associative and commutative).
    pub fn merge(&mut self, other: &Histogram) {
        for (&index, &count) in &other.counts {
            *self.counts.entry(index).or_insert(0) += count;
        }
        self.total += other.total;
    }

    /// Upper bound of the bucket holding the `ceil(n·p)`-th smallest
    /// sample — the same rank `KpiCollector` uses, so the two agree to
    /// within one bucket width. `None` when empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((self.total as f64 * p).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (&index, &count) in &self.counts {
            seen += count;
            if seen >= rank {
                return Some(bucket_upper_bound(index));
            }
        }
        None
    }

    /// Median (see [`Histogram::quantile`]).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// 95th percentile (see [`Histogram::quantile`]).
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th percentile (see [`Histogram::quantile`]).
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Mutex<Histogram>>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Gets the named metric of `map`, registering a fresh one on first use.
/// Looks up by `&str`: the name is copied only when it is registered.
fn get_or_register<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock();
    if let Some(metric) = map.get(name) {
        return Arc::clone(metric);
    }
    Arc::clone(map.entry(name.to_string()).or_default())
}

/// Gets or creates the named counter. The registry is process-global:
/// parallel tests sharing a name share the counter.
pub fn counter(name: &str) -> Arc<Counter> {
    get_or_register(&registry().counters, name)
}

/// Gets or creates the named gauge.
pub fn gauge(name: &str) -> Arc<Gauge> {
    get_or_register(&registry().gauges, name)
}

/// Gets or creates the named histogram.
pub fn histogram(name: &str) -> Arc<Mutex<Histogram>> {
    get_or_register(&registry().histograms, name)
}

/// Records one sample into the named histogram.
pub fn observe(name: &str, value: f64) {
    histogram(name).lock().record(value);
}

/// A sorted JSON snapshot of every registered metric.
pub fn snapshot_json() -> Json {
    let mut counters = Vec::new();
    for (name, c) in registry().counters.lock().iter() {
        counters.push((name.clone(), Json::Num(c.get() as f64)));
    }
    let mut gauges = Vec::new();
    for (name, g) in registry().gauges.lock().iter() {
        gauges.push((name.clone(), Json::Num(g.get())));
    }
    let mut histograms = Vec::new();
    for (name, h) in registry().histograms.lock().iter() {
        let h = h.lock();
        histograms.push((
            name.clone(),
            Json::obj(vec![
                ("total", Json::Num(h.total() as f64)),
                ("p50", Json::Num(h.p50().unwrap_or(0.0))),
                ("p95", Json::Num(h.p95().unwrap_or(0.0))),
                ("p99", Json::Num(h.p99().unwrap_or(0.0))),
            ]),
        ));
    }
    Json::obj(vec![
        ("counters", Json::Obj(counters)),
        ("gauges", Json::Obj(gauges)),
        ("histograms", Json::Obj(histograms)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let c = counter("test.metrics.counter");
        c.inc();
        c.add(4);
        assert_eq!(counter("test.metrics.counter").get(), 5);
        let g = gauge("test.metrics.gauge");
        g.set(2.5);
        assert_eq!(gauge("test.metrics.gauge").get(), 2.5);
    }

    #[test]
    fn a_lookup_returns_the_registered_metric() {
        let c = counter("test.metrics.lookup.counter");
        assert!(Arc::ptr_eq(&c, &counter("test.metrics.lookup.counter")));
        let g = gauge("test.metrics.lookup.gauge");
        assert!(Arc::ptr_eq(&g, &gauge("test.metrics.lookup.gauge")));
        let h = histogram("test.metrics.lookup.hist");
        assert!(Arc::ptr_eq(&h, &histogram("test.metrics.lookup.hist")));
    }

    #[test]
    fn histogram_quantiles_bound_exact_percentiles() {
        let mut h = Histogram::default();
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        for &s in &samples {
            h.record(s);
        }
        // Exact p95 over 1..=100 with the ceil-rank rule is 95.0.
        let p95 = h.p95().expect("non-empty");
        assert!(p95 >= 95.0, "upper bound is never below the sample");
        assert!(
            p95 - 95.0 <= Histogram::bucket_width(95.0),
            "p95 {p95} more than one bucket above 95"
        );
    }

    #[test]
    fn zero_and_negative_samples_fall_in_the_underflow_bucket() {
        let mut h = Histogram::default();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        assert_eq!(h.total(), 3);
        assert_eq!(h.p99(), Some(0.0));
    }

    #[test]
    fn merge_accumulates_counts() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for i in 1..=10 {
            a.record(i as f64);
            b.record((i * 100) as f64);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.total(), 20);
        let mut other_way = b.clone();
        other_way.merge(&a);
        assert_eq!(merged, other_way, "merge is commutative");
    }

    #[test]
    fn snapshot_is_valid_json() {
        counter("test.metrics.snapshot").inc();
        observe("test.metrics.hist", 42.0);
        let text = snapshot_json().to_string_compact();
        let parsed = smdb_common::json::parse(&text).expect("snapshot parses");
        assert!(parsed.get("counters").is_some());
    }
}
