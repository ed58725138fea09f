//! Morsel-driven parallel scan scheduling.
//!
//! A scan's chunk list is split into fixed-size **morsels** (contiguous
//! runs of chunks, [`morsel_ranges`]); morsels are dispatched to a
//! shared [`ScanPool`] whose helper threads steal them from one
//! [`crossbeam::deque::Injector`] queue. Three properties carry the
//! engine's determinism guarantees through the parallelism:
//!
//! * **Caller helps first.** The submitting thread starts claiming its
//!   own job's morsels immediately — it never waits behind another
//!   query's work, so a heavy analytical scan cannot head-of-line-block
//!   a light query beyond the light query's own execution time.
//! * **Canonical combine order.** Workers only *compute* per-chunk
//!   partials; the submitting thread merges them in chunk-index order
//!   after the job completes. Results are therefore bit-identical for
//!   every thread count and morsel size (see `StorageEngine::scan_grouped`).
//! * **Simulated lane latency.** Wall-clock speedup depends on the host;
//!   the engine's ground-truth *latency* model does not. Morsel costs
//!   are assigned round-robin to `lanes` simulated lanes and the scan's
//!   latency is the maximum lane sum ([`simulated_latency`]) — a
//!   deterministic critical-path model the cost estimators can mirror
//!   and the bench gate can lock in.
//!
//! Observability: every submitted job opens a `storage`/`scan_job` span
//! carrying its morsel count, the shared queue exports a
//! `scan_pool.queue_depth` gauge, and `scan_pool.morsels_executed` /
//! `scan_pool.jobs` counters tally pool traffic. All three are
//! deliberately job-granular on the hot path: a per-morsel span or
//! per-morsel registry lookup costs a name hash plus a subscriber lock
//! per morsel, which the soak measures as several percent of total wall.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use smdb_common::Cost;
use smdb_obs::span;

/// Default number of chunks per morsel.
pub const DEFAULT_MORSEL_CHUNKS: usize = 4;

/// Splits `chunks` chunk indices into contiguous morsels of
/// `morsel_chunks` chunks each (the last may be shorter). `morsel_chunks
/// = 0` is treated as "whole table": one morsel covering everything.
pub fn morsel_ranges(chunks: usize, morsel_chunks: usize) -> Vec<(usize, usize)> {
    if chunks == 0 {
        return Vec::new();
    }
    let size = if morsel_chunks == 0 {
        chunks
    } else {
        morsel_chunks
    };
    let mut out = Vec::with_capacity(chunks.div_ceil(size));
    let mut start = 0;
    while start < chunks {
        let end = (start + size).min(chunks);
        out.push((start, end));
        start = end;
    }
    out
}

/// Deterministic simulated latency of a parallel scan: morsel costs (in
/// ms, morsel order) are assigned round-robin to `lanes` lanes, each
/// morsel is charged `dispatch_ms` of scheduling overhead, and the
/// scan's latency is the maximum lane sum. With one lane this degrades
/// to the sequential sum plus dispatch overhead; the engine skips the
/// model entirely (latency = work) for inline scans.
pub fn simulated_latency(morsel_costs_ms: &[f64], lanes: usize, dispatch_ms: f64) -> Cost {
    let lanes = lanes.max(1).min(morsel_costs_ms.len().max(1));
    let mut lane_ms = vec![0.0f64; lanes];
    for (i, cost) in morsel_costs_ms.iter().enumerate() {
        lane_ms[i % lanes] += cost + dispatch_ms;
    }
    Cost(lane_ms.iter().fold(0.0f64, |a, &b| a.max(b)))
}

/// A scan job being executed by the pool: a type-erased morsel runner
/// plus claim/completion bookkeeping.
struct JobState {
    /// Borrow of the submitter's morsel closure with its lifetime erased.
    /// SAFETY invariant: only dereferenced for morsel indices below
    /// `morsels`, each claimed exactly once via `cursor`, and
    /// [`ScanPool::run`] blocks until `remaining` reaches zero — so every
    /// dereference happens-before the borrow expires.
    task: TaskPtr,
    morsels: usize,
    cursor: AtomicUsize,
    remaining: AtomicUsize,
    panicked: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
}

struct TaskPtr(*const (dyn Fn(usize) + Sync + 'static));
// SAFETY: the pointee is `Sync` (shared calls from any thread are safe)
// and the pointer is only dereferenced while the submitter provably
// keeps the closure alive (see `JobState::task`).
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

struct PoolShared {
    queue: crossbeam::deque::Injector<Arc<JobState>>,
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

/// Cached handles for the pool's registry metrics: resolving a metric
/// by name costs a string allocation and a registry lock, so the hot
/// path resolves each handle once per process.
struct PoolMetrics {
    jobs: Arc<smdb_obs::metrics::Counter>,
    morsels_executed: Arc<smdb_obs::metrics::Counter>,
    queue_depth: Arc<smdb_obs::metrics::Gauge>,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: std::sync::OnceLock<PoolMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        jobs: smdb_obs::metrics::counter("scan_pool.jobs"),
        morsels_executed: smdb_obs::metrics::counter("scan_pool.morsels_executed"),
        queue_depth: smdb_obs::metrics::gauge("scan_pool.queue_depth"),
    })
}

impl PoolShared {
    fn publish_depth(&self) {
        pool_metrics().queue_depth.set(self.queue.len() as f64);
    }
}

/// Locks a mutex, recovering the guard from a poisoned lock — the pool
/// must keep serving even if a panicking task poisoned a lock.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A shared work-stealing pool executing scan morsels.
///
/// The pool owns `threads - 1` helper threads; the submitting thread is
/// the remaining lane. [`ScanPool::run`] publishes up to one steal
/// ticket per helper, then the submitter claims morsels from its own
/// job until the cursor is exhausted and waits for in-flight claims to
/// finish. Tickets from different jobs interleave FIFO in the shared
/// queue, so concurrent scans share the helpers at morsel granularity.
pub struct ScanPool {
    shared: Arc<PoolShared>,
    threads: usize,
    helpers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ScanPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanPool")
            .field("threads", &self.threads)
            .field("helpers", &self.helpers.len())
            .finish()
    }
}

impl ScanPool {
    /// A pool with `threads` total scan lanes (the submitter plus up to
    /// `threads - 1` helper threads). `threads <= 1` builds a pool with
    /// no helpers — callers should treat it as "scan inline".
    ///
    /// The *physical* helper count is additionally clamped to the host's
    /// available parallelism: helpers beyond the core count can never
    /// run concurrently, they only add a condvar wakeup and a context
    /// switch to every job (ruinous when the whole pool shares one
    /// core). The clamp is invisible to everything deterministic —
    /// [`ScanPool::threads`] keeps reporting the configured lane count,
    /// which is what the simulated latency model and the morsel
    /// counters are derived from.
    pub fn new(threads: usize) -> Arc<ScanPool> {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: crossbeam::deque::Injector::new(),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(threads);
        let physical = (threads - 1).min(host.saturating_sub(1));
        let mut helpers = Vec::with_capacity(physical);
        for i in 0..physical {
            let shared = Arc::clone(&shared);
            let builder = std::thread::Builder::new().name(format!("smdb-scan-{i}"));
            // A failed spawn (resource exhaustion) degrades to fewer
            // helpers; the submitting lane always exists.
            if let Ok(handle) = builder.spawn(move || helper_loop(&shared)) {
                helpers.push(handle);
            }
        }
        Arc::new(ScanPool {
            shared,
            threads,
            helpers,
        })
    }

    /// Total scan lanes (submitter + helpers as configured).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `task(0..morsels)` across the pool, blocking until every
    /// morsel has run. The submitting thread participates (it claims
    /// morsels before waiting), so progress never depends on a helper
    /// being free. Returns `false` if a morsel panicked (its output is
    /// missing); the pool itself survives panics.
    pub fn run<F>(&self, morsels: usize, task: F) -> bool
    where
        F: Fn(usize) + Sync,
    {
        if morsels == 0 {
            return true;
        }
        let erased: &(dyn Fn(usize) + Sync) = &task;
        // SAFETY: lifetime erasure. `run` does not return until
        // `remaining` hits zero, i.e. until every dereference of this
        // pointer has completed, so the borrow never escapes this call.
        let raw: *const (dyn Fn(usize) + Sync + 'static) =
            unsafe { std::mem::transmute(erased as *const (dyn Fn(usize) + Sync)) };
        let job = Arc::new(JobState {
            task: TaskPtr(raw),
            morsels,
            cursor: AtomicUsize::new(0),
            remaining: AtomicUsize::new(morsels),
            panicked: AtomicBool::new(false),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        let _span = span!("storage", "scan_job", { morsels: morsels });
        pool_metrics().jobs.inc();
        // One steal ticket per helper at most — a helper drains the
        // whole job once it holds a ticket.
        let tickets = self.helpers.len().min(morsels.saturating_sub(1));
        if tickets > 0 {
            for _ in 0..tickets {
                self.shared.queue.push(Arc::clone(&job));
            }
            self.shared.publish_depth();
            let _g = lock_recover(&self.shared.sleep);
            self.shared.wake.notify_all();
        }
        // Caller helps first: claim and run morsels of our own job.
        work_on(&job);
        // Wait for morsels claimed by helpers to finish.
        let mut done = lock_recover(&job.done);
        while !*done {
            done = match job.done_cv.wait(done) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        !job.panicked.load(Ordering::Relaxed)
    }
}

impl Drop for ScanPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        {
            let _g = lock_recover(&self.shared.sleep);
            self.shared.wake.notify_all();
        }
        for handle in self.helpers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Claims morsels from `job` until its cursor is exhausted. The
/// `morsels_executed` tally is batched into one counter add when the
/// claim loop drains — per-morsel bookkeeping is kept to two atomics.
fn work_on(job: &JobState) {
    let mut executed = 0u64;
    loop {
        let i = job.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= job.morsels {
            break;
        }
        // SAFETY: `i < morsels` means this claim is unique and the
        // submitter is still blocked in `run`, keeping the task alive.
        let task = unsafe { &*job.task.0 };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(i)));
        if outcome.is_err() {
            job.panicked.store(true, Ordering::Relaxed);
        }
        executed += 1;
        if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = lock_recover(&job.done);
            *done = true;
            job.done_cv.notify_all();
        }
    }
    if executed > 0 {
        pool_metrics().morsels_executed.add(executed);
    }
}

/// Helper thread main loop: sleep until work is queued, steal a ticket,
/// drain that job, repeat.
fn helper_loop(shared: &PoolShared) {
    loop {
        let ticket = {
            let mut guard = lock_recover(&shared.sleep);
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(job) = shared.queue.steal().success() {
                    break job;
                }
                guard = match shared.wake.wait(guard) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        shared.publish_depth();
        work_on(&ticket);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn morsel_ranges_cover_everything_once() {
        assert_eq!(morsel_ranges(0, 4), vec![]);
        assert_eq!(morsel_ranges(5, 2), vec![(0, 2), (2, 4), (4, 5)]);
        assert_eq!(morsel_ranges(5, 0), vec![(0, 5)]);
        assert_eq!(morsel_ranges(3, 100), vec![(0, 3)]);
        for chunks in 0..40usize {
            for size in 0..10usize {
                let ranges = morsel_ranges(chunks, size);
                let covered: usize = ranges.iter().map(|(s, e)| e - s).sum();
                assert_eq!(covered, chunks, "chunks {chunks} size {size}");
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                }
            }
        }
    }

    #[test]
    fn simulated_latency_is_critical_path() {
        // 4 morsels of 1 ms on 2 lanes: each lane gets 2 ms.
        let lat = simulated_latency(&[1.0, 1.0, 1.0, 1.0], 2, 0.0);
        assert!((lat.ms() - 2.0).abs() < 1e-12);
        // One lane degrades to the sum.
        let lat = simulated_latency(&[1.0, 2.0, 3.0], 1, 0.0);
        assert!((lat.ms() - 6.0).abs() < 1e-12);
        // More lanes than morsels: latency is the largest morsel.
        let lat = simulated_latency(&[5.0, 1.0], 8, 0.0);
        assert!((lat.ms() - 5.0).abs() < 1e-12);
        // Dispatch overhead is charged per morsel on its lane.
        let lat = simulated_latency(&[1.0, 1.0], 2, 0.5);
        assert!((lat.ms() - 1.5).abs() < 1e-12);
        // Latency never exceeds total work plus total dispatch.
        let costs = [0.3, 0.9, 0.1, 2.0, 0.7];
        for lanes in 1..8 {
            let lat = simulated_latency(&costs, lanes, 0.01).ms();
            let total: f64 = costs.iter().sum::<f64>() + 0.05;
            assert!(lat <= total + 1e-12, "lanes {lanes}");
            assert!(lat >= 2.0, "critical path at least the largest morsel");
        }
    }

    #[test]
    fn pool_runs_every_morsel_exactly_once() {
        let pool = ScanPool::new(4);
        for morsels in [1usize, 2, 7, 64] {
            let hits: Vec<AtomicU64> = (0..morsels).map(|_| AtomicU64::new(0)).collect();
            let clean = pool.run(morsels, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(clean);
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "morsel {i}");
            }
        }
    }

    #[test]
    fn pool_without_helpers_still_completes() {
        let pool = ScanPool::new(1);
        let count = AtomicU64::new(0);
        assert!(pool.run(5, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        }));
        assert_eq!(count.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn submitter_makes_progress_while_helpers_are_busy() {
        // Occupy every helper of a 3-lane pool with a job that blocks
        // until released, then submit a light job from this thread: the
        // caller-helps-first protocol must complete it without any
        // helper becoming free (the no-starvation property).
        let pool = ScanPool::new(3);
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let blocker = {
            let release = Arc::clone(&release);
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                pool.run(2, |_| {
                    let (lock, cv) = &*release;
                    let mut open = lock_recover(lock);
                    while !*open {
                        open = match cv.wait(open) {
                            Ok(g) => g,
                            Err(p) => p.into_inner(),
                        };
                    }
                });
            })
        };
        // Give the blocker a moment to enqueue and occupy the helpers.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let count = AtomicU64::new(0);
        assert!(pool.run(4, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        }));
        assert_eq!(count.load(Ordering::Relaxed), 4, "light job completed");
        {
            let (lock, cv) = &*release;
            *lock_recover(lock) = true;
            cv.notify_all();
        }
        blocker.join().expect("blocker finishes");
    }

    #[test]
    fn a_panicking_morsel_is_reported_and_the_pool_survives() {
        let pool = ScanPool::new(2);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let clean = pool.run(3, |i| {
            if i == 1 {
                panic!("injected");
            }
        });
        std::panic::set_hook(prev);
        assert!(!clean, "panic must be reported");
        let count = AtomicU64::new(0);
        assert!(pool.run(4, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        }));
        assert_eq!(count.load(Ordering::Relaxed), 4, "pool still works");
    }
}
