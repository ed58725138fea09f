//! The execution façade: storage engine + plan cache + monitoring switch.
//!
//! [`Database`] is what both applications (running queries) and the
//! self-management framework (observing and reconfiguring) hold. All
//! members use interior mutability so a shared `Arc<Database>` serves
//! concurrent readers; the framework takes the engine write lock only
//! while applying configuration actions.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use smdb_common::{Cost, LogicalTime, Result};
use smdb_obs::metrics::Counter;
use smdb_storage::{ConfigAction, ScanOutput, ScanPool, StorageEngine};

use crate::plan_cache::PlanCache;
use crate::query::Query;

/// Result of running one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRunResult {
    /// Engine output including the ground-truth simulated cost.
    pub output: ScanOutput,
    /// Real wall-clock nanoseconds spent in the engine (used by the
    /// overhead experiment, not by the tuners).
    pub wall_ns: u64,
}

/// Cumulative scan-dispatch counters for one database.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Queries executed on the morsel scheduler.
    pub parallel_scans: u64,
    /// Queries executed inline (no pool installed, pool of one thread,
    /// or too few morsels to be worth dispatching).
    pub inline_scans: u64,
    /// Total morsels dispatched across all parallel scans.
    pub morsels: u64,
    /// Chunks skipped by min/max pruning, across all scans.
    pub chunks_pruned: u64,
    /// Chunks whose driving predicate(s) an index probe answered.
    pub chunks_index: u64,
    /// Chunks whose driving selection ran on a batch kernel. With
    /// [`ScanStats::chunks_index`] and [`ScanStats::chunks_scalar`] this
    /// partitions every visited chunk — the per-chunk access-path
    /// decision, observable without touching engine internals.
    pub chunks_kernel: u64,
    /// Chunks whose driving selection fell back to the scalar path.
    pub chunks_scalar: u64,
    /// Batch-kernel invocations (filters, refines, aggregate folds).
    pub kernel_batches: u64,
}

/// A self-manageable database: engine, plan cache, logical clock and the
/// monitoring switch.
pub struct Database {
    engine: RwLock<StorageEngine>,
    plan_cache: Mutex<PlanCache>,
    monitoring: AtomicBool,
    clock: AtomicU64,
    /// Shared morsel scheduler; `None` means every scan runs inline.
    scan_pool: RwLock<Option<Arc<ScanPool>>>,
    /// Chunks per morsel when the pool is installed (0 = whole table,
    /// i.e. effectively inline).
    morsel_chunks: AtomicUsize,
    parallel_scans: Counter,
    inline_scans: Counter,
    morsels_dispatched: Counter,
    chunks_pruned: Counter,
    chunks_index: Counter,
    chunks_kernel: Counter,
    chunks_scalar: Counter,
    kernel_batches: Counter,
}

impl Database {
    /// Wraps an engine with monitoring enabled.
    pub fn new(engine: StorageEngine) -> Arc<Database> {
        Arc::new(Database {
            engine: RwLock::new(engine),
            plan_cache: Mutex::new(PlanCache::default()),
            monitoring: AtomicBool::new(true),
            clock: AtomicU64::new(0),
            scan_pool: RwLock::new(None),
            morsel_chunks: AtomicUsize::new(smdb_storage::parallel::DEFAULT_MORSEL_CHUNKS),
            parallel_scans: Counter::default(),
            inline_scans: Counter::default(),
            morsels_dispatched: Counter::default(),
            chunks_pruned: Counter::default(),
            chunks_index: Counter::default(),
            chunks_kernel: Counter::default(),
            chunks_scalar: Counter::default(),
            kernel_batches: Counter::default(),
        })
    }

    /// Installs (or removes, with `None`) the shared morsel scheduler and
    /// sets the morsel granularity. Results are bit-identical either way;
    /// only the simulated latency model changes.
    pub fn set_scan_pool(&self, pool: Option<Arc<ScanPool>>, morsel_chunks: usize) {
        // A scan racing this write uses either granularity, and results
        // are identical for both. ordering: relaxed config write.
        self.morsel_chunks.store(morsel_chunks, Ordering::Relaxed);
        *self.scan_pool.write() = pool;
    }

    /// The installed scan pool, if any.
    pub fn scan_pool(&self) -> Option<Arc<ScanPool>> {
        self.scan_pool.read().clone()
    }

    /// Chunks per morsel configured via [`Database::set_scan_pool`].
    pub fn morsel_chunks(&self) -> usize {
        // The value is a standalone knob with no cross-field invariant.
        // ordering: relaxed config read.
        self.morsel_chunks.load(Ordering::Relaxed)
    }

    /// Scan-dispatch counters accumulated since the last
    /// [`Database::take_scan_stats`] (or ever, when nothing takes),
    /// including the per-chunk access-path partition (pruned / index /
    /// kernel / scalar).
    pub fn scan_stats(&self) -> ScanStats {
        self.read_scan_stats(Counter::get)
    }

    /// Takes and resets the scan-dispatch counters — the per-bucket read
    /// a control thread does at each bucket close. Each counter is
    /// drained with one [`Counter::take`]: a load followed by a separate
    /// zeroing store would lose any increment a worker slips in between
    /// the two, so every count lands in exactly one take (the sum of all
    /// takes plus a final [`Database::scan_stats`] equals the true
    /// total). Counters are independent — a scan finishing concurrently
    /// may straddle two takes, which no reader relies on.
    pub fn take_scan_stats(&self) -> ScanStats {
        self.read_scan_stats(Counter::take)
    }

    /// Reads every scan-dispatch counter through `read`.
    fn read_scan_stats(&self, read: impl Fn(&Counter) -> u64) -> ScanStats {
        ScanStats {
            parallel_scans: read(&self.parallel_scans),
            inline_scans: read(&self.inline_scans),
            morsels: read(&self.morsels_dispatched),
            chunks_pruned: read(&self.chunks_pruned),
            chunks_index: read(&self.chunks_index),
            chunks_kernel: read(&self.chunks_kernel),
            chunks_scalar: read(&self.chunks_scalar),
            kernel_batches: read(&self.kernel_batches),
        }
    }

    /// Read access to the engine.
    pub fn engine(&self) -> parking_lot::RwLockReadGuard<'_, StorageEngine> {
        self.engine.read()
    }

    /// Write access to the engine (configuration changes).
    pub fn engine_mut(&self) -> parking_lot::RwLockWriteGuard<'_, StorageEngine> {
        self.engine.write()
    }

    /// Access to the plan cache.
    pub fn plan_cache(&self) -> parking_lot::MutexGuard<'_, PlanCache> {
        self.plan_cache.lock()
    }

    /// Turns workload monitoring (plan-cache recording) on or off.
    /// The overhead experiment compares query latency in both modes.
    pub fn set_monitoring(&self, on: bool) {
        // A query racing the switch is recorded or not, and the flag
        // publishes no other data. ordering: relaxed flag.
        self.monitoring.store(on, Ordering::Relaxed);
    }

    /// Whether monitoring is enabled.
    pub fn monitoring(&self) -> bool {
        // ordering: relaxed flag read, as in `set_monitoring`.
        self.monitoring.load(Ordering::Relaxed)
    }

    /// Current logical time (bucket index).
    pub fn now(&self) -> LogicalTime {
        // ordering: relaxed; the clock is a standalone counter.
        LogicalTime(self.clock.load(Ordering::Relaxed))
    }

    /// Advances the logical clock by one bucket and returns the new time.
    pub fn advance_time(&self) -> LogicalTime {
        // The read-modify-write alone makes each advance unique, and the
        // clock publishes no other data. ordering: relaxed.
        LogicalTime(self.clock.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Sets the logical clock to `at` — recovery only, so a restored
    /// database resumes bucket numbering where the crashed run stopped.
    pub fn restore_clock(&self, at: LogicalTime) {
        // ordering: relaxed clock restore; recovery is single-threaded.
        self.clock.store(at.0, Ordering::Relaxed);
    }

    /// Executes a query: scans the engine and, when monitoring is on,
    /// records the execution in the plan cache.
    pub fn run_query(&self, query: &Query) -> Result<QueryRunResult> {
        let start = Instant::now();
        let pool = self.scan_pool.read().clone();
        let output = {
            let engine = self.engine.read();
            match &pool {
                Some(pool) if pool.threads() > 1 => engine.scan_grouped_parallel(
                    query.table(),
                    query.predicates(),
                    query.aggregate(),
                    query.group_by(),
                    pool,
                    // ordering: relaxed config read, as in `morsel_chunks`.
                    self.morsel_chunks.load(Ordering::Relaxed),
                )?,
                _ => engine.scan_grouped(
                    query.table(),
                    query.predicates(),
                    query.aggregate(),
                    query.group_by(),
                )?,
            }
        };
        self.note_scan_output(&output);
        let wall_ns = start.elapsed().as_nanos() as u64;
        self.record_execution(query, output.sim_cost);
        Ok(QueryRunResult { output, wall_ns })
    }

    /// Folds one finished scan's output into the dispatch counters.
    /// Only [`Database::run_query`] calls this, so the counters cover
    /// the scans this database ran itself — on a shard, its routed
    /// queries. A scatter-gather drives the engine through
    /// [`StorageEngine::scan_partials`](smdb_storage::StorageEngine::scan_partials)
    /// and does not call it: its chunks and morsels are in no shard's
    /// [`Database::scan_stats`].
    pub fn note_scan_output(&self, output: &ScanOutput) {
        if output.morsels > 0 {
            self.parallel_scans.inc();
            self.morsels_dispatched.add(output.morsels);
        } else {
            self.inline_scans.inc();
        }
        self.chunks_pruned.add(output.chunks_pruned);
        self.chunks_index.add(output.index_probes);
        self.chunks_kernel.add(output.chunks_kernel);
        self.chunks_scalar.add(output.chunks_scalar);
        self.kernel_batches.add(output.kernel_batches);
    }

    /// Records one execution of `query` at cost `cost` in the plan cache
    /// when monitoring is on. Split out of [`Database::run_query`] so an
    /// external executor (the sharded scatter-gather path) can account
    /// work it routed to this database's engine.
    pub fn record_execution(&self, query: &Query, cost: Cost) {
        if self.monitoring() {
            self.plan_cache.lock().record(query, cost, self.now());
        }
    }

    /// Applies configuration actions under the engine write lock,
    /// returning the summed one-time reconfiguration cost. A failed
    /// batch leaves the successfully applied prefix in place.
    pub fn apply_config(&self, actions: &[ConfigAction]) -> Result<Cost> {
        self.engine.write().apply_all(actions)
    }

    /// Like [`Database::apply_config`], but atomic: a failed batch is
    /// fully undone under the same write lock, so concurrent readers
    /// never observe a half-applied batch that will not complete.
    pub fn apply_config_atomic(&self, actions: &[ConfigAction]) -> Result<Cost> {
        self.engine.write().apply_all_atomic(actions)
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("monitoring", &self.monitoring())
            .field("now", &self.now())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::{ColumnId, TableId};
    use smdb_storage::value::ColumnValues;
    use smdb_storage::{ColumnDef, DataType, ScanPredicate, Schema, Table};

    fn db() -> Arc<Database> {
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        let table =
            Table::from_columns("t", schema, vec![ColumnValues::Int((0..100).collect())], 50)
                .unwrap();
        let mut engine = StorageEngine::default();
        engine.create_table(table).unwrap();
        Database::new(engine)
    }

    fn q(v: i64) -> Query {
        Query::new(
            TableId(0),
            "t",
            vec![ScanPredicate::eq(ColumnId(0), v)],
            None,
            "point",
        )
    }

    #[test]
    fn run_query_records_when_monitoring() {
        let db = db();
        db.run_query(&q(5)).unwrap();
        db.run_query(&q(6)).unwrap();
        assert_eq!(db.plan_cache().len(), 1);
        assert_eq!(
            db.plan_cache().get(q(0).fingerprint()).unwrap().executions,
            2
        );
    }

    #[test]
    fn monitoring_off_records_nothing() {
        let db = db();
        db.set_monitoring(false);
        db.run_query(&q(5)).unwrap();
        assert!(db.plan_cache().is_empty());
        assert!(!db.monitoring());
    }

    #[test]
    fn clock_advances() {
        let db = db();
        assert_eq!(db.now(), LogicalTime(0));
        assert_eq!(db.advance_time(), LogicalTime(1));
        assert_eq!(db.now(), LogicalTime(1));
    }

    #[test]
    fn query_returns_matches_and_wall_time() {
        let db = db();
        let r = db.run_query(&q(7)).unwrap();
        assert_eq!(r.output.rows_matched, 1);
        assert!(r.output.sim_cost.ms() > 0.0);
    }

    #[test]
    fn scan_pool_changes_latency_model_but_nothing_else() {
        let db = db();
        let baseline = db.run_query(&q(7)).unwrap().output;
        assert_eq!(baseline.morsels, 0);
        assert_eq!(baseline.sim_latency, baseline.sim_cost);

        db.set_scan_pool(Some(ScanPool::new(2)), 1);
        let parallel = db.run_query(&q(7)).unwrap().output;
        assert_eq!(parallel.rows_matched, baseline.rows_matched);
        assert_eq!(parallel.agg_value, baseline.agg_value);
        assert_eq!(parallel.sim_cost, baseline.sim_cost);
        assert_eq!(parallel.morsels, 2); // 100 rows / 50-row chunks, 1 chunk per morsel
        assert_ne!(parallel.sim_latency, parallel.sim_cost);

        // A full scan splits into two equal-cost lanes, so the critical
        // path is about half the total work.
        let full = Query::new(TableId(0), "t", vec![], None, "full");
        let out = db.run_query(&full).unwrap().output;
        assert!(out.sim_latency.ms() < out.sim_cost.ms());

        let stats = db.scan_stats();
        assert_eq!(stats.parallel_scans, 2);
        assert_eq!(stats.inline_scans, 1);
        assert_eq!(stats.morsels, 4);

        db.set_scan_pool(None, 4);
        let again = db.run_query(&q(7)).unwrap().output;
        assert_eq!(again, baseline);
    }

    /// Regression test for the bucket-close read-then-zero race: the
    /// old `scan_stats` offered no atomic reset, so a control thread
    /// that loaded the counters and then stored zero would lose every
    /// scan a worker finished between the two. `take_scan_stats` drains
    /// with `swap(0)`, so concurrent takes and scans must conserve the
    /// total: Σ(taken) + residual == queries actually run.
    #[test]
    fn take_scan_stats_loses_nothing_under_concurrent_takes() {
        let db = db();
        const WORKERS: usize = 4;
        const PER_WORKER: u64 = 200;
        let taken = std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    for i in 0..PER_WORKER {
                        db.run_query(&q(((w as u64 + i) % 100) as i64)).unwrap();
                    }
                });
            }
            // The "control thread": drain repeatedly while workers scan.
            let mut sum = ScanStats::default();
            for _ in 0..50 {
                let t = db.take_scan_stats();
                sum.inline_scans += t.inline_scans;
                sum.parallel_scans += t.parallel_scans;
                sum.chunks_kernel += t.chunks_kernel;
                sum.chunks_scalar += t.chunks_scalar;
                std::thread::yield_now();
            }
            sum
        });
        let residual = db.take_scan_stats();
        let total_scans = taken.inline_scans
            + taken.parallel_scans
            + residual.inline_scans
            + residual.parallel_scans;
        assert_eq!(total_scans, (WORKERS as u64) * PER_WORKER);
        assert_eq!(db.scan_stats(), ScanStats::default());
    }

    #[test]
    fn apply_config_through_facade() {
        let db = db();
        let cost = db
            .apply_config(&[ConfigAction::CreateIndex {
                target: smdb_common::ChunkColumnRef::new(0, 0, 0),
                kind: smdb_storage::IndexKind::Hash,
            }])
            .unwrap();
        assert!(cost.ms() > 0.0);
        let config = db.engine().current_config();
        assert_eq!(config.indexes.len(), 1);
    }
}
