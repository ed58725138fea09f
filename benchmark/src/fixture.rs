//! The system under test, wired for single-client embedded serving.
//!
//! A [`Fixture`] is either one `Database` with its `Driver` (optionally
//! durable) or a `ShardedDatabase` with a driver per shard under a
//! `BudgetArbiter`. It exposes the two things the harness loop needs —
//! serve one query, run one bucket boundary — and records a span around
//! every call into a crate when the tracer is on.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smdb_common::{Cost, Error, Result};
use smdb_core::{
    ConstraintSet, Driver, DurabilityConfig, DurabilityManager, ExecutionReport, Executor,
    FeatureKind, KpiSnapshot, OrganizerConfig, SequentialExecutor, TuningRunReport,
};
use smdb_durable::{DirPersistence, Persistence};
use smdb_obs::FlightRecorder;
use smdb_query::{Database, ExpectedResult, Query, SessionStats};
use smdb_runtime::{MtSoakConfig, ShardedRuntime};
use smdb_shard::{BudgetArbiter, ShardedDatabase};
use smdb_storage::{ConfigAction, ScanOutput, ScanPool};

use crate::spans::Tracer;
use crate::workloads::{stream, tenants_config, WorkloadKind};

/// Index-memory budget the `tenants_zipf` arbiter splits over 4 shards.
const TENANTS_BUDGET_BYTES: u64 = 512 * 1024;
const TENANTS_BUDGET_FLOOR_BYTES: u64 = 16 * 1024;
const TENANTS_SHARDS: usize = 4;
/// `shift_durable` snapshots every this many buckets (WAL boundary
/// record every bucket, fsync per append).
pub const SNAPSHOT_EVERY_BUCKETS: u64 = 8;
// A measurement window is one template phase; it must hold a whole
// number of snapshots.
const _: () =
    assert!((crate::workloads::SHIFT_PHASE_BUCKETS as u64).is_multiple_of(SNAPSHOT_EVERY_BUCKETS));
/// KPI bucket capacity: ms of simulated work at 100 % utilization.
const BUCKET_CAPACITY: Cost = Cost(2_000.0);
/// Morsel size of `scan_agg`'s parallel scans, chunks.
const MORSEL_CHUNKS: usize = 4;
/// The p95 SLA every driver is given: one no configuration can meet.
/// The organizer only tunes on a forecast shift or a violated
/// constraint, so on a steady stream it would never fire at all; a
/// permanently violated SLA holds it at its maximum cadence instead —
/// one full pass every `min_interval` = 2 buckets — which gives every
/// run the same number of passes per bucket to time.
const SLA_P95: Cost = Cost(0.0);

/// Answers captured before any tuning, keyed by instance fingerprint.
pub type Oracle = HashMap<u64, ExpectedResult>;

/// Times `Executor::execute` — the apply step of a tuning pass — from
/// outside, as a span nested under the pass that triggered it.
struct TimedExecutor {
    inner: SequentialExecutor,
    tracer: Arc<Tracer>,
}

impl Executor for TimedExecutor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(
        &self,
        db: &Database,
        kpis: &KpiSnapshot,
        actions: &[ConfigAction],
    ) -> Result<ExecutionReport> {
        // A pass that changes nothing still calls the executor.
        let _span = (!actions.is_empty()).then(|| self.tracer.span("storage.apply_actions"));
        self.inner.execute(db, kpis, actions)
    }
}

/// Times the durability layer's I/O from outside: WAL appends and
/// snapshot writes, each an fsync'd call into the backend. Every call
/// into the backend also adds its wall time to `device_ns`, which the
/// harness takes off its clock: how long the sandbox's shared disk
/// takes is not the program's doing.
struct TimedPersistence {
    inner: DirPersistence,
    tracer: Arc<Tracer>,
    device_ns: Arc<AtomicU64>,
}

impl TimedPersistence {
    fn device<T>(&self, call: impl FnOnce(&DirPersistence) -> Result<T>) -> Result<T> {
        let started = Instant::now();
        let out = call(&self.inner);
        self.device_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl Persistence for TimedPersistence {
    fn append(&self, name: &str, data: &[u8]) -> Result<()> {
        let _span = self.tracer.span("durable.wal_append");
        self.device(|p| p.append(name, data))
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        self.device(|p| p.read(name))
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<()> {
        let _span = self.tracer.span("durable.snapshot_write");
        self.device(|p| p.write_atomic(name, data))
    }

    fn list(&self) -> Result<Vec<String>> {
        self.device(|p| p.list())
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.device(|p| p.remove(name))
    }
}

/// A durable store under the scratch directory; removed on drop.
pub struct Store {
    dir: PathBuf,
    pub manager: Arc<DurabilityManager>,
    device_ns: Arc<AtomicU64>,
}

impl Store {
    pub fn create(dir: PathBuf, tracer: &Arc<Tracer>) -> Result<Store> {
        let device_ns = Arc::new(AtomicU64::new(0));
        let persistence: Arc<dyn Persistence> = Arc::new(TimedPersistence {
            inner: DirPersistence::open(&dir)?,
            tracer: Arc::clone(tracer),
            device_ns: Arc::clone(&device_ns),
        });
        let manager = Arc::new(DurabilityManager::new(persistence, durability_config()));
        Ok(Store {
            dir,
            manager,
            device_ns,
        })
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Best effort: a leftover directory is inside the git-ignored
        // scratch area and the next run uses another pid.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub fn durability_config() -> DurabilityConfig {
    DurabilityConfig {
        snapshot_every_buckets: SNAPSHOT_EVERY_BUCKETS,
    }
}

/// Builds the embedded driver every single-engine workload uses:
/// indexing + compression tuners, immediate (timed) executor.
pub fn build_driver(
    db: &Arc<Database>,
    tracer: &Arc<Tracer>,
    durability: Option<Arc<DurabilityManager>>,
) -> Arc<Driver> {
    let mut builder = Driver::builder(Arc::clone(db))
        .features(vec![FeatureKind::Indexing, FeatureKind::Compression])
        .executor(Box::new(TimedExecutor {
            inner: SequentialExecutor::immediate(),
            tracer: Arc::clone(tracer),
        }))
        .organizer(OrganizerConfig::default())
        .constraints(ConstraintSet {
            sla_p95_response: Some(SLA_P95),
            ..ConstraintSet::none()
        })
        .kpi_bucket_capacity(BUCKET_CAPACITY);
    if let Some(manager) = durability {
        builder = builder.durability(manager);
    }
    Arc::new(builder.build())
}

pub struct Single {
    pub db: Arc<Database>,
    pub driver: Arc<Driver>,
    pub store: Option<Store>,
}

pub struct Sharded {
    pub db: Arc<ShardedDatabase>,
    pub drivers: Vec<Arc<Driver>>,
    arbiter: BudgetArbiter,
    recorder: FlightRecorder,
    /// Index bytes in use at the last rebalance.
    pub budget_used_bytes: u64,
}

pub enum Engine {
    Single(Single),
    Sharded(Sharded),
}

/// What one set-up produces: the wired engine, the seeded stream and
/// the oracle, with the time stream generation took.
pub struct Fixture {
    pub kind: WorkloadKind,
    pub engine: Engine,
    pub stream: Arc<Vec<Vec<Query>>>,
    pub oracle: Oracle,
    pub generate: Duration,
    pub tracer: Arc<Tracer>,
}

/// What one bucket boundary did.
#[derive(Debug, Default)]
pub struct Boundary {
    /// Wall time of each `close_bucket` call.
    pub close: Vec<Duration>,
    /// Wall time of each tuning check that did not fire.
    pub idle: Vec<Duration>,
    /// Wall time of each tuning pass that fired.
    pub fired: Vec<Duration>,
    pub actions_applied: usize,
    pub candidates: usize,
}

impl Fixture {
    /// Builds the fixture of `kind`, generates its stream from `seed`
    /// and captures the oracle. `scratch` is where a durable workload
    /// puts its store.
    pub fn set_up(
        kind: WorkloadKind,
        seed: u64,
        scratch: &Path,
        tracer: Arc<Tracer>,
    ) -> Result<Fixture> {
        let (engine, stream, oracle, generate) = if kind == WorkloadKind::TenantsZipf {
            set_up_sharded(seed)?
        } else {
            set_up_single(kind, seed, scratch, &tracer)?
        };
        Ok(Fixture {
            kind,
            engine,
            stream: Arc::new(stream),
            oracle,
            generate,
            tracer,
        })
    }

    pub fn drivers(&self) -> &[Arc<Driver>] {
        match &self.engine {
            Engine::Single(s) => std::slice::from_ref(&s.driver),
            Engine::Sharded(s) => &s.drivers,
        }
    }

    /// Wall time spent so far inside the durable store's backend (zero
    /// without one).
    pub fn device_time(&self) -> Duration {
        match &self.engine {
            Engine::Single(Single {
                store: Some(store), ..
            }) => Duration::from_nanos(store.device_ns.load(Ordering::Relaxed)),
            _ => Duration::ZERO,
        }
    }

    /// Pauses or resumes every organizer: paused, no tuning pass fires.
    pub fn set_tuning(&self, live: bool) {
        for driver in self.drivers() {
            if live {
                driver.organizer().resume();
            } else {
                driver.organizer().pause();
            }
        }
    }

    /// Serves one query the embedded way — `run_query`, then the KPI
    /// record — and says whether it was scatter-gathered.
    pub fn serve(&self, query: &Query) -> Result<(ScanOutput, bool)> {
        let t = &self.tracer;
        match &self.engine {
            Engine::Single(s) => {
                let output = {
                    let _span = t.span("query.run_query");
                    s.db.run_query(query)?.output
                };
                let _span = t.span("core.record_query");
                s.driver.record_scan(output.sim_latency, output.morsels);
                Ok((output, false))
            }
            Engine::Sharded(s) => {
                let shard = {
                    let _span = t.span("shard.route");
                    s.db.route(query)
                };
                let output = {
                    let _span = t.span(if shard.is_some() {
                        "shard.routed"
                    } else {
                        "shard.scatter"
                    });
                    s.db.run_query(query)?.output
                };
                let _span = t.span("core.record_query");
                match shard {
                    Some(i) => s.drivers[i].record_scan(output.sim_latency, output.morsels),
                    // A scatter touched every shard; each shard's KPI
                    // window sees the query it served.
                    None => s
                        .drivers
                        .iter()
                        .for_each(|d| d.record_scan(output.sim_latency, output.morsels)),
                }
                Ok((output, shard.is_none()))
            }
        }
    }

    /// One bucket boundary: close the KPI bucket, let the tuner look
    /// (and act), persist, re-arbitrate. `bucket` is the number of
    /// buckets served so far, `stats` the cumulative serving statistics
    /// a boundary record carries.
    pub fn boundary(&mut self, bucket: u64, stats: &SessionStats) -> Result<Boundary> {
        let t = Arc::clone(&self.tracer);
        let _span = t.span("boundary");
        let mut out = Boundary::default();
        match &mut self.engine {
            Engine::Single(s) => {
                tune_at_boundary(&s.driver, &t, &mut out)?;
                if s.store.is_some() {
                    let _span = t.span("durable.persist_boundary");
                    s.driver.persist_boundary(bucket, stats)?;
                }
            }
            Engine::Sharded(s) => {
                let mut busy = Vec::with_capacity(s.drivers.len());
                for (driver, shard) in s.drivers.iter().zip(s.db.shards()) {
                    shard.take_scan_stats();
                    busy.push(tune_at_boundary(driver, &t, &mut out)?);
                }
                let _span = t.span("shard.rebalance");
                let outcome = s.arbiter.rebalance(bucket, &s.drivers, &busy, &s.recorder);
                if !outcome.within_budget {
                    return Err(Error::invalid("index memory oversubscribed the budget"));
                }
                s.budget_used_bytes = outcome.used_bytes;
            }
        }
        Ok(out)
    }
}

/// Engine, stream, oracle and stream-generation time of one set-up.
type SetUp = (Engine, Vec<Vec<Query>>, Oracle, Duration);

/// `tenants_zipf`: the sharded fixture and drivers of `ShardedRuntime`,
/// served by the harness's own single-client loop.
fn set_up_sharded(seed: u64) -> Result<SetUp> {
    let runtime = ShardedRuntime::new(MtSoakConfig {
        shards: TENANTS_SHARDS,
        tenants: tenants_config(seed),
        budget_bytes: TENANTS_BUDGET_BYTES,
        budget_floor_bytes: TENANTS_BUDGET_FLOOR_BYTES,
        bucket_capacity: BUCKET_CAPACITY,
        scan_threads: 1,
        ..MtSoakConfig::default()
    })?;
    for driver in runtime.drivers() {
        driver.set_constraints(ConstraintSet {
            sla_p95_response: Some(SLA_P95),
            ..driver.constraints()
        });
    }
    let db = Arc::clone(runtime.database());
    let started = Instant::now();
    let stream = stream(WorkloadKind::TenantsZipf, smdb_shard::SHARD_TABLE, seed);
    let generate = started.elapsed();
    // Captured through the sharded path that will serve them, then the
    // capture's footprint is wiped: it is not traffic.
    let oracle = capture(&stream, |q| Ok(db.run_query(q)?.output))?;
    for shard in db.shards() {
        shard.plan_cache().clear();
        shard.take_scan_stats();
    }
    let engine = Engine::Sharded(Sharded {
        drivers: runtime.drivers().to_vec(),
        db,
        arbiter: BudgetArbiter::new(TENANTS_BUDGET_BYTES, TENANTS_BUDGET_FLOOR_BYTES),
        recorder: FlightRecorder::new(512),
        budget_used_bytes: 0,
    });
    Ok((engine, stream, oracle, generate))
}

/// The three workloads on one `events` database.
fn set_up_single(
    kind: WorkloadKind,
    seed: u64,
    scratch: &Path,
    tracer: &Arc<Tracer>,
) -> Result<SetUp> {
    let sizes = kind.sizes();
    let (db, table) = smdb_runtime::events_database(sizes.chunks, sizes.chunk_rows)?;
    let started = Instant::now();
    let stream = stream(kind, table, seed);
    let generate = started.elapsed();
    // Straight off the engine: no plan-cache entry, no clock tick.
    let oracle = {
        let engine = db.engine();
        capture(&stream, |q| {
            engine.scan_grouped(q.table(), q.predicates(), q.aggregate(), q.group_by())
        })?
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scan_threads = sizes.scan_threads.min(cores);
    if scan_threads > 1 {
        db.set_scan_pool(Some(ScanPool::new(scan_threads)), MORSEL_CHUNKS);
    }
    let store = (kind == WorkloadKind::ShiftDurable)
        .then(|| Store::create(scratch.join("store"), tracer))
        .transpose()?;
    let driver = build_driver(&db, tracer, store.as_ref().map(|s| Arc::clone(&s.manager)));
    let engine = Engine::Single(Single { db, driver, store });
    Ok((engine, stream, oracle, generate))
}

/// The per-driver part of a boundary; returns the bucket's busy ms.
fn tune_at_boundary(driver: &Driver, t: &Tracer, out: &mut Boundary) -> Result<f64> {
    let started = Instant::now();
    let report = {
        let _span = t.span("core.close_bucket");
        driver.close_bucket()
    };
    out.close.push(started.elapsed());
    {
        let _span = t.span("core.drain_pending");
        driver.drain_pending()?;
    }
    let started = Instant::now();
    let pass: Option<TuningRunReport> = {
        let _span = t.span("core.maybe_tune");
        driver.maybe_tune()?
    };
    match pass {
        Some(pass) => {
            out.fired.push(started.elapsed());
            out.actions_applied += pass.applied_actions;
            out.candidates += pass
                .proposals
                .iter()
                .map(|p| p.candidates_enumerated)
                .sum::<usize>();
        }
        None => out.idle.push(started.elapsed()),
    }
    Ok(report.bucket_cost.ms())
}

/// Captures the answer of every distinct query of `stream`.
fn capture(
    stream: &[Vec<Query>],
    mut run: impl FnMut(&Query) -> Result<ScanOutput>,
) -> Result<Oracle> {
    let mut oracle = Oracle::new();
    for query in stream.iter().flatten() {
        if let std::collections::hash_map::Entry::Vacant(slot) =
            oracle.entry(query.instance_fingerprint())
        {
            slot.insert(ExpectedResult::of(&run(query)?));
        }
    }
    Ok(oracle)
}
