//! The one serving loop.
//!
//! [`serve`] serves a pre-generated plan over a list of *units* — one
//! [`Driver`] per engine: the single engine is the 1-unit case, a
//! sharded fleet the N-unit case — and runs the paper's Driver/Organizer
//! control loop around them, bucket-synchronously:
//!
//! 1. **serve** the bucket: workers partition its queries round-robin,
//!    run each through the [`Backend`], verify the answer against the
//!    pre-tuning [`ResultOracle`] and feed the KPI window of the unit(s)
//!    that served it;
//! 2. **await the ack** for the previous boundary's decision, so a
//!    decision never overlaps the history/KPI mutation it read from;
//! 3. **close** every unit's KPI bucket;
//! 4. **drain** each unit's queued actions in a budgeted slice — an
//!    apply failure rolls that unit back to its last good configuration
//!    and pauses its organizer (degraded means untuned, never down);
//! 5. **rebalance** the global index-memory budget, when there is an
//!    arbiter;
//! 6. write the **boundary record** (a no-op without durability);
//! 7. hand the tuning thread **one tick per unit** — none for a unit
//!    whose organizer is paused or rate-limited, or whose decision is
//!    still queued, so a closed gate costs no KPI snapshot.
//!
//! The tuning thread only *decides*, concurrently with the next bucket's
//! serving: chosen actions are queued and land at the next barrier, one
//! bucket after they were chosen. It also owns the rollback cooldown: a
//! paused unit is resumed after [`COOLDOWN_BUCKETS`] ticks.
//!
//! The plan is seeded, the per-query digest is order-independent and
//! every decision reads a bucket-boundary snapshot, so served results
//! and decision trails are identical for any worker count and schedule.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use smdb_common::{Error, Result};
use smdb_core::{Driver, DriverBuilder, FeatureKind, OrganizerConfig, TuningTick};
use smdb_obs::{span, FlightRecorder};
use smdb_query::{Database, Query, QueryRunResult, ResultOracle, SessionStats};
use smdb_shard::{BudgetArbiter, ShardedDatabase};

use crate::fault::FaultInjectingExecutor;

/// Buckets a unit's tuning stays paused after a failed reconfiguration.
const COOLDOWN_BUCKETS: u64 = 2;
/// Idle buckets the post-workload settle may spend per unit draining
/// what is still queued.
const SETTLE_TICKS: usize = 64;

/// The driver every serving unit runs: indexing + compression tuners
/// behind a fault-injecting executor, organizer firing on a 25 %
/// forecast shift at most every second bucket. Callers add constraints,
/// bucket capacity, recorder and durability.
pub(crate) fn driver_builder(db: Arc<Database>, executor: FaultInjectingExecutor) -> DriverBuilder {
    Driver::builder(db)
        .features(vec![FeatureKind::Indexing, FeatureKind::Compression])
        .executor(Box::new(executor))
        .organizer(OrganizerConfig::default())
}

/// Installs a `scan_threads`-wide morsel pool on `db` (`<= 1` scans
/// inline).
pub(crate) fn set_scan_threads(db: &Database, scan_threads: usize, morsel_chunks: usize) {
    let pool = (scan_threads > 1).then(|| smdb_storage::ScanPool::new(scan_threads));
    db.set_scan_pool(pool, morsel_chunks);
}

/// What the tuning thread and the barrier drains did over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TunerReport {
    /// Ticks processed (one per closed bucket).
    pub ticks: u64,
    /// Tuning passes the organizer triggered.
    pub tunings: u64,
    /// Actions applied via slice-budgeted drains.
    pub drained: u64,
    /// Apply failures handled by rolling back.
    pub failures_handled: u64,
}

/// Where a kill-and-recover run hard-stops: after serving the first
/// `after_queries` queries of bucket `bucket`, before the bucket closes
/// or any boundary is logged — a crash mid-bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Plan index of the bucket to die in.
    pub bucket: usize,
    /// Queries of that bucket served before the stop.
    pub after_queries: usize,
}

/// How a run enters the loop: fresh from bucket 0, or resumed from a
/// recovered boundary.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunControl {
    /// First plan index to serve.
    pub start_bucket: usize,
    /// Cumulative stats carried over from the recovered boundary.
    pub initial_stats: SessionStats,
    /// Hard-stop point (kill-and-recover soak).
    pub kill: Option<KillSpec>,
}

/// One boundary's ticks, unit order; `None` for a unit no pass can
/// start on ([`Driver::tuning_tick`]).
type TickBatch = Vec<Option<TuningTick>>;

/// One planned query and the tenant it is billed to.
pub(crate) type Planned<'a> = (Option<i64>, &'a Query);

/// The engine a query runs on.
pub(crate) enum Backend<'a> {
    Single(&'a Database),
    Sharded(&'a ShardedDatabase),
}

impl Backend<'_> {
    /// Runs `query` and names the unit that served it; `None` means a
    /// scatter-gather touched every unit.
    fn run(&self, query: &Query) -> (Option<usize>, Result<QueryRunResult>) {
        match self {
            Backend::Single(db) => (Some(0), db.run_query(query)),
            Backend::Sharded(db) => (db.route(query), db.run_query(query)),
        }
    }
}

/// Everything the loop serves with.
pub(crate) struct ServeLoop<'a> {
    /// One driver per unit, unit order.
    pub drivers: &'a [Arc<Driver>],
    pub backend: Backend<'a>,
    /// The global budget arbiter and the recorder its decisions land on.
    pub arbiter: Option<(&'a BudgetArbiter, &'a FlightRecorder)>,
    /// Reader threads serving each bucket.
    pub workers: usize,
    /// Maximum actions a unit applies per barrier.
    pub slice_budget: usize,
}

/// What a completed run produced.
#[derive(Debug, Default)]
pub(crate) struct Served {
    /// Merged serving statistics, carried-over stats included.
    pub stats: SessionStats,
    /// Per served bucket, every answered query's tenant and simulated
    /// latency (ms).
    pub latencies: Vec<Vec<(Option<i64>, f64)>>,
    /// Queries answered by scatter-gather.
    pub scattered: u64,
    pub tuner: TunerReport,
    /// Whether the arbiter saw configured index bytes within budget at
    /// every barrier.
    pub budget_ok: bool,
    /// Largest configured index-byte total the arbiter observed.
    pub max_used_bytes: u64,
    /// Wall-clock seconds of the bucket loop (oracle capture and settle
    /// excluded).
    pub wall_seconds: f64,
}

/// Runs the loop over `plan`. Returns `None` when the run died at its
/// kill point, `Some` when the plan completed.
pub(crate) fn serve(
    spec: &ServeLoop<'_>,
    oracle: &ResultOracle,
    plan: &[Vec<Planned<'_>>],
    control: RunControl,
) -> Result<Option<Served>> {
    let drivers = spec.drivers;
    let mut out = Served {
        stats: control.initial_stats.clone(),
        budget_ok: true,
        ..Served::default()
    };
    let mut killed = false;

    // A fresh durable run starts with a snapshot (version 0: the base
    // blob and the first state), so recovery has something to replay
    // onto whatever the crash point. A resumed run already has one.
    if control.start_bucket == 0 {
        for driver in drivers {
            if driver.durability().is_some_and(|d| d.wal_records() == 0) {
                driver.persist_snapshot(0, &out.stats)?;
            }
        }
    }

    let decided = std::thread::scope(|scope| -> Result<TunerReport> {
        // Capacity 1: the control thread may serve at most one bucket
        // while the tuning thread still decides on the previous ticks.
        let (tick_tx, tick_rx) = mpsc::sync_channel::<Option<TickBatch>>(1);
        let (ack_tx, ack_rx) = mpsc::channel::<()>();
        let tuner = scope.spawn(move || tuner_loop(drivers, &tick_rx, &ack_tx));
        // A unit whose gate is closed gets no snapshot. Its gate is
        // settled here: the previous batch is acked and the barrier
        // drain has already paused any unit that failed.
        let ticks = || Some(drivers.iter().map(|d| d.tuning_tick()).collect());
        // A resumed run re-sends the restored boundary's ticks first. The
        // boundary record is written from exactly the state its ticks
        // are built from, so these equal the ones the dying run had in
        // flight: that decision is re-made from identical state and the
        // resumed tuning sequence matches the uninterrupted one.
        let mut in_flight = control.start_bucket > 0 && tick_tx.send(ticks()).is_ok();
        let started = Instant::now();
        for (idx, bucket) in plan.iter().enumerate().skip(control.start_bucket) {
            let _span = span!("runtime", "bucket", { queries: bucket.len() });
            if let Some(kill) = control.kill.filter(|k| k.bucket == idx) {
                // Crash mid-bucket: serve a prefix, then stop dead — no
                // ack, no close, no boundary record.
                let n = kill.after_queries.min(bucket.len());
                serve_bucket(spec, oracle, &bucket[..n], &mut Served::default())?;
                killed = true;
                break;
            }
            serve_bucket(spec, oracle, bucket, &mut out)?;
            if in_flight {
                if ack_rx.recv().is_err() {
                    // The tuning thread exited early (it hit an error);
                    // stop serving and surface it via join.
                    break;
                }
                in_flight = false;
            }
            let busy: Vec<f64> = drivers
                .iter()
                .map(|d| d.close_bucket().bucket_cost.ms())
                .collect();
            for driver in drivers {
                barrier_drain(driver, spec.slice_budget, &mut out.tuner)?;
            }
            if let Some((arbiter, recorder)) = spec.arbiter {
                let split = arbiter.rebalance(idx as u64, drivers, &busy, recorder);
                out.budget_ok &= split.within_budget;
                out.max_used_bytes = out.max_used_bytes.max(split.used_bytes);
            }
            // Boundary record first, ticks second, both from the same
            // settled state: recovery restores the boundary and re-sends
            // the identical ticks. The drain may have reset a KPI window,
            // so the ticks are built only now.
            for driver in drivers {
                driver.persist_boundary((idx + 1) as u64, &out.stats)?;
            }
            if tick_tx.send(ticks()).is_err() {
                break;
            }
            in_flight = true;
        }
        if in_flight {
            let _ = ack_rx.recv();
        }
        out.wall_seconds = started.elapsed().as_secs_f64();
        let _ = tick_tx.send(None);
        tuner
            .join()
            .map_err(|_| Error::invalid("tuning thread panicked"))?
    })?;
    if killed {
        return Ok(None);
    }
    out.tuner.ticks = decided.ticks;
    out.tuner.tunings = decided.tunings;

    // Settle: idle buckets drain whatever is still queued so the run
    // ends with a stable configuration.
    for driver in drivers {
        let mut ticks = 0;
        while driver.pending_actions() > 0 && ticks < SETTLE_TICKS {
            driver.close_bucket();
            driver.organizer().resume();
            barrier_drain(driver, spec.slice_budget, &mut out.tuner)?;
            ticks += 1;
        }
    }
    Ok(Some(out))
}

/// One barrier drain step for one unit: applies a budgeted slice of its
/// queued actions strictly between buckets, rolling back (and pausing
/// its tuning) when an apply fails. Skipped while the unit is paused.
fn barrier_drain(driver: &Driver, slice_budget: usize, report: &mut TunerReport) -> Result<()> {
    if driver.organizer().is_paused() || driver.pending_actions() == 0 {
        return Ok(());
    }
    let _span = span!("runtime", "barrier_drain");
    match driver.drain_pending_slice_at(&driver.tick(), slice_budget) {
        Ok(n) => report.drained += n as u64,
        Err(cause) => {
            // A failed apply left the engine mid-reconfiguration:
            // restore the last good instance, then pause tuning for a
            // cooldown. If even the rollback fails the run reports the
            // broken state.
            driver.rollback_to_last_good(&cause.to_string())?;
            report.failures_handled += 1;
            driver.organizer().pause();
        }
    }
    Ok(())
}

/// Serves one bucket with the worker pool and folds it into `out`.
fn serve_bucket(
    spec: &ServeLoop<'_>,
    oracle: &ResultOracle,
    bucket: &[Planned<'_>],
    out: &mut Served,
) -> Result<()> {
    // Physical worker threads are capped at the host's parallelism:
    // extra workers on an oversubscribed host only add spawn and
    // context-switch overhead. Everything folded into `out` is
    // partition-independent (the digest by construction, latencies as
    // multisets), so the clamp cannot change any deterministic output.
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(usize::MAX);
    let workers = spec.workers.max(1).min(host);
    let mut latencies = Vec::with_capacity(bucket.len());
    std::thread::scope(|scope| -> Result<()> {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let _span = span!("runtime", "worker", { worker: w });
                    let mut stats = SessionStats::default();
                    let mut lats = Vec::new();
                    let mut scattered = 0u64;
                    for &(tenant, query) in bucket.iter().skip(w).step_by(workers) {
                        let (unit, result) = spec.backend.run(query);
                        // Engine errors are counted; serving continues.
                        let Ok(result) = result else {
                            stats.errors += 1;
                            continue;
                        };
                        let output = &result.output;
                        stats.record(query, output, Some(oracle));
                        // KPIs see the (possibly parallel) simulated
                        // latency; sim_cost stays the work the cost
                        // model is calibrated on.
                        let served_by = match unit {
                            Some(u) => &spec.drivers[u..=u],
                            // A scatter touched every unit; each unit's
                            // KPI window sees the query it served.
                            None => {
                                scattered += 1;
                                spec.drivers
                            }
                        };
                        for driver in served_by {
                            driver.record_scan(output.sim_latency, output.morsels);
                        }
                        lats.push((tenant, output.sim_latency.ms()));
                    }
                    (stats, lats, scattered)
                })
            })
            .collect();
        for handle in handles {
            let (stats, lats, scattered) = handle
                .join()
                .map_err(|_| Error::invalid("worker thread panicked"))?;
            out.stats.merge(&stats);
            out.scattered += scattered;
            latencies.extend(lats);
        }
        Ok(())
    })?;
    out.latencies.push(latencies);
    Ok(())
}

/// The tuning thread: one *decision* per unit per closed bucket. It
/// never touches an engine — chosen actions are queued for the control
/// thread's next barrier drain — so faults and rollbacks happen at
/// deterministic points regardless of how this thread is scheduled.
fn tuner_loop(
    drivers: &[Arc<Driver>],
    ticks: &mpsc::Receiver<Option<TickBatch>>,
    acks: &mpsc::Sender<()>,
) -> Result<TunerReport> {
    let mut report = TunerReport::default();
    // Per unit, ticks left of its rollback cooldown (0 = not cooling).
    let mut cooldown = vec![0u64; drivers.len()];
    while let Ok(Some(batch)) = ticks.recv() {
        let _span = span!("runtime", "tuning_tick");
        report.ticks += 1;
        for ((driver, tick), left) in drivers.iter().zip(&batch).zip(&mut cooldown) {
            if driver.organizer().is_paused() {
                // Degraded mode after a rollback: serve-only until the
                // cooldown elapses.
                if *left == 0 {
                    *left = COOLDOWN_BUCKETS;
                }
                *left -= 1;
                if *left == 0 {
                    driver.organizer().resume();
                }
            } else {
                *left = 0;
                // Decide only: a triggered tuning queues its actions. On
                // an analysis error the loop exits — the dropped ack
                // channel stops the control loop, and join surfaces the
                // error.
                if let Some(tick) = tick {
                    if driver.maybe_tune_deferred(tick)?.is_some() {
                        report.tunings += 1;
                    }
                }
            }
        }
        if acks.send(()).is_err() {
            break;
        }
    }
    Ok(report)
}

/// p95 by the `ceil(n·p)` rank rule the KPI collector uses; 0 when
/// empty. Sorts `samples` in place.
pub(crate) fn p95(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (samples.len() as f64 * 0.95).ceil() as usize;
    samples[rank.min(samples.len()) - 1]
}
