//! The single-engine serving runtime: one [`Database`], one [`Driver`].
//!
//! [`Runtime`] is the 1-unit case of the serving loop in
//! `crate::serve` — it wires the driver (low-utilization-gated,
//! fault-injecting executor; optionally durable), captures the answer
//! oracle, hands the plan to the loop and projects what comes back into
//! a [`SoakOutcome`] (cold-vs-tuned latency of the heavy phase, tuning
//! and fault counters, durability KPIs).

use std::sync::Arc;

use smdb_common::{Cost, Error, Result};
use smdb_core::{ConstraintSet, Driver, DurabilityManager, DurabilityStats, TuningState};
use smdb_query::{Database, ResultOracle, SessionStats};

use crate::fault::{FaultInjectingExecutor, FaultPlan};
use crate::serve::{self, Backend, KillSpec, Planned, RunControl, ServeLoop, Served, TunerReport};
use crate::stream::{BucketPlan, Phase};

/// Serving and tuning parameters.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Reader threads serving each bucket.
    pub workers: usize,
    /// KPI bucket capacity (ms of query work at 100 % utilization).
    pub bucket_capacity: Cost,
    /// Maximum actions applied per low-utilization drain slice.
    pub slice_budget: usize,
    /// Injected apply failures (attempt-indexed).
    pub fault_plan: FaultPlan,
    /// Optional tail-latency SLA handed to the organizer.
    pub sla_p95: Option<Cost>,
    /// Scan-pool threads for morsel-driven parallel scans. `1` (the
    /// default) serves every scan inline; `> 1` installs a shared
    /// [`smdb_storage::ScanPool`] on the database and workers submit
    /// morsels instead of whole queries. Results and the soak digest are
    /// bit-identical either way — only the simulated latency model (and
    /// on multicore hosts, wall clock) changes.
    pub scan_threads: usize,
    /// Chunks per morsel when `scan_threads > 1` (0 = whole table).
    pub morsel_chunks: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 4,
            bucket_capacity: Cost(2_000.0),
            slice_budget: 4,
            fault_plan: FaultPlan::none(),
            sla_p95: None,
            scan_threads: 1,
            morsel_chunks: smdb_storage::parallel::DEFAULT_MORSEL_CHUNKS,
        }
    }
}

/// Outcome of one soak run.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Merged serving statistics (queries, errors, wrong results, the
    /// order-independent result digest).
    pub stats: SessionStats,
    /// Buckets served from the plan.
    pub buckets_served: usize,
    /// Final snapshot of the driver's tuning machinery.
    pub tuning: TuningState,
    /// What the tuning thread did.
    pub tuner: TunerReport,
    /// Actual apply attempts (fault-injection counter).
    pub apply_attempts: usize,
    /// Failures the fault plan injected.
    pub injected_failures: usize,
    /// Mean response over the first heavy bucket (untuned).
    pub cold_mean: Cost,
    /// p95 response over the first heavy bucket (untuned).
    pub cold_p95: Cost,
    /// Mean response over the last heavy bucket (tuned).
    pub tuned_mean: Cost,
    /// p95 response over the last heavy bucket (tuned).
    pub tuned_p95: Cost,
    /// Durability write KPIs (WAL records/bytes, snapshots, write
    /// amplification); `None` for in-memory runs.
    pub durability: Option<DurabilityStats>,
}

/// The serving runtime: a database, its driver, and the fault-injecting
/// executor handle.
pub struct Runtime {
    db: Arc<Database>,
    driver: Arc<Driver>,
    executor: FaultInjectingExecutor,
    config: RuntimeConfig,
}

impl Runtime {
    /// Wires a driver (indexing + compression, low-utilization-gated
    /// fault-injecting executor) around `db`.
    pub fn new(db: Arc<Database>, config: RuntimeConfig) -> Runtime {
        Self::build(db, config, None)
    }

    /// Like [`Runtime::new`], but the driver persists its state through
    /// `durability` (WAL + snapshots) so a killed run can recover.
    pub fn new_durable(
        db: Arc<Database>,
        config: RuntimeConfig,
        durability: Arc<DurabilityManager>,
    ) -> Runtime {
        Self::build(db, config, Some(durability))
    }

    fn build(
        db: Arc<Database>,
        config: RuntimeConfig,
        durability: Option<Arc<DurabilityManager>>,
    ) -> Runtime {
        let executor = FaultInjectingExecutor::during_low_utilization(config.fault_plan.clone());
        let mut builder = serve::driver_builder(Arc::clone(&db), executor.clone())
            .constraints(ConstraintSet {
                sla_p95_response: config.sla_p95,
                ..ConstraintSet::none()
            })
            .kpi_bucket_capacity(config.bucket_capacity);
        if let Some(d) = durability {
            builder = builder.durability(d);
        }
        let driver = Arc::new(builder.build());
        serve::set_scan_threads(&db, config.scan_threads, config.morsel_chunks);
        Runtime {
            db,
            driver,
            executor,
            config,
        }
    }

    /// The database being served.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The self-management driver.
    pub fn driver(&self) -> &Arc<Driver> {
        &self.driver
    }

    /// Serves the whole plan. Returns the merged statistics, the final
    /// tuning state and cold-vs-tuned latency figures.
    pub fn run(&self, plan: &[BucketPlan]) -> Result<SoakOutcome> {
        self.run_range(plan, RunControl::default())?
            .ok_or_else(|| Error::invalid("run without a kill spec cannot be killed"))
    }

    /// Serves the plan until the kill point, then hard-stops: the bucket
    /// is left unclosed, no boundary is logged, and nothing is flushed —
    /// exactly the state a crash mid-bucket leaves behind. The runtime
    /// (and its driver) must be discarded afterwards; recovery builds a
    /// fresh one from the durable store.
    pub fn run_killed(&self, plan: &[BucketPlan], kill: KillSpec) -> Result<()> {
        if kill.bucket >= plan.len() {
            return Err(Error::invalid("kill bucket beyond the plan"));
        }
        match self.run_range(
            plan,
            RunControl {
                kill: Some(kill),
                ..RunControl::default()
            },
        )? {
            None => Ok(()),
            Some(_) => Err(Error::invalid("kill point was never reached")),
        }
    }

    /// Resumes serving at `start_bucket` with the recovered cumulative
    /// `stats` — the driver must already hold the restored state (see
    /// [`crate::recover`]). Re-sends the restored boundary's tick first,
    /// so the tuning decision that was in flight at the crash is re-made
    /// from the identical state.
    pub fn run_resumed(
        &self,
        plan: &[BucketPlan],
        start_bucket: u64,
        stats: SessionStats,
    ) -> Result<SoakOutcome> {
        self.run_range(
            plan,
            RunControl {
                start_bucket: start_bucket as usize,
                initial_stats: stats,
                kill: None,
            },
        )?
        .ok_or_else(|| Error::invalid("resumed run cannot be killed"))
    }

    /// Runs the serving loop over this one unit. Returns `None` when the
    /// run died at its kill point, `Some(outcome)` when the plan
    /// completed.
    fn run_range(&self, plan: &[BucketPlan], control: RunControl) -> Result<Option<SoakOutcome>> {
        let oracle = ResultOracle::capture(&self.db, plan.iter().flat_map(|b| b.queries.iter()))?;
        let buckets: Vec<Vec<Planned<'_>>> = plan
            .iter()
            .map(|b| b.queries.iter().map(|q| (None, q)).collect())
            .collect();
        let start_bucket = control.start_bucket;
        let served = serve::serve(
            &ServeLoop {
                drivers: std::slice::from_ref(&self.driver),
                backend: Backend::Single(&self.db),
                arbiter: None,
                workers: self.config.workers,
                slice_budget: self.config.slice_budget,
            },
            &oracle,
            &buckets,
            control,
        )?;
        Ok(served.map(|served| self.outcome(&plan[start_bucket.min(plan.len())..], served)))
    }

    /// Projects what the loop served over `plan` into the soak outcome.
    fn outcome(&self, plan: &[BucketPlan], served: Served) -> SoakOutcome {
        let mut heavy = plan
            .iter()
            .zip(&served.latencies)
            .filter(|(bucket, _)| bucket.phase == Phase::Heavy)
            .map(|(_, latencies)| latencies.as_slice());
        let first = heavy.next();
        let last = heavy.next_back().or(first);
        let (cold_mean, cold_p95) = mean_and_p95(first);
        let (tuned_mean, tuned_p95) = mean_and_p95(last);
        SoakOutcome {
            stats: served.stats,
            buckets_served: served.latencies.len(),
            tuning: self.driver.tuning_state(),
            tuner: served.tuner,
            apply_attempts: self.executor.attempts(),
            injected_failures: self.executor.injected_failures(),
            cold_mean,
            cold_p95,
            tuned_mean,
            tuned_p95,
            durability: self.driver.durability().map(|d| d.stats()),
        }
    }
}

/// Mean and p95 of one bucket's latencies (zero without samples).
fn mean_and_p95(latencies: Option<&[(Option<i64>, f64)]>) -> (Cost, Cost) {
    let mut ms: Vec<f64> = latencies.into_iter().flatten().map(|&(_, ms)| ms).collect();
    if ms.is_empty() {
        return (Cost::ZERO, Cost::ZERO);
    }
    let mean = ms.iter().sum::<f64>() / ms.len() as f64;
    (Cost(mean), Cost(serve::p95(&mut ms)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{events_database, generate, StreamConfig};

    fn small_plan() -> (Arc<Database>, Vec<BucketPlan>) {
        let (db, table) = events_database(6, 500).expect("fixture builds");
        let config = StreamConfig {
            buckets: 10,
            heavy_queries: 60,
            light_queries: 8,
            heavy_len: 3,
            light_len: 2,
            ..StreamConfig::default()
        };
        (db, generate(table, 3_000, &config))
    }

    #[test]
    fn soak_serves_everything_correctly_and_tunes() {
        let (db, plan) = small_plan();
        let runtime = Runtime::new(
            db,
            RuntimeConfig {
                workers: 3,
                bucket_capacity: Cost(500.0),
                ..RuntimeConfig::default()
            },
        );
        let outcome = runtime.run(&plan).expect("soak runs");
        let planned: usize = plan.iter().map(|b| b.queries.len()).sum();
        assert_eq!(outcome.stats.queries as usize, planned);
        assert_eq!(outcome.stats.errors, 0);
        assert_eq!(outcome.stats.wrong_results, 0);
        assert_eq!(outcome.buckets_served, plan.len());
        assert!(outcome.tuning.actions_applied > 0, "{:?}", outcome.tuning);
        assert_eq!(outcome.tuning.pending_actions, 0, "drained at the end");
        assert!(outcome.cold_mean.ms() > 0.0);
        assert!(
            outcome.tuned_mean.ms() < outcome.cold_mean.ms(),
            "tuning should speed up the heavy phase: cold {} tuned {}",
            outcome.cold_mean,
            outcome.tuned_mean
        );
    }

    #[test]
    fn digest_is_worker_count_invariant() {
        let (db_a, plan) = small_plan();
        let (db_b, _) = small_plan();
        let a = Runtime::new(
            db_a,
            RuntimeConfig {
                workers: 1,
                bucket_capacity: Cost(500.0),
                ..RuntimeConfig::default()
            },
        )
        .run(&plan)
        .expect("runs");
        let b = Runtime::new(
            db_b,
            RuntimeConfig {
                workers: 4,
                bucket_capacity: Cost(500.0),
                ..RuntimeConfig::default()
            },
        )
        .run(&plan)
        .expect("runs");
        assert_eq!(a.stats.queries, b.stats.queries);
        assert_eq!(a.stats.result_digest, b.stats.result_digest);
        assert_eq!(a.stats.wrong_results + b.stats.wrong_results, 0);
    }

    #[test]
    fn digest_is_scan_thread_invariant() {
        // Morsel-parallel scans change the latency model, never the
        // results: same digest, zero wrong answers, and the parallel run
        // actually dispatched morsels.
        let (db_seq, plan) = small_plan();
        let seq = Runtime::new(
            db_seq,
            RuntimeConfig {
                workers: 2,
                bucket_capacity: Cost(500.0),
                ..RuntimeConfig::default()
            },
        )
        .run(&plan)
        .expect("runs");
        for (scan_threads, morsel_chunks) in [(2, 1), (4, 2)] {
            let (db_par, _) = small_plan();
            let par = Runtime::new(
                db_par,
                RuntimeConfig {
                    workers: 2,
                    bucket_capacity: Cost(500.0),
                    scan_threads,
                    morsel_chunks,
                    ..RuntimeConfig::default()
                },
            )
            .run(&plan)
            .expect("runs");
            assert_eq!(par.stats.result_digest, seq.stats.result_digest);
            assert_eq!(par.stats.queries, seq.stats.queries);
            assert_eq!(par.stats.wrong_results, 0);
            assert_eq!(seq.stats.morsels, 0);
            assert!(par.stats.morsels > 0, "parallel run dispatched morsels");
        }
    }

    #[test]
    fn injected_failures_roll_back_and_serving_survives() {
        let (db, plan) = small_plan();
        let runtime = Runtime::new(
            db,
            RuntimeConfig {
                workers: 2,
                bucket_capacity: Cost(500.0),
                fault_plan: FaultPlan::failing_attempts([0]),
                ..RuntimeConfig::default()
            },
        );
        let outcome = runtime.run(&plan).expect("soak survives the fault");
        assert_eq!(outcome.stats.wrong_results, 0);
        assert_eq!(outcome.stats.errors, 0);
        assert_eq!(outcome.injected_failures, 1);
        assert_eq!(outcome.tuning.rollbacks, 1);
        assert!(outcome.tuner.failures_handled >= 1);
        assert_eq!(outcome.tuning.pending_actions, 0);
    }
}
