//! The driver: "the central entity encapsulating all the other
//! components that are responsible for adding self-management
//! capabilities" (Section II-A).
//!
//! The driver owns the workload predictor, the multi-feature tuner, the
//! organizer, the KPI collector, the configuration-instance storage and
//! the constraint set, and mediates their access to the database (plan
//! cache, engine, cost estimators). It is the one owner of its state:
//! it exports itself into a [`ServingState`] at bucket boundaries and
//! restores a freshly built driver from a [`RecoveredState`].

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use smdb_common::{Cost, Error, LogicalTime, Result};
use smdb_cost::{CalibratedCostModel, CostEstimator, WhatIf};
use smdb_forecast::{ForecastSet, PredictorConfig, WorkloadHistory, WorkloadPredictor};
use smdb_obs::metrics::Counter;
use smdb_obs::{span, FlightRecorder, TrailEvent};
use smdb_query::{Database, Query, SessionStats};
use smdb_storage::{ConfigAction, ConfigInstance};

use crate::config_storage::{ConfigStorage, RollbackRecord, StoredInstance};
use crate::constraints::ConstraintSet;
use crate::durability::{DurabilityManager, RecoveredState, ServingState};
use crate::executor::{ExecutionReport, Executor, SequentialExecutor};
use crate::feature::FeatureKind;
use crate::kpi::{KpiCollector, KpiSnapshot};
use crate::multi::MultiFeatureTuner;
use crate::organizer::{Organizer, OrganizerConfig, TuningTrigger};
use crate::tuner::{standard_tuner, TuningProposal};

/// How the driver orders features in a multi-feature tuning run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingPolicy {
    /// Registration order (no analysis).
    Registration,
    /// The order maximizing the paper's Section III-B objective over the
    /// measured dependence analysis.
    LpOptimized,
}

/// A consistent view of the serving state at one bucket boundary —
/// everything a tuning decision reads, captured once so the decision is
/// a pure function of the tick regardless of what worker threads do to
/// the live collector afterwards. After each [`Driver::close_bucket`]
/// the serving runtime asks [`Driver::tuning_tick`] for one and hands
/// it to the tuning thread.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningTick {
    /// Logical time the tick was taken at.
    pub now: LogicalTime,
    /// KPI snapshot at the bucket boundary.
    pub kpis: KpiSnapshot,
    /// Observed workload cost of the last closed bucket.
    pub bucket_cost: Cost,
}

/// Report of one driver-run bucket.
#[derive(Debug, Clone)]
pub struct BucketReport {
    pub queries_run: usize,
    pub bucket_cost: Cost,
    pub now: smdb_common::LogicalTime,
}

/// Report of one tuning run.
#[derive(Debug)]
pub struct TuningRunReport {
    pub trigger: TuningTrigger,
    pub order: Vec<FeatureKind>,
    pub proposals: Vec<TuningProposal>,
    pub applied_actions: usize,
    pub reconfiguration_cost: Cost,
}

/// Report of one rollback to the last good configuration.
#[derive(Debug, Clone)]
pub struct RollbackReport {
    /// Actions it took to restore the last good configuration.
    pub undo_actions: usize,
    /// Queued actions that were abandoned (never applied).
    pub abandoned_actions: usize,
    /// One-time cost of the restore.
    pub reconfiguration_cost: Cost,
}

/// Point-in-time snapshot of the driver's tuning machinery, safe to take
/// from any thread while serving continues.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningState {
    /// Actions of the queued decision not applied yet.
    pub pending_actions: usize,
    /// Whether a decision is queued (no pass starts until it is drained
    /// or rolled back).
    pub reconfig_in_flight: bool,
    /// Whether the organizer is paused (degraded mode).
    pub paused: bool,
    /// When the last tuning ran.
    pub last_tuning: Option<smdb_common::LogicalTime>,
    /// Configuration instances stored by the feedback loop.
    pub stored_instances: usize,
    /// Rollbacks recorded so far.
    pub rollbacks: usize,
    /// Buckets closed so far.
    pub buckets_closed: u64,
    /// Tuning passes run (regardless of outcome).
    pub tunings_run: u64,
    /// Configuration actions the drains applied.
    pub actions_applied: u64,
    /// Configuration actions still queued when the pass that chose them
    /// returned: every action of a [`Driver::maybe_tune_deferred`] pass,
    /// and those the executor deferred at a [`Driver::maybe_tune`] or
    /// [`Driver::force_tune`] pass's own tick.
    pub actions_deferred: u64,
    /// Apply attempts that returned an error.
    pub apply_failures: u64,
}

/// A tuning pass's decision, queued until the drains have applied all
/// of its actions: the context needed to store the configuration
/// instance when the last one lands.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingReconfig {
    /// The configuration once the drain completes.
    pub final_config: ConfigInstance,
    /// The full action list of the tuning.
    pub actions: Vec<ConfigAction>,
    /// Predicted workload cost after the change.
    pub predicted_cost: Cost,
    /// Mean observed response before the change.
    pub observed_before: Cost,
    /// Reconfiguration cost accrued over completed slices.
    pub accrued_cost: Cost,
}

smdb_durable::durable_struct!(PendingReconfig {
    final_config,
    actions,
    predicted_cost,
    observed_before,
    accrued_cost
});

/// The one queued decision and how far the drains got: the actions still
/// queued are the suffix of `reconfig.actions` after `drained`.
#[derive(Debug)]
struct QueuedDecision {
    reconfig: PendingReconfig,
    /// Leading actions already handed to the executor (applied, or lost
    /// to a failed apply).
    drained: usize,
}

impl QueuedDecision {
    /// The actions still queued.
    fn remaining(&self) -> &[ConfigAction] {
        &self.reconfig.actions[self.drained..]
    }
}

#[derive(Debug, Default)]
struct DriverCounters {
    buckets_closed: Counter,
    tunings_run: Counter,
    actions_applied: Counter,
    actions_deferred: Counter,
    apply_failures: Counter,
}

/// The central self-management entity.
pub struct Driver {
    db: Arc<Database>,
    history: Mutex<WorkloadHistory>,
    predictor: WorkloadPredictor,
    multi: MultiFeatureTuner,
    organizer: Organizer,
    kpis: KpiCollector,
    storage: ConfigStorage,
    /// Constraint set behind its own lock so an external arbiter (the
    /// sharded Organizer splitting one memory budget across shards) can
    /// retarget budgets between ticks. Tuning paths clone it up front
    /// and never hold this lock across engine locks.
    constraints: RwLock<ConstraintSet>,
    executor: Box<dyn Executor>,
    /// Online-learning cost model fed by every monitored execution.
    calibrated: Option<Arc<CalibratedCostModel>>,
    ordering_policy: OrderingPolicy,
    /// Rolling observed workload cost of the last closed bucket.
    last_bucket_cost: Mutex<Cost>,
    /// The last pass's decision until the drains have applied all of it
    /// ("the executor can access runtime KPIs to determine favorable
    /// points in time for applying the choices", Section II-D(d)). No
    /// pass starts while it is set.
    queued: Mutex<Option<QueuedDecision>>,
    /// The configuration at build time — the rollback target before any
    /// instance has been stored.
    baseline_config: ConfigInstance,
    counters: DriverCounters,
    /// Flight recorder every tuning decision lands in (bounded ring;
    /// exportable as JSON, dumped on rollback when auto-dump is on).
    recorder: Arc<FlightRecorder>,
    /// WAL + snapshot manager; `None` keeps the in-memory path free of
    /// durability overhead.
    durability: Option<Arc<DurabilityManager>>,
}

impl Driver {
    /// Starts building a driver for a database.
    pub fn builder(db: Arc<Database>) -> DriverBuilder {
        DriverBuilder::new(db)
    }

    /// The database handle.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The KPI collector.
    pub fn kpis(&self) -> &KpiCollector {
        &self.kpis
    }

    /// The configuration-instance storage (feedback loop).
    pub fn config_storage(&self) -> &ConfigStorage {
        &self.storage
    }

    /// A snapshot of the current constraint set.
    pub fn constraints(&self) -> ConstraintSet {
        self.constraints.read().clone()
    }

    /// Replaces the whole constraint set (takes effect at the next
    /// tuning pass; in-flight passes keep the snapshot they started
    /// with).
    pub fn set_constraints(&self, constraints: ConstraintSet) {
        *self.constraints.write() = constraints;
    }

    /// Retargets just the index memory budget — the lever a global
    /// budget arbiter pulls per shard. The shard-local tuner enforces
    /// the new value on its next proposal (crate-level `tuner` caps
    /// proposals at `effective_index_budget` minus already-configured
    /// index bytes).
    pub fn set_index_memory_budget(&self, bytes: Option<i64>) {
        self.constraints.write().index_memory_bytes = bytes;
    }

    /// The multi-feature tuner.
    pub fn multi(&self) -> &MultiFeatureTuner {
        &self.multi
    }

    /// The organizer (pause/resume and trigger bookkeeping).
    pub fn organizer(&self) -> &Organizer {
        &self.organizer
    }

    /// The configuration the driver was built against — the rollback
    /// target before any instance has been stored.
    pub fn baseline_config(&self) -> &ConfigInstance {
        &self.baseline_config
    }

    /// The flight recorder holding the recent decision trail.
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The durability manager, when this driver persists its state.
    pub fn durability(&self) -> Option<&Arc<DurabilityManager>> {
        self.durability.as_ref()
    }

    /// Label of the configuration a rollback would restore right now:
    /// the latest stored instance, or the build-time baseline.
    fn rollback_target_label(&self) -> String {
        if self.storage.latest_config().is_some() {
            format!("instance-{}", self.storage.len() - 1)
        } else {
            "baseline".to_string()
        }
    }

    /// Records one served query into the KPI window and the open bucket:
    /// `latency` is the (possibly parallel) simulated latency and
    /// `morsels` how many morsels the scan pool executed for it
    /// (0 = inline). The serving runtime calls this from worker threads;
    /// [`Driver::close_bucket`] consumes the accumulation.
    pub fn record_scan(&self, latency: Cost, morsels: u64) {
        self.kpis.record_query(latency);
        self.kpis.record_morsels(morsels);
    }

    /// Closes the current KPI bucket from whatever
    /// [`Driver::record_scan`] accumulated: samples engine memory,
    /// feeds the plan cache's entries to the workload history under the
    /// cache lock (no copy), updates the
    /// observed bucket cost and advances the logical clock.
    pub fn close_bucket(&self) -> BucketReport {
        let _span = span!("driver", "close_bucket");
        let now = self.db.now();
        self.kpis.record_memory(self.db.engine().total_bytes());
        self.history
            .lock()
            .observe(now, self.db.plan_cache().entries());
        let close = self.kpis.end_bucket_accumulated();
        *self.last_bucket_cost.lock() = close.busy;
        self.db.advance_time();
        self.counters.buckets_closed.inc();
        smdb_obs::metrics::counter("driver.buckets_closed").inc();
        smdb_obs::metrics::observe("driver.bucket_busy_ms", close.busy.ms());
        if close.morsels > 0 {
            smdb_obs::metrics::counter("driver.morsels").add(close.morsels);
        }
        self.recorder.record(TrailEvent::BucketClosed {
            at: now.raw(),
            queries: close.queries,
            busy_ms: close.busy.ms(),
            utilization: close.utilization,
            morsels: close.morsels,
        });
        BucketReport {
            queries_run: close.queries as usize,
            bucket_cost: close.busy,
            now,
        }
    }

    /// Builds a [`TuningTick`] — the consistent bucket-boundary view the
    /// serving runtime hands to the tuning thread.
    pub fn tick(&self) -> TuningTick {
        TuningTick {
            now: self.db.now(),
            kpis: self.kpis.snapshot(),
            bucket_cost: *self.last_bucket_cost.lock(),
        }
    }

    /// The tick an organizer-gated pass would read now, or `None` when
    /// no pass can start whatever the KPIs say: a decision is queued, or
    /// the organizer is paused or rate-limited. Checked on the clock
    /// alone, so a closed gate costs no KPI snapshot.
    pub fn tuning_tick(&self) -> Option<TuningTick> {
        if self.queued.lock().is_some() {
            return None;
        }
        self.organizer
            .gate_open_at(self.db.now())
            .then(|| self.tick())
    }

    /// Runs one bucket of queries through the database: executes each
    /// query (monitoring feeds the plan cache), records KPIs, optionally
    /// trains the calibrated cost model, snapshots the plan cache into
    /// the workload history, and advances the logical clock.
    pub fn run_bucket(&self, queries: &[Query]) -> Result<BucketReport> {
        {
            // Released before the drain below, whose actions would
            // otherwise copy the shared instance.
            let config = self.db.engine().shared_config();
            for q in queries {
                let result = self.db.run_query(q)?;
                self.kpis.record_query(result.output.sim_cost);
                if let Some(model) = &self.calibrated {
                    let engine = self.db.engine();
                    model.observe(&engine, q, &config, result.output.sim_cost)?;
                }
            }
        }
        let report = self.close_bucket();
        // Retry actions a utilization-gated executor deferred earlier;
        // the bucket just closed, so the KPI window is fresh.
        self.drain_pending()?;
        Ok(report)
    }

    /// Applies every queued action the executor lets through right now.
    /// Returns how many were applied; a no-op, without a KPI snapshot,
    /// when nothing is queued.
    pub fn drain_pending(&self) -> Result<usize> {
        if self.queued.lock().is_none() {
            return Ok(0);
        }
        self.drain_pending_slice_at(&self.tick(), usize::MAX)
    }

    /// Applies up to `budget` queued actions at `tick`: the executor's
    /// gating decision and every trail event use the tick's consistent
    /// bucket-boundary view, and the budget keeps one low-utilization
    /// window from stalling readers behind an unbounded reconfiguration.
    /// Returns how many were applied (0 when the executor still defers;
    /// the slice stays queued).
    ///
    /// On an apply error the failed slice is *not* requeued — the engine
    /// may hold a partial prefix of it — and the error propagates; the
    /// caller is expected to invoke [`Driver::rollback_to_last_good`].
    pub fn drain_pending_slice_at(&self, tick: &TuningTick, budget: usize) -> Result<usize> {
        self.drain_at(tick, budget).map(|report| report.applied)
    }

    /// The one apply path: hands up to `budget` queued actions to the
    /// executor and, once the decision's last action has landed, stores
    /// its configuration instance so the feedback loop (and the rollback
    /// target) see exactly what ran. The report's `deferred` counts the
    /// actions still queued afterwards.
    fn drain_at(&self, tick: &TuningTick, budget: usize) -> Result<ExecutionReport> {
        let untouched = |queued: usize| ExecutionReport {
            applied: 0,
            deferred: queued,
            reconfiguration_cost: Cost::ZERO,
        };
        let (slice, queued_before) = {
            let queued = self.queued.lock();
            let remaining = queued.as_ref().map_or(&[][..], QueuedDecision::remaining);
            if remaining.is_empty() || budget == 0 {
                return Ok(untouched(remaining.len()));
            }
            let slice = remaining[..budget.min(remaining.len())].to_vec();
            (slice, remaining.len())
        };
        let at = tick.now.raw();
        let _span = span!("driver", "drain_slice", { actions: slice.len() });
        let executed = self.executor.execute(&self.db, &tick.kpis, &slice);
        if matches!(&executed, Ok(report) if report.deferred > 0) {
            // Still not a favorable point in time: the slice stays queued.
            self.recorder.record(TrailEvent::SliceDeferred {
                at,
                deferred: slice.len(),
            });
            return Ok(untouched(queued_before));
        }
        // Applied or failed, the slice leaves the queue: a failed one is
        // not requeued, since the engine may hold a partial prefix of it.
        let cost = executed
            .as_ref()
            .map_or(Cost::ZERO, |report| report.reconfiguration_cost);
        let (remaining, done) = {
            let mut queued = self.queued.lock();
            let remaining = queued.as_mut().map_or(0, |decision| {
                decision.drained += slice.len();
                decision.reconfig.accrued_cost += cost;
                decision.remaining().len()
            });
            let done = if remaining == 0 && executed.is_ok() {
                queued.take()
            } else {
                None
            };
            (remaining, done)
        };
        let report = executed.inspect_err(|_| {
            self.counters.apply_failures.inc();
            smdb_obs::metrics::counter("driver.apply_failures").inc();
        })?;
        self.counters.actions_applied.add(report.applied as u64);
        smdb_obs::metrics::counter("driver.actions_applied").add(report.applied as u64);
        self.recorder.record(TrailEvent::SliceApplied {
            at,
            applied: report.applied,
            remaining,
        });
        if let Some(QueuedDecision { reconfig, .. }) = done {
            let actions = reconfig.actions.len();
            let instance = StoredInstance {
                applied_at: tick.now,
                feature: None,
                config: reconfig.final_config,
                actions: reconfig.actions,
                predicted_cost: reconfig.predicted_cost,
                reconfiguration_cost: reconfig.accrued_cost,
                observed_before: reconfig.observed_before,
                observed_after: None,
            };
            if let Some(d) = &self.durability {
                d.log_instance_stored(&instance)?;
            }
            self.storage.store(instance);
            self.kpis.reset_latencies();
            self.recorder.record(TrailEvent::InstanceStored {
                at,
                instance: format!("instance-{}", self.storage.len() - 1),
                actions,
            });
        }
        Ok(ExecutionReport {
            deferred: remaining,
            ..report
        })
    }

    /// Number of queued actions not applied yet.
    pub fn pending_actions(&self) -> usize {
        self.queued
            .lock()
            .as_ref()
            .map_or(0, |decision| decision.remaining().len())
    }

    /// Restores the last good configuration after a failed apply:
    /// abandons all queued actions, diffs the engine's current (possibly
    /// partially reconfigured) state against the latest stored instance —
    /// or the build-time baseline when none exists — and applies the
    /// undo atomically. Records a [`RollbackRecord`] and clears the KPI
    /// latency window. Serving continues throughout; only tuning state
    /// is touched.
    pub fn rollback_to_last_good(&self, cause: &str) -> Result<RollbackReport> {
        let _span = span!("driver", "rollback");
        let abandoned: Vec<ConfigAction> = self
            .queued
            .lock()
            .take()
            .map_or_else(Vec::new, |decision| decision.remaining().to_vec());
        let restored_label = self.rollback_target_label();
        let target = self
            .storage
            .latest_config()
            .unwrap_or_else(|| self.baseline_config.clone());
        let undo = {
            let engine = self.db.engine();
            engine.config().diff(&target)
        };
        let cost = self.db.apply_config_atomic(&undo)?;
        let record = RollbackRecord {
            at: self.db.now(),
            abandoned_actions: abandoned.clone(),
            restored_config: target,
            cause: cause.to_string(),
        };
        if let Some(d) = &self.durability {
            d.log_rollback(&record)?;
        }
        self.storage.record_rollback(record);
        self.kpis.reset_latencies();
        smdb_obs::metrics::counter("driver.rollbacks").inc();
        self.recorder.record(TrailEvent::ActionRolledBack {
            at: self.db.now().raw(),
            restored: restored_label,
            undo_actions: undo.len(),
            abandoned_actions: abandoned.len(),
            cause: cause.to_string(),
        });
        Ok(RollbackReport {
            undo_actions: undo.len(),
            abandoned_actions: abandoned.len(),
            reconfiguration_cost: cost,
        })
    }

    /// A point-in-time snapshot of the tuning machinery.
    pub fn tuning_state(&self) -> TuningState {
        TuningState {
            pending_actions: self.pending_actions(),
            reconfig_in_flight: self.queued.lock().is_some(),
            paused: self.organizer.is_paused(),
            last_tuning: self.organizer.last_tuning(),
            stored_instances: self.storage.len(),
            rollbacks: self.storage.rollback_count(),
            buckets_closed: self.counters.buckets_closed.get(),
            tunings_run: self.counters.tunings_run.get(),
            actions_applied: self.counters.actions_applied.get(),
            actions_deferred: self.counters.actions_deferred.get(),
            apply_failures: self.counters.apply_failures.get(),
        }
    }

    /// Produces the current forecast from the observed history.
    pub fn forecast(&self) -> ForecastSet {
        self.predictor.predict(&self.history.lock())
    }

    /// Checks the organizer and, when it fires, runs a full tuning pass
    /// and drains its decision at the same tick (the embedded /
    /// single-threaded path). Builds its own [`TuningTick`] from the live
    /// collector, and only when [`Driver::tuning_tick`] says a pass can
    /// still start. `Ok(None)` while a decision is still queued.
    ///
    /// On an apply error the pass's actions are not requeued and the
    /// error propagates; the caller is expected to invoke
    /// [`Driver::rollback_to_last_good`].
    pub fn maybe_tune(&self) -> Result<Option<TuningRunReport>> {
        match self.tuning_tick() {
            Some(tick) => self.maybe_tune_at(&tick, usize::MAX),
            None => Ok(None),
        }
    }

    /// Checks the organizer against a [`TuningTick`] and, when it fires,
    /// runs a tuning pass that only *decides*: every chosen action is
    /// queued for the caller to drain via
    /// [`Driver::drain_pending_slice_at`] at the next bucket boundary.
    /// `Ok(None)` while a decision is still queued.
    pub fn maybe_tune_deferred(&self, tick: &TuningTick) -> Result<Option<TuningRunReport>> {
        self.maybe_tune_at(tick, 0)
    }

    /// An organizer-gated pass at `tick` that drains up to `budget` of
    /// its decision at the same tick.
    fn maybe_tune_at(&self, tick: &TuningTick, budget: usize) -> Result<Option<TuningRunReport>> {
        if self.queued.lock().is_some() {
            return Ok(None);
        }
        let _span = span!("driver", "maybe_tune");
        // A paused or rate-limited organizer fires on nothing: skip the
        // forecast and its what-if pricing, which only feed the triggers.
        if !self.organizer.gate_open_at(tick.now) {
            return Ok(None);
        }
        // Snapshot once, before any engine lock, so budget retargeting
        // never races a pass midway and no lock-order edge forms.
        let constraints = self.constraints();
        let forecast = self.forecast();
        let Some(expected) = forecast.expected() else {
            return Ok(None);
        };
        // Priced only if the organizer reaches its forecast-shift check.
        let forecast_cost = || {
            let engine = self.db.engine();
            self.multi
                .what_if()
                .workload_cost(&engine, &expected.workload, engine.config())
        };
        let Some(trigger) = self.organizer.should_tune(
            tick.now,
            tick.bucket_cost,
            forecast_cost,
            &tick.kpis,
            &constraints,
        )?
        else {
            return Ok(None);
        };
        self.tune_with(trigger, forecast, tick, budget).map(Some)
    }

    /// Forces a tuning pass now (Manual trigger) and drains its decision
    /// at the same tick. Errs while a decision is still queued; an apply
    /// error is handled as in [`Driver::maybe_tune`].
    pub fn force_tune(&self) -> Result<TuningRunReport> {
        if self.queued.lock().is_some() {
            return Err(Error::invalid(
                "a tuning decision is still queued: drain or roll it back first",
            ));
        }
        let forecast = self.forecast();
        self.tune_with(TuningTrigger::Manual, forecast, &self.tick(), usize::MAX)
    }

    /// One tuning pass: decides, queues the decision, and drains up to
    /// `budget` of it at the pass's own tick.
    fn tune_with(
        &self,
        trigger: TuningTrigger,
        forecast: ForecastSet,
        tick: &TuningTick,
        budget: usize,
    ) -> Result<TuningRunReport> {
        let _span = span!("driver", "tune");
        // Same snapshot discipline as `maybe_tune_at`: one clone up
        // front, never the lock itself across engine access.
        let constraints = self.constraints();
        if forecast.expected().is_none() {
            return Err(Error::invalid("cannot tune without an expected forecast"));
        }
        let at = tick.now.raw();
        self.recorder.record(TrailEvent::TuningTriggered {
            at,
            trigger: format!("{trigger:?}"),
        });
        smdb_obs::metrics::counter(&format!("driver.tuning.{}", trigger.label())).inc();
        let (run, actions) = {
            let engine = self.db.engine();
            let base = engine.config();
            let order: Vec<usize> = match self.ordering_policy {
                OrderingPolicy::Registration => (0..self.multi.features().len()).collect(),
                OrderingPolicy::LpOptimized => {
                    let report = self.multi.analyze(&engine, &forecast, base, &constraints)?;
                    let solution = self.multi.lp_order(&report)?;
                    self.recorder.record(TrailEvent::IlpOrderChosen {
                        at,
                        order: solution
                            .order
                            .iter()
                            .map(|&i| report.features[i].label().to_string())
                            .collect(),
                        objective: solution.objective,
                        dependence: report.dependence.clone(),
                    });
                    solution.order
                }
            };
            let run = self
                .multi
                .tune_in_order(&engine, &forecast, base, &constraints, &order)?;
            let actions = run
                .final_config
                .as_ref()
                .map_or_else(Vec::new, |config| base.diff(config));
            (run, actions)
        };
        // Each feature's proposal and what-if cache traffic land in the
        // decision trail individually.
        for ((feature, p), stats) in run.order.iter().zip(&run.proposals).zip(&run.cache) {
            self.recorder.record(TrailEvent::CandidateAssessed {
                at,
                feature: feature.label().to_string(),
                candidates: p.candidates_enumerated,
                predicted_benefit_ms: p.predicted_benefit.ms(),
                accepted: p.accepted(),
                cache_hits: stats.hits,
                cache_misses: stats.misses,
            });
            smdb_obs::metrics::counter("driver.whatif_cache_hits").add(stats.hits);
            smdb_obs::metrics::counter("driver.whatif_cache_misses").add(stats.misses);
        }

        self.counters.tunings_run.inc();
        self.organizer.record_tuning(tick.now);

        // Feedback loop: complete the previous instance; the drain stores
        // this one once all of it has landed.
        let observed_before = tick.kpis.mean_response;
        if self.storage.complete_latest(observed_before) {
            if let Some(d) = &self.durability {
                d.log_instance_completed(observed_before)?;
            }
        }
        if let (false, Some(final_config)) = (actions.is_empty(), run.final_config) {
            // Priced only for a decision that queues: its record is the
            // only reader.
            let predicted_cost = {
                let engine = self.db.engine();
                let expected = forecast.expected().ok_or_else(|| {
                    Error::invalid("forecast lost its expected scenario mid-tuning")
                })?;
                self.multi
                    .what_if()
                    .workload_cost(&engine, &expected.workload, &final_config)?
            };
            self.recorder.record(TrailEvent::ActionsQueued {
                at,
                actions: actions.len(),
            });
            *self.queued.lock() = Some(QueuedDecision {
                reconfig: PendingReconfig {
                    final_config,
                    actions,
                    predicted_cost,
                    observed_before,
                    accrued_cost: Cost::ZERO,
                },
                drained: 0,
            });
        }
        let drained = self.drain_at(tick, budget)?;
        self.counters.actions_deferred.add(drained.deferred as u64);

        Ok(TuningRunReport {
            trigger,
            order: run.order,
            proposals: run.proposals,
            applied_actions: drained.applied,
            reconfiguration_cost: drained.reconfiguration_cost,
        })
    }

    /// The counters in [`ServingState::counters`] order.
    fn counter_cells(&self) -> [&Counter; 5] {
        let c = &self.counters;
        [
            &c.buckets_closed,
            &c.tunings_run,
            &c.actions_applied,
            &c.actions_deferred,
            &c.apply_failures,
        ]
    }

    /// Captures the complete serving state at a bucket boundary —
    /// everything a boundary WAL record carries. `bucket` is the number
    /// of buckets fully served and `stats` the cumulative session
    /// statistics the serving runtime accumulated.
    pub fn export_serving_state(&self, bucket: u64, stats: &SessionStats) -> ServingState {
        let config = self.db.engine().shared_config();
        let plan_cache = self.db.plan_cache().snapshot();
        // Locks are taken one at a time in the driver's canonical order
        // (history, last_bucket_cost, queued) so boundary export cannot
        // deadlock against the tuning thread. The one queued decision is
        // stored as its remaining actions plus the whole decision.
        let history = self.history.lock().export_state();
        let last_bucket_cost = *self.last_bucket_cost.lock();
        let queued = self.queued.lock();
        let pending_actions = queued
            .as_ref()
            .map_or(Vec::new(), |d| d.remaining().to_vec());
        let pending_reconfig = queued.as_ref().map(|d| d.reconfig.clone());
        drop(queued);
        let counters = self.counter_cells().map(Counter::get);
        ServingState {
            bucket,
            stats: stats.clone(),
            clock: self.db.now().raw(),
            config,
            kpi: self.kpis.export_state(),
            history,
            plan_cache,
            organizer_last_tuning: self.organizer.last_tuning(),
            organizer_paused: self.organizer.is_paused(),
            last_bucket_cost,
            pending_actions,
            pending_reconfig,
            counters,
        }
    }

    /// Logs a bucket boundary to the WAL and, when the snapshot cadence
    /// fires, takes a snapshot. No-op without a durability manager.
    pub fn persist_boundary(&self, bucket: u64, stats: &SessionStats) -> Result<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        let state = self.export_serving_state(bucket, stats);
        d.log_boundary(&state)?;
        if d.should_snapshot(bucket) {
            self.persist_snapshot_inner(d, &state)?;
        }
        Ok(())
    }

    /// Takes a snapshot right now (e.g. the run-start snapshot a
    /// durable run writes before serving). No-op without a durability
    /// manager.
    pub fn persist_snapshot(&self, bucket: u64, stats: &SessionStats) -> Result<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        let state = self.export_serving_state(bucket, stats);
        self.persist_snapshot_inner(d, &state)
    }

    fn persist_snapshot_inner(&self, d: &DurabilityManager, state: &ServingState) -> Result<()> {
        let instances = self.storage.snapshot();
        let rollbacks = self.storage.rollbacks();
        let (wal_records, bytes) = {
            let engine = self.db.engine();
            d.take_snapshot(state, &engine, &instances, &rollbacks)?
        };
        self.recorder.record(TrailEvent::SnapshotTaken {
            at: state.clock,
            bucket: state.bucket,
            wal_records,
            bytes,
        });
        Ok(())
    }

    /// Restores this (freshly built) driver from recovered durable
    /// state: re-applies the persisted configuration to the engine,
    /// reinstates the stored instances and rollbacks, and restores the
    /// whole serving state (clock, KPIs, history, plan cache, organizer,
    /// queued decision, counters). The engine must already hold the
    /// recovered tables at the default configuration. Records a
    /// `recovered` trail event. Errs, before touching anything, when the
    /// pending actions are not the tail of the pending reconfiguration.
    pub fn restore_from_recovery(&self, rec: &RecoveredState) -> Result<()> {
        let queued = queued_decision(&rec.serving)?;
        let redo = {
            let engine = self.db.engine();
            engine.config().diff(&rec.serving.config)
        };
        if !redo.is_empty() {
            self.db.apply_config_atomic(&redo)?;
        }
        for inst in &rec.instances {
            self.storage.store(inst.clone());
        }
        for rb in &rec.rollbacks {
            self.storage.record_rollback(rb.clone());
        }
        let state = &rec.serving;
        self.db.restore_clock(LogicalTime(state.clock));
        self.kpis.restore_state(state.kpi.clone());
        *self.history.lock() = WorkloadHistory::restore_state(state.history.clone());
        {
            let mut cache = self.db.plan_cache();
            cache.clear();
            for entry in &state.plan_cache {
                cache.restore_entry(entry.clone());
            }
        }
        if let Some(t) = state.organizer_last_tuning {
            self.organizer.record_tuning(t);
        }
        if state.organizer_paused {
            self.organizer.pause();
        }
        *self.last_bucket_cost.lock() = state.last_bucket_cost;
        *self.queued.lock() = queued;
        for (counter, value) in self.counter_cells().into_iter().zip(state.counters) {
            counter.set(value);
        }
        smdb_obs::metrics::counter("driver.recoveries").inc();
        self.recorder.record(TrailEvent::Recovered {
            at: self.db.now().raw(),
            bucket: state.bucket,
            replayed_records: rec.replayed_records,
            dropped_records: rec.dropped_records,
        });
        Ok(())
    }
}

/// Rebuilds the queued decision from the two fields a [`ServingState`]
/// stores it as; the queued actions must be a suffix of the decision's.
fn queued_decision(state: &ServingState) -> Result<Option<QueuedDecision>> {
    match &state.pending_reconfig {
        None if state.pending_actions.is_empty() => Ok(None),
        Some(reconfig) if reconfig.actions.ends_with(&state.pending_actions) => {
            Ok(Some(QueuedDecision {
                drained: reconfig.actions.len() - state.pending_actions.len(),
                reconfig: reconfig.clone(),
            }))
        }
        _ => Err(Error::invalid(
            "pending actions are not the tail of the pending reconfiguration",
        )),
    }
}

/// Builder wiring the driver's exchangeable components.
pub struct DriverBuilder {
    db: Arc<Database>,
    estimator: Option<Arc<dyn CostEstimator>>,
    calibrated: Option<Arc<CalibratedCostModel>>,
    features: Vec<FeatureKind>,
    organizer_config: OrganizerConfig,
    constraints: ConstraintSet,
    executor: Option<Box<dyn Executor>>,
    ordering_policy: OrderingPolicy,
    kpi_bucket_capacity: Cost,
    recorder: Option<Arc<FlightRecorder>>,
    durability: Option<Arc<DurabilityManager>>,
}

impl DriverBuilder {
    fn new(db: Arc<Database>) -> Self {
        DriverBuilder {
            db,
            estimator: None,
            calibrated: None,
            features: vec![FeatureKind::Indexing, FeatureKind::Compression],
            organizer_config: OrganizerConfig::default(),
            constraints: ConstraintSet::none(),
            executor: None,
            ordering_policy: OrderingPolicy::Registration,
            kpi_bucket_capacity: Cost(1000.0),
            recorder: None,
            durability: None,
        }
    }

    /// Uses a fixed cost estimator (e.g. the logical model).
    pub fn estimator(mut self, estimator: Arc<dyn CostEstimator>) -> Self {
        self.estimator = Some(estimator);
        self
    }

    /// Uses a calibrated cost model that keeps learning online from every
    /// monitored execution (the paper's adaptive cost estimation).
    pub fn learned_estimator(mut self, model: Arc<CalibratedCostModel>) -> Self {
        self.calibrated = Some(model.clone());
        self.estimator = Some(model);
        self
    }

    /// Sets the managed features (one tuner per feature).
    pub fn features(mut self, features: Vec<FeatureKind>) -> Self {
        self.features = features;
        self
    }

    /// Sets organizer thresholds.
    pub fn organizer(mut self, config: OrganizerConfig) -> Self {
        self.organizer_config = config;
        self
    }

    /// Sets constraints.
    pub fn constraints(mut self, constraints: ConstraintSet) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets the executor.
    pub fn executor(mut self, executor: Box<dyn Executor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Sets the feature-ordering policy.
    pub fn ordering_policy(mut self, policy: OrderingPolicy) -> Self {
        self.ordering_policy = policy;
        self
    }

    /// Sets the KPI bucket capacity (ms of work per bucket at 100 %).
    pub fn kpi_bucket_capacity(mut self, capacity: Cost) -> Self {
        self.kpi_bucket_capacity = capacity;
        self
    }

    /// Uses a caller-owned flight recorder (e.g. shared with a test or
    /// the serving runtime's report). Defaults to a fresh 512-event ring.
    pub fn flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Persists the driver's state through a durability manager (WAL +
    /// snapshots). Without one, nothing is ever written — the in-memory
    /// path carries no durability overhead.
    pub fn durability(mut self, manager: Arc<DurabilityManager>) -> Self {
        self.durability = Some(manager);
        self
    }

    /// Assembles the driver.
    pub fn build(self) -> Driver {
        let estimator = self.estimator.unwrap_or_else(|| {
            Arc::new(smdb_cost::LogicalCostModel::default()) as Arc<dyn CostEstimator>
        });
        let what_if = WhatIf::new(estimator);
        let tuners = self
            .features
            .iter()
            .map(|&f| standard_tuner(f, what_if.clone()))
            .collect();
        let baseline_config = self.db.engine().current_config();
        Driver {
            db: self.db,
            history: Mutex::new(WorkloadHistory::new()),
            predictor: WorkloadPredictor::new(PredictorConfig::default()),
            multi: MultiFeatureTuner::new(tuners, what_if),
            organizer: Organizer::new(self.organizer_config),
            kpis: KpiCollector::new(self.kpi_bucket_capacity),
            storage: ConfigStorage::new(),
            constraints: RwLock::new(self.constraints),
            executor: self
                .executor
                .unwrap_or_else(|| Box::new(SequentialExecutor::immediate())),
            calibrated: self.calibrated,
            ordering_policy: self.ordering_policy,
            last_bucket_cost: Mutex::new(Cost::ZERO),
            queued: Mutex::new(None),
            baseline_config,
            counters: DriverCounters::default(),
            recorder: self
                .recorder
                .unwrap_or_else(|| Arc::new(FlightRecorder::new(512))),
            durability: self.durability,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::{ChunkColumnRef, ColumnId, TableId};
    use smdb_storage::value::ColumnValues;
    use smdb_storage::{
        ColumnDef, DataType, IndexKind, ScanPredicate, Schema, StorageEngine, Table,
    };

    pub(super) fn database() -> Arc<Database> {
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        let table = Table::from_columns(
            "t",
            schema,
            vec![ColumnValues::Int((0..2000).map(|i| i % 50).collect())],
            500,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        engine.create_table(table).unwrap();
        Database::new(engine)
    }

    pub(super) fn queries(n: usize) -> Vec<Query> {
        (0..n)
            .map(|i| {
                Query::new(
                    TableId(0),
                    "t",
                    vec![ScanPredicate::eq(ColumnId(0), (i % 50) as i64)],
                    None,
                    "pt",
                )
            })
            .collect()
    }

    #[test]
    fn bucket_lifecycle_feeds_history_and_kpis() {
        let db = database();
        let driver = Driver::builder(db).build();
        let report = driver.run_bucket(&queries(20)).unwrap();
        assert_eq!(report.queries_run, 20);
        assert!(report.bucket_cost.ms() > 0.0);
        assert_eq!(driver.kpis().snapshot().queries_total, 20);
        let forecast = driver.forecast();
        assert!(!forecast.is_empty());
        assert!(forecast.expected().unwrap().workload.total_weight() > 0.0);
    }

    #[test]
    fn restore_rejects_pending_actions_outside_the_decision() {
        let driver = Driver::builder(database()).build();
        let actions: Vec<ConfigAction> = (0..4)
            .map(|chunk| ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(0, 0, chunk),
                kind: IndexKind::Hash,
            })
            .collect();
        let mut config = driver.baseline_config().clone();
        actions.iter().for_each(|a| config.apply(a));
        let mut state = driver.export_serving_state(1, &SessionStats::default());
        state.clock += 5;
        state.config = Arc::new(config.clone());
        state.pending_reconfig = Some(PendingReconfig {
            final_config: config.clone(),
            actions: actions.clone(),
            predicted_cost: Cost(9.0),
            observed_before: Cost(11.0),
            accrued_cost: Cost::ZERO,
        });
        state.pending_actions = actions[2..].to_vec();
        assert_eq!(queued_decision(&state).unwrap().expect("queued").drained, 2);
        // Not a suffix: refused before the driver is touched.
        state.pending_actions.reverse();
        let rec = RecoveredState {
            serving: state,
            tables: Vec::new(),
            instances: vec![StoredInstance {
                applied_at: LogicalTime(1),
                feature: None,
                config,
                actions,
                predicted_cost: Cost(9.0),
                reconfiguration_cost: Cost(1.0),
                observed_before: Cost(11.0),
                observed_after: None,
            }],
            rollbacks: Vec::new(),
            replayed_records: 0,
            dropped_records: 0,
            wal_records: 0,
        };
        let err = driver.restore_from_recovery(&rec).unwrap_err();
        assert!(err.to_string().contains("not the tail"), "{err}");
        assert!(driver.config_storage().is_empty());
        assert!(!driver.tuning_state().reconfig_in_flight);
        assert_eq!(driver.database().now(), LogicalTime(0));
        assert_eq!(
            &driver.database().engine().current_config(),
            driver.baseline_config()
        );
    }

    #[test]
    fn end_to_end_tuning_improves_workload() {
        let db = database();
        let driver = Driver::builder(db.clone()).build();
        // Observe a few buckets of a stable point-lookup workload.
        for _ in 0..3 {
            driver.run_bucket(&queries(30)).unwrap();
        }
        let before: Cost = queries(30)
            .iter()
            .map(|q| db.run_query(q).unwrap().output.sim_cost)
            .sum();
        let report = driver.force_tune().unwrap();
        assert!(report.applied_actions > 0, "{report:?}");
        assert_eq!(driver.config_storage().len(), 1);
        let after: Cost = queries(30)
            .iter()
            .map(|q| db.run_query(q).unwrap().output.sim_cost)
            .sum();
        assert!(
            after.ms() < before.ms() * 0.8,
            "before {before} after {after}"
        );
    }

    #[test]
    fn organizer_gates_tuning() {
        let db = database();
        let driver = Driver::builder(db).build();
        // Stable workload: the moving-average forecast matches what is
        // being observed, so the organizer stays quiet.
        for _ in 0..3 {
            driver.run_bucket(&queries(10)).unwrap();
        }
        // A sudden surge: the lagging forecast deviates from the observed
        // bucket cost by far more than the threshold → trigger.
        driver.run_bucket(&queries(80)).unwrap();
        let first = driver.maybe_tune().unwrap();
        assert!(first.is_some());
        assert!(matches!(
            first.unwrap().trigger,
            crate::organizer::TuningTrigger::ForecastShift { .. }
        ));
        // Immediately after: rate-limited.
        let second = driver.maybe_tune().unwrap();
        assert!(second.is_none());
    }

    #[test]
    fn feedback_loop_completes_instances() {
        let db = database();
        let driver = Driver::builder(db).build();
        for _ in 0..3 {
            driver.run_bucket(&queries(30)).unwrap();
        }
        driver.force_tune().unwrap();
        // Run more traffic, then a second tuning completes the first
        // instance's after-measurement.
        for _ in 0..3 {
            driver.run_bucket(&queries(30)).unwrap();
        }
        driver.force_tune().unwrap();
        let feedback = driver.config_storage().feedback();
        assert_eq!(feedback.len(), 1);
        assert!(feedback[0].observed_improvement.ms() > 0.0);
    }
}

#[cfg(test)]
mod deferred_tests {
    use super::tests::{database, queries};
    use super::*;
    use smdb_common::{ColumnId, TableId};
    use smdb_storage::value::ColumnValues;
    use smdb_storage::{ColumnDef, DataType, ScanPredicate, Schema, StorageEngine, Table};

    #[test]
    fn tuning_defers_under_load_and_applies_when_idle() {
        let db = database();
        let driver = Driver::builder(db.clone())
            .features(vec![FeatureKind::Indexing])
            .executor(Box::new(SequentialExecutor::during_low_utilization()))
            // Tiny bucket capacity: the observation buckets count as busy.
            .kpi_bucket_capacity(Cost(1.0))
            .build();
        for _ in 0..3 {
            driver.run_bucket(&queries(100)).unwrap();
        }
        // The system is "busy" (bucket cost >> capacity): tuning defers.
        let report = driver.force_tune().unwrap();
        assert_eq!(report.applied_actions, 0, "{report:?}");
        assert!(driver.pending_actions() > 0);
        assert!(db.engine().current_config().indexes.is_empty());

        // An idle bucket closes → the deferred actions drain.
        driver.run_bucket(&[]).unwrap();
        assert_eq!(driver.pending_actions(), 0);
        assert!(!db.engine().current_config().indexes.is_empty());
    }

    /// A second pass while the first one's decision is still deferred
    /// must not queue the same actions again: the idle drain would apply
    /// them twice and fail on the first index that already exists.
    #[test]
    fn no_pass_starts_while_a_decision_is_queued() {
        let db = database();
        let driver = Driver::builder(db.clone())
            .features(vec![FeatureKind::Indexing])
            .executor(Box::new(SequentialExecutor::during_low_utilization()))
            .kpi_bucket_capacity(Cost(1.0))
            .build();
        for _ in 0..3 {
            driver.run_bucket(&queries(100)).unwrap();
        }
        driver.force_tune().unwrap();
        let queued = driver.pending_actions();
        assert!(queued > 0);
        // Still busy: the boundary drain defers again.
        driver.run_bucket(&queries(100)).unwrap();
        let second = driver.force_tune();
        let outcome = (
            driver.pending_actions(),
            driver
                .run_bucket(&[])
                .map(|_| ())
                .map_err(|e| e.to_string()),
            driver.config_storage().len(),
            driver.tuning_state().apply_failures,
        );
        assert_eq!(outcome, (queued, Ok(()), 1, 0), "second pass: {second:?}");
        assert!(second.is_err());
        assert_eq!(
            driver.config_storage().snapshot()[0].config,
            db.engine().current_config()
        );
    }

    /// A deferred pass asks the organizer's clock gate itself, even on a
    /// tick built without it: paused, and again right after a pass (rate
    /// limited), it returns `Ok(None)` and queues nothing.
    #[test]
    fn deferred_pass_behind_a_closed_clock_gate_queues_nothing() {
        let db = database();
        let driver = Driver::builder(db)
            .features(vec![FeatureKind::Indexing])
            // A p95 SLA nothing meets: the trigger fires whenever the
            // gate is open.
            .constraints(ConstraintSet {
                sla_p95_response: Some(Cost::ZERO),
                ..ConstraintSet::none()
            })
            .build();
        for _ in 0..3 {
            driver.run_bucket(&queries(30)).unwrap();
        }
        let deferred = |driver: &Driver| driver.maybe_tune_deferred(&driver.tick()).unwrap();
        let untouched = |driver: &Driver, tunings: u64| {
            let state = driver.tuning_state();
            assert_eq!(state.tunings_run, tunings);
            assert!(!state.reconfig_in_flight);
            assert_eq!(state.pending_actions, 0);
        };

        driver.organizer().pause();
        assert!(deferred(&driver).is_none());
        untouched(&driver, 0);

        // Open, the same gate lets the pass through and it queues.
        driver.organizer().resume();
        assert!(deferred(&driver).is_some());
        assert!(driver.pending_actions() > 0);
        driver.drain_pending().unwrap();
        untouched(&driver, 1);

        // Same bucket: inside `min_interval` of the pass just run.
        assert!(deferred(&driver).is_none());
        untouched(&driver, 1);

        // Two buckets later the rate limit has lifted.
        for _ in 0..2 {
            driver.close_bucket();
        }
        assert!(deferred(&driver).is_some());
    }

    /// Shards re-split one index budget every bucket, as the sharded
    /// budget arbiter does. Once a shard's pass changes nothing, every
    /// later pass of it settles in both tuners — priced wholly from kept
    /// prices, or certified without being priced — and a certified pass
    /// still fires and counts as a tuning run. The same run with the
    /// what-if cache cleared before every pass, so that nothing is kept
    /// and no certificate holds, reports the same decisions. (Its trails
    /// differ: they record the cache counters, which the clears move.)
    #[test]
    fn converged_shards_settle_every_pass_under_a_moving_budget() {
        use crate::tuner::Decided;
        let shard = |rows: i64| {
            let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
            let values = ColumnValues::Int((0..rows).map(|i| i % 50).collect());
            let table = Table::from_columns("t", schema, vec![values], 500).unwrap();
            let mut engine = StorageEngine::default();
            engine.create_table(table).unwrap();
            Database::new(engine)
        };
        let run = |clear_cache: bool| {
            let shards: Vec<Driver> = [2000, 1500, 3000]
                .into_iter()
                .map(|rows| {
                    Driver::builder(shard(rows))
                        .constraints(ConstraintSet {
                            sla_p95_response: Some(Cost::ZERO),
                            ..ConstraintSet::none()
                        })
                        .build()
                })
                .collect();
            let mut reports = Vec::new();
            let mut quiet = [false; 3];
            let mut decided = std::collections::BTreeMap::new();
            for bucket in 0..24usize {
                for (s, driver) in shards.iter().enumerate() {
                    // A fresh, generous split every bucket.
                    let share = 1 + (bucket + s) % 3;
                    driver.set_index_memory_budget(Some(1 << (22 + share)));
                    driver.run_bucket(&queries(40)).unwrap();
                    if clear_cache {
                        driver.multi().what_if().clear_cache();
                    }
                    let tunings = driver.tuning_state().tunings_run;
                    let mut report = driver.maybe_tune().unwrap();
                    if let Some(report) = &mut report {
                        assert_eq!(driver.tuning_state().tunings_run, tunings + 1);
                        for p in &mut report.proposals {
                            *decided.entry(p.decided).or_insert(0) += 1;
                            if quiet[s] && !clear_cache {
                                assert_ne!(p.decided, Decided::Priced, "bucket {bucket} shard {s}");
                            }
                            // Reported alike by both runs below.
                            p.decided = Decided::Priced;
                        }
                        quiet[s] |= report.applied_actions == 0
                            && report.proposals.iter().all(|p| p.actions.is_empty());
                    }
                    reports.push(format!("{report:?}"));
                }
            }
            assert_eq!(quiet, [true; 3], "every shard converged");
            (reports, decided)
        };
        let (reports, decided) = run(false);
        let (cleared_reports, cleared_decided) = run(true);
        assert!(decided.get(&Decided::Certified) > Some(&0), "{decided:?}");
        assert!(decided.get(&Decided::FromKept) > Some(&0), "{decided:?}");
        assert_eq!(
            cleared_decided.keys().collect::<Vec<_>>(),
            [&Decided::Priced],
            "a cleared cache keeps no prices and holds no certificate"
        );
        assert_eq!(reports, cleared_reports);
    }

    /// A pass a KPI trigger starts never prices the forecast for the
    /// organizer, so the lookups that pricing would take land in the
    /// tuners' windows instead. Against a run that prices it before
    /// every pass, outside any window: every decision matches, each
    /// pass's windows count as many lookups, and on a KPI-triggered pass
    /// exactly the up-front pricing's misses move from hits to misses —
    /// those of the template the forecast gains.
    #[test]
    fn kpi_triggered_passes_count_the_forecast_lookups_in_the_tuner_windows() {
        let run = |price_up_front: bool| {
            let driver = Driver::builder(database())
                .constraints(ConstraintSet {
                    sla_p95_response: Some(Cost::ZERO),
                    ..ConstraintSet::none()
                })
                .build();
            let mut reports = Vec::new();
            // Per pass, the misses its up-front pricing took.
            let mut moved = Vec::new();
            for bucket in 0..16usize {
                // The forecast gains a range template halfway through.
                let mut bucket_queries = queries(30);
                if bucket >= 8 {
                    let range = ScanPredicate::between(ColumnId(0), 10i64, 20i64);
                    let query = Query::new(TableId(0), "t", vec![range], None, "range");
                    bucket_queries.extend(std::iter::repeat_n(query, 5));
                }
                driver.run_bucket(&bucket_queries).unwrap();
                let mut misses = 0;
                if price_up_front && driver.tuning_tick().is_some() {
                    let forecast = driver.forecast();
                    let expected = forecast.expected().unwrap();
                    let what_if = driver.multi().what_if();
                    let before = what_if.cache_stats().unwrap();
                    let engine = driver.db.engine();
                    let config = engine.current_config();
                    what_if
                        .workload_cost(&engine, &expected.workload, &config)
                        .unwrap();
                    misses = what_if.cache_stats().unwrap().since(&before).misses;
                }
                if let Some(report) = driver.maybe_tune().unwrap() {
                    let kpi = !matches!(report.trigger, TuningTrigger::ForecastShift { .. });
                    moved.push((bucket, misses, kpi));
                    reports.push(format!("{report:?}"));
                }
            }
            // Per pass, the windows' (hits, misses) summed.
            let mut windows: Vec<(u64, u64, u64)> = Vec::new();
            for (_, event) in driver.flight_recorder().events() {
                if let TrailEvent::CandidateAssessed {
                    at,
                    cache_hits,
                    cache_misses,
                    ..
                } = event
                {
                    match windows.last_mut() {
                        Some(last) if last.0 == at => {
                            last.1 += cache_hits;
                            last.2 += cache_misses;
                        }
                        _ => windows.push((at, cache_hits, cache_misses)),
                    }
                }
            }
            (reports, moved, windows)
        };
        let (reports, _, windows) = run(false);
        let (eager_reports, moved, eager_windows) = run(true);
        assert_eq!(reports, eager_reports, "the same decisions");
        assert_eq!(windows.len(), moved.len());
        let mut gained = false;
        for ((lazy, eager), (bucket, misses, kpi)) in windows.iter().zip(&eager_windows).zip(moved)
        {
            assert_eq!(lazy.1 + lazy.2, eager.1 + eager.2, "bucket {bucket}");
            // A forecast-shift pass prices the forecast on both runs.
            let shifted = if kpi { misses } else { 0 };
            assert_eq!(lazy.2, eager.2 + shifted, "bucket {bucket}");
            gained |= kpi && bucket >= 8 && misses > 0;
        }
        assert!(
            gained,
            "a KPI-triggered pass priced queries the forecast gained"
        );
    }

    #[test]
    fn drain_pending_is_noop_without_queue() {
        let db = database();
        let driver = Driver::builder(db).build();
        assert_eq!(driver.drain_pending().unwrap(), 0);
        assert_eq!(driver.pending_actions(), 0);
    }

    #[test]
    fn slice_budgeted_drain_completes_deferred_tuning() {
        let db = database();
        let driver = Driver::builder(db.clone())
            .features(vec![FeatureKind::Indexing])
            .executor(Box::new(SequentialExecutor::during_low_utilization()))
            .kpi_bucket_capacity(Cost(1.0))
            .build();
        for _ in 0..3 {
            driver.run_bucket(&queries(100)).unwrap();
        }
        let report = driver.force_tune().unwrap();
        assert_eq!(report.applied_actions, 0);
        let queued = driver.pending_actions();
        assert!(queued > 1, "need several actions for a multi-slice drain");
        let state = driver.tuning_state();
        assert!(state.reconfig_in_flight);
        assert_eq!(state.stored_instances, 0);
        assert_eq!(state.actions_deferred as usize, queued);

        // Idle bucket → low utilization, but drain only one action per
        // slice; the tuning instance is stored only once fully drained.
        driver.close_bucket();
        let mut slices = 0;
        while driver.pending_actions() > 0 {
            assert_eq!(driver.drain_pending_slice_at(&driver.tick(), 1).unwrap(), 1);
            slices += 1;
            if driver.pending_actions() > 0 {
                assert!(
                    driver.config_storage().is_empty(),
                    "instance stored before the drain completed"
                );
            }
        }
        assert_eq!(slices, queued);
        assert_eq!(driver.config_storage().len(), 1);
        let state = driver.tuning_state();
        assert!(!state.reconfig_in_flight);
        assert_eq!(state.actions_applied as usize, queued);
        let stored = &driver.config_storage().snapshot()[0];
        assert!(
            stored.reconfiguration_cost.ms() > 0.0,
            "accrued over slices"
        );
        assert_eq!(stored.config, db.engine().current_config());
    }

    #[test]
    fn rollback_restores_baseline_when_nothing_stored() {
        let db = database();
        let driver = Driver::builder(db.clone())
            .features(vec![FeatureKind::Indexing])
            .build();
        // Simulate a partial reconfiguration outside the feedback loop.
        db.apply_config(&[smdb_storage::ConfigAction::CreateIndex {
            target: smdb_common::ChunkColumnRef::new(0, 0, 0),
            kind: smdb_storage::IndexKind::Hash,
        }])
        .unwrap();
        assert_ne!(db.engine().current_config(), *driver.baseline_config());
        let report = driver.rollback_to_last_good("injected failure").unwrap();
        assert_eq!(report.undo_actions, 1);
        assert_eq!(db.engine().current_config(), *driver.baseline_config());
        assert_eq!(driver.config_storage().rollback_count(), 1);
        assert_eq!(
            driver.config_storage().rollbacks()[0].cause,
            "injected failure"
        );
        assert_eq!(driver.tuning_state().rollbacks, 1);
    }

    #[test]
    fn rollback_targets_latest_stored_instance() {
        let db = database();
        let driver = Driver::builder(db.clone()).build();
        for _ in 0..3 {
            driver.run_bucket(&queries(30)).unwrap();
        }
        driver.force_tune().unwrap();
        let good = driver.config_storage().latest_config().unwrap();
        assert_eq!(db.engine().current_config(), good);
        // A later partial change fails mid-way (simulated): roll back.
        db.apply_config(&[smdb_storage::ConfigAction::SetKnob {
            knob: smdb_storage::config::KnobKind::BufferPoolMb,
            value: 4096.0,
        }])
        .unwrap();
        assert_ne!(db.engine().current_config(), good);
        driver.rollback_to_last_good("apply failed").unwrap();
        assert_eq!(db.engine().current_config(), good);
        // KPI utilization is stale until the next bucket closes.
        assert_eq!(driver.kpis().snapshot().utilization, None);
    }
}
