//! The multi-tenant sharded serving runtime: N engines, N drivers, one
//! global budget.
//!
//! [`ShardedRuntime`] is the N-unit case of the serving loop in
//! `crate::serve`: it builds the sharded fixture, wires one driver per
//! shard (immediate executor, shard-stamped flight recorder, an even
//! initial split of the index-memory budget) under a
//! [`BudgetArbiter`] — the Organizer role of paper §II — generates the
//! Zipf-skewed tenant plan, hands it to the loop and projects what comes
//! back into an [`MtSoakOutcome`]: per-tenant p95, routing counts,
//! per-shard tuning state, budget compliance and the merged decision
//! trail (per-shard trails plus the arbiter's `budget_rebalanced`
//! events).

use std::collections::BTreeMap;
use std::sync::Arc;

use smdb_common::json::Json;
use smdb_common::{Cost, Error, Result};
use smdb_core::{ConstraintSet, Driver, TuningState};
use smdb_obs::FlightRecorder;
use smdb_query::ResultOracle;
use smdb_shard::{
    BudgetArbiter, MultiTenantConfig, ShardSpec, ShardedDatabase, TenantQuery, TenantStream,
};

use crate::fault::{FaultInjectingExecutor, FaultPlan};
use crate::serve::{self, Backend, Planned, RunControl, ServeLoop};

/// Maximum actions a shard applies per bucket barrier.
const SLICE_BUDGET: usize = 8;
/// Per-recorder flight-recorder capacity.
const TRAIL_CAPACITY: usize = 512;

/// Multi-tenant soak parameters.
#[derive(Debug, Clone)]
pub struct MtSoakConfig {
    /// Shard count (each shard gets its own engine + driver).
    pub shards: usize,
    /// Fixture and traffic parameters (tenants, skew, seed, …).
    pub tenants: MultiTenantConfig,
    /// Reader threads serving each bucket.
    pub workers: usize,
    /// KPI buckets to serve.
    pub buckets: usize,
    /// Queries per heavy bucket (light buckets serve an eighth).
    pub queries_per_bucket: usize,
    /// Heavy buckets per phase cycle.
    pub heavy_len: usize,
    /// Light buckets per phase cycle.
    pub light_len: usize,
    /// Global index-memory budget the arbiter splits across shards.
    pub budget_bytes: u64,
    /// Minimum share every shard keeps (clamped by the arbiter).
    pub budget_floor_bytes: u64,
    /// Per-shard KPI bucket capacity (ms of work at 100 % utilization).
    pub bucket_capacity: Cost,
    /// Per-shard scan-pool threads (≤ 1 scans inline).
    pub scan_threads: usize,
}

impl Default for MtSoakConfig {
    fn default() -> Self {
        MtSoakConfig {
            shards: 4,
            tenants: MultiTenantConfig::default(),
            workers: 2,
            buckets: 10,
            queries_per_bucket: 12_000,
            heavy_len: 3,
            light_len: 2,
            budget_bytes: 512 * 1024,
            budget_floor_bytes: 16 * 1024,
            bucket_capacity: Cost(2_000.0),
            scan_threads: 2,
        }
    }
}

/// Per-tenant serving summary.
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Queries this tenant issued.
    pub queries: u64,
    /// p95 of the tenant's simulated latencies, ms.
    pub p95_ms: f64,
}

/// Outcome of one multi-tenant soak.
#[derive(Debug)]
pub struct MtSoakOutcome {
    /// Queries served.
    pub queries: u64,
    /// Engine errors (expected 0).
    pub errors: u64,
    /// Answers contradicting the pre-tuning expectations (expected 0).
    pub wrong_results: u64,
    /// Order-independent digest of all answers.
    pub result_digest: u64,
    /// Queries answered by one routed shard.
    pub routed: u64,
    /// Queries answered by scatter-gather.
    pub scattered: u64,
    /// Wall-clock seconds spent serving (capture excluded).
    pub wall_seconds: f64,
    /// Aggregate throughput over the serving phase, queries/second.
    pub sustained_qps: f64,
    /// Per-tenant stats (tenant id → summary), tenants with traffic.
    pub tenant_stats: BTreeMap<i64, TenantStats>,
    /// Final tuning state per shard, shard order.
    pub shard_tuning: Vec<TuningState>,
    /// Shards whose driver applied at least one action.
    pub shards_tuned: usize,
    /// Whether configured index bytes stayed ≤ budget at every bucket.
    pub budget_ok_every_bucket: bool,
    /// Largest configured index-byte total observed at a barrier.
    pub max_used_bytes: u64,
    /// The arbitrated total budget.
    pub budget_bytes: u64,
    /// Morsels dispatched across all shards by routed queries: the sum
    /// of the shards' `scan_stats().morsels`, which scatter-gathers do
    /// not feed.
    pub morsels: u64,
    /// The merged decision trail (global + per-shard trails).
    pub trail: Json,
}

impl MtSoakOutcome {
    /// Mean over tenants (with ≥ `min_queries` queries) of per-tenant
    /// p95 latency, ms.
    pub fn mean_tenant_p95_ms(&self, min_queries: u64) -> f64 {
        let eligible: Vec<f64> = self
            .tenant_stats
            .values()
            .filter(|t| t.queries >= min_queries)
            .map(|t| t.p95_ms)
            .collect();
        if eligible.is_empty() {
            return 0.0;
        }
        eligible.iter().sum::<f64>() / eligible.len() as f64
    }
}

/// The sharded serving runtime: one database-per-shard, one
/// driver-per-shard, one global budget arbiter.
pub struct ShardedRuntime {
    db: Arc<ShardedDatabase>,
    drivers: Vec<Arc<Driver>>,
    arbiter: BudgetArbiter,
    global_recorder: FlightRecorder,
    config: MtSoakConfig,
}

impl ShardedRuntime {
    /// Builds the sharded fixture and wires a driver per shard: local
    /// indexing/compression tuners, shard-stamped flight recorders, and
    /// an even initial budget split the arbiter will re-target.
    pub fn new(config: MtSoakConfig) -> Result<ShardedRuntime> {
        Self::with_fault_plans(config, |_| FaultPlan::none())
    }

    /// Like [`ShardedRuntime::new`], with shard `s`'s executor failing
    /// the apply attempts `fault_plan(s)` names.
    pub(crate) fn with_fault_plans(
        config: MtSoakConfig,
        fault_plan: impl Fn(usize) -> FaultPlan,
    ) -> Result<ShardedRuntime> {
        let spec = ShardSpec::range(config.shards);
        let db = Arc::new(smdb_shard::build_sharded(&config.tenants, &spec)?);
        let initial_share = config.budget_bytes / config.shards.max(1) as u64;
        let drivers = db
            .shards()
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                serve::set_scan_threads(
                    shard,
                    config.scan_threads,
                    smdb_storage::parallel::DEFAULT_MORSEL_CHUNKS,
                );
                let executor = FaultInjectingExecutor::immediate(fault_plan(s));
                Arc::new(
                    serve::driver_builder(Arc::clone(shard), executor)
                        .constraints(ConstraintSet {
                            index_memory_bytes: Some(initial_share as i64),
                            ..ConstraintSet::none()
                        })
                        .kpi_bucket_capacity(config.bucket_capacity)
                        .flight_recorder(Arc::new(FlightRecorder::with_shard(
                            TRAIL_CAPACITY,
                            s as u64,
                        )))
                        .build(),
                )
            })
            .collect();
        Ok(ShardedRuntime {
            db,
            drivers,
            arbiter: BudgetArbiter::new(config.budget_bytes, config.budget_floor_bytes),
            global_recorder: FlightRecorder::new(TRAIL_CAPACITY),
            config,
        })
    }

    /// The sharded database being served.
    pub fn database(&self) -> &Arc<ShardedDatabase> {
        &self.db
    }

    /// The per-shard drivers, shard order.
    pub fn drivers(&self) -> &[Arc<Driver>] {
        &self.drivers
    }

    /// Pre-generates the whole soak plan: `buckets` buckets of Zipfian
    /// tenant traffic with a heavy/light phase cycle.
    pub fn plan(&self) -> Vec<Vec<TenantQuery>> {
        let mut stream = TenantStream::new(&self.config.tenants);
        let cycle = (self.config.heavy_len + self.config.light_len).max(1);
        (0..self.config.buckets)
            .map(|b| {
                let heavy = b % cycle < self.config.heavy_len;
                let count = if heavy {
                    self.config.queries_per_bucket
                } else {
                    (self.config.queries_per_bucket / 8).max(1)
                };
                (0..count).map(|_| stream.next_query()).collect()
            })
            .collect()
    }

    /// Serves `plan`, tuning each shard locally under the global budget.
    pub fn run(&self, plan: &[Vec<TenantQuery>]) -> Result<MtSoakOutcome> {
        // Ground truth before any tuning: every unique query instance's
        // answer, captured through the same sharded path that serves it.
        let oracle = ResultOracle::capture_with(plan.iter().flatten().map(|tq| &tq.query), |q| {
            Ok(self.db.run_query(q)?.output)
        })?;
        // Capture warmed every shard's plan cache and scan counters;
        // reset them so serving starts from a clean slate (capture is
        // not traffic).
        for shard in self.db.shards() {
            shard.plan_cache().clear();
            shard.take_scan_stats();
        }
        let buckets: Vec<Vec<Planned<'_>>> = plan
            .iter()
            .map(|b| b.iter().map(|tq| (tq.tenant, &tq.query)).collect())
            .collect();
        let served = serve::serve(
            &ServeLoop {
                drivers: &self.drivers,
                backend: Backend::Sharded(&self.db),
                arbiter: Some((&self.arbiter, &self.global_recorder)),
                workers: self.config.workers,
                slice_budget: SLICE_BUDGET,
            },
            &oracle,
            &buckets,
            RunControl::default(),
        )?
        .ok_or_else(|| Error::invalid("run without a kill spec cannot be killed"))?;

        let mut tenant_latencies: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
        for &(tenant, ms) in served.latencies.iter().flatten() {
            if let Some(tenant) = tenant {
                tenant_latencies.entry(tenant).or_default().push(ms);
            }
        }
        let tenant_stats = tenant_latencies
            .into_iter()
            .map(|(tenant, mut latencies)| {
                let stats = TenantStats {
                    queries: latencies.len() as u64,
                    p95_ms: serve::p95(&mut latencies),
                };
                (tenant, stats)
            })
            .collect();
        let shard_tuning: Vec<TuningState> =
            self.drivers.iter().map(|d| d.tuning_state()).collect();
        let mut recorders = vec![&self.global_recorder];
        recorders.extend(self.drivers.iter().map(|d| d.flight_recorder().as_ref()));
        let stats = served.stats;
        Ok(MtSoakOutcome {
            queries: stats.queries,
            errors: stats.errors,
            wrong_results: stats.wrong_results,
            result_digest: stats.result_digest,
            routed: stats.queries - served.scattered,
            scattered: served.scattered,
            wall_seconds: served.wall_seconds,
            sustained_qps: if served.wall_seconds > 0.0 {
                stats.queries as f64 / served.wall_seconds
            } else {
                0.0
            },
            tenant_stats,
            shards_tuned: shard_tuning
                .iter()
                .filter(|t| t.actions_applied > 0)
                .count(),
            shard_tuning,
            budget_ok_every_bucket: served.budget_ok,
            max_used_bytes: served.max_used_bytes,
            budget_bytes: self.arbiter.total_bytes(),
            morsels: self
                .db
                .shards()
                .iter()
                .map(|s| s.scan_stats().morsels)
                .sum(),
            trail: FlightRecorder::merged_json(&recorders),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(shards: usize, seed: u64) -> MtSoakConfig {
        MtSoakConfig {
            shards,
            tenants: MultiTenantConfig {
                tenants: 120,
                rows_per_tenant: 20,
                chunk_rows: 200,
                seed,
                ..MultiTenantConfig::default()
            },
            workers: 2,
            buckets: 6,
            queries_per_bucket: 800,
            budget_bytes: 128 * 1024,
            budget_floor_bytes: 8 * 1024,
            ..MtSoakConfig::default()
        }
    }

    #[test]
    fn mt_soak_serves_routes_and_tunes_within_budget() {
        let runtime = ShardedRuntime::new(small_config(4, 7)).expect("builds");
        let plan = runtime.plan();
        let outcome = runtime.run(&plan).expect("runs");
        let planned: usize = plan.iter().map(Vec::len).sum();
        assert_eq!(outcome.queries as usize, planned);
        assert_eq!(outcome.errors, 0);
        assert_eq!(outcome.wrong_results, 0);
        assert!(outcome.routed > 0, "range partitioning routes");
        assert!(outcome.scattered > 0, "global queries scatter");
        assert!(outcome.budget_ok_every_bucket);
        assert!(outcome.max_used_bytes <= outcome.budget_bytes);
        assert!(!outcome.tenant_stats.is_empty());
        let trail_events = outcome
            .trail
            .get("events")
            .and_then(Json::as_array)
            .expect("merged trail")
            .len();
        assert!(trail_events > 0, "trail recorded");
        assert_eq!(
            outcome.trail.get("schema").and_then(Json::as_str),
            Some("smdb-trail/v2.1")
        );
    }

    #[test]
    fn shard_apply_fault_rolls_back_cools_down_and_tunes_again() {
        let config = MtSoakConfig {
            buckets: 10,
            ..small_config(4, 7)
        };
        let clean = ShardedRuntime::new(config.clone()).expect("builds");
        let plan = clean.plan();
        let expected = clean.run(&plan).expect("runs");

        let faulty = ShardedRuntime::with_fault_plans(config, |shard| match shard {
            1 => FaultPlan::failing_attempts([0]),
            _ => FaultPlan::none(),
        })
        .expect("builds");
        faulty.drivers()[1].flight_recorder().set_auto_dump(false);
        let outcome = faulty.run(&plan).expect("serving survives the fault");

        let rollbacks: Vec<usize> = outcome.shard_tuning.iter().map(|t| t.rollbacks).collect();
        assert_eq!(rollbacks, [0, 1, 0, 0], "one rollback, on shard 1 only");
        let shard1 = &outcome.shard_tuning[1];
        assert_eq!(shard1.apply_failures, 1);
        assert!(!shard1.paused, "the cooldown ended: {shard1:?}");
        assert!(shard1.actions_applied > 0, "tuned again: {shard1:?}");
        assert!(outcome.budget_ok_every_bucket);
        assert_eq!(outcome.result_digest, expected.result_digest);
        assert_eq!(outcome.errors + outcome.wrong_results, 0);
    }

    #[test]
    fn mt_digest_is_shard_count_invariant() {
        let one = ShardedRuntime::new(small_config(1, 11)).expect("builds");
        let four = ShardedRuntime::new(small_config(4, 11)).expect("builds");
        let plan = one.plan();
        let a = one.run(&plan).expect("runs");
        let b = four.run(&plan).expect("runs");
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.result_digest, b.result_digest, "digest invariant");
        assert_eq!(a.wrong_results + b.wrong_results, 0);
    }

    #[test]
    fn mt_digest_is_worker_count_invariant() {
        let mut cfg = small_config(2, 13);
        cfg.workers = 1;
        let one = ShardedRuntime::new(cfg.clone()).expect("builds");
        cfg.workers = 4;
        let four = ShardedRuntime::new(cfg).expect("builds");
        let plan = one.plan();
        let a = one.run(&plan).expect("runs");
        let b = four.run(&plan).expect("runs");
        assert_eq!(a.result_digest, b.result_digest);
    }
}
