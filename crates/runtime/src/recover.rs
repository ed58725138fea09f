//! Kill-and-recover orchestration.
//!
//! A durable soak run logs every bucket boundary to the WAL and
//! snapshots on a cadence (see [`smdb_core::durability`]). This module
//! closes the loop: [`recover_runtime`] rebuilds a fresh
//! [`Runtime`] from whatever the durable store holds — tables, the
//! tuned configuration, stored instances, the whole serving state — and
//! [`recover_and_resume`] then serves the rest of the plan.
//!
//! The contract the soak tests pin down: a run that is hard-stopped
//! mid-bucket and recovered must produce the *same* result digest and
//! the *same* stored-instance set as the uninterrupted run — the bucket
//! is the redo unit, the boundary WAL record is written from exactly
//! the state its tuning tick is built from, and recovery re-sends that
//! tick so the in-flight decision is re-made from identical state.
//!
//! Known limitation: the tuning thread's rollback-cooldown countdown is
//! thread-local and not part of the boundary record. A crash while
//! tuning is paused restarts the cooldown at its full length; the
//! kill-and-recover equality tests therefore run without injected apply
//! faults.

use std::sync::Arc;
use std::time::Instant;

use smdb_common::{Error, Result};
use smdb_core::{DurabilityConfig, DurabilityManager, RecoveredState};
use smdb_durable::Persistence;
use smdb_query::{Database, SessionStats};
use smdb_storage::StorageEngine;

use crate::runtime::{Runtime, RuntimeConfig, SoakOutcome};
use crate::stream::BucketPlan;

/// What recovery found and how the resumed run went.
#[derive(Debug)]
pub struct RecoverOutcome {
    /// The resumed run's outcome (cumulative stats include the buckets
    /// served before the crash).
    pub outcome: SoakOutcome,
    /// Plan index serving resumed at.
    pub resumed_at_bucket: u64,
    /// WAL records replayed over the snapshot.
    pub replayed_records: u64,
    /// Corrupt WAL records dropped after the last valid prefix.
    pub dropped_records: u64,
    /// Wall-clock time of the recovery itself (read + replay + restore),
    /// excluding the resumed serving.
    pub recovery_micros: u128,
}

/// Rebuilds a runtime from the durable store: decodes the latest valid
/// snapshot, replays the WAL tail, reconstructs the engine's tables,
/// re-applies the persisted configuration and restores the full serving
/// state. Returns `Ok(None)` when the store holds no valid snapshot.
///
/// The returned [`RecoveredState`] has its `tables` taken (they now
/// live in the engine); everything else is intact for assertions.
pub fn recover_runtime(
    persistence: Arc<dyn Persistence>,
    durability: DurabilityConfig,
    config: RuntimeConfig,
) -> Result<Option<(Runtime, RecoveredState)>> {
    let Some(mut rec) = smdb_core::recover(persistence.as_ref(), &durability)? else {
        return Ok(None);
    };
    let mut engine = StorageEngine::default();
    for table in std::mem::take(&mut rec.tables) {
        engine.create_table(table)?;
    }
    let db = Database::new(engine);
    let manager = Arc::new(DurabilityManager::with_next_seq(
        persistence,
        durability,
        rec.wal_records,
    ));
    let runtime = Runtime::new_durable(db, config, manager);
    runtime.driver().restore_from_recovery(&rec)?;
    Ok(Some((runtime, rec)))
}

/// Recovers from the durable store and serves the rest of `plan`.
/// Errors when the store holds no valid snapshot.
pub fn recover_and_resume(
    persistence: Arc<dyn Persistence>,
    durability: DurabilityConfig,
    config: RuntimeConfig,
    plan: &[BucketPlan],
) -> Result<RecoverOutcome> {
    let started = Instant::now();
    let Some((runtime, rec)) = recover_runtime(persistence, durability, config)? else {
        return Err(Error::invalid("nothing to recover: no valid snapshot"));
    };
    let recovery_micros = started.elapsed().as_micros();
    let resumed_at_bucket = rec.serving.bucket;
    let stats: SessionStats = rec.serving.stats.clone();
    let outcome = runtime.run_resumed(plan, resumed_at_bucket, stats)?;
    Ok(RecoverOutcome {
        outcome,
        resumed_at_bucket,
        replayed_records: rec.replayed_records,
        dropped_records: rec.dropped_records,
        recovery_micros,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{events_database, generate, StreamConfig};
    use crate::KillSpec;
    use smdb_common::Cost;
    use smdb_durable::MemPersistence;

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

    fn soak_config() -> RuntimeConfig {
        RuntimeConfig {
            workers: 2,
            bucket_capacity: Cost(500.0),
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn kill_and_recover_matches_uninterrupted_run() {
        let dconfig = DurabilityConfig {
            snapshot_every_buckets: 4,
        };
        // Uninterrupted durable run: the reference.
        let (db, plan) = small_plan();
        let p_ref: Arc<dyn Persistence> = Arc::new(MemPersistence::new());
        let reference = Runtime::new_durable(
            db,
            soak_config(),
            Arc::new(DurabilityManager::new(Arc::clone(&p_ref), dconfig.clone())),
        );
        let expected = reference.run(&plan).expect("reference runs");
        assert!(expected.durability.is_some());

        // Killed mid-bucket, then recovered and resumed.
        for kill in [
            KillSpec {
                bucket: 3,
                after_queries: 5,
            },
            KillSpec {
                bucket: 6,
                after_queries: 0,
            },
        ] {
            let (db, _) = small_plan();
            let p: Arc<dyn Persistence> = Arc::new(MemPersistence::new());
            let dying = Runtime::new_durable(
                db,
                soak_config(),
                Arc::new(DurabilityManager::new(Arc::clone(&p), dconfig.clone())),
            );
            dying.run_killed(&plan, kill).expect("dies cleanly");
            let recovered =
                recover_and_resume(p, dconfig.clone(), soak_config(), &plan).expect("recovers");
            assert!(
                recovered.resumed_at_bucket <= kill.bucket as u64,
                "resumed at {} after kill in bucket {}",
                recovered.resumed_at_bucket,
                kill.bucket
            );
            let got = &recovered.outcome;
            assert_eq!(
                got.stats.result_digest, expected.stats.result_digest,
                "kill at {kill:?}: digest differs from the uninterrupted run"
            );
            assert_eq!(got.stats.queries, expected.stats.queries);
            assert_eq!(got.stats.wrong_results, 0);
            assert_eq!(got.stats.errors, 0);
            assert_eq!(
                recovered.outcome.tuning.stored_instances, expected.tuning.stored_instances,
                "kill at {kill:?}: instance count differs"
            );
        }
    }

    #[test]
    fn recover_runtime_restores_instances_and_config() {
        let dconfig = DurabilityConfig::default();
        let (db, plan) = small_plan();
        let p: Arc<dyn Persistence> = Arc::new(MemPersistence::new());
        let runtime = Runtime::new_durable(
            db,
            soak_config(),
            Arc::new(DurabilityManager::new(Arc::clone(&p), dconfig.clone())),
        );
        let outcome = runtime.run(&plan).expect("runs");
        assert!(outcome.tuning.stored_instances > 0, "{:?}", outcome.tuning);
        let expected_instances = runtime.driver().config_storage().snapshot();
        let expected_config = runtime.database().engine().current_config();

        let (recovered, rec) = recover_runtime(p, dconfig, soak_config())
            .expect("recover reads")
            .expect("snapshot exists");
        assert_eq!(rec.dropped_records, 0);
        assert_eq!(
            recovered.database().engine().current_config(),
            expected_config,
            "recovered engine must hold the tuned configuration"
        );
        assert_eq!(
            recovered.driver().config_storage().snapshot(),
            expected_instances,
            "recovered instance set must round-trip"
        );
    }

    #[test]
    fn recovering_nothing_is_none() {
        let p: Arc<dyn Persistence> = Arc::new(MemPersistence::new());
        let got = recover_runtime(p, DurabilityConfig::default(), soak_config()).expect("reads");
        assert!(got.is_none());
    }
}
