//! Fault injection for the apply path.
//!
//! [`FaultInjectingExecutor`] wraps the core
//! [`smdb_core::SequentialExecutor`] — its low-utilization gate and its
//! apply — and fails chosen apply *attempts* mid-batch: it applies a
//! prefix of the slice through the normal (partial-on-error) apply path
//! and then errors, so the engine is left in exactly the
//! half-reconfigured state a real mid-apply failure produces. Deferrals
//! and empty slices do not count as attempts — the fault plan speaks in
//! terms of actual configuration work, so the schedule does not depend on
//! how often the system happened to be busy.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use smdb_common::{Error, Result};
use smdb_core::{ExecutionReport, Executor, KpiSnapshot, SequentialExecutor};
use smdb_query::Database;
use smdb_storage::ConfigAction;

/// Which apply attempts fail (0-based, counted per actual attempt).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    failing_attempts: BTreeSet<usize>,
}

impl FaultPlan {
    /// No injected faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Fails exactly the given 0-based attempt indices.
    pub fn failing_attempts(attempts: impl IntoIterator<Item = usize>) -> Self {
        FaultPlan {
            failing_attempts: attempts.into_iter().collect(),
        }
    }

    /// Fails every `n`-th attempt (attempts n-1, 2n-1, …) up to `max`
    /// injected failures.
    pub fn every_nth(n: usize, max: usize) -> Self {
        let n = n.max(1);
        FaultPlan {
            failing_attempts: (0..max).map(|i| n * (i + 1) - 1).collect(),
        }
    }

    fn fails(&self, attempt: usize) -> bool {
        self.failing_attempts.contains(&attempt)
    }

    /// Number of faults the plan will inject (given enough attempts).
    pub fn planned_failures(&self) -> usize {
        self.failing_attempts.len()
    }
}

#[derive(Debug, Default)]
struct FaultState {
    attempts: AtomicUsize,
    injected: AtomicUsize,
}

/// A sequential executor that injects apply failures per a [`FaultPlan`].
///
/// State is shared through an [`Arc`], so the clone handed to a
/// [`smdb_core::Driver`] and the one kept by the test observe the same
/// counters.
#[derive(Debug, Clone)]
pub struct FaultInjectingExecutor {
    inner: SequentialExecutor,
    plan: Arc<FaultPlan>,
    state: Arc<FaultState>,
}

impl FaultInjectingExecutor {
    fn new(inner: SequentialExecutor, plan: FaultPlan) -> Self {
        FaultInjectingExecutor {
            inner,
            plan: Arc::new(plan),
            state: Arc::new(FaultState::default()),
        }
    }

    /// An immediate executor failing the attempts named by `plan`.
    pub fn immediate(plan: FaultPlan) -> Self {
        Self::new(SequentialExecutor::immediate(), plan)
    }

    /// A low-utilization-gated executor failing the attempts named by
    /// `plan` — the serving runtime's configuration.
    pub fn during_low_utilization(plan: FaultPlan) -> Self {
        Self::new(SequentialExecutor::during_low_utilization(), plan)
    }

    /// Actual apply attempts so far (deferrals excluded).
    pub fn attempts(&self) -> usize {
        self.state.attempts.load(Ordering::Relaxed)
    }

    /// Failures injected so far.
    pub fn injected_failures(&self) -> usize {
        self.state.injected.load(Ordering::Relaxed)
    }
}

impl Executor for FaultInjectingExecutor {
    fn name(&self) -> &str {
        "fault_injecting"
    }

    fn execute(
        &self,
        db: &Database,
        kpis: &KpiSnapshot,
        actions: &[ConfigAction],
    ) -> Result<ExecutionReport> {
        if actions.is_empty() || self.inner.defers(kpis) {
            return self.inner.execute(db, kpis, actions);
        }
        let attempt = self.state.attempts.fetch_add(1, Ordering::Relaxed);
        if self.plan.fails(attempt) {
            self.state.injected.fetch_add(1, Ordering::Relaxed);
            // Apply half the slice for real, then fail: the engine is
            // left mid-reconfiguration, which is what rollback must fix.
            let partial = actions.len() / 2;
            db.apply_config(&actions[..partial])?;
            return Err(Error::Configuration(format!(
                "injected apply failure at attempt {attempt} ({partial}/{} actions applied)",
                actions.len()
            )));
        }
        self.inner.execute(db, kpis, actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::{ChunkColumnRef, Cost};
    use smdb_core::KpiCollector;
    use smdb_storage::value::ColumnValues;
    use smdb_storage::{ColumnDef, DataType, IndexKind, Schema, StorageEngine, Table};

    fn db() -> Arc<Database> {
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        let table =
            Table::from_columns("t", schema, vec![ColumnValues::Int((0..200).collect())], 50)
                .unwrap();
        let mut engine = StorageEngine::default();
        engine.create_table(table).unwrap();
        Database::new(engine)
    }

    fn create_index(chunk: u32) -> ConfigAction {
        ConfigAction::CreateIndex {
            target: ChunkColumnRef::new(0, 0, chunk),
            kind: IndexKind::Hash,
        }
    }

    #[test]
    fn plan_schedules_attempts() {
        let plan = FaultPlan::every_nth(3, 2);
        assert!(!plan.fails(0) && !plan.fails(1));
        assert!(plan.fails(2) && plan.fails(5));
        assert!(!plan.fails(8));
        assert_eq!(plan.planned_failures(), 2);
        assert_eq!(FaultPlan::none().planned_failures(), 0);
    }

    #[test]
    fn failing_attempt_leaves_partial_state() {
        let db = db();
        let kpis = KpiCollector::default();
        let exec = FaultInjectingExecutor::immediate(FaultPlan::failing_attempts([1]));
        let batch = vec![create_index(0), create_index(1), create_index(2)];
        // Attempt 0 succeeds.
        let report = exec.execute(&db, &kpis.snapshot(), &batch[..1]).unwrap();
        assert_eq!(report.applied, 1);
        // Attempt 1 applies half (1 of 2) then fails.
        let err = exec
            .execute(&db, &kpis.snapshot(), &batch[1..])
            .unwrap_err();
        assert!(matches!(err, Error::Configuration(_)), "{err}");
        assert_eq!(db.engine().current_config().indexes.len(), 2);
        assert_eq!(exec.attempts(), 2);
        assert_eq!(exec.injected_failures(), 1);
    }

    #[test]
    fn deferral_does_not_consume_an_attempt() {
        let db = db();
        let kpis = KpiCollector::new(Cost(10.0));
        kpis.record_query(Cost(100.0));
        kpis.end_bucket_accumulated(); // busy
        let exec = FaultInjectingExecutor::during_low_utilization(FaultPlan::failing_attempts([0]));
        let report = exec
            .execute(&db, &kpis.snapshot(), &[create_index(0)])
            .unwrap();
        assert_eq!(report.deferred, 1);
        assert_eq!(exec.attempts(), 0, "deferral is not an attempt");
        // Now idle: attempt 0 fires and is the injected failure.
        kpis.end_bucket_accumulated();
        let err = exec
            .execute(&db, &kpis.snapshot(), &[create_index(0)])
            .unwrap_err();
        assert!(matches!(err, Error::Configuration(_)));
        assert_eq!(exec.injected_failures(), 1);
    }
}
