//! Executors (Section II-D(d)).
//!
//! "The executor takes care of applying the choices that were selected
//! previously. There are different application strategies regarding
//! order, point in time and sequential or parallel application. The
//! executor can access runtime KPIs to determine favorable points in time
//! for applying the choices."

use smdb_common::{Cost, Result};
use smdb_query::Database;
use smdb_storage::ConfigAction;

use crate::kpi::KpiSnapshot;

/// When the executor applies the chosen actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionStrategy {
    /// Apply immediately, in selection order.
    Immediate,
    /// Apply only while the tick's snapshot counts as low utilization
    /// ([`KpiSnapshot::is_low_utilization`]); otherwise defer.
    DuringLowUtilization,
}

/// Outcome of one execution attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Actions actually applied.
    pub applied: usize,
    /// Actions deferred (waiting for a better point in time).
    pub deferred: usize,
    /// Measured one-time reconfiguration cost of the applied actions.
    pub reconfiguration_cost: Cost,
}

/// Applies configuration actions to the database.
pub trait Executor: Send + Sync {
    /// Human-readable name.
    fn name(&self) -> &str;

    /// Applies (all or part of) `actions`, returning what happened.
    ///
    /// KPIs arrive as a [`KpiSnapshot`] — one consistent view taken at a
    /// bucket boundary — so a gating decision cannot race live worker
    /// updates to the collector.
    fn execute(
        &self,
        db: &Database,
        kpis: &KpiSnapshot,
        actions: &[ConfigAction],
    ) -> Result<ExecutionReport>;
}

/// The default executor: sequential application honouring a strategy.
#[derive(Debug, Clone)]
pub struct SequentialExecutor {
    pub strategy: ExecutionStrategy,
}

impl SequentialExecutor {
    /// Immediate sequential execution.
    pub fn immediate() -> Self {
        SequentialExecutor {
            strategy: ExecutionStrategy::Immediate,
        }
    }

    /// Low-utilization-gated execution.
    pub fn during_low_utilization() -> Self {
        SequentialExecutor {
            strategy: ExecutionStrategy::DuringLowUtilization,
        }
    }

    /// Whether [`Executor::execute`] would defer everything under `kpis`.
    pub fn defers(&self, kpis: &KpiSnapshot) -> bool {
        self.strategy == ExecutionStrategy::DuringLowUtilization && !kpis.is_low_utilization()
    }
}

impl Executor for SequentialExecutor {
    fn name(&self) -> &str {
        match self.strategy {
            ExecutionStrategy::Immediate => "sequential_immediate",
            ExecutionStrategy::DuringLowUtilization => "sequential_low_util",
        }
    }

    fn execute(
        &self,
        db: &Database,
        kpis: &KpiSnapshot,
        actions: &[ConfigAction],
    ) -> Result<ExecutionReport> {
        if self.defers(kpis) {
            return Ok(ExecutionReport {
                applied: 0,
                deferred: actions.len(),
                reconfiguration_cost: Cost::ZERO,
            });
        }
        let cost = db.apply_config(actions)?;
        Ok(ExecutionReport {
            applied: actions.len(),
            deferred: 0,
            reconfiguration_cost: cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kpi::KpiCollector;
    use smdb_common::ChunkColumnRef;
    use smdb_storage::value::ColumnValues;
    use smdb_storage::{ColumnDef, DataType, IndexKind, Schema, StorageEngine, Table};

    fn db() -> std::sync::Arc<Database> {
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        let table =
            Table::from_columns("t", schema, vec![ColumnValues::Int((0..100).collect())], 50)
                .unwrap();
        let mut engine = StorageEngine::default();
        engine.create_table(table).unwrap();
        Database::new(engine)
    }

    fn actions() -> Vec<ConfigAction> {
        vec![ConfigAction::CreateIndex {
            target: ChunkColumnRef::new(0, 0, 0),
            kind: IndexKind::Hash,
        }]
    }

    #[test]
    fn immediate_applies_and_reports_cost() {
        let db = db();
        let kpis = KpiCollector::default();
        let report = SequentialExecutor::immediate()
            .execute(&db, &kpis.snapshot(), &actions())
            .unwrap();
        assert_eq!(report.applied, 1);
        assert_eq!(report.deferred, 0);
        assert!(report.reconfiguration_cost.ms() > 0.0);
        assert_eq!(db.engine().current_config().indexes.len(), 1);
    }

    #[test]
    fn low_utilization_gate_defers_under_load() {
        let db = db();
        let kpis = KpiCollector::default();
        // Saturate utilization.
        for _ in 0..50 {
            kpis.record_query(Cost(100.0));
        }
        kpis.end_bucket_accumulated();
        let report = SequentialExecutor::during_low_utilization()
            .execute(&db, &kpis.snapshot(), &actions())
            .unwrap();
        assert_eq!(report.applied, 0);
        assert_eq!(report.deferred, 1);
        assert!(db.engine().current_config().indexes.is_empty());
    }

    #[test]
    fn low_utilization_gate_applies_when_idle() {
        let db = db();
        let kpis = KpiCollector::default();
        kpis.record_query(Cost(0.1));
        kpis.end_bucket_accumulated();
        let report = SequentialExecutor::during_low_utilization()
            .execute(&db, &kpis.snapshot(), &actions())
            .unwrap();
        assert_eq!(report.applied, 1);
    }
}
