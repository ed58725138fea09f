//! Configuration-instance storage — the feedback loop.
//!
//! "When the configuration is adjusted, former configuration instances
//! are stored. This storing is central to establish a feedback loop for
//! past decisions by enabling the assessment of the impact of past tuning
//! decisions." (Section II-A(b))

use parking_lot::Mutex;
use smdb_common::{Cost, Error, LogicalTime, Result};
use smdb_durable::{durable_struct, ByteReader, ByteWriter, Decode, Encode};
use smdb_storage::{ConfigAction, ConfigInstance};

use crate::feature::FeatureKind;

/// One stored (applied) configuration instance with its tuning context.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredInstance {
    pub applied_at: LogicalTime,
    /// The feature whose tuning produced this instance (None for
    /// multi-feature runs).
    pub feature: Option<FeatureKind>,
    /// The configuration after application.
    pub config: ConfigInstance,
    /// The actions that realised it.
    pub actions: Vec<ConfigAction>,
    /// What the tuner predicted the workload would cost afterwards.
    pub predicted_cost: Cost,
    /// Measured reconfiguration cost.
    pub reconfiguration_cost: Cost,
    /// Mean observed response time before the change.
    pub observed_before: Cost,
    /// Mean observed response time after the change (filled by the
    /// feedback pass once enough post-change queries ran).
    pub observed_after: Option<Cost>,
}

/// Fields in declaration order, except that `feature` is one tag byte
/// with 0 = `None` rather than a presence byte plus a tag: the layout
/// predates the generic `Option` encoding and stays readable.
impl Encode for StoredInstance {
    fn encode(&self, w: &mut ByteWriter) {
        self.applied_at.encode(w);
        w.u8(match self.feature {
            None => 0,
            Some(FeatureKind::Indexing) => 1,
            Some(FeatureKind::Compression) => 2,
            Some(FeatureKind::Placement) => 3,
            Some(FeatureKind::BufferPool) => 4,
        });
        self.config.encode(w);
        self.actions.encode(w);
        self.predicted_cost.encode(w);
        self.reconfiguration_cost.encode(w);
        self.observed_before.encode(w);
        self.observed_after.encode(w);
    }
}

impl Decode for StoredInstance {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(StoredInstance {
            applied_at: LogicalTime::decode(r)?,
            feature: match r.u8()? {
                0 => None,
                1 => Some(FeatureKind::Indexing),
                2 => Some(FeatureKind::Compression),
                3 => Some(FeatureKind::Placement),
                4 => Some(FeatureKind::BufferPool),
                other => return Err(Error::invalid(format!("unknown feature tag {other}"))),
            },
            config: ConfigInstance::decode(r)?,
            actions: Vec::decode(r)?,
            predicted_cost: Cost::decode(r)?,
            reconfiguration_cost: Cost::decode(r)?,
            observed_before: Cost::decode(r)?,
            observed_after: Option::decode(r)?,
        })
    }
}

/// Assessment of one past decision, produced by the feedback loop.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionFeedback {
    pub applied_at: LogicalTime,
    pub feature: Option<FeatureKind>,
    /// Observed mean-response improvement (before − after); negative
    /// means the decision hurt.
    pub observed_improvement: Cost,
}

/// One recorded rollback: a reconfiguration failed mid-application and
/// the system was restored to the last good stored instance.
#[derive(Debug, Clone, PartialEq)]
pub struct RollbackRecord {
    pub at: LogicalTime,
    /// The actions that were abandoned (failed or still queued).
    pub abandoned_actions: Vec<ConfigAction>,
    /// The configuration the system was restored to.
    pub restored_config: ConfigInstance,
    /// Human-readable cause.
    pub cause: String,
}

durable_struct!(RollbackRecord {
    at,
    abandoned_actions,
    restored_config,
    cause
});

/// Thread-safe storage of applied configuration instances.
#[derive(Debug, Default)]
pub struct ConfigStorage {
    instances: Mutex<Vec<StoredInstance>>,
    rollbacks: Mutex<Vec<RollbackRecord>>,
}

impl ConfigStorage {
    /// Creates empty storage.
    pub fn new() -> Self {
        ConfigStorage::default()
    }

    /// Stores a newly applied instance.
    pub fn store(&self, instance: StoredInstance) {
        self.instances.lock().push(instance);
    }

    /// Number of stored instances.
    pub fn len(&self) -> usize {
        self.instances.lock().len()
    }

    /// Whether no instance has been stored.
    pub fn is_empty(&self) -> bool {
        self.instances.lock().is_empty()
    }

    /// Fills `observed_after` of the most recent instance that still
    /// lacks it (called once post-change KPIs are stable).
    pub fn complete_latest(&self, observed_after: Cost) -> bool {
        let mut instances = self.instances.lock();
        for inst in instances.iter_mut().rev() {
            if inst.observed_after.is_none() {
                inst.observed_after = Some(observed_after);
                return true;
            }
        }
        false
    }

    /// A clone of all stored instances (most recent last).
    pub fn snapshot(&self) -> Vec<StoredInstance> {
        self.instances.lock().clone()
    }

    /// Feedback on every decision whose after-measurement exists.
    pub fn feedback(&self) -> Vec<DecisionFeedback> {
        self.instances
            .lock()
            .iter()
            .filter_map(|inst| {
                inst.observed_after.map(|after| DecisionFeedback {
                    applied_at: inst.applied_at,
                    feature: inst.feature,
                    observed_improvement: inst.observed_before - after,
                })
            })
            .collect()
    }

    /// The configuration in effect after the latest stored instance — the
    /// last configuration known good, since an instance is stored only
    /// once fully applied. The rollback target.
    pub fn latest_config(&self) -> Option<ConfigInstance> {
        self.instances.lock().last().map(|i| i.config.clone())
    }

    /// Records that a failed reconfiguration was rolled back.
    pub fn record_rollback(&self, record: RollbackRecord) {
        self.rollbacks.lock().push(record);
    }

    /// Number of recorded rollbacks.
    pub fn rollback_count(&self) -> usize {
        self.rollbacks.lock().len()
    }

    /// A clone of all recorded rollbacks (most recent last).
    pub fn rollbacks(&self) -> Vec<RollbackRecord> {
        self.rollbacks.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance(at: u64, before: f64) -> StoredInstance {
        StoredInstance {
            applied_at: LogicalTime(at),
            feature: Some(FeatureKind::Indexing),
            config: ConfigInstance::default(),
            actions: vec![],
            predicted_cost: Cost(10.0),
            reconfiguration_cost: Cost(1.0),
            observed_before: Cost(before),
            observed_after: None,
        }
    }

    #[test]
    fn store_and_feedback_loop() {
        let storage = ConfigStorage::new();
        assert!(storage.is_empty());
        storage.store(instance(1, 20.0));
        assert!(storage.complete_latest(Cost(12.0)));
        storage.store(instance(5, 12.0));
        // Second instance not yet measured → one feedback entry.
        let fb = storage.feedback();
        assert_eq!(fb.len(), 1);
        assert_eq!(fb[0].observed_improvement, Cost(8.0));
        assert!(storage.complete_latest(Cost(15.0)));
        let fb = storage.feedback();
        assert_eq!(fb.len(), 2);
        // The second decision made things worse: negative improvement.
        assert!(fb[1].observed_improvement.ms() < 0.0);
        // Nothing left to complete.
        assert!(!storage.complete_latest(Cost(1.0)));
    }

    #[test]
    fn rollback_records_accumulate() {
        let storage = ConfigStorage::new();
        assert_eq!(storage.rollback_count(), 0);
        assert!(storage.latest_config().is_none());
        storage.store(instance(1, 5.0));
        storage.record_rollback(RollbackRecord {
            at: LogicalTime(7),
            abandoned_actions: vec![ConfigAction::DropIndex {
                target: smdb_common::ChunkColumnRef::new(0, 0, 0),
            }],
            restored_config: ConfigInstance::default(),
            cause: "injected".to_string(),
        });
        assert_eq!(storage.rollback_count(), 1);
        let records = storage.rollbacks();
        assert_eq!(records[0].at, LogicalTime(7));
        assert_eq!(records[0].abandoned_actions.len(), 1);
        assert_eq!(records[0].cause, "injected");
        // Rollbacks do not count as stored instances.
        assert_eq!(storage.len(), 1);
        assert!(storage.latest_config().is_some());
    }

    #[test]
    fn latest_config_follows_stores() {
        let storage = ConfigStorage::new();
        assert!(storage.latest_config().is_none());
        let mut inst = instance(1, 5.0);
        inst.config.knobs.buffer_pool_mb = 512.0;
        storage.store(inst);
        assert_eq!(storage.latest_config().unwrap().knobs.buffer_pool_mb, 512.0);
        assert_eq!(storage.len(), 1);
        assert_eq!(storage.snapshot().len(), 1);
    }
}
