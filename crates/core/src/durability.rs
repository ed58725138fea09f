//! The driver's durability policy: *when* the serving state is logged
//! and snapshotted, and *what* a record or a snapshot carries — never
//! *how* a value becomes bytes.
//!
//! A durable run logs every tuning-state transition to an append-only
//! WAL (`smdb_durable::Wal`) and periodically snapshots. A snapshot is
//! split along what changes:
//!
//! * the **base** blob (`base-<bucket>`) holds every table's raw columns.
//!   The engine has no write path and [`Table::encode`] is independent
//!   of the physical design, so these bytes only change when the catalog
//!   does: a manager writes a base with its first snapshot and again
//!   only after `StorageEngine::catalog_token` moved (`create_table`).
//!   It never probes the store for one — a resumed manager writes its
//!   own, once — so it never trusts bytes it did not write.
//! * the **state** snapshot (`snap-<bucket>`, tens of KB) holds the WAL
//!   position it covers, the `(version, crc32)` of the base it belongs
//!   to, the whole serving state (applied configuration, KPI windows,
//!   workload history, plan cache, organizer, counters), the tuned
//!   `ConfigStorage` instances and the rollbacks.
//!
//! The base is written (and made durable) before the state that names
//! it. [`recover`] walks state snapshots newest-first and takes the
//! first whose checksum validates *and* whose base reads back with the
//! recorded checksum, then replays the WAL tail over it — so a crash
//! between the two writes, or a torn or missing base, degrades to the
//! previous good pair exactly as a torn snapshot does, and a restart
//! resumes with the *tuned* physical design instead of re-tuning from
//! cold. Indexes and encodings are not stored: the recovered
//! configuration is re-applied to the raw tables.
//!
//! The byte layout of every type that travels is the `Encode` / `Decode`
//! impl in the file that defines the type (containers are encoded once,
//! in `smdb_durable::codec`). This module owns the framing around them:
//! the base payload (the tables, as a counted list), the state payload
//! (version byte, WAL position, base reference, serving state,
//! instances, rollbacks) and the tagged WAL record bodies:
//!
//! | tag | record              | body               | written by                         |
//! |-----|---------------------|--------------------|------------------------------------|
//! | 1   | `Boundary`          | [`ServingState`]   | control thread, after each barrier |
//! | 2   | `InstanceStored`    | [`StoredInstance`] | feedback loop (the drain)          |
//! | 3   | `InstanceCompleted` | `Cost`             | feedback loop (`complete_latest`)  |
//! | 4   | `Rollback`          | [`RollbackRecord`] | failed-apply rollback              |
//!
//! The serving runtime's ack rendezvous guarantees all tuner-thread
//! records for tick *t* land before the control thread appends boundary
//! *t+1*, so the WAL record order — like the decision trail — is
//! deterministic for a given seed.
//!
//! Snapshot cadence is the durability layer's tunable: frequent
//! snapshots shorten recovery (fewer records to replay — a lower RTO)
//! at the price of one more state snapshot each, a boundary record's
//! worth of bytes. [`DurabilityStats`] surfaces both sides as KPIs (the
//! base counts: it is a durable byte the run wrote).
//!
//! The driver exports itself into a [`ServingState`] and restores from a
//! [`RecoveredState`] in its own module; nothing here reads a driver
//! field.

use std::sync::Arc;

use parking_lot::Mutex;
use smdb_common::{Cost, Error, LogicalTime, Result};
use smdb_durable::{
    decode_all, durable_struct, encode_to_vec, ByteWriter, Encode, Persistence, SnapshotStore, Wal,
};
use smdb_forecast::WorkloadHistoryState;
use smdb_query::{PlanCacheEntry, SessionStats};
use smdb_storage::{ConfigAction, ConfigInstance, StorageEngine, Table};

use crate::config_storage::{RollbackRecord, StoredInstance};
use crate::driver::PendingReconfig;
use crate::kpi::KpiState;

/// Blob name of the write-ahead log.
pub const WAL_NAME: &str = "wal.log";
/// Name prefix of state-snapshot blobs.
pub const SNAPSHOT_PREFIX: &str = "snap-";
/// Name prefix of base blobs (raw table data).
pub const BASE_PREFIX: &str = "base-";
/// Format version tag at the head of every state-snapshot payload.
const SNAPSHOT_VERSION: u8 = 2;

const TAG_BOUNDARY: u8 = 1;
const TAG_INSTANCE_STORED: u8 = 2;
const TAG_INSTANCE_COMPLETED: u8 = 3;
const TAG_ROLLBACK: u8 = 4;

/// Durability tunables.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Take a state snapshot every N buckets (0 disables periodic
    /// snapshots; the run-start snapshot is always written). Lower
    /// values shorten recovery (fewer WAL records to replay); each
    /// snapshot costs tens of KB — table data is not rewritten.
    pub snapshot_every_buckets: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            snapshot_every_buckets: 8,
        }
    }
}

/// Write-side KPIs of the durability layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DurabilityStats {
    /// WAL records appended this run.
    pub wal_records: u64,
    /// WAL bytes appended this run.
    pub wal_bytes: u64,
    /// State snapshots taken this run.
    pub snapshots_taken: u64,
    /// Snapshot bytes written this run: every state snapshot plus every
    /// base blob.
    pub snapshot_bytes: u64,
    /// Write amplification: total durable bytes per WAL byte. 1.0 means
    /// pure logging; the base and each snapshot push it up.
    pub write_amplification: f64,
}

/// The base blob a state snapshot's tables live in. The checksum tells
/// the blob the state was written against from a later one under the
/// same name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BaseRef {
    version: u64,
    crc: u32,
}

durable_struct!(BaseRef { version, crc });

#[derive(Debug, Default)]
struct ManagerState {
    next_seq: u64,
    wal_records: u64,
    wal_bytes: u64,
    snapshots_taken: u64,
    snapshot_bytes: u64,
}

/// Owns the WAL, the base blobs and the state snapshots of one durable
/// run.
pub struct DurabilityManager {
    persistence: Arc<dyn Persistence>,
    wal: Wal,
    snapshots: SnapshotStore,
    bases: SnapshotStore,
    config: DurabilityConfig,
    state: Mutex<ManagerState>,
    /// The base this manager wrote, and the engine's catalog token it
    /// was encoded from. Its own lock, held across the check and the
    /// write so concurrent snapshots cannot both write a base, and apart
    /// from `state` so WAL appends do not wait on a base encode.
    base: Mutex<Option<(u64, BaseRef)>>,
}

impl std::fmt::Debug for DurabilityManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityManager")
            .field("config", &self.config)
            .field("state", &self.state.lock())
            .field("base", &self.base.lock())
            .finish_non_exhaustive()
    }
}

impl DurabilityManager {
    /// A manager over an empty (or to-be-overwritten) log.
    pub fn new(persistence: Arc<dyn Persistence>, config: DurabilityConfig) -> Self {
        Self::with_next_seq(persistence, config, 0)
    }

    /// A manager resuming after recovery: `next_seq` is the number of
    /// valid WAL records already on disk (appends continue after them).
    pub fn with_next_seq(
        persistence: Arc<dyn Persistence>,
        config: DurabilityConfig,
        next_seq: u64,
    ) -> Self {
        DurabilityManager {
            persistence,
            wal: Wal::new(WAL_NAME),
            snapshots: SnapshotStore::new(SNAPSHOT_PREFIX),
            bases: SnapshotStore::new(BASE_PREFIX),
            config,
            state: Mutex::new(ManagerState {
                next_seq,
                ..ManagerState::default()
            }),
            base: Mutex::new(None),
        }
    }

    /// The durability configuration.
    pub fn config(&self) -> &DurabilityConfig {
        &self.config
    }

    /// The backing persistence.
    pub fn persistence(&self) -> &Arc<dyn Persistence> {
        &self.persistence
    }

    /// Whether the cadence calls for a snapshot after `bucket` completed
    /// buckets (run-start snapshots are requested explicitly).
    pub fn should_snapshot(&self, bucket: u64) -> bool {
        let every = self.config.snapshot_every_buckets;
        every > 0 && bucket > 0 && bucket % every == 0
    }

    /// Write-side statistics for KPI reporting.
    pub fn stats(&self) -> DurabilityStats {
        let s = self.state.lock();
        let total = s.wal_bytes + s.snapshot_bytes;
        DurabilityStats {
            wal_records: s.wal_records,
            wal_bytes: s.wal_bytes,
            snapshots_taken: s.snapshots_taken,
            snapshot_bytes: s.snapshot_bytes,
            write_amplification: if s.wal_bytes > 0 {
                total as f64 / s.wal_bytes as f64
            } else {
                0.0
            },
        }
    }

    /// Total valid WAL records (the next record's sequence number).
    pub fn wal_records(&self) -> u64 {
        self.state.lock().next_seq
    }

    fn append(&self, body: &[u8]) -> Result<()> {
        let mut state = self.state.lock();
        let seq = state.next_seq;
        let bytes = self.wal.append(self.persistence.as_ref(), seq, body)?;
        state.next_seq += 1;
        state.wal_records += 1;
        state.wal_bytes += bytes;
        smdb_obs::metrics::counter("durable.wal_records").inc();
        Ok(())
    }

    /// Frames one WAL record body: the tag byte, then the value.
    fn log(&self, tag: u8, body: &impl Encode) -> Result<()> {
        let mut w = ByteWriter::new();
        w.u8(tag);
        body.encode(&mut w);
        self.append(&w.into_bytes())
    }

    /// Logs a bucket-boundary serving state.
    pub fn log_boundary(&self, state: &ServingState) -> Result<()> {
        self.log(TAG_BOUNDARY, state)
    }

    /// Logs a newly stored configuration instance.
    pub fn log_instance_stored(&self, instance: &StoredInstance) -> Result<()> {
        self.log(TAG_INSTANCE_STORED, instance)
    }

    /// Logs the feedback loop completing the latest open instance.
    pub fn log_instance_completed(&self, observed_after: Cost) -> Result<()> {
        self.log(TAG_INSTANCE_COMPLETED, &observed_after)
    }

    /// Logs a rollback to the last good configuration.
    pub fn log_rollback(&self, record: &RollbackRecord) -> Result<()> {
        self.log(TAG_ROLLBACK, record)
    }

    /// The base holding `engine`'s tables, and the bytes written to get
    /// it: none while the catalog is the one this manager last encoded,
    /// otherwise a new base blob under `version`.
    fn base_for(&self, engine: &StorageEngine, version: u64) -> Result<(BaseRef, u64)> {
        let token = engine.catalog_token();
        let mut held = self.base.lock();
        if let Some((_, base)) = held.filter(|(t, _)| *t == token) {
            return Ok((base, 0));
        }
        // A capacity hint, not a size: an untuned table's footprint is
        // close to its raw encoding, and whatever the encoding every
        // value takes at least 8 bytes on the wire.
        let hint = engine
            .tables()
            .map(|(_, t)| {
                t.data_bytes()
                    .max(t.rows() * t.schema().columns().len() * 8)
            })
            .sum();
        let stored = self
            .bases
            .write(self.persistence.as_ref(), version, hint, |w| {
                // `Vec<Table>`'s layout by hand: a table's encoder is fallible.
                w.usize(engine.tables().count());
                engine.tables().try_for_each(|(_, table)| table.encode(w))
            })?;
        let base = BaseRef {
            version,
            crc: stored.crc,
        };
        *held = Some((token, base));
        Ok((base, stored.bytes))
    }

    /// Writes a state snapshot (version = `serving.bucket`) recording the
    /// WAL position it covers — after the base it names, when this
    /// manager holds none for the engine's catalog. Returns
    /// `(wal_records_covered, bytes_written)`.
    pub fn take_snapshot(
        &self,
        serving: &ServingState,
        engine: &StorageEngine,
        instances: &[StoredInstance],
        rollbacks: &[RollbackRecord],
    ) -> Result<(u64, u64)> {
        let wal_records = self.state.lock().next_seq;
        // Base first: a state must never name a base that is not durable.
        let (base, base_bytes) = self.base_for(engine, serving.bucket)?;
        self.state.lock().snapshot_bytes += base_bytes;
        let stored = self
            .snapshots
            .write(self.persistence.as_ref(), serving.bucket, 0, |w| {
                w.u8(SNAPSHOT_VERSION);
                w.u64(wal_records);
                base.encode(w);
                serving.encode(w);
                instances.encode(w);
                rollbacks.encode(w);
                Ok(())
            })?;
        let mut state = self.state.lock();
        state.snapshots_taken += 1;
        state.snapshot_bytes += stored.bytes;
        smdb_obs::metrics::counter("durable.snapshots").inc();
        Ok((wal_records, base_bytes + stored.bytes))
    }
}

/// Everything recovery reconstructs from the durable store.
#[derive(Debug)]
pub struct RecoveredState {
    /// The serving state at the last valid boundary.
    pub serving: ServingState,
    /// Raw tables from the base, in id order, ready for
    /// `StorageEngine::create_table`.
    pub tables: Vec<Table>,
    /// Stored configuration instances, snapshot state plus WAL replay.
    pub instances: Vec<StoredInstance>,
    /// Recorded rollbacks, snapshot state plus WAL replay.
    pub rollbacks: Vec<RollbackRecord>,
    /// WAL records replayed over the snapshot.
    pub replayed_records: u64,
    /// WAL records dropped after the last valid prefix.
    pub dropped_records: u64,
    /// Total valid WAL records — the resumed manager's next sequence.
    pub wal_records: u64,
}

/// Reads the durable store back: the newest state snapshot that
/// validates and whose base reads back with the checksum it recorded,
/// plus the valid WAL tail. Returns `Ok(None)` when no such pair exists
/// (nothing was ever persisted, the run died between its first base and
/// its first state, or every pair is torn — there is nothing to replay
/// onto). A corrupt WAL tail is truncated in place so subsequent appends
/// extend the valid prefix. `_config` is unused: nothing about reading a
/// store back depends on the write cadence; the parameter stays because
/// the frozen `benchmark/` package passes it.
pub fn recover(p: &dyn Persistence, _config: &DurabilityConfig) -> Result<Option<RecoveredState>> {
    let snapshots = SnapshotStore::new(SNAPSHOT_PREFIX);
    let bases = SnapshotStore::new(BASE_PREFIX);
    let mut newest_pair = None;
    for version in snapshots.versions(p)?.into_iter().rev() {
        let Some((_, payload)) = snapshots.read(p, version)? else {
            continue;
        };
        let (&format, body) = payload
            .split_first()
            .ok_or_else(|| Error::invalid("empty snapshot"))?;
        if format != SNAPSHOT_VERSION {
            return Err(Error::invalid(format!(
                "unsupported snapshot version {format}"
            )));
        }
        // What `take_snapshot` wrote after the version byte, in its order.
        let (wal_records, base, serving, instances, rollbacks): (u64, BaseRef, _, _, _) =
            decode_all(body)?;
        match bases.read(p, base.version)? {
            Some((crc, tables)) if crc == base.crc => {
                let tables: Vec<Table> = decode_all(&tables)?;
                newest_pair = Some((wal_records, tables, serving, instances, rollbacks));
                break;
            }
            // Missing, torn, or a later blob under the same name: this
            // state has no tables, an older one may.
            _ => continue,
        }
    }
    let Some((wal_records_at_snapshot, tables, mut serving, mut instances, mut rollbacks)) =
        newest_pair
    else {
        return Ok(None);
    };

    // Replay the WAL tail over the snapshot: records the snapshot
    // already covers are skipped by sequence number.
    let raw = p.read(WAL_NAME)?.unwrap_or_default();
    let wal = smdb_durable::read_prefix(&raw);
    let mut replayed = 0u64;
    for record in &wal.records {
        if record.seq < wal_records_at_snapshot {
            continue;
        }
        replay_record(&record.body, &mut serving, &mut instances, &mut rollbacks)?;
        replayed += 1;
    }
    if wal.dropped_bytes > 0 {
        // Degrade to the last valid prefix: future appends must extend
        // it, not a corrupt tail.
        p.write_atomic(WAL_NAME, &raw[..wal.valid_bytes as usize])?;
    }
    Ok(Some(RecoveredState {
        serving,
        tables,
        instances,
        rollbacks,
        replayed_records: replayed,
        dropped_records: wal.dropped_records,
        wal_records: wal.records.len() as u64,
    }))
}

fn replay_record(
    body: &[u8],
    serving: &mut ServingState,
    instances: &mut Vec<StoredInstance>,
    rollbacks: &mut Vec<RollbackRecord>,
) -> Result<()> {
    let (&tag, value) = body
        .split_first()
        .ok_or_else(|| Error::invalid("empty WAL record"))?;
    match tag {
        TAG_BOUNDARY => *serving = decode_all(value)?,
        TAG_INSTANCE_STORED => instances.push(decode_all(value)?),
        TAG_INSTANCE_COMPLETED => {
            let after: Cost = decode_all(value)?;
            // Mirror `ConfigStorage::complete_latest`.
            if let Some(inst) = instances
                .iter_mut()
                .rev()
                .find(|i| i.observed_after.is_none())
            {
                inst.observed_after = Some(after);
            }
        }
        TAG_ROLLBACK => rollbacks.push(decode_all(value)?),
        other => return Err(Error::invalid(format!("unknown WAL record tag {other}"))),
    }
    Ok(())
}

/// The driver's complete serving state at one bucket boundary — what a
/// boundary WAL record carries and recovery restores.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingState {
    /// Buckets fully served (serving resumes at this bucket index).
    pub bucket: u64,
    /// Cumulative merged session statistics.
    pub stats: SessionStats,
    /// The database's logical clock.
    pub clock: u64,
    /// The applied configuration, shared with the engine that exported
    /// it.
    pub config: Arc<ConfigInstance>,
    /// KPI collector windows.
    pub kpi: KpiState,
    /// Workload history.
    pub history: WorkloadHistoryState,
    /// Plan-cache entries, in snapshot order.
    pub plan_cache: Vec<PlanCacheEntry>,
    /// Organizer: when the last tuning ran.
    pub organizer_last_tuning: Option<LogicalTime>,
    /// Organizer: whether tuning is paused (cooldown).
    pub organizer_paused: bool,
    /// Observed cost of the last closed bucket.
    pub last_bucket_cost: Cost,
    /// Actions of the queued decision not applied yet: a suffix of
    /// `pending_reconfig`'s actions.
    pub pending_actions: Vec<ConfigAction>,
    /// The queued decision, if any.
    pub pending_reconfig: Option<PendingReconfig>,
    /// Driver counters: buckets_closed, tunings_run, actions_applied,
    /// actions_deferred, apply_failures.
    pub counters: [u64; 5],
}

durable_struct!(ServingState {
    bucket,
    stats,
    clock,
    config,
    kpi,
    history,
    plan_cache,
    organizer_last_tuning,
    organizer_paused,
    last_bucket_cost,
    pending_actions,
    pending_reconfig,
    counters
});

/// Encodes one serving state (test/bench helper; the manager frames it
/// into WAL records internally).
pub fn encode_serving_state(state: &ServingState) -> Vec<u8> {
    encode_to_vec(state)
}

/// Decodes a serving state encoded by [`encode_serving_state`].
pub fn decode_serving_state(bytes: &[u8]) -> Result<ServingState> {
    decode_all(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::FeatureKind;
    use smdb_common::{ChunkColumnRef, ChunkId, ColumnId, TableId};
    use smdb_durable::{crc32, MemPersistence};
    use smdb_forecast::TemplateHistory;
    use smdb_query::Query;
    use smdb_storage::value::ColumnValues;
    use smdb_storage::{
        Aggregate, AggregateOp, ColumnDef, DataType, EncodingKind, IndexKind, KnobKind,
        ScanPredicate, Schema, Tier,
    };

    fn sample_query() -> Query {
        Query::new(
            TableId(0),
            "events",
            vec![
                ScanPredicate::between(ColumnId(0), 4i64, 9i64),
                ScanPredicate::eq(ColumnId(2), "eu".to_string()),
            ],
            Some(Aggregate::new(AggregateOp::Sum, ColumnId(1))),
            "range",
        )
        .with_group_by(ColumnId(2))
    }

    fn sample_config() -> ConfigInstance {
        let mut c = ConfigInstance::default();
        sample_actions().iter().for_each(|a| c.apply(a));
        c.indexes
            .insert(ChunkColumnRef::new(0, 0, 1), IndexKind::Hash);
        c.indexes
            .insert(ChunkColumnRef::new(1, 0, 0), IndexKind::BTree);
        c
    }

    fn sample_actions() -> Vec<ConfigAction> {
        vec![
            ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(0, 1, 0),
                kind: IndexKind::CompositeHash {
                    second: ColumnId(2),
                },
            },
            ConfigAction::DropIndex {
                target: ChunkColumnRef::new(1, 0, 0),
            },
            ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(0, 2, 0),
                kind: EncodingKind::FrameOfReference,
            },
            ConfigAction::SetPlacement {
                table: TableId(0),
                chunk: ChunkId(3),
                tier: Tier::Cold,
            },
            ConfigAction::SetKnob {
                knob: KnobKind::BufferPoolMb,
                value: 96.0,
            },
        ]
    }

    fn sample_instance() -> StoredInstance {
        StoredInstance {
            applied_at: LogicalTime(7),
            feature: Some(FeatureKind::Indexing),
            config: sample_config(),
            actions: sample_actions(),
            predicted_cost: Cost(10.5),
            reconfiguration_cost: Cost(2.25),
            observed_before: Cost(20.0),
            observed_after: None,
        }
    }

    fn sample_rollback() -> RollbackRecord {
        RollbackRecord {
            at: LogicalTime(2),
            abandoned_actions: sample_actions(),
            restored_config: sample_config(),
            cause: "test".into(),
        }
    }

    fn sample_state(bucket: u64) -> ServingState {
        // One entry: 7 executions costing 10.5, first seen at 3, last at 4.
        let mut plan_cache = smdb_query::PlanCache::default();
        for i in 0..7 {
            plan_cache.record(
                &sample_query(),
                Cost(1.5),
                LogicalTime(3 + u64::from(i > 0)),
            );
        }
        ServingState {
            bucket,
            stats: SessionStats {
                session_id: 0,
                queries: 512,
                errors: 0,
                wrong_results: 0,
                busy: Cost(123.5),
                morsels: 7,
                result_digest: 0xDEAD_BEEF_CAFE_F00D,
            },
            clock: 9,
            config: Arc::new(sample_config()),
            kpi: KpiState {
                closed: vec![vec![1.0, 2.0], vec![0.5]],
                utilization: vec![0.4, 0.1],
                memory: vec![4096],
                bucket_queries: vec![300, 212],
                queries_total: 512,
                utilization_stale: false,
            },
            history: WorkloadHistoryState {
                templates: vec![(
                    42,
                    TemplateHistory {
                        example: sample_query(),
                        buckets: [(3, 5.0), (4, 2.0)].into_iter().collect(),
                        mean_cost: Cost(1.5),
                        total: 7.0,
                    },
                )],
                last_totals: vec![(42, 7, Cost(10.5))],
                span: Some((3, 5)),
            },
            plan_cache: plan_cache.snapshot(),
            organizer_last_tuning: Some(LogicalTime(6)),
            organizer_paused: true,
            last_bucket_cost: Cost(55.0),
            pending_actions: sample_actions(),
            pending_reconfig: Some(PendingReconfig {
                final_config: sample_config(),
                actions: sample_actions(),
                predicted_cost: Cost(9.0),
                observed_before: Cost(11.0),
                accrued_cost: Cost(0.5),
            }),
            counters: [9, 2, 5, 3, 1],
        }
    }

    fn sample_table(name: &str, rows: i64) -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Float),
            ColumnDef::new("tag", DataType::Text),
        ])
        .unwrap();
        Table::from_columns(
            name,
            schema,
            vec![
                ColumnValues::Int((0..rows).collect()),
                ColumnValues::Float((0..rows).map(|i| i as f64 * 0.5).collect()),
                ColumnValues::Text((0..rows).map(|i| format!("t{i}")).collect()),
            ],
            4,
        )
        .unwrap()
    }

    /// A store holding a two-table snapshot at bucket 0 and one WAL
    /// record per tag, in tag order.
    fn sample_store() -> Arc<MemPersistence> {
        let mem = Arc::new(MemPersistence::new());
        let manager = DurabilityManager::new(mem.clone(), DurabilityConfig::default());
        let mut engine = StorageEngine::default();
        engine.create_table(sample_table("events", 10)).unwrap();
        engine.create_table(sample_table("dims", 3)).unwrap();
        manager
            .take_snapshot(
                &sample_state(0),
                &engine,
                &[sample_instance()],
                &[sample_rollback()],
            )
            .unwrap();
        manager.log_boundary(&sample_state(1)).unwrap();
        manager.log_instance_stored(&sample_instance()).unwrap();
        manager.log_instance_completed(Cost(12.5)).unwrap();
        manager.log_rollback(&sample_rollback()).unwrap();
        mem
    }

    fn wal_bodies(p: &dyn Persistence) -> Vec<Vec<u8>> {
        let raw = p.read(WAL_NAME).unwrap().unwrap();
        let wal = smdb_durable::read_prefix(&raw);
        wal.records.into_iter().map(|r| r.body).collect()
    }

    /// Payload of the newest valid blob under `prefix`.
    fn newest_payload(p: &dyn Persistence, prefix: &str) -> Vec<u8> {
        let store = SnapshotStore::new(prefix);
        let versions = store.versions(p).unwrap();
        let newest = versions
            .iter()
            .rev()
            .find_map(|&v| store.read(p, v).unwrap());
        newest.expect("a valid blob").1
    }

    fn blob_name(prefix: &str, version: u64) -> String {
        SnapshotStore::new(prefix).blob_name(version)
    }

    /// Stores `payload` as state snapshot `version` in the blob layout:
    /// the payload's checksum, then the payload.
    fn write_state(p: &dyn Persistence, version: u64, payload: &[u8]) {
        let blob = [&crc32(payload).to_le_bytes()[..], payload].concat();
        p.write_atomic(&blob_name(SNAPSHOT_PREFIX, version), &blob)
            .unwrap();
    }

    /// `(crc32, length)` of every durable layout: the test that fails if
    /// a container impl changes a prefix width. The serving state, the
    /// WAL bodies and the WAL blob were computed at commit 27ee10e with
    /// the free `write_*` functions the `Encode` impls replaced; the base
    /// payload is the tables' slice of the version-1 snapshot pinned
    /// there, and the state payload is that snapshot without it, under
    /// version 2, with the 12-byte base reference after the WAL
    /// position. Recovering the store must reproduce the fixtures.
    #[test]
    fn durable_format_is_pinned() {
        let pin = |bytes: &[u8]| (crc32(bytes), bytes.len());
        let store = sample_store();
        assert_eq!(
            pin(&encode_serving_state(&sample_state(1))),
            (0xe552_37e2, 935)
        );
        let bodies: Vec<_> = wal_bodies(store.as_ref()).iter().map(|b| pin(b)).collect();
        assert_eq!(
            bodies,
            [
                (0x0451_d6d9, 936),
                (0xc3f9_a38e, 205),
                (0xed1e_f610, 9),
                (0x7a20_7270, 187)
            ],
            "one body per WAL tag"
        );
        let base = newest_payload(store.as_ref(), BASE_PREFIX);
        let state = newest_payload(store.as_ref(), SNAPSHOT_PREFIX);
        assert_eq!(pin(&base), (0x2c23_15cf, 438));
        assert_eq!(pin(&state), (0xa270_b552, 1362));
        let blob = |name: &str| pin(&store.read(name).unwrap().unwrap());
        assert_eq!(blob(WAL_NAME), (0xfc9a_d04b, 1401));
        assert_eq!(blob(&blob_name(BASE_PREFIX, 0)), (0x5874_56e2, 442));
        assert_eq!(blob(&blob_name(SNAPSHOT_PREFIX, 0)), (0xaa25_34fc, 1366));
        // The state names its base: version 0 and the base payload's
        // checksum, right after the version byte and the WAL position.
        assert_eq!(state[..9], [SNAPSHOT_VERSION, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(state[9..17], 0u64.to_le_bytes());
        assert_eq!(state[17..21], crc32(&base).to_le_bytes());

        let rec = recover(store.as_ref(), &DurabilityConfig::default())
            .unwrap()
            .expect("recoverable");
        assert_eq!(rec.serving, sample_state(1));
        assert_eq!((rec.replayed_records, rec.dropped_records), (4, 0));
        let mut completed = sample_instance();
        completed.observed_after = Some(Cost(12.5));
        assert_eq!(rec.instances, [sample_instance(), completed]);
        assert_eq!(rec.rollbacks, [sample_rollback(), sample_rollback()]);
        let tables: Vec<_> = rec.tables.iter().map(|t| (t.name(), t.rows())).collect();
        assert_eq!(tables, [("events", 10), ("dims", 3)]);
    }

    /// Reader/writer layout skew is the one corruption a checksum cannot
    /// see: every decode entry point rejects both a short and a long
    /// value, cleanly.
    #[test]
    fn short_and_long_values_are_errors() {
        let state = encode_serving_state(&sample_state(1));
        for cut in 0..state.len() {
            assert!(decode_serving_state(&state[..cut]).is_err(), "prefix {cut}");
        }
        let longer = |bytes: &[u8]| [bytes, &[0]].concat();
        assert!(decode_serving_state(&longer(&state)).is_err());

        let store = sample_store();
        for body in wal_bodies(store.as_ref()) {
            let mut serving = sample_state(0);
            let (mut instances, mut rollbacks) = (vec![sample_instance()], vec![]);
            let mut replay =
                |b: &[u8]| replay_record(b, &mut serving, &mut instances, &mut rollbacks);
            assert!(replay(&body).is_ok(), "tag {}", body[0]);
            assert!(replay(&longer(&body)).is_err(), "tag {}", body[0]);
        }
        let state = newest_payload(store.as_ref(), SNAPSHOT_PREFIX);
        write_state(store.as_ref(), 1, &longer(&state));
        assert!(recover(store.as_ref(), &DurabilityConfig::default()).is_err());
    }

    /// Stores are per-run scratch: nothing reads the version-1 layout
    /// (tables inline, no base reference), and finding one is a clean
    /// error rather than a misparse.
    #[test]
    fn version_1_snapshot_is_a_clean_error() {
        let store = sample_store();
        let mut v1 = newest_payload(store.as_ref(), SNAPSHOT_PREFIX);
        v1[0] = 1;
        write_state(store.as_ref(), 1, &v1);
        let err = recover(store.as_ref(), &DurabilityConfig::default()).unwrap_err();
        assert!(
            err.to_string().contains("unsupported snapshot version 1"),
            "{err}"
        );
    }

    /// A store with two state+base pairs: bucket 0 over two tables,
    /// then — the catalog changed — bucket 1 over three.
    fn two_pair_store() -> Arc<MemPersistence> {
        let mem = Arc::new(MemPersistence::new());
        let manager = DurabilityManager::new(mem.clone(), DurabilityConfig::default());
        let mut engine = StorageEngine::default();
        engine.create_table(sample_table("events", 10)).unwrap();
        engine.create_table(sample_table("dims", 3)).unwrap();
        let snap = |bucket, engine: &StorageEngine| {
            manager
                .take_snapshot(&sample_state(bucket), engine, &[], &[])
                .unwrap()
        };
        snap(0, &engine);
        engine.create_table(sample_table("late", 5)).unwrap();
        snap(1, &engine);
        mem
    }

    fn recovered_shape(p: &dyn Persistence) -> Option<(u64, usize)> {
        recover(p, &DurabilityConfig::default())
            .expect("a bad base is a fallback, never an error")
            .map(|rec| (rec.serving.bucket, rec.tables.len()))
    }

    #[test]
    fn state_without_its_base_falls_back_to_the_previous_pair() {
        assert_eq!(recovered_shape(two_pair_store().as_ref()), Some((1, 3)));

        // The newest state is valid, its base is gone.
        let store = two_pair_store();
        store.remove(&blob_name(BASE_PREFIX, 1)).unwrap();
        assert_eq!(recovered_shape(store.as_ref()), Some((0, 2)));

        // ... or torn.
        let store = two_pair_store();
        store
            .mutate(&blob_name(BASE_PREFIX, 1), |b| b[40] ^= 0x10)
            .unwrap();
        assert_eq!(recovered_shape(store.as_ref()), Some((0, 2)));

        // ... or intact but not the blob the state was written against.
        let store = two_pair_store();
        let other = store.read(&blob_name(BASE_PREFIX, 0)).unwrap().unwrap();
        store
            .write_atomic(&blob_name(BASE_PREFIX, 1), &other)
            .unwrap();
        assert_eq!(recovered_shape(store.as_ref()), Some((0, 2)));

        // No pair left: nothing to recover, still not an error.
        store.remove(&blob_name(BASE_PREFIX, 0)).unwrap();
        assert_eq!(recovered_shape(store.as_ref()), None);
    }

    /// The newest-first walk skips a state snapshot that does not
    /// validate — bit-flipped, cut short, or empty — and takes the one
    /// before it.
    #[test]
    fn torn_newest_state_falls_back_to_the_previous_pair() {
        let newest = blob_name(SNAPSHOT_PREFIX, 1);
        let tears: [(&str, fn(&mut Vec<u8>)); 4] = [
            ("bit flip", |b| b[10] ^= 1),
            ("cut mid-payload", |b| b.truncate(b.len() / 2)),
            ("shorter than its header", |b| b.truncate(3)),
            ("empty", Vec::clear),
        ];
        for (what, tear) in tears {
            let store = two_pair_store();
            store.mutate(&newest, tear).unwrap();
            assert_eq!(recovered_shape(store.as_ref()), Some((0, 2)), "{what}");
        }

        // Every state torn: nothing to recover, still not an error.
        let store = two_pair_store();
        store.mutate(&newest, |b| b[10] ^= 1).unwrap();
        store
            .mutate(&blob_name(SNAPSHOT_PREFIX, 0), |b| b[10] ^= 1)
            .unwrap();
        assert_eq!(recovered_shape(store.as_ref()), None);
    }

    /// A crash between the two writes of the first snapshot leaves a
    /// base and no state.
    #[test]
    fn base_without_a_state_is_nothing_to_recover() {
        let store = two_pair_store();
        store.remove(&blob_name(SNAPSHOT_PREFIX, 0)).unwrap();
        store.remove(&blob_name(SNAPSHOT_PREFIX, 1)).unwrap();
        assert_eq!(recovered_shape(store.as_ref()), None);
    }

    #[test]
    fn recover_truncates_corrupt_wal_tail() {
        let mem = Arc::new(MemPersistence::new());
        let p: Arc<dyn Persistence> = mem.clone();
        let config = DurabilityConfig::default();
        let manager = DurabilityManager::new(Arc::clone(&p), config.clone());
        let engine = StorageEngine::default();
        manager
            .take_snapshot(&sample_state(0), &engine, &[], &[])
            .unwrap();
        manager.log_boundary(&sample_state(1)).unwrap();
        manager.log_boundary(&sample_state(2)).unwrap();
        // Tear the last record.
        mem.mutate(WAL_NAME, |b| {
            let cut = b.len() - 7;
            b.truncate(cut);
        })
        .unwrap();
        let rec = recover(p.as_ref(), &config).unwrap().expect("recoverable");
        assert_eq!(rec.serving.bucket, 1, "degraded to the last valid prefix");
        assert_eq!(rec.dropped_records, 1);
        assert_eq!(rec.wal_records, 1);
        // The corrupt tail was truncated: a resumed manager's appends
        // extend the valid prefix.
        let resumed = DurabilityManager::with_next_seq(Arc::clone(&p), config.clone(), 1);
        resumed.log_boundary(&sample_state(2)).unwrap();
        let rec = recover(p.as_ref(), &config).unwrap().expect("recoverable");
        assert_eq!(rec.serving.bucket, 2);
        assert_eq!(rec.dropped_records, 0);
    }

    #[test]
    fn no_snapshot_means_nothing_to_recover() {
        assert!(
            recover(&MemPersistence::new(), &DurabilityConfig::default())
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn stats_track_write_amplification() {
        let p: Arc<dyn Persistence> = Arc::new(MemPersistence::new());
        let manager = DurabilityManager::new(Arc::clone(&p), DurabilityConfig::default());
        let engine = StorageEngine::default();
        let state = sample_state(9);
        manager.log_boundary(&state).unwrap();
        let wal_only = manager.stats();
        assert_eq!(wal_only.wal_records, 1);
        assert!((wal_only.write_amplification - 1.0).abs() < 1e-12);
        let (_, first) = manager.take_snapshot(&state, &engine, &[], &[]).unwrap();
        let with_snap = manager.stats();
        assert_eq!(with_snap.snapshots_taken, 1);
        assert_eq!(with_snap.snapshot_bytes, first, "base plus state");
        assert!(with_snap.write_amplification > 1.0);
        // The second snapshot of an unchanged catalog writes no base.
        let (_, second) = manager.take_snapshot(&state, &engine, &[], &[]).unwrap();
        assert!(second < first);
        assert_eq!(manager.stats().snapshot_bytes, first + second);
    }

    #[test]
    fn cadence_gates_snapshots() {
        let manager = DurabilityManager::new(
            Arc::new(MemPersistence::new()),
            DurabilityConfig {
                snapshot_every_buckets: 4,
            },
        );
        assert!(!manager.should_snapshot(0));
        assert!(!manager.should_snapshot(3));
        assert!(manager.should_snapshot(4));
        assert!(manager.should_snapshot(8));
        let off = DurabilityManager::new(
            Arc::new(MemPersistence::new()),
            DurabilityConfig {
                snapshot_every_buckets: 0,
            },
        );
        assert!(!off.should_snapshot(4));
    }
}
