//! Crash-point property tests over the durability layer.
//!
//! The contract under test: recovery is a *total, deterministic*
//! function of whatever bytes survived the crash. Whatever prefix of
//! the WAL made it to storage — a clean boundary, half a record, a
//! bit-flipped checksum, a duplicated tail — recovery must never
//! panic, must degrade to the longest valid prefix, and the resumed
//! run must land on the same result digest as the uninterrupted one.
//!
//! Four layers of evidence:
//! * a property sweep truncating the WAL at arbitrary byte offsets,
//! * the torn-write fault matrix (truncate / flip / duplicate, three
//!   crash attempts each) injected *while the soak is running*,
//! * byte-identity: recovering the same store twice yields the same
//!   serving-state encoding and the same stored-instance set,
//! * the snapshot split: table data is written once per manager and per
//!   catalog, no state snapshot carries it, and a run killed twice
//!   recovers through the base its resumed manager wrote.

mod harness;

use std::sync::{Arc, Mutex, OnceLock};

use proptest::prelude::*;

use smdb::common::Result;
use smdb::core::durability::{
    decode_serving_state, encode_serving_state, BASE_PREFIX, SNAPSHOT_PREFIX,
};
use smdb::core::{DurabilityConfig, DurabilityManager, StoredInstance};
use smdb::durable::{
    MemPersistence, Persistence, SnapshotStore, TornWriteKind, TornWritePersistence, TornWritePlan,
};
use smdb::obs::TrailEvent;
use smdb::runtime::{recover_and_resume, recover_runtime, BucketPlan, KillSpec};
use smdb::storage::value::ColumnValues;
use smdb::storage::{StorageEngine, Table};

/// Snapshot cadence: with the 10-bucket small fixture this leaves
/// snapshots at buckets 0, 4 and 8, so most crash points replay a
/// non-trivial WAL tail.
const SNAPSHOT_EVERY: u64 = 4;

fn dconfig() -> DurabilityConfig {
    DurabilityConfig {
        snapshot_every_buckets: SNAPSHOT_EVERY,
    }
}

/// An in-memory store that records every atomic write — the snapshot
/// side of the durable store — as `(blob name, bytes)`, in order.
#[derive(Default)]
struct CountingPersistence {
    inner: MemPersistence,
    atomic_writes: Mutex<Vec<(String, usize)>>,
}

impl CountingPersistence {
    /// The recorded writes of blobs whose name starts with `prefix`:
    /// their names and their sizes, in write order.
    fn written(&self, prefix: &str) -> (Vec<String>, Vec<usize>) {
        let writes = self.atomic_writes.lock().expect("not poisoned");
        writes
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .cloned()
            .unzip()
    }
}

impl Persistence for CountingPersistence {
    fn append(&self, name: &str, data: &[u8]) -> Result<()> {
        self.inner.append(name, data)
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<()> {
        self.atomic_writes
            .lock()
            .expect("not poisoned")
            .push((name.to_string(), data.len()));
        self.inner.write_atomic(name, data)
    }

    fn list(&self) -> Result<Vec<String>> {
        self.inner.list()
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.inner.remove(name)
    }
}

/// One uninterrupted durable run of the shared small fixture; every
/// crash-point case recovers from a copy of its store and must match
/// its digest.
struct Reference {
    digest: u64,
    queries: u64,
    instances: Vec<StoredInstance>,
    plan: Vec<BucketPlan>,
    store: Arc<CountingPersistence>,
}

fn reference() -> &'static Reference {
    static REF: OnceLock<Reference> = OnceLock::new();
    REF.get_or_init(|| {
        let (db, plan) = harness::small_soak();
        let store = Arc::new(CountingPersistence::default());
        let runtime = harness::durable_soak_runtime(db, store.clone(), SNAPSHOT_EVERY);
        let outcome = runtime.run(&plan).expect("reference soak runs");
        assert_eq!(outcome.stats.errors, 0);
        assert_eq!(outcome.stats.wrong_results, 0);
        Reference {
            digest: outcome.stats.result_digest,
            queries: outcome.stats.queries,
            instances: runtime.driver().config_storage().snapshot(),
            plan,
            store,
        }
    })
}

/// Deep-copies a store so each crash case mutates its own universe
/// (recovery truncate-repairs the WAL in place).
fn copy_store(src: &dyn Persistence) -> Arc<MemPersistence> {
    let dst = MemPersistence::new();
    copy_blobs(src, &dst);
    Arc::new(dst)
}

fn copy_blobs(src: &dyn Persistence, dst: &dyn Persistence) {
    for name in src.list().expect("lists") {
        let blob = src.read(&name).expect("reads").expect("listed blob exists");
        dst.write_atomic(&name, &blob).expect("writes");
    }
}

fn blob_name(prefix: &str, version: u64) -> String {
    SnapshotStore::new(prefix).blob_name(version)
}

/// Truncates the copied WAL at `cut` bytes: the crash point.
fn crashed_store(src: &dyn Persistence, cut: usize) -> Arc<MemPersistence> {
    let store = copy_store(src);
    store
        .mutate(smdb::core::durability::WAL_NAME, |b| b.truncate(cut))
        .expect("wal blob exists");
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Crash at an *arbitrary byte offset* into the WAL: recovery never
    /// panics, is deterministic (two independent recoveries of the same
    /// surviving prefix agree on everything), and the resumed run
    /// reproduces the uninterrupted digest.
    #[test]
    fn crash_at_any_wal_byte_offset_recovers_deterministically(frac in 0.0f64..1.0) {
        let reference = reference();
        let wal = reference
            .store
            .read(smdb::core::durability::WAL_NAME)
            .expect("reads")
            .expect("reference run wrote a WAL");
        let cut = (frac * wal.len() as f64) as usize;

        let first = recover_and_resume(
            crashed_store(reference.store.as_ref(), cut),
            dconfig(),
            harness::recovery_config(2),
            &reference.plan,
        )
        .expect("recovery is total");
        let second = recover_and_resume(
            crashed_store(reference.store.as_ref(), cut),
            dconfig(),
            harness::recovery_config(2),
            &reference.plan,
        )
        .expect("recovery is total");

        // Correct: the surviving prefix plus re-served buckets equals
        // the uninterrupted run.
        prop_assert_eq!(first.outcome.stats.result_digest, reference.digest);
        prop_assert_eq!(first.outcome.stats.queries, reference.queries);
        prop_assert_eq!(first.outcome.stats.wrong_results, 0);
        prop_assert_eq!(first.outcome.stats.errors, 0);

        // Deterministic: same surviving prefix, same recovery.
        prop_assert_eq!(first.resumed_at_bucket, second.resumed_at_bucket);
        prop_assert_eq!(first.replayed_records, second.replayed_records);
        prop_assert_eq!(first.dropped_records, second.dropped_records);
        prop_assert_eq!(
            first.outcome.stats.result_digest,
            second.outcome.stats.result_digest
        );
    }
}

/// The torn-write fault matrix, injected live: the soak runs against a
/// sabotaged backend that corrupts one append mid-flight and fails the
/// call — the run dies with an error (never a panic), and recovery
/// degrades to the last valid WAL prefix, records a `recovered` trail
/// event naming the dropped-record count, and the resumed run matches
/// the uninterrupted digest.
#[test]
fn torn_writes_recover_to_last_valid_prefix() {
    let reference = reference();
    // Offset 7 lands inside the 8-byte frame header: truncation leaves
    // a partial header, the bit flip corrupts the checksum field.
    for attempt in [1usize, 4, 8] {
        for kind in TornWriteKind::ALL {
            let (db, _) = harness::small_soak();
            let torn = Arc::new(TornWritePersistence::new(
                MemPersistence::new(),
                TornWritePlan::tearing(attempt, kind, 7),
            ));
            let dying = harness::durable_soak_runtime(db, torn.clone(), SNAPSHOT_EVERY);
            let died = dying.run(&reference.plan);
            assert!(
                died.is_err(),
                "append {attempt} {}: the torn write must surface as an error",
                kind.label()
            );
            assert_eq!(torn.injected(), 1, "exactly one fault fired");

            let (recovered, rec) =
                recover_runtime(torn.clone(), dconfig(), harness::recovery_config(2))
                    .expect("recovery is total")
                    .expect("a snapshot exists");
            assert!(
                rec.dropped_records >= 1,
                "append {attempt} {}: the torn record must be dropped, got {}",
                kind.label(),
                rec.dropped_records
            );

            // The trail names the recovery and its dropped-record count.
            let events = recovered.driver().flight_recorder().events();
            let trail = events
                .iter()
                .find_map(|(_, e)| match e {
                    TrailEvent::Recovered {
                        replayed_records,
                        dropped_records,
                        ..
                    } => Some((*replayed_records, *dropped_records)),
                    _ => None,
                })
                .expect("a recovered trail event");
            assert_eq!(trail, (rec.replayed_records, rec.dropped_records));

            let outcome = recovered
                .run_resumed(
                    &reference.plan,
                    rec.serving.bucket,
                    rec.serving.stats.clone(),
                )
                .expect("resumed run completes");
            assert_eq!(
                outcome.stats.result_digest,
                reference.digest,
                "append {attempt} {}: digest differs from the uninterrupted run",
                kind.label()
            );
            assert_eq!(outcome.stats.wrong_results, 0);
            assert_eq!(outcome.stats.errors, 0);
        }
    }
}

/// Byte-identity of recovery: two recoveries of the same store agree on
/// the serving-state *encoding*, the encoding round-trips through
/// decode, and the recovered instance set equals the live driver's.
#[test]
fn recovered_state_round_trips_byte_identically() {
    let reference = reference();
    let (first, rec1) = recover_runtime(
        copy_store(reference.store.as_ref()),
        dconfig(),
        harness::recovery_config(2),
    )
    .expect("recovers")
    .expect("snapshot exists");
    let (_, rec2) = recover_runtime(
        copy_store(reference.store.as_ref()),
        dconfig(),
        harness::recovery_config(2),
    )
    .expect("recovers")
    .expect("snapshot exists");

    let bytes = encode_serving_state(&rec1.serving);
    assert_eq!(
        bytes,
        encode_serving_state(&rec2.serving),
        "independent recoveries must encode byte-identically"
    );
    let reencoded = encode_serving_state(&decode_serving_state(&bytes).expect("decodes"));
    assert_eq!(bytes, reencoded, "encoding is a fixed point of the codec");

    assert_eq!(rec1.dropped_records, 0, "clean shutdown drops nothing");
    assert_eq!(
        first.driver().config_storage().snapshot(),
        reference.instances,
        "recovered instance set equals the live driver's"
    );
    assert_eq!(rec1.instances, rec2.instances);
}

/// Losing the whole WAL is still recoverable: serving resumes from the
/// latest snapshot (bucket 8 under the cadence-4 plan) and the re-served
/// tail reproduces the uninterrupted digest.
#[test]
fn empty_wal_recovers_from_latest_snapshot() {
    let reference = reference();
    let recovered = recover_and_resume(
        crashed_store(reference.store.as_ref(), 0),
        dconfig(),
        harness::recovery_config(2),
        &reference.plan,
    )
    .expect("recovery is total");
    assert_eq!(
        recovered.resumed_at_bucket, 8,
        "an empty WAL falls back to the latest snapshot"
    );
    assert_eq!(recovered.replayed_records, 0);
    assert_eq!(recovered.outcome.stats.result_digest, reference.digest);
}

/// Table data has no write path, so a run writes it once: the cadence-4
/// reference run puts one base blob in front of its first state
/// snapshot, then state snapshots alone, each a fraction of the base.
#[test]
fn table_data_is_written_once_per_run() {
    let store = &reference().store;
    let (bases, base_bytes) = store.written(BASE_PREFIX);
    let (states, state_bytes) = store.written(SNAPSHOT_PREFIX);
    assert_eq!(bases, [blob_name(BASE_PREFIX, 0)]);
    assert_eq!(
        states,
        [0, 4, 8].map(|v| blob_name(SNAPSHOT_PREFIX, v)),
        "the run-start snapshot and one per cadence, as before the split"
    );
    // Base first: a state never names a base that is not durable yet.
    let (all, _) = store.written("");
    assert_eq!(all[..2], [bases[0].clone(), states[0].clone()]);
    assert!(
        state_bytes.iter().all(|&bytes| bytes < base_bytes[0]),
        "{state_bytes:?} vs {base_bytes:?}"
    );
}

/// The base follows the catalog and nothing else: further snapshots of
/// the same engine write states only, a `create_table` between two
/// snapshots costs exactly one more base — and doubling the rows that
/// way leaves the size of a state snapshot where it was.
#[test]
fn a_new_table_means_one_new_base_and_no_bigger_state() {
    let rec = smdb::core::recover(reference().store.as_ref(), &dconfig())
        .expect("recovers")
        .expect("snapshot exists");
    let rows = rec.tables[0].rows() as i64;
    let ints = || ColumnValues::Int((0..rows).collect());
    let twin = Table::from_columns(
        "twin",
        rec.tables[0].schema().clone(),
        vec![
            ints(),
            ColumnValues::Float((0..rows).map(|i| i as f64).collect()),
            ints(),
            ints(),
        ],
        rec.tables[0].target_chunk_rows(),
    )
    .expect("same shape as the events table");
    let mut engine = StorageEngine::default();
    for table in rec.tables {
        engine.create_table(table).expect("creates");
    }
    let store = Arc::new(CountingPersistence::default());
    let manager = DurabilityManager::new(store.clone(), dconfig());
    let snapshot = |engine: &StorageEngine, bucket: u64| {
        let mut serving = rec.serving.clone();
        serving.bucket = bucket;
        manager
            .take_snapshot(&serving, engine, &rec.instances, &rec.rollbacks)
            .expect("snapshots")
    };
    snapshot(&engine, 0);
    snapshot(&engine, 4);
    assert_eq!(store.written(BASE_PREFIX).0.len(), 1);

    engine.create_table(twin).expect("creates");
    snapshot(&engine, 8);
    snapshot(&engine, 12);
    let (bases, base_bytes) = store.written(BASE_PREFIX);
    assert_eq!(bases, [0, 8].map(|v| blob_name(BASE_PREFIX, v)));
    assert!(base_bytes[1] > 2 * base_bytes[0] - 64, "{base_bytes:?}");
    let (_, state_bytes) = store.written(SNAPSHOT_PREFIX);
    assert_eq!(
        state_bytes, [state_bytes[0]; 4],
        "state size is independent of rows"
    );
    assert_eq!(manager.stats().snapshots_taken, 4);
    assert_eq!(
        manager.stats().snapshot_bytes as usize,
        base_bytes[0] + base_bytes[1] + 4 * state_bytes[0]
    );

    // The newest pair is the one recovery takes.
    let again = smdb::core::recover(store.as_ref(), &dconfig())
        .expect("recovers")
        .expect("snapshot exists");
    assert_eq!((again.serving.bucket, again.tables.len()), (12, 2));
}

/// The double kill: a run dies before its first periodic snapshot, is
/// recovered and resumed, and dies again after the *resumed* manager's
/// first periodic snapshot. That manager did not look for the base the
/// first one wrote — it wrote its own — and the second recovery, through
/// that pair, still lands on the uninterrupted digest.
#[test]
fn double_kill_recovers_through_the_resumed_managers_base() {
    let reference = reference();
    let (db, _) = harness::small_soak();
    let first = MemPersistence::new();
    {
        let store = Arc::new(MemPersistence::new());
        let kill = KillSpec {
            bucket: 2,
            after_queries: 3,
        };
        harness::durable_soak_runtime(db, store.clone(), SNAPSHOT_EVERY)
            .run_killed(&reference.plan, kill)
            .expect("dies cleanly");
        copy_blobs(store.as_ref(), &first);
    }
    assert_eq!(
        first.list().expect("lists"),
        [
            blob_name(BASE_PREFIX, 0),
            blob_name(SNAPSHOT_PREFIX, 0),
            smdb::core::durability::WAL_NAME.to_string()
        ]
    );

    // The resumed run's 5th append lies past its bucket-4 snapshot and
    // before its bucket-8 one.
    let store = Arc::new(TornWritePersistence::new(
        first,
        TornWritePlan::tearing(4, TornWriteKind::Truncate, 7),
    ));
    let died = recover_and_resume(
        store.clone(),
        dconfig(),
        harness::recovery_config(2),
        &reference.plan,
    );
    assert!(died.is_err(), "the torn append kills the resumed run");
    assert_eq!(store.injected(), 1);
    let names = store.list().expect("lists");
    assert!(
        names.contains(&blob_name(BASE_PREFIX, 4))
            && names.contains(&blob_name(SNAPSHOT_PREFIX, 4)),
        "the resumed manager wrote its own base with its first snapshot: {names:?}"
    );
    assert!(!names.contains(&blob_name(SNAPSHOT_PREFIX, 8)), "{names:?}");

    let recovered = recover_and_resume(
        store,
        dconfig(),
        harness::recovery_config(2),
        &reference.plan,
    )
    .expect("recovery is total");
    assert!(
        recovered.resumed_at_bucket >= 4,
        "resumed at {}",
        recovered.resumed_at_bucket
    );
    assert!(recovered.dropped_records >= 1);
    assert_eq!(recovered.outcome.stats.result_digest, reference.digest);
    assert_eq!(recovered.outcome.stats.queries, reference.queries);
    assert_eq!(recovered.outcome.stats.wrong_results, 0);
    assert_eq!(recovered.outcome.stats.errors, 0);
}
