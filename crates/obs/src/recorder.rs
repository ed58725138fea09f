//! The flight recorder: a bounded ring buffer of decision events.
//!
//! Every tuning decision the driver makes — trigger fired, candidate
//! assessed, ILP order chosen, actions queued/drained/rolled back — is
//! appended as a [`TrailEvent`]. The buffer keeps the most recent
//! `capacity` events (older ones are dropped and counted), exports as
//! JSON via `smdb_common::json`, and dumps itself to stderr
//! automatically when a rollback is recorded or (via [`PanicDump`])
//! when a test fails.
//!
//! Event `at` stamps are *logical* bucket times, not the monotonic span
//! counter: logical time is seeded-RNG-deterministic, so same-seed runs
//! produce byte-identical trails — the trail is a correctness oracle.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use smdb_common::json::Json;

/// One decision event on the trail.
#[derive(Debug, Clone, PartialEq)]
pub enum TrailEvent {
    /// A KPI bucket closed (serving progress; not a decision).
    BucketClosed {
        at: u64,
        queries: u64,
        busy_ms: f64,
        utilization: f64,
        /// Scan-pool morsels dispatched during the bucket (0 = every
        /// scan ran inline).
        morsels: u64,
    },
    /// The organizer fired a tuning trigger.
    TuningTriggered { at: u64, trigger: String },
    /// One feature's tuner ran: how many candidates it enumerated, the
    /// predicted benefit of its pick, whether the proposal was accepted,
    /// and the what-if cache traffic the assessment generated.
    CandidateAssessed {
        at: u64,
        feature: String,
        candidates: usize,
        predicted_benefit_ms: f64,
        accepted: bool,
        cache_hits: u64,
        cache_misses: u64,
    },
    /// The feature order maximizing the Section III-B objective (found
    /// by exact permutation search), with its `d_{A,B}` inputs. The kind
    /// name `ilp_order_chosen` predates the search and stays, because
    /// it is part of the `smdb-trail/v2.1` schema.
    IlpOrderChosen {
        at: u64,
        order: Vec<String>,
        objective: f64,
        dependence: Vec<Vec<f64>>,
    },
    /// A tuning pass queued its decision; every action of it is applied
    /// by drain slices, at the pass's own tick or at later boundaries.
    ActionsQueued { at: u64, actions: usize },
    /// A budgeted drain slice applied part of the queue.
    SliceApplied {
        at: u64,
        applied: usize,
        remaining: usize,
    },
    /// A budgeted drain slice was deferred (still not a good time).
    SliceDeferred { at: u64, deferred: usize },
    /// A completed reconfiguration was stored as a config instance.
    InstanceStored {
        at: u64,
        instance: String,
        actions: usize,
    },
    /// A failed apply rolled the engine back, naming the restored
    /// config instance.
    ActionRolledBack {
        at: u64,
        restored: String,
        undo_actions: usize,
        abandoned_actions: usize,
        cause: String,
    },
    /// The global Organizer re-split one shared memory budget across
    /// shards (constraint enforcement per paper §II, sharded): the total
    /// budget, the index bytes actually configured across all shards
    /// when the split was taken, and the per-shard shares in shard
    /// order.
    BudgetRebalanced {
        at: u64,
        budget_bytes: u64,
        used_bytes: u64,
        shares: Vec<u64>,
    },
    /// A durability snapshot of the full serving state was taken: the
    /// bucket it covers, how many WAL records it supersedes, and the
    /// stored blob size.
    SnapshotTaken {
        at: u64,
        bucket: u64,
        wal_records: u64,
        bytes: u64,
    },
    /// The driver recovered from durable state: the bucket serving
    /// resumes after, WAL records replayed over the snapshot, and
    /// records dropped to reach the last valid prefix.
    Recovered {
        at: u64,
        bucket: u64,
        replayed_records: u64,
        dropped_records: u64,
    },
}

impl TrailEvent {
    /// The event's kind tag as it appears in the JSON export.
    pub fn kind(&self) -> &'static str {
        match self {
            TrailEvent::BucketClosed { .. } => "bucket_closed",
            TrailEvent::TuningTriggered { .. } => "tuning_triggered",
            TrailEvent::CandidateAssessed { .. } => "candidate_assessed",
            TrailEvent::IlpOrderChosen { .. } => "ilp_order_chosen",
            TrailEvent::ActionsQueued { .. } => "actions_queued",
            TrailEvent::SliceApplied { .. } => "slice_applied",
            TrailEvent::SliceDeferred { .. } => "slice_deferred",
            TrailEvent::InstanceStored { .. } => "instance_stored",
            TrailEvent::ActionRolledBack { .. } => "action_rolled_back",
            TrailEvent::BudgetRebalanced { .. } => "budget_rebalanced",
            TrailEvent::SnapshotTaken { .. } => "snapshot_taken",
            TrailEvent::Recovered { .. } => "recovered",
        }
    }

    /// Whether this is a tuning-thread *decision* (everything except
    /// serving progress). The decision subsequence is invariant across
    /// worker counts; bucket closes are too, but tests filter on this to
    /// state the invariant the issue cares about.
    pub fn is_decision(&self) -> bool {
        !matches!(self, TrailEvent::BucketClosed { .. })
    }

    fn json_fields(&self) -> Vec<(&'static str, Json)> {
        fn num(n: usize) -> Json {
            Json::Num(n as f64)
        }
        match self {
            TrailEvent::BucketClosed {
                at,
                queries,
                busy_ms,
                utilization,
                morsels,
            } => vec![
                ("at", Json::Num(*at as f64)),
                ("queries", Json::Num(*queries as f64)),
                ("busy_ms", Json::Num(*busy_ms)),
                ("utilization", Json::Num(*utilization)),
                ("morsels", Json::Num(*morsels as f64)),
            ],
            TrailEvent::TuningTriggered { at, trigger } => vec![
                ("at", Json::Num(*at as f64)),
                ("trigger", Json::Str(trigger.clone())),
            ],
            TrailEvent::CandidateAssessed {
                at,
                feature,
                candidates,
                predicted_benefit_ms,
                accepted,
                cache_hits,
                cache_misses,
            } => vec![
                ("at", Json::Num(*at as f64)),
                ("feature", Json::Str(feature.clone())),
                ("candidates", num(*candidates)),
                ("predicted_benefit_ms", Json::Num(*predicted_benefit_ms)),
                ("accepted", Json::Bool(*accepted)),
                ("cache_hits", Json::Num(*cache_hits as f64)),
                ("cache_misses", Json::Num(*cache_misses as f64)),
            ],
            TrailEvent::IlpOrderChosen {
                at,
                order,
                objective,
                dependence,
            } => vec![
                ("at", Json::Num(*at as f64)),
                (
                    "order",
                    Json::Arr(order.iter().map(|f| Json::Str(f.clone())).collect()),
                ),
                ("objective", Json::Num(*objective)),
                (
                    "dependence",
                    Json::Arr(
                        dependence
                            .iter()
                            .map(|row| Json::Arr(row.iter().map(|&d| Json::Num(d)).collect()))
                            .collect(),
                    ),
                ),
            ],
            TrailEvent::ActionsQueued { at, actions } => {
                vec![("at", Json::Num(*at as f64)), ("actions", num(*actions))]
            }
            TrailEvent::SliceApplied {
                at,
                applied,
                remaining,
            } => vec![
                ("at", Json::Num(*at as f64)),
                ("applied", num(*applied)),
                ("remaining", num(*remaining)),
            ],
            TrailEvent::SliceDeferred { at, deferred } => {
                vec![("at", Json::Num(*at as f64)), ("deferred", num(*deferred))]
            }
            TrailEvent::InstanceStored {
                at,
                instance,
                actions,
            } => vec![
                ("at", Json::Num(*at as f64)),
                ("instance", Json::Str(instance.clone())),
                ("actions", num(*actions)),
            ],
            TrailEvent::ActionRolledBack {
                at,
                restored,
                undo_actions,
                abandoned_actions,
                cause,
            } => vec![
                ("at", Json::Num(*at as f64)),
                ("restored", Json::Str(restored.clone())),
                ("undo_actions", num(*undo_actions)),
                ("abandoned_actions", num(*abandoned_actions)),
                ("cause", Json::Str(cause.clone())),
            ],
            TrailEvent::BudgetRebalanced {
                at,
                budget_bytes,
                used_bytes,
                shares,
            } => vec![
                ("at", Json::Num(*at as f64)),
                ("budget_bytes", Json::Num(*budget_bytes as f64)),
                ("used_bytes", Json::Num(*used_bytes as f64)),
                (
                    "shares",
                    Json::Arr(shares.iter().map(|&s| Json::Num(s as f64)).collect()),
                ),
            ],
            TrailEvent::SnapshotTaken {
                at,
                bucket,
                wal_records,
                bytes,
            } => vec![
                ("at", Json::Num(*at as f64)),
                ("bucket", Json::Num(*bucket as f64)),
                ("wal_records", Json::Num(*wal_records as f64)),
                ("bytes", Json::Num(*bytes as f64)),
            ],
            TrailEvent::Recovered {
                at,
                bucket,
                replayed_records,
                dropped_records,
            } => vec![
                ("at", Json::Num(*at as f64)),
                ("bucket", Json::Num(*bucket as f64)),
                ("replayed_records", Json::Num(*replayed_records as f64)),
                ("dropped_records", Json::Num(*dropped_records as f64)),
            ],
        }
    }

    /// The event as a JSON object with its sequence number, optionally
    /// stamped with the shard it came from.
    pub fn to_json_tagged(&self, seq: u64, shard: Option<u64>) -> Json {
        let mut fields = vec![
            ("seq", Json::Num(seq as f64)),
            ("event", Json::Str(self.kind().to_string())),
        ];
        if let Some(shard) = shard {
            fields.push(("shard", Json::Num(shard as f64)));
        }
        fields.extend(self.json_fields());
        Json::obj(fields)
    }

    /// The event's logical bucket time.
    pub fn at(&self) -> u64 {
        match self {
            TrailEvent::BucketClosed { at, .. }
            | TrailEvent::TuningTriggered { at, .. }
            | TrailEvent::CandidateAssessed { at, .. }
            | TrailEvent::IlpOrderChosen { at, .. }
            | TrailEvent::ActionsQueued { at, .. }
            | TrailEvent::SliceApplied { at, .. }
            | TrailEvent::SliceDeferred { at, .. }
            | TrailEvent::InstanceStored { at, .. }
            | TrailEvent::ActionRolledBack { at, .. }
            | TrailEvent::BudgetRebalanced { at, .. }
            | TrailEvent::SnapshotTaken { at, .. }
            | TrailEvent::Recovered { at, .. } => *at,
        }
    }
}

#[derive(Debug, Default)]
struct RecorderInner {
    events: VecDeque<(u64, TrailEvent)>,
    next_seq: u64,
    dropped: u64,
}

/// The one schema tag every exported trail carries: `shard` is an
/// optional per-event field and every event kind is legal.
const TRAIL_SCHEMA: &str = "smdb-trail/v2.1";

fn trail_document(capacity: usize, dropped: u64, events: Vec<Json>) -> Json {
    Json::obj(vec![
        ("schema", Json::Str(TRAIL_SCHEMA.to_string())),
        ("capacity", Json::Num(capacity as f64)),
        ("dropped", Json::Num(dropped as f64)),
        ("events", Json::Arr(events)),
    ])
}

/// A bounded ring buffer of the most recent decision events.
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<RecorderInner>,
    capacity: usize,
    /// Shard this recorder belongs to: `Some` stamps every exported
    /// event with a `shard` field.
    shard: Option<u64>,
    /// Dump to stderr when a rollback is recorded (on by default; tests
    /// asserting on stderr-free output can switch it off).
    auto_dump: std::sync::atomic::AtomicBool,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(512)
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Mutex::new(RecorderInner::default()),
            capacity: capacity.max(1),
            shard: None,
            auto_dump: std::sync::atomic::AtomicBool::new(true),
        }
    }

    /// A recorder for one shard's driver: every exported event carries
    /// `"shard": shard`.
    pub fn with_shard(capacity: usize, shard: u64) -> FlightRecorder {
        let mut rec = FlightRecorder::new(capacity);
        rec.shard = Some(shard);
        rec
    }

    /// The shard this recorder is stamped with, if any.
    pub fn shard(&self) -> Option<u64> {
        self.shard
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enables/disables the automatic stderr dump on rollback events.
    pub fn set_auto_dump(&self, enabled: bool) {
        self.auto_dump
            .store(enabled, std::sync::atomic::Ordering::Relaxed);
    }

    /// Appends an event, evicting the oldest when full.
    pub fn record(&self, event: TrailEvent) {
        let is_rollback = matches!(event, TrailEvent::ActionRolledBack { .. });
        {
            let mut inner = self.inner.lock();
            let seq = inner.next_seq;
            inner.next_seq += 1;
            inner.events.push_back((seq, event));
            while inner.events.len() > self.capacity {
                inner.events.pop_front();
                inner.dropped += 1;
            }
        }
        if is_rollback && self.auto_dump.load(std::sync::atomic::Ordering::Relaxed) {
            self.dump_to_stderr("rollback");
        }
    }

    /// Events currently retained, oldest first, with sequence numbers.
    pub fn events(&self) -> Vec<(u64, TrailEvent)> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the ring bound so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// The whole trail as a `smdb-trail/v2.1` document; a shard-stamped
    /// recorder's events each carry its `shard`.
    pub fn to_json(&self) -> Json {
        let inner = self.inner.lock();
        let events = inner
            .events
            .iter()
            .map(|(seq, e)| e.to_json_tagged(*seq, self.shard))
            .collect();
        trail_document(self.capacity, inner.dropped, events)
    }

    /// Merges several recorders' trails into one document: events
    /// interleave by (logical time, recorder order, local seq),
    /// are re-sequenced 0.., and keep each source recorder's shard stamp
    /// (events from unstamped recorders — the global Organizer — carry
    /// no `shard` field). Capacity and dropped counts sum.
    pub fn merged_json(recorders: &[&FlightRecorder]) -> Json {
        let mut all: Vec<(u64, u64, usize, TrailEvent, Option<u64>)> = Vec::new();
        let mut capacity = 0usize;
        let mut dropped = 0u64;
        for (order, rec) in recorders.iter().enumerate() {
            capacity += rec.capacity;
            dropped += rec.dropped();
            for (seq, event) in rec.events() {
                all.push((event.at(), seq, order, event, rec.shard));
            }
        }
        all.sort_by_key(|(at, seq, order, _, _)| (*at, *order, *seq));
        let events = all
            .iter()
            .enumerate()
            .map(|(seq, (_, _, _, event, shard))| event.to_json_tagged(seq as u64, *shard))
            .collect();
        trail_document(capacity, dropped, events)
    }

    /// Writes the trail to stderr, labelled with `why`.
    pub fn dump_to_stderr(&self, why: &str) {
        eprintln!(
            "[flight-recorder dump: {why}]\n{}",
            self.to_json().to_string_compact()
        );
    }
}

/// Drop guard that dumps the trail when the current thread is panicking
/// — put one at the top of a test to get the decision trail on failure.
pub struct PanicDump {
    recorder: Arc<FlightRecorder>,
}

impl PanicDump {
    /// Guards `recorder` for the current scope.
    pub fn new(recorder: Arc<FlightRecorder>) -> PanicDump {
        PanicDump { recorder }
    }
}

impl Drop for PanicDump {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.recorder.dump_to_stderr("test failure");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(at: u64) -> TrailEvent {
        TrailEvent::BucketClosed {
            at,
            queries: 10,
            busy_ms: 1.5,
            utilization: 0.1,
            morsels: 4,
        }
    }

    #[test]
    fn ring_bounds_and_keeps_the_most_recent() {
        let rec = FlightRecorder::new(3);
        for at in 0..10 {
            rec.record(closed(at));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 7);
        let events = rec.events();
        // Sequence numbers keep counting across evictions.
        assert_eq!(events[0].0, 7);
        assert_eq!(events[2].0, 9);
        assert!(matches!(
            events[2].1,
            TrailEvent::BucketClosed { at: 9, .. }
        ));
    }

    #[test]
    fn shard_stamp_and_schema_tag() {
        let plain = FlightRecorder::new(4);
        plain.record(closed(0));
        let unstamped = plain.to_json();
        assert_eq!(
            unstamped.get("schema").and_then(Json::as_str),
            Some(TRAIL_SCHEMA)
        );
        assert!(unstamped.get("events").and_then(Json::as_array).unwrap()[0]
            .get("shard")
            .is_none());

        let sharded = FlightRecorder::with_shard(4, 3);
        sharded.record(closed(0));
        let stamped = sharded.to_json();
        assert_eq!(
            stamped.get("schema").and_then(Json::as_str),
            Some(TRAIL_SCHEMA)
        );
        assert_eq!(
            stamped.get("events").and_then(Json::as_array).unwrap()[0]
                .get("shard")
                .and_then(Json::as_u64),
            Some(3)
        );
    }

    #[test]
    fn merged_trail_interleaves_by_time_and_reseqs() {
        let global = FlightRecorder::new(8);
        let s0 = FlightRecorder::with_shard(8, 0);
        let s1 = FlightRecorder::with_shard(8, 1);
        s0.record(closed(0));
        s1.record(closed(0));
        global.record(TrailEvent::BudgetRebalanced {
            at: 1,
            budget_bytes: 1000,
            used_bytes: 400,
            shares: vec![600, 400],
        });
        s1.record(closed(2));
        let merged = FlightRecorder::merged_json(&[&global, &s0, &s1]);
        assert_eq!(
            merged.get("schema").and_then(Json::as_str),
            Some(TRAIL_SCHEMA)
        );
        let events = merged.get("events").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 4);
        // Re-sequenced 0.. and ordered by (at, recorder order).
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.get("seq").and_then(Json::as_u64), Some(i as u64));
        }
        assert_eq!(events[0].get("shard").and_then(Json::as_u64), Some(0));
        assert_eq!(events[1].get("shard").and_then(Json::as_u64), Some(1));
        assert_eq!(
            events[2].get("event").and_then(Json::as_str),
            Some("budget_rebalanced")
        );
        assert!(events[2].get("shard").is_none(), "global events unstamped");
        assert_eq!(
            events[2]
                .get("shares")
                .and_then(Json::as_array)
                .map(|a| a.len()),
            Some(2)
        );
        assert_eq!(events[3].get("shard").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn recovery_events_export_their_fields() {
        let rec = FlightRecorder::new(8);
        rec.record(closed(0));
        rec.record(TrailEvent::SnapshotTaken {
            at: 1,
            bucket: 0,
            wal_records: 3,
            bytes: 128,
        });
        rec.record(TrailEvent::Recovered {
            at: 2,
            bucket: 1,
            replayed_records: 2,
            dropped_records: 1,
        });
        let events = rec.to_json();
        let events = events.get("events").and_then(Json::as_array).unwrap();
        assert_eq!(
            events[2].get("event").and_then(Json::as_str),
            Some("recovered")
        );
        assert_eq!(
            events[2].get("dropped_records").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn json_export_round_trips() {
        let rec = FlightRecorder::new(8);
        rec.set_auto_dump(false);
        rec.record(closed(0));
        rec.record(TrailEvent::ActionRolledBack {
            at: 4,
            restored: "baseline".into(),
            undo_actions: 2,
            abandoned_actions: 3,
            cause: "injected".into(),
        });
        let text = rec.to_json().to_string_pretty();
        let parsed = smdb_common::json::parse(&text).expect("trail parses");
        let events = parsed.get("events").and_then(Json::as_array).expect("arr");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("event").and_then(Json::as_str),
            Some("action_rolled_back")
        );
        assert_eq!(
            events[1].get("restored").and_then(Json::as_str),
            Some("baseline")
        );
        assert_eq!(events[0].get("seq").and_then(Json::as_u64), Some(0));
        assert_eq!(events[1].get("seq").and_then(Json::as_u64), Some(1));
    }
}
