//! Flight-recorder trail schema validation.
//!
//! `ci.sh quick` dumps the soak's decision trail (`--trail`) and pipes
//! it through [`validate_trail`] so a malformed export fails the same
//! gate as a lint finding. The schema is duplicated here on purpose —
//! the lint crate must not depend on `smdb-obs`, or a recorder bug that
//! also broke the exporter could validate its own output.

use smdb_common::json::Json;

/// Event kinds the recorder may emit, with the fields each requires
/// beyond the common `seq` / `event` / `at`.
const EVENT_KINDS: &[(&str, &[(&str, FieldType)])] = &[
    (
        "bucket_closed",
        &[
            ("queries", FieldType::U64),
            ("busy_ms", FieldType::Num),
            ("utilization", FieldType::Num),
            ("morsels", FieldType::U64),
        ],
    ),
    ("tuning_triggered", &[("trigger", FieldType::Str)]),
    (
        "candidate_assessed",
        &[
            ("feature", FieldType::Str),
            ("candidates", FieldType::U64),
            ("predicted_benefit_ms", FieldType::Num),
            ("accepted", FieldType::Bool),
            ("cache_hits", FieldType::U64),
            ("cache_misses", FieldType::U64),
        ],
    ),
    (
        "ilp_order_chosen",
        &[
            ("order", FieldType::StrArray),
            ("objective", FieldType::Num),
            ("dependence", FieldType::NumMatrix),
        ],
    ),
    ("actions_queued", &[("actions", FieldType::U64)]),
    // No longer emitted (every pass queues, the drain applies); still
    // legal so `smdb-trail/v2.1` documents that carry it stay valid.
    (
        "actions_applied",
        &[
            ("applied", FieldType::U64),
            ("reconfiguration_cost_ms", FieldType::Num),
        ],
    ),
    (
        "slice_applied",
        &[("applied", FieldType::U64), ("remaining", FieldType::U64)],
    ),
    ("slice_deferred", &[("deferred", FieldType::U64)]),
    (
        "instance_stored",
        &[("instance", FieldType::Str), ("actions", FieldType::U64)],
    ),
    (
        "action_rolled_back",
        &[
            ("restored", FieldType::Str),
            ("undo_actions", FieldType::U64),
            ("abandoned_actions", FieldType::U64),
            ("cause", FieldType::Str),
        ],
    ),
    (
        "budget_rebalanced",
        &[
            ("budget_bytes", FieldType::U64),
            ("used_bytes", FieldType::U64),
            ("shares", FieldType::U64Array),
        ],
    ),
    (
        "snapshot_taken",
        &[
            ("bucket", FieldType::U64),
            ("wal_records", FieldType::U64),
            ("bytes", FieldType::U64),
        ],
    ),
    (
        "recovered",
        &[
            ("bucket", FieldType::U64),
            ("replayed_records", FieldType::U64),
            ("dropped_records", FieldType::U64),
        ],
    ),
];

/// The one schema tag a trail may declare.
const SCHEMA: &str = "smdb-trail/v2.1";

#[derive(Debug, Clone, Copy)]
enum FieldType {
    U64,
    Num,
    Str,
    Bool,
    StrArray,
    U64Array,
    NumMatrix,
}

impl FieldType {
    fn label(self) -> &'static str {
        match self {
            FieldType::U64 => "a non-negative integer",
            FieldType::Num => "a number",
            FieldType::Str => "a string",
            FieldType::Bool => "a boolean",
            FieldType::StrArray => "an array of strings",
            FieldType::U64Array => "an array of non-negative integers",
            FieldType::NumMatrix => "an array of number arrays",
        }
    }

    fn matches(self, value: &Json) -> bool {
        match self {
            FieldType::U64 => value.as_u64().is_some(),
            FieldType::Num => value.as_f64().is_some(),
            FieldType::Str => value.as_str().is_some(),
            FieldType::Bool => matches!(value, Json::Bool(_)),
            FieldType::StrArray => value
                .as_array()
                .is_some_and(|a| a.iter().all(|v| v.as_str().is_some())),
            FieldType::U64Array => value
                .as_array()
                .is_some_and(|a| a.iter().all(|v| v.as_u64().is_some())),
            FieldType::NumMatrix => value.as_array().is_some_and(|rows| {
                rows.iter().all(|row| {
                    row.as_array()
                        .is_some_and(|r| r.iter().all(|v| v.as_f64().is_some()))
                })
            }),
        }
    }
}

/// Validates a trail document produced by the flight recorder's JSON
/// export: the top-level `schema` tag (`"smdb-trail/v2.1"`, the only
/// one), `capacity` / `dropped` / `events`, per event a strictly
/// increasing `seq`, a known `event` kind, a numeric `at`, an optional
/// `shard` attribution, and that kind's required fields with the right
/// types.
pub fn validate_trail(doc: &Json) -> Result<TrailSummary, String> {
    match doc.get("schema").map(Json::as_str) {
        Some(Some(SCHEMA)) => {}
        Some(Some(other)) => return Err(format!("trail: unknown schema `{other}`")),
        Some(None) => return Err("trail: `schema` must be a string".into()),
        None => return Err(format!("trail: missing `schema` (expected `{SCHEMA}`)")),
    }
    let capacity = doc
        .get("capacity")
        .and_then(Json::as_u64)
        .ok_or("trail: missing or non-integer `capacity`")?;
    if capacity == 0 {
        return Err("trail: `capacity` must be at least 1".into());
    }
    doc.get("dropped")
        .and_then(Json::as_u64)
        .ok_or("trail: missing or non-integer `dropped`")?;
    let events = doc
        .get("events")
        .and_then(Json::as_array)
        .ok_or("trail: missing `events` array")?;
    if events.len() > capacity as usize {
        return Err(format!(
            "trail: {} events exceed the declared capacity {capacity}",
            events.len()
        ));
    }

    let mut last_seq: Option<u64> = None;
    let mut decisions = 0;
    for (i, event) in events.iter().enumerate() {
        let seq = event
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("trail: event #{i}: missing or non-integer `seq`"))?;
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Err(format!(
                    "trail: event #{i}: seq {seq} not strictly after {prev}"
                ));
            }
        }
        last_seq = Some(seq);
        let kind = event
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("trail: event #{i} (seq {seq}): missing `event` kind"))?;
        let fields = EVENT_KINDS
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, fields)| *fields)
            .ok_or_else(|| format!("trail: event #{i} (seq {seq}): unknown kind `{kind}`"))?;
        event
            .get("at")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("trail: event #{i} (seq {seq}): missing or non-integer `at`"))?;
        if event.get("shard").is_some_and(|s| s.as_u64().is_none()) {
            return Err(format!(
                "trail: event #{i} (seq {seq}): `shard` must be a non-negative integer"
            ));
        }
        for (name, ty) in fields {
            let value = event.get(name).ok_or_else(|| {
                format!("trail: event #{i} (seq {seq}, {kind}): missing field `{name}`")
            })?;
            if !ty.matches(value) {
                return Err(format!(
                    "trail: event #{i} (seq {seq}, {kind}): `{name}` must be {}",
                    ty.label()
                ));
            }
        }
        if kind != "bucket_closed" {
            decisions += 1;
        }
    }
    Ok(TrailSummary {
        events: events.len(),
        decisions,
    })
}

/// What a valid trail contained, for the CLI's one-line report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrailSummary {
    /// Total events in the document.
    pub events: usize,
    /// Events other than `bucket_closed` (the tuning decisions).
    pub decisions: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::json::parse;

    /// A document carrying the schema tag plus `rest` (top-level JSON
    /// members, comma-separated).
    fn tagged(rest: &str) -> Json {
        parse(&format!(r#"{{"schema": "smdb-trail/v2.1", {rest}}}"#)).expect("parses")
    }

    /// A tagged, capacity-4 trail holding `events` (JSON objects,
    /// comma-separated).
    fn events_doc(events: &str) -> Json {
        tagged(&format!(
            r#""capacity": 4, "dropped": 0, "events": [{events}]"#
        ))
    }

    fn valid_doc() -> String {
        r#"{
          "schema": "smdb-trail/v2.1",
          "capacity": 8,
          "dropped": 0,
          "events": [
            {"seq": 0, "event": "bucket_closed", "at": 1,
             "queries": 10, "busy_ms": 1.5, "utilization": 0.2, "morsels": 4},
            {"seq": 1, "event": "tuning_triggered", "at": 2, "trigger": "SlaViolation"},
            {"seq": 2, "event": "candidate_assessed", "at": 2, "feature": "indexing",
             "candidates": 3, "predicted_benefit_ms": 0.5, "accepted": true,
             "cache_hits": 1, "cache_misses": 2},
            {"seq": 3, "event": "ilp_order_chosen", "at": 2,
             "order": ["indexing", "compression"], "objective": 1.25,
             "dependence": [[0.0, 0.1], [0.2, 0.0]]},
            {"seq": 4, "event": "actions_queued", "at": 2, "actions": 4},
            {"seq": 5, "event": "slice_applied", "at": 3, "applied": 2, "remaining": 2},
            {"seq": 6, "event": "action_rolled_back", "at": 4, "restored": "baseline",
             "undo_actions": 2, "abandoned_actions": 2, "cause": "injected"}
          ]
        }"#
        .to_owned()
    }

    #[test]
    fn accepts_a_valid_trail() {
        let doc = parse(&valid_doc()).expect("parses");
        let summary = validate_trail(&doc).expect("valid");
        assert_eq!(
            summary,
            TrailSummary {
                events: 7,
                decisions: 6,
            }
        );
    }

    #[test]
    fn accepts_shard_attribution_and_durability_events() {
        let doc = parse(
            r#"{
              "schema": "smdb-trail/v2.1",
              "capacity": 8,
              "dropped": 0,
              "events": [
                {"seq": 0, "event": "snapshot_taken", "at": 4,
                 "bucket": 4, "wal_records": 9, "bytes": 2048},
                {"seq": 1, "event": "recovered", "at": 7,
                 "bucket": 7, "replayed_records": 3, "dropped_records": 1},
                {"seq": 2, "event": "tuning_triggered", "at": 8,
                 "trigger": "SlaViolation", "shard": 0},
                {"seq": 3, "event": "budget_rebalanced", "at": 9,
                 "budget_bytes": 524288, "used_bytes": 131072,
                 "shares": [262144, 262144]}
              ]
            }"#,
        )
        .expect("parses");
        let summary = validate_trail(&doc).expect("valid");
        assert_eq!(
            summary,
            TrailSummary {
                events: 4,
                decisions: 4,
            }
        );
    }

    #[test]
    fn rejects_every_other_schema_tag_and_bad_shards() {
        for tag in ["smdb-trail/v1", "smdb-trail/v2", "smdb-trail/v3"] {
            let doc = parse(&format!(
                r#"{{"schema": "{tag}", "capacity": 4, "dropped": 0, "events": []}}"#
            ))
            .unwrap();
            let err = validate_trail(&doc).unwrap_err();
            assert!(err.contains("unknown schema"), "{tag}: {err}");
        }
        let untagged = parse(r#"{"capacity": 4, "dropped": 0, "events": []}"#).unwrap();
        let err = validate_trail(&untagged).unwrap_err();
        assert!(err.contains("missing `schema`"), "{err}");

        let err = validate_trail(&events_doc(
            r#"{"seq": 0, "event": "actions_queued", "at": 1, "actions": 1, "shard": -1}"#,
        ))
        .unwrap_err();
        assert!(
            err.contains("`shard` must be a non-negative integer"),
            "{err}"
        );
    }

    #[test]
    fn rejects_unknown_kind_and_missing_fields() {
        let doc = events_doc(r#"{"seq": 0, "event": "coffee_break", "at": 1}"#);
        let err = validate_trail(&doc).unwrap_err();
        assert!(err.contains("unknown kind `coffee_break`"), "{err}");

        let doc = events_doc(r#"{"seq": 0, "event": "tuning_triggered", "at": 1}"#);
        let err = validate_trail(&doc).unwrap_err();
        assert!(err.contains("missing field `trigger`"), "{err}");
    }

    #[test]
    fn rejects_wrong_field_types() {
        let doc = events_doc(r#"{"seq": 0, "event": "slice_deferred", "at": 1, "deferred": -2}"#);
        let err = validate_trail(&doc).unwrap_err();
        assert!(
            err.contains("`deferred` must be a non-negative integer"),
            "{err}"
        );

        let doc = events_doc(
            r#"{"seq": 0, "event": "ilp_order_chosen", "at": 1,
               "order": [1, 2], "objective": 0.0, "dependence": []}"#,
        );
        let err = validate_trail(&doc).unwrap_err();
        assert!(err.contains("`order` must be an array of strings"), "{err}");
    }

    #[test]
    fn rejects_non_increasing_seq() {
        let doc = events_doc(
            r#"{"seq": 3, "event": "actions_queued", "at": 1, "actions": 1},
               {"seq": 3, "event": "actions_queued", "at": 2, "actions": 1}"#,
        );
        let err = validate_trail(&doc).unwrap_err();
        assert!(err.contains("seq 3 not strictly after 3"), "{err}");
    }

    #[test]
    fn rejects_structural_problems() {
        let err = validate_trail(&tagged(r#""dropped": 0, "events": []"#)).unwrap_err();
        assert!(err.contains("capacity"), "{err}");
        let err = validate_trail(&tagged(r#""capacity": 4, "dropped": 0"#)).unwrap_err();
        assert!(err.contains("events"), "{err}");
        let err = validate_trail(&tagged(
            r#""capacity": 1, "dropped": 0, "events": [
                 {"seq": 0, "event": "actions_queued", "at": 1, "actions": 1},
                 {"seq": 1, "event": "actions_queued", "at": 2, "actions": 1}]"#,
        ))
        .unwrap_err();
        assert!(err.contains("exceed the declared capacity"), "{err}");
    }

    #[test]
    fn every_recorder_kind_is_known() {
        // The list the recorder documents (DESIGN.md §10), plus the
        // retired `actions_applied` — drift in either direction should be
        // a conscious change to both.
        let kinds = [
            "bucket_closed",
            "tuning_triggered",
            "candidate_assessed",
            "ilp_order_chosen",
            "actions_queued",
            "actions_applied",
            "slice_applied",
            "slice_deferred",
            "instance_stored",
            "action_rolled_back",
            "budget_rebalanced",
            "snapshot_taken",
            "recovered",
        ];
        assert_eq!(EVENT_KINDS.len(), kinds.len());
        for k in kinds {
            assert!(EVENT_KINDS.iter().any(|(id, _)| *id == k), "{k}");
        }
    }
}
