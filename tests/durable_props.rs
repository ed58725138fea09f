//! One property for every durable layout: a value survives
//! `encode → decode` unchanged, and its bytes survive `decode → encode`
//! unchanged. Instantiated for each `Encode`/`Decode` type of the
//! storage, query, forecast and core layers; the containers underneath
//! are pinned byte for byte in `smdb_durable::codec`'s own tests and the
//! composed format in `smdb_core::durability`'s.

use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;

use smdb::common::{ChunkColumnRef, ColumnId, Cost, LogicalTime, TableId};
use smdb::core::kpi::KpiState;
use smdb::core::{FeatureKind, PendingReconfig, RollbackRecord, ServingState, StoredInstance};
use smdb::durable::{decode_all, encode_to_vec, Decode, Encode};
use smdb::forecast::{TemplateHistory, WorkloadHistoryState};
use smdb::query::{PlanCache, Query, SessionStats};
use smdb::storage::{
    Aggregate, AggregateOp as A, ConfigAction, ConfigInstance, EncodingKind, IndexKind, KnobKind,
    PredicateOp as P, ScanPredicate, Tier, Value,
};

fn roundtrips<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: &T) {
    let bytes = encode_to_vec(value);
    let back: T = decode_all(&bytes).expect("a value just encoded decodes");
    assert_eq!(&back, value);
    assert_eq!(encode_to_vec(&back), bytes);
}

fn cost() -> impl Strategy<Value = Cost> {
    (0.0f64..1e6).prop_map(Cost)
}

fn value() -> impl Strategy<Value = Value> {
    (0u8..3, -50i64..50).prop_map(|(tag, x)| match tag {
        0 => Value::Int(x),
        1 => Value::Float(x as f64 * 0.25),
        _ => Value::Text(format!("v{x}")),
    })
}

fn predicate() -> impl Strategy<Value = ScanPredicate> {
    let parts = (0u16..4, 0usize..6, value(), option::of(value()));
    parts.prop_map(|(column, op, value, upper)| ScanPredicate {
        column: ColumnId(column),
        op: [P::Eq, P::Lt, P::Le, P::Gt, P::Ge, P::Between][op],
        value,
        upper,
    })
}

fn query() -> impl Strategy<Value = Query> {
    let aggregate = (0usize..5, 0u16..4).prop_map(|(op, c)| {
        Aggregate::new([A::Count, A::Sum, A::Avg, A::Min, A::Max][op], ColumnId(c))
    });
    let parts = (
        0u32..3,
        vec(predicate(), 0..4),
        option::of(aggregate),
        option::of(0u16..4),
    );
    parts.prop_map(|(table, predicates, aggregate, group_by)| {
        let q = Query::new(TableId(table), "t", predicates, aggregate, "q");
        group_by.map_or(q.clone(), |c| q.with_group_by(ColumnId(c)))
    })
}

fn segment() -> impl Strategy<Value = ChunkColumnRef> {
    (0u32..3, 0u16..4, 0u32..5).prop_map(|(t, c, k)| ChunkColumnRef::new(t, c, k))
}

fn action() -> impl Strategy<Value = ConfigAction> {
    let parts = (
        0u8..5,
        segment(),
        0u16..6,
        0usize..4,
        0usize..3,
        1.0f64..512.0,
    );
    parts.prop_map(|(tag, target, kind, encoding, tier, value)| match tag {
        0 => {
            let kind = match kind {
                0 => IndexKind::Hash,
                1 => IndexKind::BTree,
                second => IndexKind::CompositeHash {
                    second: ColumnId(second),
                },
            };
            ConfigAction::CreateIndex { target, kind }
        }
        1 => ConfigAction::DropIndex { target },
        2 => {
            let kind = EncodingKind::ALL[encoding];
            ConfigAction::SetEncoding { target, kind }
        }
        3 => {
            let (table, chunk) = (target.table, target.chunk);
            let tier = [Tier::Hot, Tier::Warm, Tier::Cold][tier];
            ConfigAction::SetPlacement { table, chunk, tier }
        }
        _ => {
            let knob = KnobKind::BufferPoolMb;
            ConfigAction::SetKnob { knob, value }
        }
    })
}

/// Configurations as the engine holds them (no explicit defaults): the
/// default with a few actions applied.
fn config() -> impl Strategy<Value = ConfigInstance> {
    vec(action(), 0..8).prop_map(|actions| {
        let mut config = ConfigInstance::default();
        actions.iter().for_each(|a| config.apply(a));
        config
    })
}

fn kpi() -> impl Strategy<Value = KpiState> {
    let parts = (
        vec(vec(0.0f64..50.0, 0..4), 0..4),
        vec(0.0f64..1.0, 0..4),
        vec(0usize..1 << 30, 0..4),
        vec(0u64..=u64::MAX, 0..4),
        0u64..99,
    );
    parts.prop_map(
        |(closed, utilization, memory, bucket_queries, n)| KpiState {
            closed,
            utilization,
            memory,
            bucket_queries,
            queries_total: n,
            utilization_stale: n % 2 == 1,
        },
    )
}

/// Histories with empty templates (no bucket yet) and late ones (first
/// bucket well after the span's start).
fn history() -> impl Strategy<Value = WorkloadHistoryState> {
    let buckets = vec((0u64..40, 0.0f64..99.0), 0..4);
    let template = (query(), buckets, cost(), 0.0f64..1e4).prop_map(|(q, buckets, cost, total)| {
        let buckets = buckets.into_iter().collect();
        (
            q.fingerprint(),
            TemplateHistory {
                example: q,
                buckets,
                mean_cost: cost,
                total,
            },
        )
    });
    let parts = (
        vec(template, 0..3),
        vec((0u64..=u64::MAX, 0u64..999, cost()), 0..3),
        option::of((0u64..9, 9u64..40)),
    );
    parts.prop_map(|(templates, last_totals, span)| WorkloadHistoryState {
        templates,
        last_totals,
        span,
    })
}

fn instance() -> impl Strategy<Value = StoredInstance> {
    let costs = (vec(cost(), 3), option::of(cost()));
    let parts = (0usize..5, config(), vec(action(), 0..4), costs);
    parts.prop_map(|(feature, config, actions, (costs, observed_after))| {
        use FeatureKind::{BufferPool, Compression, Indexing, Placement};
        let features = [
            None,
            Some(Indexing),
            Some(Compression),
            Some(Placement),
            Some(BufferPool),
        ];
        StoredInstance {
            applied_at: LogicalTime(feature as u64 * 3),
            feature: features[feature],
            config,
            actions,
            predicted_cost: costs[0],
            reconfiguration_cost: costs[1],
            observed_before: costs[2],
            observed_after,
        }
    })
}

/// Serving states with and without a plan cache, a last tuning and a
/// pending reconfiguration.
fn state() -> impl Strategy<Value = ServingState> {
    let pending =
        (config(), vec(action(), 0..4), vec(cost(), 3)).prop_map(|(c, actions, costs)| {
            PendingReconfig {
                final_config: c,
                actions,
                predicted_cost: costs[0],
                observed_before: costs[1],
                accrued_cost: costs[2],
            }
        });
    let parts = (
        (0u64..99, 0u64..=u64::MAX, config(), kpi(), history()),
        vec((query(), cost()), 0..4),
        option::of(0u64..99),
        vec(action(), 0..3),
        option::of(pending),
        vec(0u64..1000, 5),
    );
    parts.prop_map(
        |(head, served, tuned, pending_actions, pending_reconfig, counters)| {
            let (bucket, digest, config, kpi, history) = head;
            let mut cache = PlanCache::default();
            for (i, (q, cost)) in served.iter().enumerate() {
                cache.record(q, *cost, LogicalTime(i as u64));
            }
            ServingState {
                bucket,
                stats: SessionStats {
                    queries: bucket * 7,
                    busy: Cost(bucket as f64 * 0.5),
                    result_digest: digest,
                    ..SessionStats::default()
                },
                clock: bucket,
                config: config.into(),
                kpi,
                history,
                plan_cache: cache.snapshot(),
                organizer_last_tuning: tuned.map(LogicalTime),
                organizer_paused: bucket % 2 == 1,
                last_bucket_cost: Cost(digest as f64),
                pending_actions,
                pending_reconfig,
                counters: counters.try_into().expect("five counters"),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_layout_roundtrips(s in state(), i in instance(), p in predicate()) {
        roundtrips(&p.value);
        roundtrips(&p);
        s.pending_actions.iter().for_each(roundtrips);
        roundtrips(&s.config);
        s.history.templates.iter().for_each(|(_, t)| roundtrips(&t.example));
        roundtrips(&s.history);
        roundtrips(&s.kpi);
        roundtrips(&s.stats);
        s.plan_cache.iter().for_each(roundtrips);
        s.pending_reconfig.iter().for_each(roundtrips);
        roundtrips(&s);
        roundtrips(&RollbackRecord {
            at: i.applied_at,
            abandoned_actions: i.actions.clone(),
            restored_config: i.config.clone(),
            cause: format!("cause {}", i.actions.len()),
        });
        roundtrips(&i);
    }

    /// An explicitly stored default means "absent": it is written as it
    /// is held and dropped on decode.
    #[test]
    fn explicit_defaults_decode_to_absent(c in config(), s in segment()) {
        let mut explicit = c.clone();
        explicit.encodings.insert(s, EncodingKind::Unencoded);
        explicit.placements.insert((s.table, s.chunk), Tier::Hot);
        let mut normal = c;
        normal.encodings.remove(&s);
        normal.placements.remove(&(s.table, s.chunk));
        let bytes = encode_to_vec(&explicit);
        prop_assert!(bytes.len() > encode_to_vec(&normal).len());
        prop_assert_eq!(decode_all::<ConfigInstance>(&bytes).expect("decodes"), normal);
    }
}
