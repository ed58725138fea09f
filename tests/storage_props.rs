//! Property-based tests for the storage substrate: encoding round-trips,
//! filter agreement across encodings, kernels and indexes, configuration
//! diff/apply round-trips, and engine scan consistency.

use proptest::prelude::*;

use smdb::common::{ChunkColumnRef, ColumnId};
use smdb::storage::encoding::{EncodingKind, Segment};
use smdb::storage::index::{ChunkIndex, IndexKind};
use smdb::storage::kernels;
use smdb::storage::value::ColumnValues;
use smdb::storage::{ConfigAction, ConfigInstance, PredicateOp, ScanPredicate, Tier, Value};

fn int_column() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-50i64..50, 0..200)
}

/// A zero-padded key that sorts as its number does.
fn key(x: i64) -> String {
    format!("k{:03}", x + 100)
}

/// The same numbers as an Int column and as a Text column of keys.
fn columns(data: &[i64]) -> [ColumnValues; 2] {
    [
        ColumnValues::Int(data.to_vec()),
        ColumnValues::Text(data.iter().map(|&x| key(x)).collect()),
    ]
}

/// The data, and two literal numbers `a < b` with a fraction to add to
/// their Float forms.
fn shapes() -> impl Strategy<Value = (Vec<i64>, i64, i64, f64)> {
    (
        proptest::collection::vec(-20i64..20, 0..120),
        -25i64..25,
        1i64..8,
        0usize..2,
    )
        .prop_map(|(data, a, gap, frac)| (data, a, a + gap, frac as f64 * 0.5))
}

/// Every predicate shape over `a < b`: each operator with an Int, a
/// Float and a Text literal, and each `Between` with no upper bound, an
/// ordered one and an inverted one.
fn predicates(a: i64, b: i64, frac: f64) -> Vec<ScanPredicate> {
    use PredicateOp::*;
    let literals = |x: i64| {
        [
            Value::Int(x),
            Value::Float(x as f64 + frac),
            Value::Text(key(x)),
        ]
    };
    let mut out = Vec::new();
    for (lo, hi) in literals(a).into_iter().zip(literals(b)) {
        for op in [Eq, Lt, Le, Gt, Ge, Between] {
            out.push(ScanPredicate {
                column: ColumnId(0),
                op,
                value: lo.clone(),
                upper: None,
            });
        }
        out.push(ScanPredicate::between(ColumnId(0), lo.clone(), hi.clone()));
        out.push(ScanPredicate::between(ColumnId(0), hi, lo));
    }
    out
}

/// The rows `matches` admits, by brute force.
fn oracle(col: &ColumnValues, pred: &ScanPredicate) -> Vec<u32> {
    (0..col.len() as u32)
        .filter(|&i| pred.matches(&col.value_at(i as usize)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encodings_roundtrip(data in int_column()) {
        let col = ColumnValues::Int(data);
        for kind in EncodingKind::ALL {
            let seg = Segment::encode(&col, kind);
            prop_assert_eq!(seg.decode(), col.clone(), "roundtrip {}", kind);
            prop_assert_eq!(seg.len(), col.len());
        }
    }

    #[test]
    fn filters_agree_across_encodings((data, a, b, frac) in shapes()) {
        for col in columns(&data) {
            for pred in predicates(a, b, frac) {
                let expect = oracle(&col, &pred);
                for kind in EncodingKind::ALL {
                    let seg = Segment::encode(&col, kind);
                    let mut scalar = Vec::new();
                    seg.filter(&pred, &mut scalar);
                    prop_assert_eq!(&scalar, &expect, "encoding {} disagrees on {:?}", kind, pred);
                    let mut kernel = Vec::new();
                    if kernels::filter(&seg, &pred, &mut kernel) {
                        prop_assert_eq!(&kernel, &expect, "{} kernel disagrees on {:?}", kind, pred);
                    }
                }
            }
        }
    }

    #[test]
    fn indexes_agree_with_scans((data, a, b, frac) in shapes()) {
        for col in columns(&data) {
            for kind in EncodingKind::ALL {
                let seg = Segment::encode(&col, kind);
                for index in IndexKind::ALL {
                    let idx = ChunkIndex::build(index, &seg);
                    for pred in predicates(a, b, frac) {
                        let mut probed = Vec::new();
                        prop_assert_eq!(idx.probe(&pred, &mut probed), index.supports(pred.op));
                        probed.sort_unstable();
                        if index.supports(pred.op) {
                            prop_assert_eq!(&probed, &oracle(&col, &pred), "index {} on {} disagrees on {:?}", index, kind, pred);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn memory_bytes_positive_and_ordered(data in proptest::collection::vec(0i64..8, 1..300)) {
        // Low-cardinality data: dictionary must not exceed raw.
        let col = ColumnValues::Int(data);
        let raw = Segment::encode(&col, EncodingKind::Unencoded).memory_bytes();
        let dict = Segment::encode(&col, EncodingKind::Dictionary).memory_bytes();
        prop_assert!(raw > 0);
        prop_assert!(dict <= raw + 64, "dict {dict} vs raw {raw}");
    }
}

/// Strategy for small random configurations.
fn config() -> impl Strategy<Value = ConfigInstance> {
    (
        proptest::collection::vec((0u32..2, 0u16..3, 0u32..4, 0usize..2), 0..6),
        proptest::collection::vec((0u32..2, 0u16..3, 0u32..4, 0usize..3), 0..6),
        proptest::collection::vec((0u32..2, 0u32..4, 0usize..2), 0..4),
        0.0f64..512.0,
    )
        .prop_map(|(indexes, encodings, placements, buffer)| {
            let mut c = ConfigInstance::default();
            for (t, col, k, kind) in indexes {
                c.indexes.insert(
                    ChunkColumnRef::new(t, col, k),
                    [IndexKind::Hash, IndexKind::BTree][kind],
                );
            }
            for (t, col, k, enc) in encodings {
                c.encodings.insert(
                    ChunkColumnRef::new(t, col, k),
                    [
                        EncodingKind::Dictionary,
                        EncodingKind::RunLength,
                        EncodingKind::FrameOfReference,
                    ][enc],
                );
            }
            for (t, k, tier) in placements {
                c.placements.insert(
                    (smdb::common::TableId(t), smdb::common::ChunkId(k)),
                    [Tier::Warm, Tier::Cold][tier],
                );
            }
            c.knobs.buffer_pool_mb = buffer;
            c
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn diff_apply_roundtrips(from in config(), to in config()) {
        let actions = from.diff(&to);
        let mut replayed = from.clone();
        for a in &actions {
            replayed.apply(a);
        }
        prop_assert_eq!(&replayed, &to);
        // Diff to self is empty; diff is minimal in the sense that no
        // action list shorter than 0 reaches an unequal config.
        prop_assert!(to.diff(&to).is_empty());
        // Fingerprints agree iff configs agree.
        prop_assert_eq!(from == to, from.fingerprint() == to.fingerprint());
    }

    #[test]
    fn diff_never_contains_noop_actions(from in config(), to in config()) {
        let mut state = from.clone();
        for a in from.diff(&to) {
            let before = state.fingerprint();
            state.apply(&a);
            // Every action must change the configuration (minimality).
            let changed = state.fingerprint() != before
                || matches!(a, ConfigAction::CreateIndex { .. }); // kind replacement keeps key
            prop_assert!(changed, "no-op action {a} in diff");
        }
    }
}
