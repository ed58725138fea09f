//! Predicted vs executed access paths over the soak query stream.
//!
//! `StorageEngine::predict_access_paths` and the executor read the same
//! `smdb_storage::access_path` decision. This test replays the seeded
//! soak stream — the same generator the `soak` binary serves — and
//! asserts the predicted partition (pruned / index / kernel / scalar)
//! equals the executed one on *every* query, across several storage
//! configurations and with the kernel layer both on and off. The stream
//! never probes an unselective index and never has two composite
//! candidates, so two hand-built inputs cover those branches.

use smdb_common::{ChunkColumnRef, ColumnId};
use smdb_query::{Database, Query};
use smdb_runtime::{events_database, generate, StreamConfig};
use smdb_storage::value::ColumnValues;
use smdb_storage::{
    Aggregate, ColumnDef, ConfigAction, DataType, EncodingKind, IndexKind, PredictedPaths,
    ScanOutput, ScanPredicate, Schema, StorageEngine, Table,
};

/// Runs `q`, asserting the predicted partition equals the executed one.
fn run_checked(db: &Database, q: &Query, context: &str) -> (PredictedPaths, ScanOutput) {
    let predicted = db
        .engine()
        .predict_access_paths(q.table(), q.predicates())
        .expect("prediction runs");
    let out = db.run_query(q).expect("query runs").output;
    assert_eq!(
        (
            predicted.pruned,
            predicted.index,
            predicted.kernel,
            predicted.scalar
        ),
        (
            out.chunks_pruned,
            out.index_probes,
            out.chunks_kernel,
            out.chunks_scalar,
        ),
        "{context}, query {q:?}: predicted != executed (pruned, index, kernel, scalar)"
    );
    (predicted, out)
}

#[test]
fn predicted_paths_match_executed_on_every_soak_query() {
    let (db, table) = events_database(24, 1_000).expect("fixture builds");
    let plan = generate(
        table,
        24_000,
        &StreamConfig {
            seed: 42,
            buckets: 12,
            ..StreamConfig::default()
        },
    );

    // Reconfigurations applied between buckets, shifting chunks across
    // the index / kernel / scalar buckets mid-stream the way the online
    // tuner does: hash indexes on part of `k`, dictionary and run-length
    // encodings elsewhere, and finally the kernel layer switched off.
    let reconfigure = |bucket: usize| -> Vec<ConfigAction> {
        match bucket {
            3 => (0..8)
                .map(|c| ConfigAction::CreateIndex {
                    target: ChunkColumnRef::new(table.0, 0, c),
                    kind: IndexKind::Hash,
                })
                .collect(),
            6 => (8..16)
                .map(|c| ConfigAction::SetEncoding {
                    target: ChunkColumnRef::new(table.0, 0, c),
                    kind: EncodingKind::Dictionary,
                })
                .chain((0..8).map(|c| ConfigAction::SetEncoding {
                    target: ChunkColumnRef::new(table.0, 2, c),
                    kind: EncodingKind::RunLength,
                }))
                .collect(),
            _ => Vec::new(),
        }
    };

    let mut checked = 0usize;
    for (bi, bucket) in plan.iter().enumerate() {
        let actions = reconfigure(bi);
        if !actions.is_empty() {
            db.apply_config(&actions).expect("reconfiguration applies");
        }
        if bi == 9 {
            db.engine_mut().set_kernels_enabled(false);
        }
        for q in &bucket.queries {
            run_checked(&db, q, &format!("bucket {bi}"));
            checked += 1;
        }
    }
    assert!(checked > 100, "stream produced only {checked} queries");

    // The cumulative partition in scan_stats is the sum of the per-query
    // partitions, and every visited chunk landed in exactly one bucket.
    let stats = db.scan_stats();
    assert_eq!(
        stats.chunks_index + stats.chunks_kernel + stats.chunks_scalar + stats.chunks_pruned,
        checked as u64 * 24,
        "every (query, chunk) pair must be classified exactly once"
    );
    assert!(stats.chunks_kernel > 0, "kernel path never taken");
    assert!(stats.chunks_scalar > 0, "scalar path never taken");
    assert!(stats.chunks_index > 0, "index path never taken");
    assert!(stats.chunks_pruned > 0, "pruning never happened");

    // Input the stream lacks, 1: the position-0 fallback probe. A B-tree
    // on `ts` under a BETWEEN covering 80 % of chunk 0 — no index passes
    // the selectivity rule, position 0 drives, and its index is probed
    // anyway (chunk 1 has no index and scans its 10 %).
    db.apply_config(&[ConfigAction::CreateIndex {
        target: ChunkColumnRef::new(table.0, 3, 0),
        kind: IndexKind::BTree,
    }])
    .expect("index builds");
    let preds = vec![
        ScanPredicate::between(ColumnId(3), 200i64, 1_099i64),
        ScanPredicate::eq(ColumnId(2), 3i64),
    ];
    let broad = Query::new(table, "events", preds, Some(Aggregate::count()), "broad");

    // Input the stream lacks, 2: two composite candidates. `a`·`b`
    // (1/2 · 1/3) fails the combined-selectivity rule, `b`·`c` (1/3 ·
    // 1/40) passes, so the pair search must go past the first candidate.
    let columns = ["a", "b", "c"].map(|name| ColumnDef::new(name, DataType::Int));
    let values = [2, 3, 40].map(|m| ColumnValues::Int((0..1_200).map(|i| i % m).collect()));
    let schema = Schema::new(columns.to_vec()).expect("schema builds");
    let low_card = Table::from_columns("low_card", schema, values.to_vec(), 1_200);
    let mut engine = StorageEngine::default();
    let t = engine
        .create_table(low_card.expect("table builds"))
        .expect("table registers");
    let low_db = Database::new(engine);
    let composite = |first: u16, second: u16| ConfigAction::CreateIndex {
        target: ChunkColumnRef::new(t.0, first, 0),
        kind: IndexKind::CompositeHash {
            second: ColumnId(second),
        },
    };
    low_db
        .apply_config(&[composite(0, 1), composite(1, 2)])
        .expect("composite indexes build");
    let preds = [(0, 1i64), (1, 1), (2, 7)].map(|(c, v)| ScanPredicate::eq(ColumnId(c), v));
    let three_eq = Query::new(t, "low_card", preds.to_vec(), None, "three_eq");

    for kernels in [true, false] {
        db.engine_mut().set_kernels_enabled(kernels);
        let (predicted, out) = run_checked(&db, &broad, &format!("kernels {kernels}"));
        assert_eq!((predicted.pruned, predicted.index), (22, 1));
        assert_eq!(out.rows_matched, 113);

        low_db.engine_mut().set_kernels_enabled(kernels);
        let (predicted, out) = run_checked(&low_db, &three_eq, &format!("kernels {kernels}"));
        assert_eq!(predicted.index, 1, "second composite candidate must probe");
        // i ≡ 1 (mod 2), 1 (mod 3), 7 (mod 40) ⇔ i ≡ 7 (mod 120).
        assert_eq!(out.rows_matched, 10);
    }
}
