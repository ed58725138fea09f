//! Property tests for the vectorized kernel layer.
//!
//! Three invariants the kernels PR rests on:
//!
//! 1. **Bitwise equivalence** — scalar and vectorized execution produce
//!    identical results (match counts, aggregate bits, group bits,
//!    simulated cost bits) for random data, predicates and aggregates,
//!    across every thread-count × morsel-size combination.
//! 2. **Dictionary code-domain translation** — the dictionary filter
//!    kernel, which lowers value predicates into the sorted code
//!    domain, agrees with the scalar dictionary filter position-for-
//!    position for every `PredicateOp`, including `Between` straddling
//!    dictionary boundaries and values absent from the dictionary.
//! 3. **Fit reproducibility** — the calibration fit is a deterministic
//!    function of its observation set: same seed, same weights, bit for
//!    bit.

use proptest::prelude::*;
use smdb_common::rng::seeded_rng;
use smdb_common::{ChunkColumnRef, ColumnId, Cost, TableId};
use smdb_cost::features::ConfigContext;
use smdb_cost::CalibratedCostModel;
use smdb_query::Query;
use smdb_storage::value::ColumnValues;
use smdb_storage::{
    Aggregate, AggregateOp, ColumnDef, ConfigAction, DataType, EncodingKind, PredicateOp, ScanPool,
    ScanPredicate, Schema, StorageEngine, Table,
};

use rand::RngExt;

const ROWS: usize = 4_096;
const CHUNK: usize = 512;

/// Random five-column table covering every encoding: unencoded int,
/// dictionary, frame-of-reference, run-length, and an unencoded float.
fn random_engine(seed: u64) -> (StorageEngine, TableId) {
    let mut rng = seeded_rng(seed);
    let schema = Schema::new(vec![
        ColumnDef::new("u", DataType::Int),
        ColumnDef::new("d", DataType::Int),
        ColumnDef::new("o", DataType::Int),
        ColumnDef::new("r", DataType::Int),
        ColumnDef::new("f", DataType::Float),
    ])
    .expect("schema builds");
    let mut run_value = 0i64;
    let columns = vec![
        ColumnValues::Int((0..ROWS).map(|_| rng.random_range(0i64..1000)).collect()),
        ColumnValues::Int((0..ROWS).map(|_| rng.random_range(0i64..40)).collect()),
        ColumnValues::Int(
            (0..ROWS)
                .map(|_| 100_000 + rng.random_range(0i64..256))
                .collect(),
        ),
        ColumnValues::Int(
            (0..ROWS)
                .map(|_| {
                    if rng.random_range(0u32..16) == 0 {
                        run_value += 1;
                    }
                    run_value
                })
                .collect(),
        ),
        ColumnValues::Float(
            (0..ROWS)
                .map(|_| rng.random_range(0i64..500) as f64)
                .collect(),
        ),
    ];
    let table = Table::from_columns("props", schema, columns, CHUNK).expect("table builds");
    let mut engine = StorageEngine::default();
    let t = engine.create_table(table).expect("create succeeds");
    for (col, kind) in [
        (1u16, EncodingKind::Dictionary),
        (2, EncodingKind::FrameOfReference),
        (3, EncodingKind::RunLength),
    ] {
        for chunk in 0..(ROWS / CHUNK) as u32 {
            engine
                .apply_action(&ConfigAction::SetEncoding {
                    target: ChunkColumnRef::new(t.0, col, chunk),
                    kind,
                })
                .expect("encoding applies");
        }
    }
    (engine, t)
}

fn predicate(col: u16, op: usize, a: i64, b: i64) -> ScanPredicate {
    let column = ColumnId(col);
    match op {
        0 => ScanPredicate::eq(column, a),
        1 => ScanPredicate::cmp(column, PredicateOp::Lt, a),
        2 => ScanPredicate::cmp(column, PredicateOp::Le, a),
        3 => ScanPredicate::cmp(column, PredicateOp::Gt, a),
        4 => ScanPredicate::cmp(column, PredicateOp::Ge, a),
        _ => ScanPredicate::between(column, a, b),
    }
}

/// Everything in a [`smdb_storage::ScanOutput`] that must be invariant
/// across execution strategies, floats as raw bits.
type Fingerprint = (u64, u64, Option<u64>, Option<Vec<(String, u64)>>, u64);

fn fingerprint(out: &smdb_storage::ScanOutput) -> Fingerprint {
    (
        out.rows_matched,
        out.rows_scanned,
        out.agg_value.map(f64::to_bits),
        out.groups.as_ref().map(|groups| {
            groups
                .iter()
                .map(|(k, v)| (format!("{k:?}"), v.to_bits()))
                .collect()
        }),
        out.sim_cost.ms().to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn scalar_and_vectorized_agree_across_all_configs(
        seed in 0u64..1_000_000,
        col in 0u16..4,
        op in 0usize..6,
        a in -50i64..100_300,
        b in -50i64..100_300,
        residual in 0usize..3,
        shape in 0usize..3,
    ) {
        let (mut engine, t) = random_engine(seed);
        let mut preds = vec![predicate(col, op, a, b)];
        match residual {
            1 => preds.push(ScanPredicate::cmp(ColumnId(4), PredicateOp::Lt, 250.0)),
            2 => preds.push(predicate((col + 1) % 4, (op + 3) % 6, a / 2, b / 2)),
            _ => {}
        }
        let agg = match shape {
            0 => None,
            _ => Some(Aggregate::new(AggregateOp::Sum, ColumnId(4))),
        };
        let group = (shape == 2).then_some(ColumnId(1));

        engine.set_kernels_enabled(false);
        let reference = fingerprint(
            &engine
                .scan_grouped(t, &preds, agg.as_ref(), group)
                .expect("scalar scan runs"),
        );

        engine.set_kernels_enabled(true);
        for threads in [1usize, 2, 4] {
            for morsel_chunks in [1usize, 16, 0] {
                let out = if threads == 1 {
                    engine.scan_grouped(t, &preds, agg.as_ref(), group)
                } else {
                    let pool = ScanPool::new(threads);
                    engine.scan_grouped_parallel(
                        t,
                        &preds,
                        agg.as_ref(),
                        group,
                        &pool,
                        morsel_chunks,
                    )
                }
                .expect("vectorized scan runs");
                prop_assert_eq!(
                    fingerprint(&out),
                    reference.clone(),
                    "kernels diverged from scalar at {} threads, {} chunks/morsel",
                    threads,
                    morsel_chunks
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dictionary_code_domain_translation_matches_scalar(
        op in 0usize..6,
        k in 0i64..100,
        delta in -1i64..2,
        k2 in 0i64..100,
        delta2 in -1i64..2,
    ) {
        // Dictionary over the multiples of ten 0..=990: `k * 10 + delta`
        // lands exactly on a dictionary boundary, one off it, below the
        // minimum, or above the maximum.
        let schema = Schema::new(vec![ColumnDef::new("d", DataType::Int)]).expect("schema");
        let table = Table::from_columns(
            "dict",
            schema,
            vec![ColumnValues::Int((0..1000i64).map(|i| (i % 100) * 10).collect())],
            250,
        )
        .expect("table builds");
        let mut engine = StorageEngine::default();
        let t = engine.create_table(table).expect("create succeeds");
        for chunk in 0..4 {
            engine
                .apply_action(&ConfigAction::SetEncoding {
                    target: ChunkColumnRef::new(t.0, 0, chunk),
                    kind: EncodingKind::Dictionary,
                })
                .expect("encoding applies");
        }
        let pred = predicate(0, op, k * 10 + delta, k2 * 10 + delta2);

        // Segment level: the kernel's code-domain filter emits exactly
        // the positions of the scalar per-value filter.
        let table = engine.table(t).expect("table exists");
        for (_, chunk) in table.chunks() {
            let seg = chunk.segment(ColumnId(0)).expect("segment exists");
            let mut scalar = Vec::new();
            seg.filter(&pred, &mut scalar);
            let mut kernel = Vec::new();
            prop_assert!(
                smdb_storage::kernels::filter(seg, &pred, &mut kernel),
                "dictionary segments must be fully covered"
            );
            prop_assert_eq!(&kernel, &scalar, "positions diverged for {:?}", &pred);
        }

        // Engine level: the same query end to end, kernels on vs off.
        engine.set_kernels_enabled(false);
        let scalar = engine
            .scan_grouped(t, std::slice::from_ref(&pred), None, None)
            .expect("scalar scan runs");
        engine.set_kernels_enabled(true);
        let kernel = engine
            .scan_grouped(t, std::slice::from_ref(&pred), None, None)
            .expect("kernel scan runs");
        prop_assert_eq!(fingerprint(&kernel), fingerprint(&scalar));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn calibration_fit_is_reproducible_under_fixed_seed(seed in 0u64..1_000_000) {
        // Two fresh models fed the identical seeded observation set must
        // fit identical weights, bit for bit — fit determinism is what
        // makes a gated calibration error reproducible at all.
        let fit = || -> Vec<u64> {
            let (engine, t) = random_engine(seed);
            let config = engine.current_config();
            let ctx = ConfigContext::new(&engine, &config);
            let model = CalibratedCostModel::new();
            let mut rng = seeded_rng(seed ^ 0xC0FFEE);
            for _ in 0..24 {
                let col: u16 = rng.random_range(0u16..4);
                let op: usize = rng.random_range(0usize..6);
                let a: i64 = rng.random_range(-50i64..100_300);
                let b: i64 = rng.random_range(-50i64..100_300);
                let q = Query::new(t, "props", vec![predicate(col, op, a, b)], None, "cal");
                let cost = Cost(rng.random_range(1i64..1000) as f64 * 0.01);
                model
                    .observe_with_ctx(&engine, &ctx, &q, &config, cost)
                    .expect("observation absorbs");
            }
            model.refit().expect("refit succeeds");
            model
                .weights()
                .expect("fit produced weights")
                .into_iter()
                .map(f64::to_bits)
                .collect()
        };
        prop_assert_eq!(fit(), fit());
    }
}
