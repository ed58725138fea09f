//! Grouped partials: every scan mode folds key-sorted per-chunk group
//! vectors, and its output must equal, bit for bit, a reference that
//! builds one `BTreeMap` per chunk from the raw rows and folds the maps
//! in chunk order — group keys and `f64` bits, `agg_value` bits,
//! `rows_matched` — with `sim_cost` bit-equal across every mode.
//!
//! The per-operator fold (SUM and AVG fold only `sum`, MIN only `min`,
//! MAX only `max`) is held to the same all-field reference for every
//! operator × value encoding × group-key segment, over empty, single and
//! full position sets and values at the edges of `f64` and `i64`.
//!
//! Covered: group keys in every encoding (unencoded `Int`, frame of
//! reference, dictionary `Int` and `Text`, run length, unencoded `Float`
//! with `-0.0`, `0.0` and NaN keys that `Value::cmp` keeps apart), keys
//! at `i64::MIN`/`i64::MAX`, chunk key spans on both sides of the
//! dense-slot cutoff, kernels on and off, and inline, morsel and
//! 1–4-shard scans.

use std::collections::BTreeMap;

use proptest::prelude::*;

use smdb::common::{ChunkColumnRef, ColumnId, TableId};
use smdb::storage::value::ColumnValues;
use smdb::storage::{
    Aggregate, AggregateOp, ColumnDef, ConfigAction, EncodingKind, PredicateOp, ScanOutput,
    ScanPool, ScanPredicate, Schema, StorageEngine, Table, Value,
};

const KEY: ColumnId = ColumnId(0);
const V: ColumnId = ColumnId(1);
const F: ColumnId = ColumnId(2);

const ENCODINGS: [EncodingKind; 4] = [
    EncodingKind::Unencoded,
    EncodingKind::Dictionary,
    EncodingKind::RunLength,
    EncodingKind::FrameOfReference,
];

/// Aggregation inputs whose sums depend on the order they are added in.
const VALUES: [f64; 8] = [1e16, 1.0, -1e16, 0.1, 3.3, -7.25, 2.5e-3, 1e-300];

/// The group-key column of one case.
fn keys(kind: u8, picks: &[u64]) -> ColumnValues {
    let pick = |i: usize, of: &[i64]| of[picks[i] as usize % of.len()];
    let n = picks.len();
    match kind {
        // Eight keys next to either end of the i64 range, or near zero.
        0 => {
            let base = [i64::MIN, -4, i64::MAX - 7][picks[0] as usize % 3];
            ColumnValues::Int((0..n).map(|i| base + (picks[i] % 8) as i64).collect())
        }
        // Spans of 255 and 256: one below and one at the cutoff.
        1 | 2 => {
            let top = 254 + i64::from(kind);
            ColumnValues::Int((0..n).map(|i| pick(i, &[-3, -3 + top, 100, 7])).collect())
        }
        // The extremes together: a span no signed subtraction holds.
        3 => {
            let of = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
            ColumnValues::Int((0..n).map(|i| pick(i, &of)).collect())
        }
        // Wide random keys.
        4 => ColumnValues::Int((0..n).map(|i| (picks[i] % 2001) as i64 - 1000).collect()),
        5 => {
            let of = [-0.0, 0.0, f64::NAN, -f64::NAN, 1.5, -2.5, f64::INFINITY];
            ColumnValues::Float((0..n).map(|i| of[picks[i] as usize % of.len()]).collect())
        }
        _ => {
            let of = ["", "a", "aa", "b", "zz"];
            let text = (0..n).map(|i| of[picks[i] as usize % of.len()].to_owned());
            ColumnValues::Text(text.collect())
        }
    }
}

/// One case's data: group keys, aggregation input, filter column.
fn columns(kind: u8, picks: &[u64]) -> Vec<ColumnValues> {
    let n = picks.len();
    vec![
        keys(kind, picks),
        ColumnValues::Float(
            (0..n)
                .map(|i| VALUES[(picks[i] >> 8) as usize % 8])
                .collect(),
        ),
        ColumnValues::Int((0..n).map(|i| (picks[i] >> 16) as i64 % 10).collect()),
    ]
}

/// A table over `rows` of `columns`, split into chunks of `chunk_rows`,
/// with the given per-global-chunk encodings of the key and value
/// columns (chunk `first` onwards).
fn engine(
    columns: &[ColumnValues],
    rows: std::ops::Range<usize>,
    chunk_rows: usize,
    first: usize,
    encodings: &[(usize, usize)],
) -> StorageEngine {
    let slice = |c: &ColumnValues| match c {
        ColumnValues::Int(v) => ColumnValues::Int(v[rows.clone()].to_vec()),
        ColumnValues::Float(v) => ColumnValues::Float(v[rows.clone()].to_vec()),
        ColumnValues::Text(v) => ColumnValues::Text(v[rows.clone()].to_vec()),
    };
    let data: Vec<ColumnValues> = columns.iter().map(slice).collect();
    let names = ["key", "v", "f"];
    let defs = names.iter().zip(&data);
    let schema = Schema::new(
        defs.map(|(n, c)| ColumnDef::new(*n, c.data_type()))
            .collect(),
    )
    .expect("valid schema");
    let table = Table::from_columns("t", schema, data, chunk_rows).expect("table builds");
    let mut e = StorageEngine::default();
    let t = e.create_table(table).expect("unique");
    let chunks = e.table(t).expect("exists").chunk_count();
    for chunk in 0..chunks {
        let (key_kind, v_kind) = encodings[first + chunk];
        for (col, kind) in [(KEY, key_kind), (V, v_kind)] {
            let target = ChunkColumnRef::new(t.0, col.0, chunk as u32);
            let kind = ENCODINGS[kind % 4];
            e.apply_action(&ConfigAction::SetEncoding { target, kind })
                .expect("encoding applies");
        }
    }
    e
}

/// The old map-based state and its all-field fold, over raw rows: every
/// numeric row folds sum, min and max, whatever the operator.
#[derive(Clone, Default)]
struct MapState {
    sum: f64,
    count: u64,
    min: Option<f64>,
    max: Option<f64>,
}

impl MapState {
    fn add(&mut self, op: AggregateOp, x: Option<f64>) {
        self.count += 1;
        if let Some(x) = x.filter(|_| op != AggregateOp::Count) {
            self.sum += x;
            self.min = Some(self.min.map_or(x, |m| m.min(x)));
            self.max = Some(self.max.map_or(x, |m| m.max(x)));
        }
    }

    fn merge(&mut self, other: &MapState) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, None) => a,
            (None, b) => b,
        };
    }

    fn finish(&self, op: AggregateOp, matched: u64) -> Option<f64> {
        match op {
            AggregateOp::Count => Some(matched as f64),
            AggregateOp::Sum => Some(self.sum),
            AggregateOp::Avg => (self.count > 0).then(|| self.sum / self.count as f64),
            AggregateOp::Min => self.min,
            AggregateOp::Max => self.max,
        }
    }
}

/// `(rows_matched, agg_value bits, groups as key and value bits)`.
type Answer = (u64, Option<u64>, Option<Vec<(Value, u64)>>);

/// The reference: one `BTreeMap` per chunk, folded in chunk order.
fn reference(
    columns: &[ColumnValues],
    chunk_rows: usize,
    predicates: &[ScanPredicate],
    op: AggregateOp,
    grouped: bool,
) -> Answer {
    let rows = columns[0].len();
    let (mut matched, mut total) = (0u64, MapState::default());
    let mut groups: BTreeMap<Value, MapState> = BTreeMap::new();
    for start in (0..rows).step_by(chunk_rows) {
        let (mut chunk_total, mut chunk_groups) = (MapState::default(), BTreeMap::new());
        for row in start..(start + chunk_rows).min(rows) {
            let value_at = |c: ColumnId| columns[c.0 as usize].value_at(row);
            if !predicates.iter().all(|p| p.matches(&value_at(p.column))) {
                continue;
            }
            matched += 1;
            let x = value_at(V).as_f64();
            chunk_total.add(op, x);
            let state: &mut MapState = chunk_groups.entry(value_at(KEY)).or_default();
            state.add(op, x);
        }
        total.merge(&chunk_total);
        for (key, state) in chunk_groups {
            groups.entry(key).or_default().merge(&state);
        }
    }
    if !grouped {
        return (matched, total.finish(op, matched).map(f64::to_bits), None);
    }
    let groups = groups
        .into_iter()
        .filter_map(|(k, st)| st.finish(op, st.count).map(|v| (k, v.to_bits())))
        .collect();
    (matched, None, Some(groups))
}

fn answer(out: &ScanOutput) -> Answer {
    let groups = out.groups.as_ref().map(|g| {
        let bits = g.iter().map(|(k, v)| (k.clone(), v.to_bits()));
        bits.collect()
    });
    (out.rows_matched, out.agg_value.map(f64::to_bits), groups)
}

fn predicate(kind: u8, a: i64, b: i64) -> Option<ScanPredicate> {
    match kind {
        0 => None,
        1 => Some(ScanPredicate::eq(F, a)),
        2 => Some(ScanPredicate::cmp(F, PredicateOp::Lt, a)),
        3 => Some(ScanPredicate::cmp(F, PredicateOp::Ge, a)),
        _ => Some(ScanPredicate::between(F, a.min(b), a.max(b))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_mode_folds_grouped_partials_like_the_map_reference(
        kind in 0u8..7,
        picks in proptest::collection::vec(0u64..u64::MAX, 1..400),
        chunk_rows in 1usize..60,
        encodings in proptest::collection::vec((0usize..4, 0usize..4), 400),
        (pred_kind, a, b) in (0u8..5, 0i64..10, 0i64..10),
        op in 0usize..5,
        grouped in 0u8..4,
    ) {
        let columns = columns(kind, &picks);
        let rows = picks.len();
        let predicates: Vec<ScanPredicate> = predicate(pred_kind, a, b).into_iter().collect();
        let op = [
            AggregateOp::Count,
            AggregateOp::Sum,
            AggregateOp::Avg,
            AggregateOp::Min,
            AggregateOp::Max,
        ][op];
        let agg = Aggregate::new(op, V);
        let group_by = (grouped > 0).then_some(KEY);
        let expected = reference(&columns, chunk_rows, &predicates, op, group_by.is_some());

        let mut e = engine(&columns, 0..rows, chunk_rows, 0, &encodings);
        let t = TableId(0);
        let inline = e.scan_grouped(t, &predicates, Some(&agg), group_by).expect("scans");
        prop_assert_eq!(answer(&inline), expected.clone(), "inline, kernels on");
        let cost = inline.sim_cost.ms().to_bits();
        let mut outputs = vec![("partials", {
            let parts = e.scan_partials(t, &predicates, Some(&agg), group_by, None).expect("scans");
            e.merge_scan_partials(parts, Some(&agg), group_by)
        })];
        for threads in [2, 4] {
            let pool = ScanPool::new(threads);
            for morsel_chunks in [1, 3] {
                let out = e
                    .scan_grouped_parallel(t, &predicates, Some(&agg), group_by, &pool, morsel_chunks)
                    .expect("scans");
                outputs.push(("morsels", out));
            }
        }
        e.set_kernels_enabled(false);
        outputs.push(("inline, kernels off", e.scan_grouped(t, &predicates, Some(&agg), group_by).expect("scans")));

        // Shards: contiguous runs of chunks on engines of their own, the
        // partials concatenated in global chunk order and folded once.
        let chunks = rows.div_ceil(chunk_rows);
        for shards in 1..=4usize.min(chunks) {
            let mut gathered = Vec::new();
            let mut first = None;
            for s in 0..shards {
                let (lo, hi) = (chunks * s / shards, chunks * (s + 1) / shards);
                let rows = lo * chunk_rows..(hi * chunk_rows).min(rows);
                let shard = engine(&columns, rows, chunk_rows, lo, &encodings);
                gathered.extend(shard.scan_partials(t, &predicates, Some(&agg), group_by, None).expect("scans"));
                first.get_or_insert(shard);
            }
            let merged = first.expect("one shard").merge_scan_partials(gathered, Some(&agg), group_by);
            outputs.push(("shards", merged));
        }
        for (mode, out) in &outputs {
            prop_assert_eq!(answer(out), expected.clone(), "{}", mode);
            prop_assert_eq!(out.sim_cost.ms().to_bits(), cost, "{} sim_cost", mode);
        }
    }
}

/// The group-key columns of the per-operator sweep: narrow Int keys (a
/// dense table spanned by the chunk statistics, whose extremes every
/// chunk holds), Int keys spanning the whole `i64` range, Float keys
/// that `Value::cmp` keeps apart, and Text keys.
fn sweep_keys(rows: usize) -> Vec<ColumnValues> {
    let narrow = [-3, 3, 0, 1, -1, 2];
    let wide = [i64::MIN, i64::MAX, -1, 0, 5, i64::MAX - 1];
    let floats = [-0.0, 0.0, f64::NAN, 1.5, f64::NEG_INFINITY];
    let text = ["", "b", "a", "zz"];
    vec![
        ColumnValues::Int((0..rows).map(|i| narrow[i % narrow.len()]).collect()),
        ColumnValues::Int((0..rows).map(|i| wide[i % wide.len()]).collect()),
        ColumnValues::Float((0..rows).map(|i| floats[i % floats.len()]).collect()),
        ColumnValues::Text((0..rows).map(|i| text[i % text.len()].to_owned()).collect()),
    ]
}

/// The aggregation inputs of the sweep: Int at the `i64` extremes, Float
/// with NaN, `-0.0`, ±inf and order-dependent sums, and Text, which
/// reads as no number at all.
fn sweep_values(rows: usize) -> Vec<ColumnValues> {
    let ints = [i64::MIN, 7, i64::MAX, -1, 0, i64::MAX - 1, 3];
    let floats = [
        1e16,
        f64::NAN,
        -0.0,
        f64::INFINITY,
        1.0,
        -1e16,
        f64::NEG_INFINITY,
        0.1,
    ];
    let floats_finite = [-0.0, 2.5, -7.25, 1e300, 1e-300, -1e300];
    vec![
        ColumnValues::Int((0..rows).map(|i| ints[i % ints.len()]).collect()),
        ColumnValues::Float((0..rows).map(|i| floats[i % floats.len()]).collect()),
        ColumnValues::Float(
            (0..rows)
                .map(|i| floats_finite[i % floats_finite.len()])
                .collect(),
        ),
        ColumnValues::Text((0..rows).map(|i| format!("t{}", i % 3)).collect()),
    ]
}

/// Every operator × value encoding × group-key segment, grouped and not,
/// over empty, single and full position sets: the per-operator fold
/// equals the all-field reference bit for bit inline with kernels on and
/// off, morsel-parallel on two scan threads, and gathered from four
/// shards.
#[test]
fn every_operator_folds_only_its_field_like_the_all_field_reference() {
    const ROWS: usize = 48;
    const CHUNK_ROWS: usize = 12;
    let chunks = ROWS / CHUNK_ROWS;
    let ops = [
        AggregateOp::Count,
        AggregateOp::Sum,
        AggregateOp::Avg,
        AggregateOp::Min,
        AggregateOp::Max,
    ];
    // Empty, single and full position sets.
    let position_sets: [Vec<ScanPredicate>; 3] = [
        vec![ScanPredicate::cmp(F, PredicateOp::Lt, 0i64)],
        vec![ScanPredicate::eq(F, 17i64)],
        vec![],
    ];
    let pool = ScanPool::new(2);
    let t = TableId(0);
    let mut compared = 0usize;
    for keys in sweep_keys(ROWS) {
        for values in sweep_values(ROWS) {
            let row_ids = ColumnValues::Int((0..ROWS as i64).collect());
            let columns = vec![keys.clone(), values, row_ids];
            for key_kind in 0..4 {
                for value_kind in 0..4 {
                    let encodings = vec![(key_kind, value_kind); chunks];
                    let mut e = engine(&columns, 0..ROWS, CHUNK_ROWS, 0, &encodings);
                    let shards: Vec<StorageEngine> = (0..chunks)
                        .map(|s| {
                            let rows = s * CHUNK_ROWS..(s + 1) * CHUNK_ROWS;
                            engine(&columns, rows, CHUNK_ROWS, s, &encodings)
                        })
                        .collect();
                    for predicates in &position_sets {
                        for op in ops {
                            for group_by in [None, Some(KEY)] {
                                let agg = Aggregate::new(op, V);
                                let what = format!(
                                    "{:?} keys {key_kind}, {:?} values {value_kind}, {op:?} {group_by:?} {predicates:?}",
                                    keys.data_type(),
                                    columns[1].data_type(),
                                );
                                let expected = reference(
                                    &columns,
                                    CHUNK_ROWS,
                                    predicates,
                                    op,
                                    group_by.is_some(),
                                );
                                let scan = |e: &StorageEngine| {
                                    e.scan_grouped(t, predicates, Some(&agg), group_by)
                                        .expect("scans")
                                };
                                e.set_kernels_enabled(true);
                                let kernels = scan(&e);
                                let parallel = e
                                    .scan_grouped_parallel(
                                        t,
                                        predicates,
                                        Some(&agg),
                                        group_by,
                                        &pool,
                                        1,
                                    )
                                    .expect("scans");
                                e.set_kernels_enabled(false);
                                let scalar = scan(&e);
                                let mut gathered = Vec::new();
                                for shard in &shards {
                                    gathered.extend(
                                        shard
                                            .scan_partials(
                                                t,
                                                predicates,
                                                Some(&agg),
                                                group_by,
                                                None,
                                            )
                                            .expect("scans"),
                                    );
                                }
                                let sharded =
                                    shards[0].merge_scan_partials(gathered, Some(&agg), group_by);
                                let cost = kernels.sim_cost.ms().to_bits();
                                for (mode, out) in [
                                    ("kernels", &kernels),
                                    ("two scan threads", &parallel),
                                    ("scalar", &scalar),
                                    ("four shards", &sharded),
                                ] {
                                    assert_eq!(answer(out), expected, "{mode}: {what}");
                                    assert_eq!(
                                        out.sim_cost.ms().to_bits(),
                                        cost,
                                        "{mode} sim_cost: {what}"
                                    );
                                    compared += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(compared, 4 * 4 * 4 * 4 * 3 * 5 * 2 * 4);
}
