//! The four workloads: sizes, fixtures' shapes and the seeded streams.
//!
//! Every stream is generated up front from `--seed` and then cycled; the
//! program under test sees only queries. Why each workload exists and
//! which layer it loads or bypasses is recorded in `README.md`.

use rand::rngs::StdRng;
use rand::RngExt;
use smdb_common::rng::{derive_seed, seeded_rng};
use smdb_common::{ColumnId, TableId};
use smdb_query::Query;
use smdb_runtime::StreamConfig;
use smdb_shard::{MultiTenantConfig, TenantStream};
use smdb_storage::{Aggregate, AggregateOp, PredicateOp, ScanPredicate};

/// Columns of the `events` fixture (`smdb_runtime::events_database`).
const K: ColumnId = ColumnId(0);
const V: ColumnId = ColumnId(1);
const GRP: ColumnId = ColumnId(2);
const TS: ColumnId = ColumnId(3);
/// `v` cycles through `(i % 997) * 0.5`.
const V_MAX: f64 = 996.0 * 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    EventsMix,
    ScanAgg,
    TenantsZipf,
    ShiftDurable,
}

/// Shape of one workload: fixture size, bucket size, stream length and
/// how many buckets a traced (count-boxed) run serves per requested
/// second.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Chunks × rows per chunk of the events table (unused by
    /// `tenants_zipf`, whose shape is [`tenants_config`]).
    pub chunks: usize,
    pub chunk_rows: usize,
    /// Queries per KPI bucket.
    pub bucket_queries: usize,
    /// Buckets in the pre-generated stream (cycled).
    pub stream_buckets: usize,
    /// Buckets after which every kind of periodic management repeats; a
    /// measurement window spans whole cycles. 2 = the organizer's
    /// `min_interval`.
    pub cycle_buckets: usize,
    /// Kinds of cycle the stream alternates between, in order: 1 when
    /// its template mix is stationary. Windows are only compared within
    /// a class.
    pub cycle_classes: usize,
    /// Scan-pool threads wanted (capped at the host's cores); 1 = inline.
    pub scan_threads: usize,
    /// Traced run: cold / tuned buckets served per `--seconds`.
    pub traced_cold_per_s: f64,
    pub traced_tuned_per_s: f64,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::EventsMix,
        WorkloadKind::ScanAgg,
        WorkloadKind::TenantsZipf,
        WorkloadKind::ShiftDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::EventsMix => "events_mix",
            WorkloadKind::ScanAgg => "scan_agg",
            WorkloadKind::TenantsZipf => "tenants_zipf",
            WorkloadKind::ShiftDurable => "shift_durable",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn sizes(self) -> Sizes {
        match self {
            // 960 k rows, 30.7 MB raw: beyond L2, inside RAM.
            WorkloadKind::EventsMix => Sizes {
                chunks: 240,
                chunk_rows: 4_000,
                bucket_queries: 200,
                stream_buckets: 64,
                cycle_buckets: 2,
                cycle_classes: 1,
                scan_threads: 1,
                traced_cold_per_s: 0.6,
                traced_tuned_per_s: 2.4,
            },
            WorkloadKind::ScanAgg => Sizes {
                chunks: 240,
                chunk_rows: 4_000,
                bucket_queries: 150,
                stream_buckets: 32,
                cycle_buckets: 2,
                cycle_classes: 1,
                scan_threads: 2,
                traced_cold_per_s: 0.3,
                traced_tuned_per_s: 0.9,
            },
            // 1,200 tenants × 40 rows = 48 k rows: fits in cache.
            WorkloadKind::TenantsZipf => Sizes {
                chunks: 48,
                chunk_rows: 1_000,
                bucket_queries: 2_000,
                stream_buckets: 48,
                cycle_buckets: 2,
                cycle_classes: 1,
                scan_threads: 1,
                traced_cold_per_s: 2.0,
                traced_tuned_per_s: 6.0,
            },
            // 240 k rows.
            WorkloadKind::ShiftDurable => Sizes {
                chunks: 96,
                chunk_rows: 2_500,
                bucket_queries: 100,
                stream_buckets: 48,
                // One template phase = one snapshot interval = 4 tuning
                // intervals; the three templates take turns.
                cycle_buckets: SHIFT_PHASE_BUCKETS,
                cycle_classes: 3,
                scan_threads: 1,
                traced_cold_per_s: 1.0,
                traced_tuned_per_s: 3.0,
            },
        }
    }

    /// Raw user bytes of the fixture: four 8-byte columns per row.
    pub fn raw_bytes(self) -> usize {
        let s = self.sizes();
        s.chunks * s.chunk_rows * 4 * 8
    }
}

/// Buckets per template phase of `shift_durable`'s rotating mix.
pub const SHIFT_PHASE_BUCKETS: usize = 8;

/// The multi-tenant fixture and traffic of `tenants_zipf`.
pub fn tenants_config(seed: u64) -> MultiTenantConfig {
    MultiTenantConfig {
        tenants: 1_200,
        rows_per_tenant: 40,
        chunk_rows: 1_000,
        zipf_s: 1.1,
        scatter_per_mille: 30,
        seed,
    }
}

/// Generates the whole stream of `kind` for `seed`: `stream_buckets`
/// buckets of `bucket_queries` queries against `table`.
pub fn stream(kind: WorkloadKind, table: TableId, seed: u64) -> Vec<Vec<Query>> {
    let sizes = kind.sizes();
    let rows = (sizes.chunks * sizes.chunk_rows) as i64;
    match kind {
        WorkloadKind::EventsMix => smdb_runtime::generate(
            table,
            rows,
            &StreamConfig {
                seed,
                buckets: sizes.stream_buckets,
                heavy_queries: sizes.bucket_queries,
                light_queries: sizes.bucket_queries,
                heavy_len: 1,
                light_len: 0,
            },
        )
        .into_iter()
        .map(|b| b.queries)
        .collect(),
        WorkloadKind::ScanAgg => {
            let mut rng = seeded_rng(derive_seed(seed, 0x5CA9));
            buckets(&sizes, |_| scan_query(table, rows, &mut rng))
        }
        WorkloadKind::TenantsZipf => {
            let mut stream = TenantStream::new(&tenants_config(seed));
            buckets(&sizes, |_| stream.next_query().query)
        }
        WorkloadKind::ShiftDurable => {
            let mut rng = seeded_rng(derive_seed(seed, 0x5F17));
            buckets(&sizes, |bucket| {
                shift_query(table, (bucket / SHIFT_PHASE_BUCKETS) % 3, &mut rng)
            })
        }
    }
}

fn buckets(sizes: &Sizes, mut next: impl FnMut(usize) -> Query) -> Vec<Vec<Query>> {
    (0..sizes.stream_buckets)
        .map(|b| (0..sizes.bucket_queries).map(|_| next(b)).collect())
        .collect()
}

fn sum_v() -> Option<Aggregate> {
    Some(Aggregate::new(AggregateOp::Sum, V))
}

/// `scan_agg`: three shapes no index can serve. Literals are drawn from
/// small grids so the oracle holds ~150 distinct answers, not thousands
/// of multi-millisecond scans.
fn scan_query(table: TableId, rows: i64, rng: &mut StdRng) -> Query {
    match rng.random_range(0..3u32) {
        // A quarter of the table by the sorted `ts`: pruning keeps 60 of
        // 240 chunks, every kept row is decoded and summed.
        0 => {
            let lo = rng.random_range(0..48i64) * (rows / 64);
            Query::new(
                table,
                "events",
                vec![ScanPredicate::between(TS, lo, lo + rows / 4)],
                sum_v(),
                "scan_ts_quarter_sum_v",
            )
        }
        // A band of the unsorted float column: nothing prunes.
        1 => {
            let lo = f64::from(rng.random_range(0..64u32)) * (V_MAX / 80.0);
            Query::new(
                table,
                "events",
                vec![ScanPredicate::between(V, lo, lo + V_MAX / 5.0)],
                sum_v(),
                "scan_v_band_sum_v",
            )
        }
        // One of eight groups, grouped by the 100-value key.
        _ => Query::new(
            table,
            "events",
            vec![ScanPredicate::eq(GRP, rng.random_range(0..8i64))],
            sum_v(),
            "scan_grp_by_k",
        )
        .with_group_by(K),
    }
}

/// `shift_durable`: one template per phase, so each rotation invalidates
/// what the tuner built for the previous one.
fn shift_query(table: TableId, phase: usize, rng: &mut StdRng) -> Query {
    match phase {
        0 => Query::new(
            table,
            "events",
            vec![ScanPredicate::eq(K, rng.random_range(0..100i64))],
            sum_v(),
            "shift_point_k",
        ),
        1 => {
            let lo = f64::from(rng.random_range(0..900u32)) * 0.5;
            Query::new(
                table,
                "events",
                vec![ScanPredicate::between(V, lo, lo + 4.0)],
                sum_v(),
                "shift_filter_v",
            )
        }
        _ => Query::new(
            table,
            "events",
            vec![ScanPredicate::eq(GRP, rng.random_range(0..8i64))],
            sum_v(),
            "shift_group_grp",
        )
        .with_group_by(K),
    }
}

/// Shape class a query's latency is reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Point,
    Grouped,
    Range,
}

pub fn class_of(query: &Query) -> Class {
    if query.group_by().is_some() {
        Class::Grouped
    } else if query.predicates().iter().any(|p| p.op != PredicateOp::Eq) {
        Class::Range
    } else {
        Class::Point
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for kind in WorkloadKind::ALL {
            let a = stream(kind, TableId(0), 11);
            let b = stream(kind, TableId(0), 11);
            let c = stream(kind, TableId(0), 12);
            let sizes = kind.sizes();
            assert_eq!(a.len(), sizes.stream_buckets, "{}", kind.name());
            assert!(a.iter().all(|bucket| bucket.len() == sizes.bucket_queries));
            assert_eq!(
                a,
                b,
                "{}: same seed must give identical queries",
                kind.name()
            );
            assert_ne!(
                a,
                c,
                "{}: another seed must change the queries",
                kind.name()
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(WorkloadKind::parse("nope"), None);
    }

    #[test]
    fn shift_stream_rotates_one_template_per_phase() {
        let s = stream(WorkloadKind::ShiftDurable, TableId(0), 3);
        let label = |b: usize| s[b][0].label().to_string();
        assert!(s[0].iter().all(|q| q.label() == "shift_point_k"));
        assert_eq!(label(SHIFT_PHASE_BUCKETS), "shift_filter_v");
        assert_eq!(label(2 * SHIFT_PHASE_BUCKETS), "shift_group_grp");
        assert_eq!(label(3 * SHIFT_PHASE_BUCKETS), "shift_point_k");
        assert_eq!(
            s.len() % (3 * SHIFT_PHASE_BUCKETS),
            0,
            "cycling keeps the rotation"
        );
    }

    #[test]
    fn every_class_is_told_apart() {
        let s = stream(WorkloadKind::ShiftDurable, TableId(0), 3);
        assert_eq!(class_of(&s[0][0]), Class::Point);
        assert_eq!(class_of(&s[SHIFT_PHASE_BUCKETS][0]), Class::Range);
        assert_eq!(class_of(&s[2 * SHIFT_PHASE_BUCKETS][0]), Class::Grouped);
    }
}
