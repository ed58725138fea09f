//! Property tests for the sharded multi-tenant engine.
//!
//! Two invariants the sharding PR rests on:
//!
//! 1. **Shard-count / thread-count invariance** — for random
//!    multi-tenant fixtures and Zipfian query streams, answers (match
//!    counts, float aggregate bits, group bits) and the result digest
//!    are identical across shard counts {1, 2, 3, 8} × scan-thread
//!    counts {1, 4}. Float addition is non-associative, so this holds
//!    only because shards own contiguous runs of whole chunks and the
//!    gather concatenates them in global chunk order.
//! 2. **Global budget compliance** — per-shard tuners proposing under
//!    arbiter-assigned shares can never drive the fleet's configured
//!    index bytes past the global budget, for random budgets, floors
//!    and busy patterns, across repeated tune/rebalance rounds.

use proptest::prelude::*;
use smdb_common::rng::seeded_rng;
use smdb_core::{ConstraintSet, Driver, FeatureKind};
use smdb_obs::FlightRecorder;
use smdb_query::result_hash;
use smdb_shard::{
    build_sharded, BudgetArbiter, MultiTenantConfig, ShardSpec, TenantQuery, TenantStream,
};
use smdb_storage::ScanPool;

use rand::RngExt;
use std::sync::Arc;

/// Answer bits that must be invariant across sharding and threading,
/// floats as raw bits.
type Fingerprint = (u64, Option<u64>, Option<Vec<(String, u64)>>);

fn fingerprint(out: &smdb_storage::ScanOutput) -> Fingerprint {
    (
        out.rows_matched,
        out.agg_value.map(f64::to_bits),
        out.groups.as_ref().map(|groups| {
            groups
                .iter()
                .map(|(k, v)| (format!("{k:?}"), v.to_bits()))
                .collect::<Vec<_>>()
        }),
    )
}

fn mt_config(
    seed: u64,
    tenants: usize,
    rows_per_tenant: usize,
    chunk_rows: usize,
) -> MultiTenantConfig {
    MultiTenantConfig {
        tenants,
        rows_per_tenant,
        chunk_rows,
        seed,
        ..MultiTenantConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn answers_and_digest_invariant_across_shards_and_threads(
        seed in 0u64..1_000_000,
        tenants in 20usize..50,
        rows_per_tenant in 5usize..16,
        chunk_rows in 40usize..160,
        queries in 30usize..60,
    ) {
        let cfg = mt_config(seed, tenants, rows_per_tenant, chunk_rows);
        let mut stream = TenantStream::new(&cfg);
        let plan: Vec<TenantQuery> = (0..queries).map(|_| stream.next_query()).collect();

        // Reference: one shard, inline scans.
        let reference = build_sharded(&cfg, &ShardSpec::range(1)).expect("builds");
        let mut want: Vec<Fingerprint> = Vec::with_capacity(plan.len());
        let mut want_digest = 0u64;
        for tq in &plan {
            let out = reference.run_query(&tq.query).expect("answers").output;
            want_digest = want_digest.wrapping_add(result_hash(&tq.query, &out));
            want.push(fingerprint(&out));
        }

        for shards in [1usize, 2, 3, 8] {
            for threads in [1usize, 4] {
                let spec = ShardSpec::range(shards);
                let db = build_sharded(&cfg, &spec).expect("builds");
                if threads > 1 {
                    for shard in db.shards() {
                        shard.set_scan_pool(Some(ScanPool::new(threads)), 1);
                    }
                }
                let mut digest = 0u64;
                for (tq, expected) in plan.iter().zip(&want) {
                    let out = db.run_query(&tq.query).expect("answers").output;
                    digest = digest.wrapping_add(result_hash(&tq.query, &out));
                    prop_assert_eq!(
                        &fingerprint(&out),
                        expected,
                        "{:?} x {} threads",
                        spec,
                        threads
                    );
                }
                prop_assert_eq!(
                    digest,
                    want_digest,
                    "digest differs for {:?} x {} threads",
                    spec,
                    threads
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn per_shard_tuning_never_exceeds_global_budget(
        seed in 0u64..1_000_000,
        shards in 2usize..5,
        budget_kib in 4u64..96,
        floor_kib in 0u64..16,
        rounds in 1usize..4,
    ) {
        let budget = budget_kib * 1024;
        let cfg = mt_config(seed, 60, 10, 100);
        let db = Arc::new(build_sharded(&cfg, &ShardSpec::range(shards)).expect("builds"));
        let drivers: Vec<Arc<Driver>> = db
            .shards()
            .iter()
            .map(|shard| {
                Arc::new(
                    Driver::builder(Arc::clone(shard))
                        .features(vec![FeatureKind::Indexing, FeatureKind::Compression])
                        .constraints(ConstraintSet {
                            index_memory_bytes: Some((budget / shards as u64) as i64),
                            ..ConstraintSet::none()
                        })
                        .build(),
                )
            })
            .collect();
        let arbiter = BudgetArbiter::new(budget, floor_kib * 1024);
        let recorder = FlightRecorder::new(64);
        let mut stream = TenantStream::new(&cfg);
        let mut rng = seeded_rng(seed ^ 0xB07);
        for round in 0..rounds {
            // Traffic fills every shard's plan cache with the signals
            // its local tuner proposes from.
            for _ in 0..150 {
                let tq = stream.next_query();
                db.run_query(&tq.query).expect("answers");
            }
            for driver in &drivers {
                driver.close_bucket();
                driver.force_tune().expect("tunes");
            }
            let busy: Vec<f64> = (0..shards).map(|_| rng.random_range(0u32..1000) as f64).collect();
            let outcome = arbiter.rebalance(round as u64, &drivers, &busy, &recorder);
            prop_assert!(
                outcome.within_budget,
                "round {}: configured {} exceeds budget {}",
                round,
                outcome.used_bytes,
                budget
            );
            prop_assert!(outcome.used_bytes <= budget);
            prop_assert_eq!(outcome.shares.len(), shards);
        }
        // After the last rebalance, one more tuning pass under the new
        // shares must still respect the global budget.
        for driver in &drivers {
            driver.close_bucket();
            driver.force_tune().expect("tunes");
        }
        let configured: u64 = drivers
            .iter()
            .map(|d| d.database().engine().memory_report().index_bytes as u64)
            .sum();
        prop_assert!(
            configured <= budget,
            "final configured {} exceeds budget {}",
            configured,
            budget
        );
    }
}
