//! Criterion bench for the delta-aware what-if cost cache: full
//! candidate assessment on an E5-sized instance (TPC-H-flavoured
//! catalog, 3-scenario forecast, 100+ index candidates), cold (the
//! pre-delta baseline re-costing every query per candidate) vs warm
//! (shared cache, delta-aware re-costing) vs kept (the assessor re-weighs
//! the prices its previous pass left).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use smdb_bench::setup::{
    build_engine, forecast_from_mixes, full_recompute_benefits, train_calibrated, DEFAULT_CHUNK,
    DEFAULT_ROWS, DEFAULT_SEED,
};
use smdb_core::enumerator::IndexEnumerator;
use smdb_core::{Assessor, Enumerator, WhatIfAssessor};
use smdb_cost::WhatIf;
use smdb_storage::ConfigInstance;
use smdb_workload::generators::{point_heavy_mix, scan_heavy_mix};
use smdb_workload::tpch::NUM_TEMPLATES;

fn bench_what_if_cache(c: &mut Criterion) {
    let (engine, templates) = build_engine(DEFAULT_ROWS, DEFAULT_CHUNK, DEFAULT_SEED);
    let model = train_calibrated(&engine, &templates, 240, DEFAULT_SEED ^ 5).unwrap();
    let forecast = forecast_from_mixes(
        &templates,
        &[
            (vec![1.0; NUM_TEMPLATES], 0.6, 400.0),
            (scan_heavy_mix(), 0.25, 400.0),
            (point_heavy_mix(), 0.15, 400.0),
        ],
        DEFAULT_SEED ^ 21,
    );
    let base = ConfigInstance::default();
    let candidates = IndexEnumerator::default()
        .enumerate(&engine, &base, &forecast)
        .unwrap();
    assert!(
        candidates.len() >= 100,
        "E5-sized instance expected, got {}",
        candidates.len()
    );

    let actions: Vec<_> = candidates.iter().map(|c| c.action.clone()).collect();
    let mut group = c.benchmark_group("what_if_cache");
    group.sample_size(10);
    group.bench_function("assess_cold_full_recompute", |b| {
        let estimator: std::sync::Arc<dyn smdb_cost::CostEstimator> = model.clone();
        b.iter(|| {
            black_box(
                full_recompute_benefits(&engine, &base, &forecast, &actions, estimator.clone())
                    .unwrap(),
            )
        })
    });
    group.bench_function("assess_cold_delta_uncached", |b| {
        let assessor = WhatIfAssessor::new(WhatIf::uncached(model.clone()), 0.9);
        b.iter(|| {
            black_box(
                assessor
                    .assess(&engine, &base, &forecast, &candidates)
                    .unwrap(),
            )
        })
    });
    group.bench_function("assess_warm_cached", |b| {
        let what_if = WhatIf::new(model.clone());
        // Warm the shared cache once; every iteration is a fresh assessor
        // (no kept prices) re-pricing against the populated cache.
        WhatIfAssessor::new(what_if.clone(), 0.9)
            .assess(&engine, &base, &forecast, &candidates)
            .unwrap();
        b.iter(|| {
            black_box(
                WhatIfAssessor::new(what_if.clone(), 0.9)
                    .assess(&engine, &base, &forecast, &candidates)
                    .unwrap(),
            )
        })
    });
    group.bench_function("assess_kept_prices", |b| {
        // Steady-state tuning loops re-assess the same candidates
        // against the same base: the assessor re-weighs its last prices.
        let assessor = WhatIfAssessor::new(WhatIf::new(model.clone()), 0.9);
        assessor
            .assess(&engine, &base, &forecast, &candidates)
            .unwrap();
        b.iter(|| {
            black_box(
                assessor
                    .assess(&engine, &base, &forecast, &candidates)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_what_if_cache);
criterion_main!(benches);
