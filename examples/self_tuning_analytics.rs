//! A self-tuning analytics database under a day/night workload.
//!
//! The workload alternates between a point-lookup-heavy "day" phase and
//! a scan-heavy "night" phase every 8 buckets. The organizer watches
//! forecasts and KPIs, decides *when* to tune, and the feedback loop
//! records whether each past decision actually helped.
//!
//! ```text
//! cargo run --release --example self_tuning_analytics
//! ```

use std::sync::Arc;

use smdb::core::driver::{Driver, OrderingPolicy};
use smdb::core::organizer::OrganizerConfig;
use smdb::core::{ConstraintSet, FeatureKind};
use smdb::cost::CalibratedCostModel;
use smdb::query::Database;
use smdb::storage::StorageEngine;
use smdb::workload::generators::{point_heavy_mix, scan_heavy_mix};
use smdb::workload::tpch::{build_catalog, TpchTemplates};
use smdb::workload::{MixSchedule, WorkloadGenerator};

fn main() {
    // TPC-H-flavoured catalog.
    let mut engine = StorageEngine::default();
    let catalog = build_catalog(&mut engine, 20_000, 2_000, 7).expect("catalog builds");
    let templates = TpchTemplates::new(catalog);
    let db = Database::new(engine);

    // Driver with a learned cost model, four features, LP ordering, and
    // an organizer that reacts to forecast shifts.
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
        .organizer(OrganizerConfig {
            cost_delta_threshold: 0.15,
            min_interval: 3,
        })
        .constraints(ConstraintSet {
            index_memory_bytes: Some(8 * 1024 * 1024),
            ..ConstraintSet::default()
        })
        .build();

    // Day/night workload: 8 point-heavy buckets then 8 scan-heavy ones.
    let generator = WorkloadGenerator::new(
        templates,
        MixSchedule::Seasonal {
            day: point_heavy_mix(),
            night: scan_heavy_mix(),
            period: 16,
        },
        42,
    );

    println!("bucket | cost (ms) | mean resp | tuned?");
    println!("-------+-----------+-----------+---------------------------");
    for bucket in 0..24u64 {
        let queries = generator.bucket_queries(bucket, 150);
        let report = driver.run_bucket(&queries).expect("bucket runs");
        let tuned = driver.maybe_tune().expect("organizer decides");
        println!(
            "{:>6} | {:>9.1} | {:>9.3} | {}",
            bucket,
            report.bucket_cost.ms(),
            driver.kpis().snapshot().mean_response.ms(),
            match &tuned {
                Some(run) => format!("TUNED ({:?}, {} actions)", run.trigger, run.applied_actions),
                None => "-".to_string(),
            }
        );
    }

    // The feedback loop: how did past decisions work out?
    println!("\nfeedback on applied configuration instances:");
    for fb in driver.config_storage().feedback() {
        println!(
            "  tuning at {}: observed mean-response improvement {:.3} ms",
            fb.applied_at,
            fb.observed_improvement.ms()
        );
    }
    let open = driver.config_storage().len() - driver.config_storage().feedback().len();
    if open > 0 {
        println!("  ({open} instance(s) still awaiting their after-measurement)");
    }
}
