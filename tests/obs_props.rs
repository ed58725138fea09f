//! Property-based tests for the observability primitives: histogram
//! merge algebra and quantile error bounds, flight-recorder ring
//! behaviour, and counter totals under concurrent increments.

use std::sync::Arc;

use proptest::prelude::*;

use smdb::common::Cost;
use smdb::core::KpiCollector;
use smdb::obs::metrics::{counter, Histogram};
use smdb::obs::{FlightRecorder, TrailEvent};

fn hist_of(samples: &[f64]) -> Histogram {
    let mut h = Histogram::default();
    for &s in samples {
        h.record(s);
    }
    h
}

/// The exact `ceil(n·p)`-th smallest sample — the rank rule both the
/// histogram and the KPI snapshot's p95/p99 use.
fn exact_quantile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.001f64..1.0e6, 1..160)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Index-wise count addition makes merge exactly associative and
    /// commutative — per-thread histograms can be combined in any order.
    #[test]
    fn histogram_merge_is_associative_and_commutative(
        a in samples(), b in samples(), c in samples(),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut ab_c = ha.clone();
        ab_c.merge(&hb);
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "associative");
        let mut ba = hb.clone();
        ba.merge(&ha);
        let mut ab = ha.clone();
        ab.merge(&hb);
        prop_assert_eq!(&ab, &ba, "commutative");
        prop_assert_eq!(ab_c.total(), (a.len() + b.len() + c.len()) as u64);
    }

    /// Every quantile is an upper bound on the exact ranked sample and
    /// overshoots by at most the containing bucket's width.
    #[test]
    fn histogram_quantiles_stay_within_one_bucket(
        s in samples(), p in 0.01f64..1.0,
    ) {
        let h = hist_of(&s);
        let q = h.quantile(p).expect("non-empty");
        let exact = exact_quantile(&s, p);
        prop_assert!(q >= exact, "quantile {q} below exact {exact}");
        prop_assert!(
            q - exact <= Histogram::bucket_width(exact),
            "quantile {q} more than one bucket above exact {exact}"
        );
    }

    /// On identical samples the histogram's p50/p95/p99 agree with the
    /// KPI snapshot's p95/p99 (and the exact p50 rank) to within one
    /// bucket width — the two views of latency never tell conflicting
    /// stories.
    #[test]
    fn histogram_agrees_with_kpi_collector_percentiles(s in samples()) {
        let h = hist_of(&s);
        let kpis = KpiCollector::new(Cost(1_000.0));
        for &v in &s {
            kpis.record_query(Cost(v));
        }
        let snap = kpis.snapshot();
        for (p, exact) in [
            (0.5, exact_quantile(&s, 0.5)),
            (0.95, snap.p95_response.ms()),
            (0.99, snap.p99_response.ms()),
        ] {
            prop_assert_eq!(exact.to_bits(), exact_quantile(&s, p).to_bits());
            let q = h.quantile(p).expect("non-empty");
            prop_assert!(
                q >= exact && q - exact <= Histogram::bucket_width(exact),
                "p{}: histogram {q} vs collector {exact}", (p * 100.0) as u32
            );
        }
    }

    /// The ring stays bounded, keeps exactly the most recent events, and
    /// its sequence numbers keep counting across evictions.
    #[test]
    fn flight_recorder_ring_is_bounded_and_recent(
        capacity in 1usize..48, pushes in 0u64..160,
    ) {
        let rec = FlightRecorder::new(capacity);
        for at in 0..pushes {
            rec.record(TrailEvent::ActionsQueued { at, actions: at as usize });
        }
        let events = rec.events();
        prop_assert_eq!(events.len(), (pushes as usize).min(capacity));
        prop_assert_eq!(rec.dropped(), pushes.saturating_sub(capacity as u64));
        // The retained suffix is exactly the last `len` events, in order.
        let first_kept = pushes - events.len() as u64;
        for (i, (seq, event)) in events.iter().enumerate() {
            let expected_at = first_kept + i as u64;
            prop_assert_eq!(*seq, expected_at, "seq counts across evictions");
            prop_assert_eq!(
                event,
                &TrailEvent::ActionsQueued {
                    at: expected_at,
                    actions: expected_at as usize,
                }
            );
        }
    }
}

#[test]
fn counter_totals_survive_concurrent_fan_out() {
    // A name no other test uses: the registry is process-global.
    let c = counter("test.obs_props.fan_out");
    let threads = 4u64;
    let per_thread = 1_000u64;
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            let c = Arc::clone(&c);
            scope.spawn(move |_| {
                for i in 0..per_thread {
                    if i % 2 == 0 {
                        c.inc();
                    } else {
                        c.add(2);
                    }
                }
            });
        }
    })
    .expect("no worker panicked");
    // Half the iterations add 1, half add 2.
    let expected = threads * (per_thread / 2) * 3;
    assert_eq!(counter("test.obs_props.fan_out").get(), expected);
}
