//! Criterion bench for E4: the ordering ILP reference vs the exact
//! permutation search production orders by.

#![allow(clippy::needless_range_loop)] // matrix fixtures use explicit indices

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rand::RngExt;
use smdb_common::seeded_rng;
use smdb_lp::audit::solve_reference;
use smdb_lp::ordering::OrderingProblem;

fn problem(n: usize, seed: u64) -> OrderingProblem {
    let mut rng = seeded_rng(seed);
    let mut d = vec![vec![1.0; n]; n];
    let mut w = vec![vec![1.0; n]; n];
    for a in 0..n {
        for b in (a + 1)..n {
            let v: f64 = 0.5 + rng.random::<f64>() * 1.5;
            d[a][b] = v;
            d[b][a] = 1.0 / v;
        }
    }
    for a in 0..n {
        for b in 0..n {
            if a != b {
                w[a][b] = 1.0 + rng.random::<f64>();
            }
        }
    }
    OrderingProblem::new(d, w).expect("square matrices")
}

fn bench_ordering(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_ordering");
    for n in [3usize, 4, 5] {
        let p = problem(n, n as u64);
        group.bench_with_input(BenchmarkId::new("ilp_reference", n), &p, |b, p| {
            b.iter(|| black_box(solve_reference(p).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("exhaustive", n), &p, |b, p| {
            b.iter(|| black_box(p.solve().unwrap()));
        });
    }
    // Model construction scales quadratically; measure it separately.
    for n in [4usize, 8] {
        let p = problem(n, n as u64);
        group.bench_with_input(BenchmarkId::new("build_model", n), &p, |b, p| {
            b.iter(|| black_box(p.build_model().expect("model builds")));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ordering);
criterion_main!(benches);
