//! Property-based tests for the Section III-B ordering problem: for
//! arbitrary dependence/impact matrices the exact permutation search and
//! the paper's ILP reach the same optimum, the search breaks ties towards
//! the lexicographically smallest order, and the model has the paper's
//! exact variable/constraint counts.

#![allow(clippy::needless_range_loop)] // matrix fixtures use explicit indices

use proptest::prelude::*;

use smdb::lp::audit::solve_reference;
use smdb::lp::ordering::{OrderingProblem, TIE_TOLERANCE};

/// Strategy: reciprocal dependence matrix (d_{B,A} = 1/d_{A,B}) with
/// ratios in [0.25, 4] and impacts in [0.5, 8].
fn matrices(n: usize) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<Vec<f64>>)> {
    let pairs = n * (n - 1) / 2;
    (
        proptest::collection::vec(0.25f64..4.0, pairs),
        proptest::collection::vec(0.5f64..8.0, n * n),
    )
        .prop_map(move |(ds, ws)| {
            let mut d = vec![vec![1.0; n]; n];
            let mut idx = 0;
            for a in 0..n {
                for b in (a + 1)..n {
                    d[a][b] = ds[idx];
                    d[b][a] = 1.0 / ds[idx];
                    idx += 1;
                }
            }
            let mut w = vec![vec![1.0; n]; n];
            for a in 0..n {
                for b in 0..n {
                    if a != b {
                        w[a][b] = ws[a * n + b];
                    }
                }
            }
            (d, w)
        })
}

/// Strategy: pair weights drawn from {1, 2, 4} with unit impacts, so
/// several orders often share the optimum.
fn tied_matrices(n: usize) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<Vec<f64>>)> {
    proptest::collection::vec(0u32..3, n * n).prop_map(move |codes| {
        let mut d = vec![vec![1.0; n]; n];
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    d[a][b] = f64::from(1u32 << codes[a * n + b]);
                }
            }
        }
        (d, vec![vec![1.0; n]; n])
    })
}

/// Every permutation of `0..n`, built by insertion (independent of the
/// solver's own enumerator).
fn all_orders(n: usize) -> Vec<Vec<usize>> {
    let mut orders = vec![Vec::new()];
    for f in 0..n {
        orders = orders
            .into_iter()
            .flat_map(|order: Vec<usize>| {
                (0..=order.len()).map(move |at| {
                    let mut next = order.clone();
                    next.insert(at, f);
                    next
                })
            })
            .collect();
    }
    orders
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ilp_matches_exhaustive_optimum_n4((d, w) in matrices(4)) {
        let p = OrderingProblem::new(d, w).expect("square");
        let ilp = solve_reference(&p).expect("solves");
        let exhaustive = p.solve().expect("n small");
        // Valid permutation.
        let mut sorted = ilp.order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, vec![0, 1, 2, 3]);
        // Optimal objective.
        prop_assert!((ilp.objective - exhaustive.objective).abs() < 1e-6,
            "ilp {} vs exhaustive {}", ilp.objective, exhaustive.objective);
        // Decoded order achieves the reported objective.
        prop_assert!((p.order_objective(&ilp.order) - ilp.objective).abs() < 1e-6);
    }

    #[test]
    fn ilp_matches_exhaustive_optimum_n3((d, w) in matrices(3)) {
        let p = OrderingProblem::new(d, w).expect("square");
        let ilp = solve_reference(&p).expect("solves");
        let exhaustive = p.solve().expect("n small");
        prop_assert!((ilp.objective - exhaustive.objective).abs() < 1e-6);
    }

    #[test]
    fn solve_returns_the_lexicographically_smallest_optimal_order(
        (random, tied, pick) in (matrices(4), tied_matrices(4), 0u32..2)
    ) {
        let (d, w) = if pick == 0 { random } else { tied };
        let p = OrderingProblem::new(d, w).expect("square");
        let mut orders = all_orders(4);
        prop_assert_eq!(orders.len(), 24);
        orders.sort();
        let optimum = orders
            .iter()
            .map(|o| p.order_objective(o))
            .fold(f64::NEG_INFINITY, f64::max);
        let expected = orders
            .iter()
            .find(|o| p.order_objective(o) >= optimum - TIE_TOLERANCE)
            .expect("the optimum itself qualifies");
        let s = p.solve().expect("n small");
        prop_assert_eq!(&s.order, expected);
        prop_assert_eq!(s.objective, p.order_objective(expected));
        prop_assert_eq!(s.nodes, 24);
    }
}

#[test]
fn model_sizes_follow_paper_formulas() {
    for n in 2..=9usize {
        let p = OrderingProblem::new(vec![vec![1.0; n]; n], vec![vec![1.0; n]; n]).expect("square");
        let m = p.build_model().expect("model builds");
        assert_eq!(m.num_vars(), 2 * n * n - n, "vars at n={n}");
        assert_eq!(m.num_constraints(), 2 * n * n, "constraints at n={n}");
    }
}

#[test]
fn objective_sums_pairwise_weights_over_all_permutations() {
    // For a fixed 3-feature instance, verify order_objective against a
    // hand-rolled sum for every permutation.
    let d = vec![
        vec![1.0, 2.0, 0.5],
        vec![0.5, 1.0, 3.0],
        vec![2.0, 1.0 / 3.0, 1.0],
    ];
    let w = vec![
        vec![1.0, 1.5, 2.0],
        vec![1.0, 1.0, 0.5],
        vec![3.0, 1.0, 1.0],
    ];
    let p = OrderingProblem::new(d.clone(), w.clone()).expect("square");
    for perm in all_orders(3) {
        let mut manual = 0.0;
        for i in 0..3 {
            for j in (i + 1)..3 {
                let (a, b) = (perm[i], perm[j]);
                manual += d[a][b] * w[a][b];
            }
        }
        assert!((p.order_objective(&perm) - manual).abs() < 1e-12);
    }
}
