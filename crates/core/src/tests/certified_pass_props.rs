//! Properties of the certified pass: a tuner that returns its kept
//! unchanged proposal without enumerating, pricing or selecting does so
//! only where the full pass would have returned it too.
//!
//! * On synthetic candidates, a choice [`weight_free`] proves is the one
//!   greedy makes under every re-weighting [`weights_gain`] admits, with
//!   the candidates in any order and any budget of at least the chosen
//!   bytes; a group whose per-byte savings cross, a mixed-sign price, a
//!   tie and a budget that binds are each refused, and each can be shown
//!   to change the choice under some weighting.
//! * On seeded engines, converged tuners re-weighted at random propose,
//!   field for field, what a fresh tuner's full pass proposes, and some
//!   of their passes are certified; a budget below the chosen bytes, a
//!   new distinct query, a catalog change and a base changed earlier in
//!   the same pass each get a full pass.
//!
//! In debug builds every certified pass also runs the full pipeline
//! behind it and asserts that it agrees.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smdb_common::{ChunkColumnRef, ColumnId, TableId};
use smdb_cost::{CostEstimator, LogicalCostModel, WhatIf};
use smdb_forecast::{ForecastSet, ScenarioKind, WorkloadScenario};
use smdb_query::{Query, WeightedQuery, Workload};
use smdb_storage::value::ColumnValues;
use smdb_storage::{
    ColumnDef, ConfigAction, ConfigInstance, DataType, IndexKind, ScanPredicate, Schema,
    StorageEngine, Table,
};

use crate::candidate::{budget_weight, expected_desirability, Candidate};
use crate::constraints::ConstraintSet;
use crate::feature::FeatureKind;
use crate::multi::MultiFeatureTuner;
use crate::selectors::{greedy_over, weight_free, Gains};
use crate::tuner::{standard_tuner, weights_gain, Decided, QueryIndex, Tuner, TuningProposal};

/// A synthetic pass's inputs: distinct queries, candidates, and each
/// candidate's `(query, saving)` pairs and bytes.
struct Market {
    queries: Vec<Query>,
    candidates: Vec<Candidate>,
    savings: Vec<Vec<(usize, f64)>>,
    bytes: Vec<i64>,
}

fn query(j: usize) -> Query {
    let predicate = ScanPredicate::eq(ColumnId(0), j as i64);
    Query::new(TableId(0), "t", vec![predicate], None, "q")
}

/// Savings from a handful of values and bytes from a handful of sizes,
/// so that ties and proportional savings are common.
fn market(rng: &mut StdRng) -> Market {
    let queries: Vec<Query> = (0..rng.random_range(1..=5usize)).map(query).collect();
    let n = rng.random_range(1..=10usize);
    let groups = [None, Some(1), Some(2), Some(3)];
    let candidates = (0..n)
        .map(|i| {
            let action = ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(0, 0, i as u32),
                kind: IndexKind::Hash,
            };
            Candidate::new(action, groups[rng.random_range(0..groups.len())])
        })
        .collect();
    let values = [0.0, 0.5, 1.0, 2.0, 3.25, 4.0];
    let mut savings = vec![Vec::new(); n];
    for saved in &mut savings {
        for q in 0..queries.len() {
            if rng.random_bool(0.6) {
                let s = values[rng.random_range(0..values.len())];
                saved.push((q, if rng.random_bool(0.06) { -s - 0.5 } else { s }));
            }
        }
    }
    let sizes = [0, 64, 100, 128, 200];
    let bytes = (0..n)
        .map(|_| sizes[rng.random_range(0..sizes.len())])
        .collect();
    Market {
        queries,
        candidates,
        savings,
        bytes,
    }
}

/// Every distinct query in some scenario, rows in random order, some
/// repeated. `wild` draws weights log-uniformly over 1e-6..1e6, gives
/// some scenarios probability 0 and one row a weight near 0.
fn forecast(queries: &[Query], rng: &mut StdRng, wild: bool) -> ForecastSet {
    let weight = |rng: &mut StdRng| {
        if wild {
            10f64.powf(rng.random_range(-6.0..6.0))
        } else {
            rng.random_range(0.5..50.0)
        }
    };
    let n = rng.random_range(1..=3usize);
    let mut scenarios: Vec<WorkloadScenario> = (0..n)
        .map(|s| {
            let mut rows = Vec::new();
            for (j, q) in queries.iter().enumerate() {
                if s == j % n || rng.random_bool(0.3) {
                    rows.push(WeightedQuery::new(q.clone(), weight(rng)));
                }
            }
            for i in (1..rows.len()).rev() {
                rows.swap(i, rng.random_range(0..=i));
            }
            WorkloadScenario {
                kind: ScenarioKind::Expected,
                name: format!("s{s}"),
                probability: if wild && s > 0 && rng.random_bool(0.3) {
                    0.0
                } else {
                    rng.random_range(0.05..1.0)
                },
                workload: Workload::new(rows),
            }
        })
        .collect();
    if wild && rng.random_bool(0.3) {
        let s = rng.random_range(0..n);
        scenarios[s].workload = Workload::new(
            scenarios[s]
                .workload
                .queries()
                .iter()
                .enumerate()
                .map(|(r, row)| {
                    let w = if r == 0 { 1e-300 } else { row.weight };
                    WeightedQuery::new(row.query.clone(), w)
                })
                .collect(),
        );
    }
    ForecastSet { scenarios }
}

fn index_of(queries: &[Query]) -> QueryIndex {
    queries
        .iter()
        .enumerate()
        .map(|(j, q)| (q.instance_fingerprint(), j))
        .collect()
}

/// The `(candidate, score, weight)` triples the assessor hands greedy,
/// for the candidates in `order`: each one that saves somewhere, scored
/// as the assessor sums it — per scenario, `saving · weight` over the
/// rows it reaches, in row order.
fn open(m: &Market, f: &ForecastSet, order: &[usize]) -> Vec<(usize, f64, f64)> {
    let index = index_of(&m.queries);
    let probabilities: Vec<f64> = f.iter().map(|s| s.probability).collect();
    order
        .iter()
        .enumerate()
        .filter(|&(_, &id)| m.savings[id].iter().any(|&(_, s)| s > 0.0))
        .map(|(at, &id)| {
            let saving = |q: usize| m.savings[id].iter().find(|e| e.0 == q).map(|e| e.1);
            let benefits = f.iter().map(|s| {
                let mut benefit = 0.0;
                for row in s.workload.queries() {
                    if let Some(d) = saving(index[&row.query.instance_fingerprint()]) {
                        benefit += d * row.weight;
                    }
                }
                benefit
            });
            let score = expected_desirability(benefits, &probabilities);
            (at, score, budget_weight(m.bytes[id]))
        })
        .collect()
}

/// The candidates greedy chooses with the list in `order`, by identity.
fn choice(m: &Market, f: &ForecastSet, order: &[usize], budget: Option<i64>) -> BTreeSet<usize> {
    let listed: Vec<Candidate> = order.iter().map(|&id| m.candidates[id].clone()).collect();
    let chosen = greedy_over(&listed, open(m, f, order).into_iter(), budget);
    chosen.into_iter().map(|at| order[at]).collect()
}

/// A kept pass over `m` in list order, and what [`weight_free`] proves
/// of its choice.
fn prove(m: &Market, f: &ForecastSet, budget: Option<i64>) -> (Vec<usize>, Option<Gains>) {
    let order: Vec<usize> = (0..m.candidates.len()).collect();
    let open = open(m, f, &order);
    let chosen = greedy_over(&m.candidates, open.iter().copied(), budget);
    let gains = weight_free(&m.candidates, &open, |i| Some(&m.savings[i][..]), &chosen);
    (chosen, gains)
}

#[test]
fn a_weight_free_choice_survives_every_gaining_reweighting() {
    let (mut proven, mut checked) = (0, 0);
    for seed in 0..800u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = market(&mut rng);
        let kept = forecast(&m.queries, &mut rng, false);
        let budget = rng.random_bool(0.5).then(|| rng.random_range(0..700i64));
        let (chosen, gains) = prove(&m, &kept, budget);
        let Some(gains) = gains else { continue };
        proven += 1;
        let chosen: BTreeSet<usize> = chosen.into_iter().collect();
        let index = index_of(&m.queries);
        for round in 0..24 {
            let f = forecast(&m.queries, &mut rng, true);
            if !weights_gain(&index, &gains, &f) {
                continue;
            }
            let mut order: Vec<usize> = (0..m.candidates.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
            let budget = rng
                .random_bool(0.5)
                .then(|| gains.chosen_bytes + rng.random_range(0..300i64));
            let again = choice(&m, &f, &order, budget);
            assert_eq!(again, chosen, "seed {seed} round {round}, order {order:?}");
            checked += 1;
        }
    }
    assert!(
        proven > 150 && checked > 2000,
        "{proven} proven, {checked} checked"
    );
}

/// Two candidates of one group, with `(query, saving)` pairs and bytes.
fn pair(a: &[(usize, f64)], a_bytes: i64, b: &[(usize, f64)], b_bytes: i64) -> Market {
    let candidates = (0..2)
        .map(|i| {
            let action = ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(0, 0, i),
                kind: IndexKind::Hash,
            };
            Candidate::new(action, Some(7))
        })
        .collect();
    Market {
        queries: (0..2).map(query).collect(),
        candidates,
        savings: vec![a.to_vec(), b.to_vec()],
        bytes: vec![a_bytes, b_bytes],
    }
}

/// One scenario weighing query 0 by `w0` and query 1 by `w1`.
fn weighted(w0: f64, w1: f64) -> ForecastSet {
    let rows = vec![
        WeightedQuery::new(query(0), w0),
        WeightedQuery::new(query(1), w1),
    ];
    ForecastSet {
        scenarios: vec![WorkloadScenario {
            kind: ScenarioKind::Expected,
            name: "expected".into(),
            probability: 1.0,
            workload: Workload::new(rows),
        }],
    }
}

/// Each refused case, with the re-weighting (or list order) that shows
/// the refusal was needed: the choice it makes differs from the kept one.
#[test]
fn crossing_mixed_tied_and_budget_bound_choices_are_refused() {
    let both = [0, 1];
    type Case = (&'static str, Market, Option<i64>, ForecastSet, [usize; 2]);
    let cases: [Case; 4] = [
        (
            "per-byte savings cross",
            pair(&[(0, 4.0), (1, 1.0)], 100, &[(0, 1.0), (1, 4.0)], 100),
            None,
            weighted(1.0, 10.0),
            both,
        ),
        (
            "per-byte savings cross at other sizes",
            pair(&[(0, 4.0)], 100, &[(0, 6.0), (1, 1.0)], 200),
            None,
            weighted(1.0, 1000.0),
            both,
        ),
        (
            "a mixed-sign price",
            pair(&[(0, 4.0), (1, -1.0)], 100, &[], 100),
            None,
            weighted(1.0, 10.0),
            both,
        ),
        (
            "a tie, decided by list position",
            pair(&[(0, 2.0), (1, 1.0)], 100, &[(0, 2.0), (1, 1.0)], 100),
            None,
            weighted(1.0, 1.0),
            [1, 0],
        ),
    ];
    for (case, m, budget, shift, order) in cases {
        let kept = weighted(1.0, 1.0);
        let (chosen, gains) = prove(&m, &kept, budget);
        assert_eq!(gains, None, "{case}: proven");
        let chosen: BTreeSet<usize> = chosen.into_iter().collect();
        assert_ne!(
            choice(&m, &shift, &order, budget),
            chosen,
            "{case}: no change"
        );
    }

    // A budget that binds: greedy skips an ungrouped candidate, or a
    // group's best member, for bytes.
    let mut ungrouped = pair(&[(0, 4.0)], 100, &[(1, 3.0)], 100);
    ungrouped.candidates[1].exclusive_group = None;
    ungrouped.candidates[0].exclusive_group = None;
    let grouped = pair(&[(0, 4.0), (1, 4.0)], 300, &[(0, 1.0), (1, 1.0)], 100);
    for (case, m, shift) in [
        ("an ungrouped skip", ungrouped, weighted(1.0, 10.0)),
        ("a group's best member skipped", grouped, weighted(1.0, 1.0)),
    ] {
        let kept = weighted(1.0, 1.0);
        let (chosen, gains) = prove(&m, &kept, Some(150));
        assert_eq!(gains, None, "{case}: proven");
        let chosen: BTreeSet<usize> = chosen.into_iter().collect();
        let unbound = choice(&m, &shift, &both, Some(1_000));
        assert_ne!(unbound, chosen, "{case}: no change");
    }
}

/// A seeded table of 2,000 rows in four chunks.
fn engine(seed: u64) -> (StorageEngine, TableId) {
    let schema = Schema::new(vec![
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("v", DataType::Int),
    ])
    .expect("schema");
    let modulo = 40 + (seed % 5) as i64 * 20;
    let k = ColumnValues::Int((0..2000).map(|i| i % modulo).collect());
    let v = ColumnValues::Int((0..2000).map(|i| (i * 7) % 53).collect());
    let table = Table::from_columns("t", schema, vec![k, v], 500).expect("table");
    let mut engine = StorageEngine::default();
    let t = engine.create_table(table).expect("create");
    (engine, t)
}

/// Point and range queries on both columns.
fn queries(t: TableId, rng: &mut StdRng) -> Vec<Query> {
    (0..rng.random_range(2..=5))
        .map(|j| {
            let column = ColumnId(rng.random_range(0..2u16));
            let v = rng.random_range(0..40i64);
            let predicate = if j % 3 == 2 {
                ScanPredicate::between(column, v, v + 3)
            } else {
                ScanPredicate::eq(column, v)
            };
            Query::new(t, "t", vec![predicate], None, "q")
        })
        .collect()
}

fn tuners(what_if: &WhatIf) -> [Tuner; 2] {
    [FeatureKind::Indexing, FeatureKind::Compression].map(|f| standard_tuner(f, what_if.clone()))
}

fn estimator() -> Arc<dyn CostEstimator> {
    Arc::new(LogicalCostModel::default())
}

/// `got` proposes what `want` does, field for field; only how the pass
/// decided may differ.
fn assert_same_proposal(got: &TuningProposal, want: &TuningProposal, at: &str) {
    assert_eq!(got.feature, want.feature, "{at}: feature");
    assert_eq!(got.target, want.target, "{at}: target");
    assert_eq!(got.actions, want.actions, "{at}: actions");
    let bits = |p: &TuningProposal| {
        (
            p.predicted_benefit.ms().to_bits(),
            p.reconfiguration_cost.ms().to_bits(),
        )
    };
    assert_eq!(bits(got), bits(want), "{at}: economics");
    let counts = |p: &TuningProposal| (p.candidates_enumerated, p.chosen);
    assert_eq!(counts(got), counts(want), "{at}: counts");
}

/// What a fresh tuner's full pass proposes: no kept list, price or
/// certificate, on an empty cache.
fn fresh(
    feature: FeatureKind,
    engine: &StorageEngine,
    base: &ConfigInstance,
    f: &ForecastSet,
    constraints: &ConstraintSet,
) -> TuningProposal {
    let tuner = standard_tuner(feature, WhatIf::new(estimator()));
    let proposal = tuner
        .propose(engine, base, f, constraints)
        .expect("proposes");
    assert_eq!(proposal.decided, Decided::Priced);
    proposal
}

/// Proposes with both tuners on `base`, applying each proposal, and
/// checks each against a fresh tuner's full pass; returns how each
/// pass decided.
fn pass(
    tuners: &[Tuner],
    engine: &StorageEngine,
    base: &mut ConfigInstance,
    f: &ForecastSet,
    constraints: &ConstraintSet,
    at: &str,
) -> Vec<Decided> {
    tuners
        .iter()
        .map(|tuner| {
            let got = tuner
                .propose(engine, base, f, constraints)
                .expect("proposes");
            let want = fresh(tuner.feature, engine, base, f, constraints);
            assert_same_proposal(&got, &want, &format!("{at}, {:?}", tuner.feature));
            for action in &got.actions {
                base.apply(action);
            }
            got.decided
        })
        .collect()
}

/// Converged tuners re-weighted at random — weights over twelve orders of
/// magnitude, zero-probability scenarios, a weight near 0 — propose what
/// a fresh tuner's full pass does, and some of their passes are
/// certified.
#[test]
fn certified_proposals_match_a_fresh_full_pass_under_random_reweighting() {
    let mut decided = std::collections::BTreeMap::new();
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (engine, t) = engine(seed);
        let queries = queries(t, &mut rng);
        let what_if = WhatIf::new(estimator());
        let tuners = tuners(&what_if);
        let constraints = ConstraintSet {
            index_memory_bytes: rng.random_bool(0.5).then_some(1 << 20),
            ..ConstraintSet::none()
        };
        let mut base = ConfigInstance::default();
        for round in 0..16 {
            let f = forecast(&queries, &mut rng, round >= 4);
            let at = format!("seed {seed} round {round}");
            for d in pass(&tuners, &engine, &mut base, &f, &constraints, &at) {
                *decided.entry(d).or_insert(0) += 1;
            }
        }
    }
    assert!(decided.get(&Decided::Certified) > Some(&20), "{decided:?}");
}

/// Converges both tuners on `f` and returns the base they settle on,
/// after a pass that is certified.
fn converged(
    tuners: &[Tuner],
    engine: &StorageEngine,
    f: &ForecastSet,
    constraints: &ConstraintSet,
) -> ConfigInstance {
    let mut base = ConfigInstance::default();
    for round in 0..8 {
        let decided = pass(tuners, engine, &mut base, f, constraints, "converging");
        if decided.iter().all(|&d| d == Decided::Certified) {
            assert!(round >= 2, "certified before converging");
            return base;
        }
    }
    panic!("no pass was certified");
}

/// A point forecast on `k` heavy enough for an index on every chunk.
fn point_forecast(t: TableId, literals: &[i64]) -> ForecastSet {
    let rows = literals
        .iter()
        .map(|&v| {
            let q = Query::new(t, "t", vec![ScanPredicate::eq(ColumnId(0), v)], None, "pt");
            WeightedQuery::new(q, 200.0)
        })
        .collect();
    ForecastSet {
        scenarios: vec![WorkloadScenario {
            kind: ScenarioKind::Expected,
            name: "expected".into(),
            probability: 1.0,
            workload: Workload::new(rows),
        }],
    }
}

/// A certified pass looks nothing up and keeps no entry; the full pass
/// it skips would have hit every lookup.
#[test]
fn a_certified_pass_moves_no_cache_counter() {
    let (engine, t) = engine(0);
    let what_if = WhatIf::new(estimator());
    let tuners = tuners(&what_if);
    let f = point_forecast(t, &[3, 9]);
    let none = ConstraintSet::none();
    let base = converged(&tuners, &engine, &f, &none);
    let cache = what_if.cache().expect("cached");
    let (stats, entries) = (cache.stats(), cache.len());
    for tuner in &tuners {
        let p = tuner.propose(&engine, &base, &f, &none).expect("proposes");
        assert_eq!(p.decided, Decided::Certified);
    }
    assert_eq!((cache.stats(), cache.len()), (stats, entries));
    for tuner in &tuners {
        let again = standard_tuner(tuner.feature, what_if.clone());
        let p = again.propose(&engine, &base, &f, &none).expect("proposes");
        assert!(p.actions.is_empty());
    }
    let lookups = cache.stats().since(&stats);
    assert_eq!((lookups.misses, cache.len()), (0, entries));
    assert!(lookups.hits > 0);
}

/// After a certified pass, each change a key names gets a full pass —
/// proposing what a fresh tuner does — and so does a pass whose budget
/// falls below the chosen bytes or binds.
#[test]
fn a_changed_key_or_a_short_budget_gets_a_full_pass() {
    let (mut engine, t) = engine(1);
    let what_if = WhatIf::new(estimator());
    let tuners = tuners(&what_if);
    let none = ConstraintSet::none();
    let f = point_forecast(t, &[3, 9]);
    let mut base = converged(&tuners, &engine, &f, &none);
    let index_bytes: i64 = base
        .indexes
        .iter()
        .map(|(&target, &kind)| {
            smdb_cost::sizes::estimate_target_index_bytes(&engine, target, kind).expect("sized")
                as i64
        })
        .sum();
    assert!(base.indexes.len() > 1, "{base:?}");

    // A budget of exactly the chosen bytes still certifies; one byte
    // less does not, and the index tuner drops an index.
    let exact = ConstraintSet {
        index_memory_bytes: Some(index_bytes),
        ..none.clone()
    };
    let decided = pass(
        &tuners,
        &engine,
        &mut base.clone(),
        &f,
        &exact,
        "exact budget",
    );
    assert_eq!(decided, [Decided::Certified; 2]);
    let short = ConstraintSet {
        index_memory_bytes: Some(index_bytes - 1),
        ..none.clone()
    };
    // Greedy then chooses fewer indexes; the reconfiguration test keeps
    // the base, so that pass ends changed and keeps no certificate, and
    // each after it (the budget binds) keeps none either.
    for round in 0..3 {
        let at = format!("short budget, round {round}");
        let p = tuners[0]
            .propose(&engine, &base, &f, &short)
            .expect("proposes");
        assert_same_proposal(
            &p,
            &fresh(FeatureKind::Indexing, &engine, &base, &f, &short),
            &at,
        );
        assert_ne!(p.decided, Decided::Certified, "{at}");
        assert!(p.chosen < base.indexes.len(), "{at}: {p:?}");
    }
    assert_eq!(converged(&tuners, &engine, &f, &none), base);

    // A new distinct query.
    let more = point_forecast(t, &[3, 9, 17]);
    let decided = pass(
        &tuners,
        &engine,
        &mut base.clone(),
        &more,
        &none,
        "new query",
    );
    assert!(!decided.contains(&Decided::Certified), "{decided:?}");
    assert_eq!(converged(&tuners, &engine, &f, &none), base);

    // A catalog change.
    let schema = Schema::new(vec![ColumnDef::new("x", DataType::Int)]).expect("schema");
    let values = ColumnValues::Int((0..100).collect());
    let other = Table::from_columns("other", schema, vec![values], 50).expect("table");
    engine.create_table(other).expect("create");
    let decided = pass(&tuners, &engine, &mut base, &f, &none, "catalog change");
    assert!(!decided.contains(&Decided::Certified), "{decided:?}");
}

/// Tuned in order, the compression tuner sees the index tuner's target:
/// when the index tuner changes its choice in a pass, the compression
/// tuner's certificate no longer names its base, and it gets a full pass
/// over the new one.
#[test]
fn a_base_changed_earlier_in_the_pass_gets_a_full_pass() {
    let (engine, t) = engine(2);
    let what_if = WhatIf::new(estimator());
    let multi = MultiFeatureTuner::new(tuners(&what_if).into(), what_if.clone());
    let f = point_forecast(t, &[3, 9]);
    let run = |base: &mut ConfigInstance, constraints: &ConstraintSet| {
        let run = multi
            .tune_in_order(&engine, &f, base, constraints, &[0, 1])
            .expect("tunes");
        let decided: Vec<Decided> = run.proposals.iter().map(|p| p.decided).collect();
        let index_target = run.proposals[0].target.clone();
        if let Some(config) = run.final_config {
            *base = config;
        }
        (decided, index_target)
    };
    // Room for one index of the four: the budget binds, so the index
    // tuner is never certified, while the compression tuner is.
    let target = ChunkColumnRef::new(t.0, 0, 0);
    let one = smdb_cost::sizes::estimate_target_index_bytes(&engine, target, IndexKind::Hash)
        .expect("sized") as i64;
    let short = ConstraintSet {
        index_memory_bytes: Some(one),
        ..ConstraintSet::none()
    };
    let mut base = ConfigInstance::default();
    for _ in 0..4 {
        run(&mut base, &short);
    }
    assert_eq!(base.indexes.len(), 1);
    let (decided, _) = run(&mut base, &short);
    assert_eq!(decided, [Decided::FromKept, Decided::Certified]);

    // Without the budget the index tuner adds the other three.
    let (decided, index_target) = run(&mut base, &ConstraintSet::none());
    let index_target = index_target.expect("the index tuner changes its choice");
    assert_eq!(index_target.indexes.len(), 4);
    assert_ne!(decided[1], Decided::Certified, "{decided:?}");
    let want = fresh(
        FeatureKind::Compression,
        &engine,
        &index_target,
        &f,
        &ConstraintSet::none(),
    );
    assert_eq!(base, want.target.unwrap_or(index_target));
}
