//! Candidate enumerators (Section II-D(a)).
//!
//! "An enumerator is responsible for providing a list of candidates … The
//! size of the candidate set is typically a significant contributor to
//! the execution time of optimization algorithms." Each feature has an
//! exhaustive enumerator and (for indexing) a heuristic one that
//! restricts the set workload-drivenly; the framework can "fall back to
//! restrictive enumerators when necessary".
//!
//! A tuner keeps its last list ([`Kept`]) next to exactly the inputs the
//! enumerator read to build it, and [`Enumerator::enumerate_kept`] hands
//! the same shared list back while those inputs hold. The encoding
//! enumerator reads the catalog, the base configuration (by its
//! fingerprint) and the tables the forecast touches. The index
//! enumerator also reads the weight-ranked `(column, has_range)` list
//! and the composite pairs; the ranking re-orders on most converged
//! passes, so it keeps one run of candidates per column and reassembles
//! the runs in the new order — the actions, groups and order a fresh
//! enumeration gives.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use smdb_common::{ChunkColumnRef, ColumnId, Result, TableId};
use smdb_forecast::ForecastSet;
use smdb_storage::{
    ConfigAction, ConfigInstance, EncodingKind, IndexKind, KnobKind, StorageEngine, Tier,
};

use crate::candidate::Candidate;

/// Produces the candidate list for one tuning run.
pub trait Enumerator: Send + Sync {
    /// Human-readable name.
    fn name(&self) -> &str;

    /// Enumerates candidates relative to `base` under the forecast.
    fn enumerate(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
    ) -> Result<Vec<Candidate>>;

    /// [`Self::enumerate`]'s list, shared: `kept`'s while the inputs it
    /// was built from still hold, otherwise a fresh one, kept.
    /// `base_fingerprint` is `base.fingerprint()`, which the caller
    /// computes once per pass. The default keeps nothing.
    fn enumerate_kept(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        _base_fingerprint: u64,
        scenarios: &ForecastSet,
        _kept: &mut Kept,
    ) -> Result<Arc<[Candidate]>> {
        Ok(self.enumerate(engine, base, scenarios)?.into())
    }

    /// Whether the candidate *set* this enumerator gives — not its order
    /// — is a function of the catalog, the base and the forecast's
    /// distinct queries alone, never of their weights, and any two of
    /// its candidates that touch one target share an exclusive group. A
    /// certified pass relies on both to skip enumeration. The default
    /// claims neither.
    fn weight_free(&self) -> bool {
        false
    }
}

/// A tuner's last enumeration and the inputs it was built from.
#[derive(Default)]
pub struct Kept(Option<KeptList>);

impl Kept {
    /// Whether an enumerator keeps a list here (the default keeps none).
    #[cfg(debug_assertions)]
    pub(crate) fn holds_list(&self) -> bool {
        self.0.is_some()
    }
}

/// What every kept list was read from: the catalog and the base.
#[derive(PartialEq)]
struct Basis {
    catalog_token: u64,
    base: u64,
}

impl Basis {
    fn of(engine: &StorageEngine, base_fingerprint: u64) -> Basis {
        Basis {
            catalog_token: engine.catalog_token(),
            base: base_fingerprint,
        }
    }
}

enum KeptList {
    Encoding {
        basis: Basis,
        touched: BTreeSet<TableId>,
        list: Arc<[Candidate]>,
    },
    Index {
        basis: Basis,
        pairs: BTreeSet<(TableId, ColumnId, ColumnId)>,
        ranked: Vec<Ranked>,
        /// One run per ranked column: its candidates over every chunk.
        runs: HashMap<Ranked, Vec<Candidate>>,
        list: Arc<[Candidate]>,
    },
}

/// A ranked predicate column and whether a range operator reads it.
type Ranked = ((TableId, ColumnId), bool);

fn group_of(target: ChunkColumnRef, salt: u64) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    target.hash(&mut h);
    salt.hash(&mut h);
    h.finish()
}

/// Columns referenced by predicates in any scenario, with their summed
/// query weight (used for workload-driven restriction) and whether range
/// operators occur.
fn predicate_columns(scenarios: &ForecastSet) -> BTreeMap<(TableId, ColumnId), (f64, bool)> {
    let mut out: BTreeMap<_, (f64, bool)> = BTreeMap::new();
    for scenario in scenarios.iter() {
        for wq in scenario.workload.queries() {
            for p in wq.query.predicates() {
                let entry = out
                    .entry((wq.query.table(), p.column))
                    .or_insert((0.0, false));
                entry.0 += wq.weight * scenario.probability;
                entry.1 |= p.op.is_range();
            }
        }
    }
    out
}

/// Index candidates on every `(predicate column, chunk)` pair seen in the
/// forecast: hash where only point predicates occur, hash + B-tree where
/// ranges occur, plus **multi-attribute** composite candidates for every
/// ordered pair of equality predicates co-occurring in a query (the
/// paper's "set of lists (to support multi-attribute indexes) of
/// attributes"). Optionally capped to the `max_candidates` heaviest
/// targets (the heuristic, Chaudhuri-&-Narasayya-style restriction).
#[derive(Debug, Clone, Default)]
pub struct IndexEnumerator {
    pub max_candidates: Option<usize>,
}

/// Ordered `(table, leading, second)` column pairs that co-occur as
/// equality predicates within single forecast queries.
fn composite_pairs(scenarios: &ForecastSet) -> BTreeSet<(TableId, ColumnId, ColumnId)> {
    let mut out = BTreeSet::new();
    for scenario in scenarios.iter() {
        for wq in scenario.workload.queries() {
            let eq_cols: Vec<_> = wq
                .query
                .predicates()
                .iter()
                .filter(|p| matches!(p.op, smdb_storage::PredicateOp::Eq))
                .map(|p| p.column)
                .collect();
            for (i, &a) in eq_cols.iter().enumerate() {
                for (j, &b) in eq_cols.iter().enumerate() {
                    if i != j {
                        out.insert((wq.query.table(), a, b));
                    }
                }
            }
        }
    }
    out
}

/// The referenced columns, heaviest first, with whether ranges occur.
fn ranked_columns(scenarios: &ForecastSet) -> Vec<Ranked> {
    let mut columns: Vec<_> = predicate_columns(scenarios).into_iter().collect();
    columns.sort_by(|a, b| b.1 .0.total_cmp(&a.1 .0));
    columns
        .into_iter()
        .map(|(column, (_, has_range))| (column, has_range))
        .collect()
}

impl IndexEnumerator {
    /// One column's candidates over every chunk of its table: hash, a
    /// B-tree where ranges occur, and the composites it leads.
    fn run(
        engine: &StorageEngine,
        base: &ConfigInstance,
        pairs: &BTreeSet<(TableId, ColumnId, ColumnId)>,
        ((table_id, column), has_range): Ranked,
    ) -> Result<Vec<Candidate>> {
        let table = engine.table(table_id)?;
        let mut out = Vec::new();
        for (chunk_id, _) in table.chunks() {
            let target = ChunkColumnRef {
                table: table_id,
                column,
                chunk: chunk_id,
            };
            let group = group_of(target, 0xA11);
            let mut kinds: Vec<IndexKind> = if has_range {
                vec![IndexKind::BTree, IndexKind::Hash]
            } else {
                vec![IndexKind::Hash]
            };
            // Multi-attribute candidates led by this column.
            for &(t, a, b) in pairs {
                if t == table_id && a == column {
                    kinds.push(IndexKind::CompositeHash { second: b });
                }
            }
            for kind in kinds {
                if base.index_of(target) == Some(kind) {
                    continue; // already in effect
                }
                out.push(Candidate::new(
                    ConfigAction::CreateIndex { target, kind },
                    Some(group),
                ));
            }
        }
        Ok(out)
    }

    /// The runs in ranked order, capped.
    fn assemble<'r>(&self, runs: impl Iterator<Item = &'r [Candidate]>) -> Vec<Candidate> {
        let mut out = Vec::new();
        for run in runs {
            out.extend_from_slice(run);
            if let Some(cap) = self.max_candidates {
                if out.len() >= cap {
                    out.truncate(cap);
                    break;
                }
            }
        }
        out
    }
}

impl Enumerator for IndexEnumerator {
    fn name(&self) -> &str {
        "index"
    }

    fn enumerate(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
    ) -> Result<Vec<Candidate>> {
        let pairs = composite_pairs(scenarios);
        let runs = ranked_columns(scenarios)
            .into_iter()
            .map(|ranked| Self::run(engine, base, &pairs, ranked))
            .collect::<Result<Vec<_>>>()?;
        Ok(self.assemble(runs.iter().map(Vec::as_slice)))
    }

    /// Uncapped: the weights only rank the columns.
    fn weight_free(&self) -> bool {
        self.max_candidates.is_none()
    }

    fn enumerate_kept(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        base_fingerprint: u64,
        scenarios: &ForecastSet,
        kept: &mut Kept,
    ) -> Result<Arc<[Candidate]>> {
        let basis = Basis::of(engine, base_fingerprint);
        let pairs = composite_pairs(scenarios);
        let ranked = ranked_columns(scenarios);
        // Runs hold while the catalog, the base and the pairs do.
        let mut runs = match kept.0.take() {
            Some(KeptList::Index {
                basis: b,
                pairs: p,
                ranked: r,
                runs,
                list,
            }) if b == basis && p == pairs => {
                if r == ranked {
                    let list_out = Arc::clone(&list);
                    kept.0 = Some(KeptList::Index {
                        basis,
                        pairs,
                        ranked,
                        runs,
                        list,
                    });
                    return Ok(list_out);
                }
                runs
            }
            _ => HashMap::new(),
        };
        for &column in &ranked {
            if !runs.contains_key(&column) {
                runs.insert(column, Self::run(engine, base, &pairs, column)?);
            }
        }
        runs.retain(|column, _| ranked.contains(column));
        let list: Arc<[Candidate]> = self
            .assemble(ranked.iter().map(|column| runs[column].as_slice()))
            .into();
        kept.0 = Some(KeptList::Index {
            basis,
            pairs,
            ranked,
            runs,
            list: Arc::clone(&list),
        });
        Ok(list)
    }
}

/// Encoding candidates: every alternative encoding for every segment a
/// forecast query touches.
#[derive(Debug, Clone, Default)]
pub struct EncodingEnumerator;

/// The tables the forecast's queries touch.
fn touched_tables(scenarios: &ForecastSet) -> BTreeSet<TableId> {
    let mut touched = BTreeSet::new();
    for s in scenarios.iter() {
        for wq in s.workload.queries() {
            touched.insert(wq.query.table());
        }
    }
    touched
}

impl Enumerator for EncodingEnumerator {
    fn name(&self) -> &str {
        "encoding"
    }

    fn enumerate(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
    ) -> Result<Vec<Candidate>> {
        let mut out = Vec::new();
        for table_id in touched_tables(scenarios) {
            let table = engine.table(table_id)?;
            for (chunk_id, _) in table.chunks() {
                for (column, _) in table.schema().iter() {
                    let target = ChunkColumnRef {
                        table: table_id,
                        column,
                        chunk: chunk_id,
                    };
                    let current = base.encoding_of(target);
                    let group = group_of(target, 0xE4C);
                    for kind in EncodingKind::ALL {
                        if kind == current {
                            continue;
                        }
                        out.push(Candidate::new(
                            ConfigAction::SetEncoding { target, kind },
                            Some(group),
                        ));
                    }
                }
            }
        }
        Ok(out)
    }

    fn enumerate_kept(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        base_fingerprint: u64,
        scenarios: &ForecastSet,
        kept: &mut Kept,
    ) -> Result<Arc<[Candidate]>> {
        let basis = Basis::of(engine, base_fingerprint);
        let touched = touched_tables(scenarios);
        if let Some(KeptList::Encoding {
            basis: b,
            touched: t,
            list,
        }) = &kept.0
        {
            if *b == basis && *t == touched {
                return Ok(Arc::clone(list));
            }
        }
        let list: Arc<[Candidate]> = self.enumerate(engine, base, scenarios)?.into();
        kept.0 = Some(KeptList::Encoding {
            basis,
            touched,
            list: Arc::clone(&list),
        });
        Ok(list)
    }

    fn weight_free(&self) -> bool {
        true
    }
}

/// Placement candidates: every alternative tier for every chunk of the
/// touched tables.
#[derive(Debug, Clone, Default)]
pub struct PlacementEnumerator;

impl Enumerator for PlacementEnumerator {
    fn name(&self) -> &str {
        "placement"
    }

    fn enumerate(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
    ) -> Result<Vec<Candidate>> {
        let mut out = Vec::new();
        for table_id in touched_tables(scenarios) {
            let table = engine.table(table_id)?;
            for (chunk_id, _) in table.chunks() {
                let current = base.tier_of(table_id, chunk_id);
                let group = group_of(
                    ChunkColumnRef {
                        table: table_id,
                        column: smdb_common::ColumnId(0),
                        chunk: chunk_id,
                    },
                    0x97ACE,
                );
                for tier in Tier::ALL {
                    if tier == current {
                        continue;
                    }
                    out.push(Candidate::new(
                        ConfigAction::SetPlacement {
                            table: table_id,
                            chunk: chunk_id,
                            tier,
                        },
                        Some(group),
                    ));
                }
            }
        }
        Ok(out)
    }
}

/// Knob candidates for the buffer pool: the paper's continuous-range
/// shape — "the start and the end of a range, e.g., 1.0 GB to 100.0 GB
/// and the smallest available intervals to pick in this range".
#[derive(Debug, Clone)]
pub struct BufferPoolEnumerator {
    pub min_mb: f64,
    pub max_mb: f64,
    pub step_mb: f64,
}

impl Default for BufferPoolEnumerator {
    fn default() -> Self {
        BufferPoolEnumerator {
            min_mb: 0.0,
            max_mb: 1024.0,
            step_mb: 64.0,
        }
    }
}

impl Enumerator for BufferPoolEnumerator {
    fn name(&self) -> &str {
        "buffer_pool"
    }

    fn enumerate(
        &self,
        _engine: &StorageEngine,
        base: &ConfigInstance,
        _scenarios: &ForecastSet,
    ) -> Result<Vec<Candidate>> {
        let mut out = Vec::new();
        let group = Some(0xB0FFu64);
        let mut value = self.min_mb;
        while value <= self.max_mb + 1e-9 {
            if (value - base.knobs.buffer_pool_mb).abs() > 1e-9 {
                out.push(Candidate::new(
                    ConfigAction::SetKnob {
                        knob: KnobKind::BufferPoolMb,
                        value,
                    },
                    group,
                ));
            }
            value += self.step_mb.max(1e-9);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_forecast::{ScenarioKind, WorkloadScenario};
    use smdb_query::{Query, Workload};
    use smdb_storage::value::ColumnValues;
    use smdb_storage::{ColumnDef, DataType, ScanPredicate, Schema, Table};

    fn setup() -> (StorageEngine, smdb_common::TableId) {
        let schema = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("b", DataType::Int),
        ])
        .unwrap();
        let table = Table::from_columns(
            "t",
            schema,
            vec![
                ColumnValues::Int((0..400).collect()),
                ColumnValues::Int((0..400).map(|i| i % 7).collect()),
            ],
            100,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        let id = engine.create_table(table).unwrap();
        (engine, id)
    }

    fn forecast(queries: Vec<Query>) -> ForecastSet {
        ForecastSet {
            scenarios: vec![WorkloadScenario {
                kind: ScenarioKind::Expected,
                name: "expected".into(),
                probability: 1.0,
                workload: Workload::uniform(queries),
            }],
        }
    }

    fn point_query(t: smdb_common::TableId, col: u16) -> Query {
        Query::new(
            t,
            "t",
            vec![ScanPredicate::eq(smdb_common::ColumnId(col), 3i64)],
            None,
            "pt",
        )
    }

    #[test]
    fn index_enumerator_targets_predicate_columns_only() {
        let (engine, t) = setup();
        let base = ConfigInstance::default();
        let f = forecast(vec![point_query(t, 1)]);
        let candidates = IndexEnumerator::default()
            .enumerate(&engine, &base, &f)
            .unwrap();
        // 4 chunks × 1 column × 1 kind (only Eq seen → hash only).
        assert_eq!(candidates.len(), 4);
        for c in &candidates {
            match &c.action {
                ConfigAction::CreateIndex { target, kind } => {
                    assert_eq!(target.column.0, 1);
                    assert_eq!(*kind, IndexKind::Hash);
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
    }

    #[test]
    fn range_predicates_add_btree_candidates() {
        let (engine, t) = setup();
        let base = ConfigInstance::default();
        let q = Query::new(
            t,
            "t",
            vec![ScanPredicate::between(smdb_common::ColumnId(0), 1i64, 9i64)],
            None,
            "rng",
        );
        let candidates = IndexEnumerator::default()
            .enumerate(&engine, &base, &forecast(vec![q]))
            .unwrap();
        // 4 chunks × {btree, hash}.
        assert_eq!(candidates.len(), 8);
    }

    #[test]
    fn heuristic_cap_limits_candidates() {
        let (engine, t) = setup();
        let base = ConfigInstance::default();
        let f = forecast(vec![point_query(t, 0), point_query(t, 1)]);
        let capped = IndexEnumerator {
            max_candidates: Some(3),
        }
        .enumerate(&engine, &base, &f)
        .unwrap();
        assert_eq!(capped.len(), 3);
    }

    #[test]
    fn existing_indexes_not_recandidated() {
        let (engine, t) = setup();
        let mut base = ConfigInstance::default();
        base.indexes
            .insert(ChunkColumnRef::new(t.0, 1, 0), IndexKind::Hash);
        let f = forecast(vec![point_query(t, 1)]);
        let candidates = IndexEnumerator::default()
            .enumerate(&engine, &base, &f)
            .unwrap();
        assert_eq!(candidates.len(), 3);
    }

    #[test]
    fn encoding_enumerator_covers_all_segments() {
        let (engine, t) = setup();
        let base = ConfigInstance::default();
        let f = forecast(vec![point_query(t, 0)]);
        let candidates = EncodingEnumerator.enumerate(&engine, &base, &f).unwrap();
        // 4 chunks × 2 columns × 3 alternative encodings.
        assert_eq!(candidates.len(), 24);
        // Exclusive per segment.
        let groups: std::collections::HashSet<_> =
            candidates.iter().map(|c| c.exclusive_group).collect();
        assert_eq!(groups.len(), 8);
    }

    #[test]
    fn placement_enumerator_offers_other_tiers() {
        let (engine, t) = setup();
        let base = ConfigInstance::default();
        let f = forecast(vec![point_query(t, 0)]);
        let candidates = PlacementEnumerator.enumerate(&engine, &base, &f).unwrap();
        // 4 chunks × 2 non-current tiers.
        assert_eq!(candidates.len(), 8);
    }

    #[test]
    fn buffer_enumerator_spans_range_excluding_current() {
        let (engine, _) = setup();
        let base = ConfigInstance::default(); // 64 MB default
        let candidates = BufferPoolEnumerator {
            min_mb: 0.0,
            max_mb: 256.0,
            step_mb: 64.0,
        }
        .enumerate(&engine, &base, &ForecastSet::default())
        .unwrap();
        // {0, 64, 128, 192, 256} minus current 64 → 4 candidates, one group.
        assert_eq!(candidates.len(), 4);
        assert!(candidates.iter().all(|c| c.exclusive_group == Some(0xB0FF)));
    }

    /// Kept lists under random forecast drift — weights that swap the
    /// column ranking, new templates (ranges, equality pairs, another
    /// table), a base changed by actions and a catalog change: after
    /// every pass each enumerator's list equals a fresh enumeration
    /// (same actions, groups and order), and both the shared list and a
    /// reassembly from kept runs are taken.
    #[test]
    fn kept_lists_equal_fresh_enumerations_under_drift() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use smdb_query::WeightedQuery;
        use smdb_storage::PredicateOp;

        let (mut shared, mut reassembled, mut swaps) = (0, 0, 0);
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut engine, t) = setup();
            let mut tables = vec![t];
            let mut base = ConfigInstance::default();
            let mut templates: Vec<(Query, f64)> = vec![(point_query(t, 0), 1.0)];
            let enumerators: [Box<dyn Enumerator>; 3] = [
                Box::new(IndexEnumerator::default()),
                Box::new(IndexEnumerator {
                    max_candidates: Some(rng.random_range(1usize..12)),
                }),
                Box::new(EncodingEnumerator),
            ];
            let mut kept: Vec<Kept> = (0..3).map(|_| Kept::default()).collect();
            let mut last: Vec<Option<Arc<[Candidate]>>> = vec![None; 3];
            let mut last_ranking = Vec::new();
            for _ in 0..40 {
                match rng.random_range(0..10) {
                    // A new template: a point, a range or an equality pair.
                    0 | 1 => {
                        let table = tables[rng.random_range(0..tables.len())];
                        let column =
                            |rng: &mut StdRng| smdb_common::ColumnId(rng.random_range(0..2));
                        let mut predicates = vec![match rng.random_range(0..3) {
                            0 => ScanPredicate::eq(column(&mut rng), 3i64),
                            1 => ScanPredicate::cmp(column(&mut rng), PredicateOp::Lt, 50i64),
                            _ => ScanPredicate::between(column(&mut rng), 1i64, 90i64),
                        }];
                        if rng.random_bool(0.3) {
                            predicates.push(ScanPredicate::eq(column(&mut rng), 2i64));
                        }
                        templates.push((Query::new(table, "t", predicates, None, "q"), 1.0));
                    }
                    // The base changed by an action.
                    2 => {
                        let target = ChunkColumnRef::new(
                            t.0,
                            rng.random_range(0..2),
                            rng.random_range(0..4),
                        );
                        if rng.random_bool(0.5) {
                            base.apply(&ConfigAction::CreateIndex {
                                target,
                                kind: IndexKind::Hash,
                            });
                        } else {
                            let kind =
                                EncodingKind::ALL[rng.random_range(0..EncodingKind::ALL.len())];
                            base.apply(&ConfigAction::SetEncoding { target, kind });
                        }
                    }
                    // A catalog change: a new table.
                    3 if tables.len() < 3 => {
                        let schema = Schema::new(vec![
                            ColumnDef::new("a", DataType::Int),
                            ColumnDef::new("b", DataType::Int),
                        ])
                        .unwrap();
                        let rows = rng.random_range(50i64..300);
                        let columns = vec![
                            ColumnValues::Int((0..rows).collect()),
                            ColumnValues::Int((0..rows).map(|i| i % 5).collect()),
                        ];
                        let name = format!("t{}", tables.len());
                        let table = Table::from_columns(&name, schema, columns, 100).unwrap();
                        tables.push(engine.create_table(table).unwrap());
                    }
                    // Otherwise the weights drift, often swapping the ranking.
                    _ => {
                        for (_, weight) in &mut templates {
                            *weight = rng.random_range(1i64..100) as f64;
                        }
                    }
                }
                let queries = templates
                    .iter()
                    .map(|(q, w)| WeightedQuery::new(q.clone(), *w))
                    .collect();
                let f = ForecastSet {
                    scenarios: vec![WorkloadScenario {
                        kind: ScenarioKind::Expected,
                        name: "expected".into(),
                        probability: 1.0,
                        workload: Workload::new(queries),
                    }],
                };
                let ranking = ranked_columns(&f);
                swaps +=
                    usize::from(ranking.len() == last_ranking.len() && ranking != last_ranking);
                last_ranking = ranking;
                let fingerprint = base.fingerprint();
                for (at, enumerator) in enumerators.iter().enumerate() {
                    let list = enumerator
                        .enumerate_kept(&engine, &base, fingerprint, &f, &mut kept[at])
                        .unwrap();
                    let fresh = enumerator.enumerate(&engine, &base, &f).unwrap();
                    assert_eq!(list[..], fresh[..], "seed {seed}, {}", enumerator.name());
                    match &last[at] {
                        Some(prev) if Arc::ptr_eq(prev, &list) => shared += 1,
                        _ if at < 2
                            && matches!(&kept[at].0, Some(KeptList::Index { runs, .. }) if runs.len() > 1) =>
                        {
                            reassembled += 1
                        }
                        _ => {}
                    }
                    last[at] = Some(list);
                }
            }
        }
        assert!(
            shared > 200 && reassembled > 100 && swaps > 100,
            "{shared} shared, {reassembled} reassembled, {swaps} ranking swaps"
        );
    }
}
