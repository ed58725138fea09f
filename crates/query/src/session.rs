//! Session-level serving with result checking.
//!
//! The serving runtime's correctness property is *logical*: configuration
//! actions (indexes, encodings, placements, knobs) are physical and must
//! never change what a query returns. [`ResultOracle`] captures the
//! ground-truth answer of every query template up front; [`Session`]
//! wraps a shared [`Database`] handle with per-session statistics and
//! verifies each answer against the oracle while reconfigurations race
//! the serving path.

use std::collections::HashMap;
use std::sync::Arc;

use smdb_common::{Cost, Result};
use smdb_storage::{ScanOutput, Value};

use crate::database::{Database, QueryRunResult};
use crate::query::Query;

/// Relative tolerance for float aggregates: physical configuration
/// changes may reorder per-position accumulation (index probe order vs.
/// scan order), so sums agree only up to floating-point associativity.
const AGG_RELATIVE_TOL: f64 = 1e-9;

/// The expected (configuration-independent) answer of one query instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedResult {
    pub rows_matched: u64,
    pub agg_value: Option<f64>,
    pub groups: Option<Vec<(Value, f64)>>,
}

impl ExpectedResult {
    /// Captures the configuration-independent parts of one answer.
    pub fn of(output: &ScanOutput) -> ExpectedResult {
        ExpectedResult {
            rows_matched: output.rows_matched,
            agg_value: output.agg_value,
            groups: output.groups.clone(),
        }
    }

    /// Whether `output` answers this expectation (row counts exact,
    /// aggregates within float-reassociation tolerance). Public so the
    /// sharded serving path can verify scatter-gather answers against
    /// oracles it captured itself.
    pub fn accepts(&self, output: &ScanOutput) -> bool {
        if output.rows_matched != self.rows_matched {
            return false;
        }
        if !floats_agree(self.agg_value, output.agg_value) {
            return false;
        }
        match (&self.groups, &output.groups) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|((ka, va), (kb, vb))| ka == kb && floats_agree(Some(*va), Some(*vb)))
            }
            _ => false,
        }
    }
}

fn floats_agree(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            let tol = AGG_RELATIVE_TOL * a.abs().max(b.abs()).max(1.0);
            (a - b).abs() <= tol
        }
        _ => false,
    }
}

/// Ground-truth answers keyed by instance fingerprint (template plus
/// literals), captured once against the engine and then consulted by
/// every concurrent session.
#[derive(Debug, Default)]
pub struct ResultOracle {
    expected: HashMap<u64, ExpectedResult>,
}

impl ResultOracle {
    /// Runs every query directly against the engine (bypassing the plan
    /// cache and the logical clock) and records its answer. Duplicate
    /// instances are captured once.
    pub fn capture<'a>(
        db: &Database,
        queries: impl IntoIterator<Item = &'a Query>,
    ) -> Result<ResultOracle> {
        let engine = db.engine();
        Self::capture_with(queries, |q| {
            engine.scan_grouped(q.table(), q.predicates(), q.aggregate(), q.group_by())
        })
    }

    /// Records the answer `run` gives for every distinct query instance
    /// — the sharded path captures through the scatter-gather surface
    /// that will later serve the same queries.
    pub fn capture_with<'a>(
        queries: impl IntoIterator<Item = &'a Query>,
        mut run: impl FnMut(&Query) -> Result<ScanOutput>,
    ) -> Result<ResultOracle> {
        let mut expected = HashMap::new();
        for q in queries {
            if let std::collections::hash_map::Entry::Vacant(slot) =
                expected.entry(q.instance_fingerprint())
            {
                slot.insert(ExpectedResult::of(&run(q)?));
            }
        }
        Ok(ResultOracle { expected })
    }

    /// Number of captured query instances.
    pub fn len(&self) -> usize {
        self.expected.len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.expected.is_empty()
    }

    /// Verifies one answer: `Some(true)` when it matches the captured
    /// ground truth, `Some(false)` on a wrong result, `None` when the
    /// query was never captured.
    pub fn verify(&self, query: &Query, output: &ScanOutput) -> Option<bool> {
        self.expected
            .get(&query.instance_fingerprint())
            .map(|e| e.accepts(output))
    }
}

/// Per-session serving statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionStats {
    /// Caller-chosen session identity (e.g. worker index).
    pub session_id: u64,
    /// Queries served.
    pub queries: u64,
    /// Queries that returned an engine error.
    pub errors: u64,
    /// Queries whose answer contradicted the oracle.
    pub wrong_results: u64,
    /// Summed simulated cost of served queries.
    pub busy: Cost,
    /// Morsels dispatched to the scan pool by this session's queries
    /// (0 when every scan ran inline).
    pub morsels: u64,
    /// Order-independent digest of the configuration-independent result
    /// parts (instance fingerprint, row count, group keys). Combined by
    /// wrapping addition (commutative, duplicate-safe), so the union over
    /// any session partitioning is identical — the "result-identical
    /// regardless of thread count" witness.
    pub result_digest: u64,
}

smdb_durable::durable_struct!(SessionStats {
    session_id,
    queries,
    errors,
    wrong_results,
    busy,
    morsels,
    result_digest
});

impl SessionStats {
    /// Folds one served answer in: counters, the order-independent
    /// digest, and — given an oracle — the wrong-result verdict.
    pub fn record(&mut self, query: &Query, output: &ScanOutput, oracle: Option<&ResultOracle>) {
        self.queries += 1;
        self.busy += output.sim_cost;
        self.morsels += output.morsels;
        self.result_digest = self.result_digest.wrapping_add(result_hash(query, output));
        if oracle.and_then(|o| o.verify(query, output)) == Some(false) {
            self.wrong_results += 1;
        }
    }

    /// Folds another session's statistics into this one (digests and
    /// counters add); the result is independent of fold order.
    pub fn merge(&mut self, other: &SessionStats) {
        self.queries += other.queries;
        self.errors += other.errors;
        self.wrong_results += other.wrong_results;
        self.busy += other.busy;
        self.morsels += other.morsels;
        self.result_digest = self.result_digest.wrapping_add(other.result_digest);
    }
}

/// One serving session: a shared database handle plus statistics and
/// optional oracle verification.
#[derive(Debug)]
pub struct Session {
    db: Arc<Database>,
    oracle: Option<Arc<ResultOracle>>,
    stats: SessionStats,
}

impl Session {
    /// A session without result checking.
    pub fn new(db: Arc<Database>, session_id: u64) -> Session {
        Session {
            db,
            oracle: None,
            stats: SessionStats {
                session_id,
                ..SessionStats::default()
            },
        }
    }

    /// A session verifying every answer against `oracle`.
    pub fn with_oracle(db: Arc<Database>, session_id: u64, oracle: Arc<ResultOracle>) -> Session {
        let mut s = Session::new(db, session_id);
        s.oracle = Some(oracle);
        s
    }

    /// Runs one query, updating statistics and verifying the answer.
    /// Engine errors are counted and propagated — the caller decides
    /// whether the session survives.
    pub fn run(&mut self, query: &Query) -> Result<QueryRunResult> {
        match self.db.run_query(query) {
            Ok(result) => {
                self.stats
                    .record(query, &result.output, self.oracle.as_deref());
                Ok(result)
            }
            Err(e) => {
                self.stats.errors += 1;
                Err(e)
            }
        }
    }

    /// The session's statistics so far.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Consumes the session, returning its statistics.
    pub fn into_stats(self) -> SessionStats {
        self.stats
    }
}

/// Hash of one answer's configuration-independent parts. Aggregate
/// *values* are excluded: physical reconfiguration may legally perturb
/// float sums in the last bits (the oracle checks them with tolerance);
/// the digest must be bit-stable across configurations. Public so the
/// sharded serving path accumulates the *same* digest for the same
/// answers — the shard-count-invariance witness.
pub fn result_hash(query: &Query, output: &ScanOutput) -> u64 {
    let mut h = query
        .instance_fingerprint()
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= output.rows_matched.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    if let Some(groups) = &output.groups {
        use std::hash::{Hash, Hasher};
        let mut gh = std::collections::hash_map::DefaultHasher::new();
        groups.len().hash(&mut gh);
        for (k, _) in groups {
            k.hash(&mut gh);
        }
        h ^= gh.finish().rotate_left(17);
    }
    // Final avalanche so sparse counter differences flip many bits.
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::{ColumnId, TableId};
    use smdb_storage::value::ColumnValues;
    use smdb_storage::{
        Aggregate, AggregateOp, ColumnDef, ConfigAction, DataType, IndexKind, ScanPredicate,
        Schema, StorageEngine, Table,
    };

    fn db() -> Arc<Database> {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Float),
        ])
        .unwrap();
        let table = Table::from_columns(
            "t",
            schema,
            vec![
                ColumnValues::Int((0..400).map(|i| i % 20).collect()),
                ColumnValues::Float((0..400).map(|i| i as f64).collect()),
            ],
            100,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        engine.create_table(table).unwrap();
        Database::new(engine)
    }

    fn q(v: i64) -> Query {
        Query::new(
            TableId(0),
            "t",
            vec![ScanPredicate::eq(ColumnId(0), v)],
            Some(Aggregate::new(AggregateOp::Sum, ColumnId(1))),
            "pt",
        )
    }

    #[test]
    fn oracle_verifies_across_reconfiguration() {
        let db = db();
        let queries: Vec<Query> = (0..20).map(q).collect();
        let oracle = Arc::new(ResultOracle::capture(&db, queries.iter()).unwrap());
        assert_eq!(oracle.len(), 20);
        let mut session = Session::with_oracle(db.clone(), 0, oracle.clone());
        for query in &queries {
            session.run(query).unwrap();
        }
        // Reconfigure, then serve the same queries again: still correct.
        for chunk in 0..4 {
            db.apply_config(&[ConfigAction::CreateIndex {
                target: smdb_common::ChunkColumnRef::new(0, 0, chunk),
                kind: IndexKind::Hash,
            }])
            .unwrap();
        }
        for query in &queries {
            session.run(query).unwrap();
        }
        assert_eq!(session.stats().queries, 40);
        assert_eq!(session.stats().wrong_results, 0);
        assert_eq!(session.stats().errors, 0);
        assert!(session.stats().busy.ms() > 0.0);
    }

    #[test]
    fn oracle_flags_wrong_results() {
        let db = db();
        let queries: Vec<Query> = (0..5).map(q).collect();
        let oracle = ResultOracle::capture(&db, queries.iter()).unwrap();
        let good = db.run_query(&q(1)).unwrap().output;
        assert_eq!(oracle.verify(&q(1), &good), Some(true));
        let mut bad = good.clone();
        bad.rows_matched += 1;
        assert_eq!(oracle.verify(&q(1), &bad), Some(false));
        let mut off = good;
        off.agg_value = off.agg_value.map(|v| v + 1.0);
        assert_eq!(oracle.verify(&q(1), &off), Some(false));
        assert_eq!(oracle.verify(&q(19), &bad), None, "never captured");
    }

    #[test]
    fn digest_is_partition_independent() {
        let db = db();
        let queries: Vec<Query> = (0..40).map(|i| q(i % 20)).collect();
        // One session serving everything…
        let mut all = Session::new(db.clone(), 0);
        for query in &queries {
            all.run(query).unwrap();
        }
        // …equals two sessions serving interleaved halves, merged.
        let mut a = Session::new(db.clone(), 1);
        let mut b = Session::new(db.clone(), 2);
        for (i, query) in queries.iter().enumerate() {
            if i % 2 == 0 {
                a.run(query).unwrap();
            } else {
                b.run(query).unwrap();
            }
        }
        let mut merged = a.into_stats();
        merged.merge(b.stats());
        assert_eq!(merged.queries, all.stats().queries);
        assert_eq!(merged.result_digest, all.stats().result_digest);
        assert_ne!(all.stats().result_digest, 0);
    }

    #[test]
    fn errors_are_counted_and_propagated() {
        let db = db();
        let mut session = Session::new(db, 7);
        let bad = Query::new(TableId(9), "missing", vec![], None, "bad");
        assert!(session.run(&bad).is_err());
        assert_eq!(session.stats().errors, 1);
        assert_eq!(session.stats().queries, 0);
        assert_eq!(session.stats().session_id, 7);
    }
}
