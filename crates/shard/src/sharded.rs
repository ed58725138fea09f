//! The sharded database: N per-shard engines behind one query surface.
//!
//! Every shard is a full [`Database`] (its own `StorageEngine`, plan
//! cache, scan-dispatch counters and logical clock), holding the whole
//! chunks of the logical table its [`crate::partition`] range gave it.
//! Queries take one of two paths:
//!
//! * **routed** — a tenant-equality query whose tenant lives on exactly
//!   one shard runs on that shard's `Database` unchanged (plan cache,
//!   counters, parallel-scan dispatch all included);
//! * **scatter-gather** — everything else fans `scan_partials` out over
//!   the candidate shards, concatenates their [`ChunkPartial`]s in
//!   ascending shard order and merges once.
//!
//! Because shards hold whole, contiguous, ascending chunk runs, that
//! concatenation is the unsharded chunk order, so a full scatter
//! produces a [`ScanOutput`] that is bit-identical to the unsharded
//! scan — rows, float aggregates, groups and total simulated cost —
//! for *any* shard count. Only the
//! latency model (`sim_latency`, `morsels`) is shard-dependent, exactly
//! the freedom the PR 5 morsel contract already grants.

use std::sync::Arc;
use std::time::Instant;

use smdb_common::{ColumnId, Error, Result, TableId};
use smdb_query::{Database, Query, QueryRunResult};
use smdb_storage::value::ColumnValues;
use smdb_storage::{ChunkPartial, PredicateOp, Schema, StorageEngine, Table};

use crate::partition::{assign_chunks, chunk_count, shard_columns, ShardSpec};
use crate::route::TenantRouter;

/// The logical table id every shard's local table carries. Each shard
/// engine holds exactly one table, created first, so local and logical
/// ids coincide and query fingerprints are shard-count-invariant.
pub const SHARD_TABLE: TableId = TableId(0);

/// A horizontally sharded database with tenant routing.
pub struct ShardedDatabase {
    shards: Vec<Arc<Database>>,
    /// Ascending global chunk indices per shard (see `partition`).
    chunk_map: Vec<Vec<usize>>,
    router: TenantRouter,
    tenant_column: Option<ColumnId>,
}

impl ShardedDatabase {
    /// Partitions one logical table into `spec.shards` shard engines.
    /// `tenant_column` (an `Int` column) enables single-shard routing of
    /// tenant-equality queries.
    pub fn build(
        name: &str,
        schema: Schema,
        columns: Vec<ColumnValues>,
        chunk_rows: usize,
        spec: &ShardSpec,
        tenant_column: Option<ColumnId>,
    ) -> Result<ShardedDatabase> {
        let rows = columns.first().map_or(0, ColumnValues::len);
        let chunk_map = assign_chunks(chunk_count(rows, chunk_rows), spec)?;
        let mut shards = Vec::with_capacity(spec.shards);
        let mut shard_tenants: Vec<Vec<i64>> = Vec::with_capacity(spec.shards);
        for chunk_ids in &chunk_map {
            let local = shard_columns(&columns, chunk_rows, chunk_ids);
            if let Some(ColumnId(t)) = tenant_column {
                match local.get(t as usize) {
                    Some(ColumnValues::Int(v)) => shard_tenants.push(v.clone()),
                    _ => return Err(Error::invalid("tenant column must be an Int column")),
                }
            } else {
                shard_tenants.push(Vec::new());
            }
            let mut engine = StorageEngine::default();
            engine.create_table(Table::from_columns(
                name,
                schema.clone(),
                local,
                chunk_rows,
            )?)?;
            shards.push(Database::new(engine));
        }
        let router = TenantRouter::from_shard_tenants(shard_tenants.iter().map(Vec::as_slice));
        Ok(ShardedDatabase {
            shards,
            chunk_map,
            router,
            tenant_column,
        })
    }

    /// The per-shard databases, shard order.
    pub fn shards(&self) -> &[Arc<Database>] {
        &self.shards
    }

    /// The tenant router.
    pub fn router(&self) -> &TenantRouter {
        &self.router
    }

    /// Global chunk indices owned by each shard.
    pub fn chunk_map(&self) -> &[Vec<usize>] {
        &self.chunk_map
    }

    /// The tenant a query pins with an equality predicate on the tenant
    /// column, if any.
    pub fn pinned_tenant(&self, query: &Query) -> Option<i64> {
        let tenant_col = self.tenant_column?;
        query
            .predicates()
            .iter()
            .find(|p| p.column == tenant_col && p.op == PredicateOp::Eq)
            .and_then(|p| p.value.as_i64())
    }

    /// The shard a routed execution of `query` would use: the unique
    /// shard whose tenant range holds the pinned tenant. `None` means
    /// the query scatters.
    pub fn route(&self, query: &Query) -> Option<usize> {
        self.router
            .unique_shard_for_tenant(self.pinned_tenant(query)?)
    }

    /// Executes a query: routed to one shard when the router proves a
    /// single shard suffices, scatter-gathered in global chunk order
    /// otherwise.
    pub fn run_query(&self, query: &Query) -> Result<QueryRunResult> {
        if let Some(shard) = self.route(query) {
            return self.shards[shard].run_query(query);
        }
        self.scatter_gather(query)
    }

    /// Candidate shards for a scatter of `query`: all shards holding
    /// chunks, narrowed to the tenant's shards when a tenant is pinned
    /// (rows for that tenant exist nowhere else; elided chunks would
    /// contribute aggregate-neutral empty partials).
    fn scatter_candidates(&self, query: &Query) -> Vec<usize> {
        match self.pinned_tenant(query) {
            Some(tenant) => self.router.shards_for_tenant(tenant),
            None => (0..self.shards.len())
                .filter(|&s| !self.chunk_map[s].is_empty())
                .collect(),
        }
    }

    fn scatter_gather(&self, query: &Query) -> Result<QueryRunResult> {
        let start = Instant::now();
        let candidates = self.scatter_candidates(query);
        // Fan out: per-shard partial scans, concatenated in candidate
        // order. Candidates ascend and each shard holds a contiguous run
        // of chunks that follows the previous shard's, so that is global
        // chunk order and the gather replays the unsharded merge exactly
        // (float addition is non-associative — the combine tree must
        // match, not just the operand set).
        let mut gathered: Vec<ChunkPartial> = Vec::new();
        for &s in &candidates {
            let shard = &self.shards[s];
            let pool = shard.scan_pool();
            let engine = shard.engine();
            let partials = engine.scan_partials(
                query.table(),
                query.predicates(),
                query.aggregate(),
                query.group_by(),
                pool.as_deref()
                    .map(|p| (p, shard.morsel_chunks()))
                    .filter(|(p, _)| p.threads() > 1),
            )?;
            let mut shard_cost = smdb_common::Cost::ZERO;
            for partial in &partials {
                shard_cost += partial.cost();
            }
            gathered.extend(partials);
            drop(engine);
            // Each shard's plan cache sees the work *it* did — the
            // shard-local signal its driver tunes on.
            shard.record_execution(query, shard_cost);
        }
        let merge_on = candidates.first().copied().unwrap_or(0);
        let engine = self
            .shards
            .get(merge_on)
            .ok_or_else(|| Error::invalid("sharded database has no shards"))?
            .engine();
        let output = engine.merge_scan_partials(gathered, query.aggregate(), query.group_by());
        Ok(QueryRunResult {
            output,
            wall_ns: start.elapsed().as_nanos() as u64,
        })
    }
}

impl std::fmt::Debug for ShardedDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDatabase")
            .field("shards", &self.shards.len())
            .field("tenant_column", &self.tenant_column)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_storage::{
        Aggregate, AggregateOp, ColumnDef, DataType, ScanPool, ScanPredicate, Schema,
    };

    const TENANTS: usize = 40;
    const ROWS_PER_TENANT: usize = 25;

    fn fixture_columns() -> Vec<ColumnValues> {
        let rows = TENANTS * ROWS_PER_TENANT;
        vec![
            ColumnValues::Int((0..rows).map(|i| (i / ROWS_PER_TENANT) as i64).collect()),
            ColumnValues::Int((0..rows).map(|i| (i % 17) as i64).collect()),
            ColumnValues::Float((0..rows).map(|i| ((i % 997) as f64) * 0.5).collect()),
            ColumnValues::Int((0..rows).map(|i| (i % 8) as i64).collect()),
        ]
    }

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("tenant", DataType::Int),
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Float),
            ColumnDef::new("grp", DataType::Int),
        ])
        .expect("schema builds")
    }

    fn unsharded() -> Arc<Database> {
        let mut engine = StorageEngine::default();
        engine
            .create_table(
                Table::from_columns("mt", schema(), fixture_columns(), 100).expect("table"),
            )
            .expect("create");
        Database::new(engine)
    }

    fn sharded(spec: ShardSpec) -> ShardedDatabase {
        ShardedDatabase::build(
            "mt",
            schema(),
            fixture_columns(),
            100,
            &spec,
            Some(ColumnId(0)),
        )
        .expect("builds")
    }

    fn tenant_sum(t: i64, k: i64) -> Query {
        Query::new(
            TableId(0),
            "mt",
            vec![
                ScanPredicate::eq(ColumnId(0), t),
                ScanPredicate::eq(ColumnId(1), k),
            ],
            Some(Aggregate::new(AggregateOp::Sum, ColumnId(2))),
            "pt",
        )
    }

    fn global_grouped(k: i64) -> Query {
        Query::new(
            TableId(0),
            "mt",
            vec![ScanPredicate::eq(ColumnId(1), k)],
            Some(Aggregate::new(AggregateOp::Sum, ColumnId(2))),
            "global",
        )
        .with_group_by(ColumnId(3))
    }

    #[test]
    fn scatter_is_bit_identical_to_unsharded_scan() {
        let base = unsharded();
        for spec in [
            ShardSpec::range(1),
            ShardSpec::range(3),
            ShardSpec::range(4),
        ] {
            let db = sharded(spec);
            for k in 0..17 {
                let q = global_grouped(k);
                let want = base.run_query(&q).expect("unsharded").output;
                let got = db.run_query(&q).expect("sharded").output;
                assert_eq!(got.rows_matched, want.rows_matched, "{spec:?}");
                assert_eq!(got.agg_value, want.agg_value, "{spec:?} bitwise agg");
                assert_eq!(got.groups, want.groups, "{spec:?} bitwise groups");
                assert_eq!(got.sim_cost, want.sim_cost, "{spec:?} full-cover cost");
            }
        }
    }

    #[test]
    fn routed_tenant_queries_match_unsharded_results() {
        let base = unsharded();
        let db = sharded(ShardSpec::range(4));
        let mut routed_seen = 0;
        for t in 0..TENANTS as i64 {
            let q = tenant_sum(t, 3);
            let want = base.run_query(&q).expect("unsharded").output;
            let got = db.run_query(&q).expect("sharded").output;
            assert_eq!(got.rows_matched, want.rows_matched, "tenant {t}");
            assert_eq!(got.agg_value, want.agg_value, "tenant {t}");
            if db.route(&q).is_some() {
                routed_seen += 1;
            }
        }
        assert!(routed_seen > 0, "range partitioning routes most tenants");
    }

    #[test]
    fn scatter_works_with_per_shard_scan_pools() {
        let base = unsharded();
        let db = sharded(ShardSpec::range(3));
        for shard in db.shards() {
            shard.set_scan_pool(Some(ScanPool::new(2)), 1);
        }
        let q = global_grouped(5);
        let want = base.run_query(&q).expect("unsharded").output;
        let got = db.run_query(&q).expect("sharded").output;
        assert_eq!(got.agg_value, want.agg_value);
        assert_eq!(got.groups, want.groups);
        assert_eq!(got.rows_matched, want.rows_matched);
    }

    #[test]
    fn scatter_records_per_shard_plan_cache_entries() {
        let db = sharded(ShardSpec::range(3));
        db.run_query(&global_grouped(2)).expect("runs");
        for shard in db.shards() {
            assert_eq!(shard.plan_cache().len(), 1, "every shard saw the scan");
        }
        let q = tenant_sum(0, 1);
        db.run_query(&q).expect("runs");
        assert_eq!(db.shards()[0].plan_cache().len(), 2, "routed shard records");
        assert_eq!(db.shards()[2].plan_cache().len(), 1, "other shards do not");
    }
}
