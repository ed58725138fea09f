//! # smdb-shard — sharded multi-tenant engine
//!
//! Horizontal sharding of the self-managing engine, making tuning
//! decisions *local* while constraint enforcement stays *global* —
//! the Organizer split the paper draws in §II, applied across shards:
//!
//! * [`partition`] — chunk-granular range assignment of one logical
//!   table into N shard tables. Shards own contiguous runs of whole
//!   chunks in ascending global order, which is what lets sharded
//!   execution reproduce the unsharded combine tree bit-for-bit.
//! * [`sharded::ShardedDatabase`] — N per-shard [`smdb_query::Database`]
//!   instances behind one query surface: tenant-equality queries route
//!   to a single shard; everything else scatter-gathers
//!   [`smdb_storage::ChunkPartial`]s and merges once in global chunk
//!   order, so results (rows, float aggregates, groups, total simulated
//!   cost) are bit-identical across shard counts — the digest
//!   invariant. Only `sim_latency`/`morsels` are shard-dependent,
//!   exactly the freedom the morsel-scan contract already grants.
//! * [`route::TenantRouter`] — an immutable (hence lock-free) per-shard
//!   tenant-range summary; routing is conservative and falls back to
//!   scatter whenever a single shard cannot be proven sufficient.
//! * [`budget::BudgetArbiter`] — the global Organizer role: one index
//!   memory budget re-split across per-shard drivers every bucket,
//!   proportional to shard work, recorded as `budget_rebalanced` trail
//!   events; per-shard tuners enforce their share at proposal time.
//! * [`tenant`] — the multi-tenant soak fixture: thousands of seeded
//!   tenants, tenant-sorted rows (range partitioning ⇒ tenant
//!   locality), Zipf-skewed traffic with the hot ranks spread across
//!   shards by a seeded permutation.

pub mod budget;
pub mod partition;
pub mod route;
pub mod sharded;
pub mod tenant;

pub use budget::{BudgetArbiter, RebalanceOutcome};
pub use partition::{assign_chunks, chunk_count, ShardSpec};
pub use route::{TenantRange, TenantRouter};
pub use sharded::{ShardedDatabase, SHARD_TABLE};
pub use tenant::{build_sharded, MultiTenantConfig, TenantQuery, TenantStream};
