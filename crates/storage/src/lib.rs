//! # smdb-storage — a Hyrise-like in-memory chunked column store
//!
//! This crate is the *tunable substrate* of the reproduction: an
//! in-memory, column-major storage engine in the style of Hyrise
//! (Section II-B of the paper). Its defining properties, which the
//! self-management framework leans on, are:
//!
//! * **Chunked tables.** Every table is horizontally partitioned into
//!   chunks of a fixed target size; all physical-design decisions —
//!   encoding, indexing, placement — are taken *per chunk* of a column
//!   ([`smdb_common::ChunkColumnRef`]), so the tuner can
//!   act on fractions of an attribute (important for skewed data).
//! * **Exchangeable encodings.** Each segment (one column of one chunk)
//!   can be stored [unencoded](encoding::EncodingKind::Unencoded),
//!   [dictionary](encoding::EncodingKind::Dictionary)-,
//!   [run-length](encoding::EncodingKind::RunLength)- or
//!   [frame-of-reference](encoding::EncodingKind::FrameOfReference)-encoded,
//!   with encoding-specific scan paths and memory footprints.
//! * **Per-chunk secondary indexes.** Hash (point), B-tree (point +
//!   range) and composite multi-attribute indexes attach to individual
//!   segments.
//! * **Placement tiers.** Chunks live on a [`placement::Tier`]
//!   (hot / warm / cold) with tier-dependent access penalties that a
//!   buffer-pool knob partially hides — this is what makes the
//!   buffer-pool knob and the placement feature *dependent* in the sense
//!   of Section III.
//! * **Deterministic ground-truth costing.** Execution reports a
//!   simulated [`smdb_common::Cost`] derived from the work actually
//!   performed (rows scanned per encoding, index probes, tier penalties).
//!   The framework's cost *estimators* (crate `smdb-cost`) must
//!   approximate this ground truth from observations — they never see the
//!   formula.
//! * **Morsel-driven parallel scans.** A scan's chunk list can be split
//!   into [morsels](parallel::morsel_ranges) and executed on a shared
//!   [`parallel::ScanPool`]; per-chunk partials merge in chunk-index
//!   order, so results (and total simulated work) are bit-identical for
//!   every thread count and morsel size, while a deterministic lane
//!   model ([`parallel::simulated_latency`]) reports the scan's
//!   simulated parallel *latency*.
//!
//! The engine applies [`config::ConfigAction`]s (create /
//! drop index, re-encode, move tier, set knob) and reports their one-time
//! reconfiguration cost, which the framework's executor and the
//! reconfiguration-cost experiments build on.

pub mod access;
pub mod chunk;
pub mod config;
pub mod encoding;
pub mod engine;
pub mod exec;
pub mod index;
pub mod kernels;
pub mod memory;
pub mod parallel;
pub mod placement;
pub mod scan;
pub mod schema;
pub mod simcost;
pub mod stats;
pub mod table;
pub mod value;

pub use access::{access_path, AccessPath};
pub use config::{ConfigAction, ConfigInstance, KnobKind, Knobs};
pub use encoding::EncodingKind;
pub use engine::StorageEngine;
pub use exec::{ChunkPartial, PredictedPaths, ScanOutput};
pub use index::IndexKind;
pub use parallel::ScanPool;
pub use placement::Tier;
pub use scan::{Aggregate, AggregateOp, PredicateOp, ScanPredicate};
pub use schema::{ColumnDef, Schema};
pub use table::Table;
pub use value::{DataType, Value};
