//! # smdb-durable — std-only durability primitives
//!
//! The reproduction is in-memory; this crate makes the *tuned state*
//! survive a restart (ROADMAP open item 2). It deliberately knows
//! nothing about tables, configurations or the Driver — higher layers
//! encode their state into byte blobs with [`codec`] and hand them to:
//!
//! * [`persist`] — the [`persist::Persistence`] trait (append / read /
//!   write-atomic / list / remove over named blobs) with a directory
//!   backend for real runs and an in-memory backend for tests. The
//!   in-memory serving path simply never constructs one, so durability
//!   stays zero-cost when unused.
//! * [`wal`] — an append-only log of `[len][crc32][seq ‖ body]` frames.
//!   The reader stops at the first structurally or checksum-invalid
//!   frame *or* sequence break and reports the surviving prefix plus a
//!   dropped-record count, so recovery degrades instead of panicking.
//! * [`snapshot`] — checksummed, versioned blobs under a name prefix;
//!   one whose checksum fails reads as absent, so recovery walks them
//!   newest-first, takes the first good one and replays the WAL tail
//!   over it.
//! * [`fault`] — [`fault::TornWritePersistence`], a fault-injecting
//!   `Persistence` wrapper that truncates, corrupts or duplicates an
//!   append at an attempt-indexed offset and then fails the write — the
//!   crash models the recovery tests exercise.

pub mod codec;
pub mod fault;
pub mod persist;
pub mod snapshot;
pub mod wal;

pub use codec::{decode_all, encode_to_vec, ByteReader, ByteWriter, Decode, Encode};
pub use fault::{TornWriteKind, TornWritePersistence, TornWritePlan};
pub use persist::{DirPersistence, MemPersistence, Persistence};
pub use snapshot::{SnapshotStore, Stored};
pub use wal::{crc32, read_prefix, Wal, WalReadResult, WalRecord};
