//! Versioned, checksummed full-state snapshots.
//!
//! A snapshot is one atomically written blob named `<prefix><version>`
//! (version zero-padded so lexicographic listing is numeric), laid out
//! as `[crc32(payload): u32 LE][payload]`. Recovery asks for the
//! *latest valid* snapshot: versions are tried newest-first and any
//! blob whose checksum fails is skipped, so a torn snapshot write falls
//! back to the previous good one instead of aborting recovery.

use smdb_common::{Error, Result};

use crate::codec::{ByteReader, ByteWriter};
use crate::persist::Persistence;
use crate::wal::crc32;

/// Width of the zero-padded version in blob names.
const VERSION_DIGITS: usize = 20;

/// A family of versioned snapshot blobs sharing one name prefix.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    prefix: String,
}

impl SnapshotStore {
    /// A store whose blobs are named `<prefix><zero-padded version>`.
    pub fn new(prefix: impl Into<String>) -> Self {
        SnapshotStore {
            prefix: prefix.into(),
        }
    }

    fn blob_name(&self, version: u64) -> String {
        format!("{}{:0width$}", self.prefix, version, width = VERSION_DIGITS)
    }

    /// Writes snapshot `version` atomically. Returns the stored size in
    /// bytes (payload plus checksum header).
    pub fn write(&self, p: &dyn Persistence, version: u64, payload: &[u8]) -> Result<u64> {
        let mut w = ByteWriter::new();
        w.u32(crc32(payload));
        let mut blob = w.into_bytes();
        blob.extend_from_slice(payload);
        let len = blob.len() as u64;
        p.write_atomic(&self.blob_name(version), &blob)?;
        Ok(len)
    }

    /// All stored versions, ascending (including corrupt ones — the
    /// checksum is only verified on read).
    pub fn versions(&self, p: &dyn Persistence) -> Result<Vec<u64>> {
        let mut versions = Vec::new();
        for name in p.list()? {
            if let Some(tail) = name.strip_prefix(&self.prefix) {
                if tail.len() == VERSION_DIGITS && tail.bytes().all(|b| b.is_ascii_digit()) {
                    versions.push(
                        tail.parse::<u64>()
                            .map_err(|_| Error::invalid("snapshot version overflow"))?,
                    );
                }
            }
        }
        versions.sort_unstable();
        Ok(versions)
    }

    /// Reads and verifies snapshot `version`; `Ok(None)` when absent or
    /// corrupt.
    pub fn read(&self, p: &dyn Persistence, version: u64) -> Result<Option<Vec<u8>>> {
        let Some(blob) = p.read(&self.blob_name(version))? else {
            return Ok(None);
        };
        let mut r = ByteReader::new(&blob);
        let Ok(declared) = r.u32() else {
            return Ok(None);
        };
        let payload = &blob[4..];
        if crc32(payload) != declared {
            return Ok(None);
        }
        Ok(Some(payload.to_vec()))
    }

    /// The newest snapshot whose checksum validates, as
    /// `(version, payload)`. Corrupt or torn snapshots are skipped.
    pub fn latest_valid(&self, p: &dyn Persistence) -> Result<Option<(u64, Vec<u8>)>> {
        for version in self.versions(p)?.into_iter().rev() {
            if let Some(payload) = self.read(p, version)? {
                return Ok(Some((version, payload)));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::MemPersistence;

    #[test]
    fn latest_valid_prefers_newest() {
        let p = MemPersistence::new();
        let s = SnapshotStore::new("snap-");
        s.write(&p, 0, b"old").unwrap();
        s.write(&p, 8, b"new").unwrap();
        let (v, payload) = s.latest_valid(&p).unwrap().unwrap();
        assert_eq!(v, 8);
        assert_eq!(payload, b"new");
        assert_eq!(s.versions(&p).unwrap(), vec![0, 8]);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let p = MemPersistence::new();
        let s = SnapshotStore::new("snap-");
        s.write(&p, 1, b"good").unwrap();
        s.write(&p, 2, b"torn").unwrap();
        p.mutate(&format!("snap-{:020}", 2), |b| {
            let last = b.len() - 1;
            b[last] ^= 0xFF;
        })
        .unwrap();
        let (v, payload) = s.latest_valid(&p).unwrap().unwrap();
        assert_eq!(v, 1);
        assert_eq!(payload, b"good");
        // Direct read of the corrupt one reports absence, not an error.
        assert_eq!(s.read(&p, 2).unwrap(), None);
    }

    #[test]
    fn empty_store_recovers_to_nothing() {
        let p = MemPersistence::new();
        let s = SnapshotStore::new("snap-");
        assert!(s.latest_valid(&p).unwrap().is_none());
        assert!(s.versions(&p).unwrap().is_empty());
    }

    #[test]
    fn foreign_blobs_are_ignored() {
        let p = MemPersistence::new();
        p.write_atomic("wal.log", b"not a snapshot").unwrap();
        p.write_atomic("snap-short", b"bad name").unwrap();
        let s = SnapshotStore::new("snap-");
        assert!(s.versions(&p).unwrap().is_empty());
    }
}
