//! Versioned, checksummed snapshot blobs.
//!
//! A snapshot is one atomically written blob named `<prefix><version>`
//! (version zero-padded so lexicographic listing is numeric), laid out
//! as `[crc32(payload): u32 LE][payload]`. A reader walks
//! [`SnapshotStore::versions`] newest-first and takes the first blob
//! [`SnapshotStore::read`] accepts: a blob whose checksum fails reads
//! as absent, so a torn snapshot write falls back to the previous good
//! one instead of aborting recovery.

use smdb_common::{Error, Result};

use crate::codec::ByteWriter;
use crate::persist::Persistence;
use crate::wal::crc32;

/// Bytes of the checksum header in front of the payload.
const HEADER_BYTES: usize = 4;

/// Width of the zero-padded version in blob names.
const VERSION_DIGITS: usize = 20;

/// What [`SnapshotStore::write`] stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stored {
    /// Checksum of the payload — what a blob that refers to this one
    /// records, to tell it from a later blob under the same name.
    pub crc: u32,
    /// Stored size: payload plus checksum header.
    pub bytes: u64,
}

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

    /// The name of blob `version`.
    pub fn blob_name(&self, version: u64) -> String {
        format!("{}{:0width$}", self.prefix, version, width = VERSION_DIGITS)
    }

    /// Writes snapshot `version` atomically: `encode` appends the payload
    /// to a writer whose checksum slot is already reserved, so the blob
    /// is built in one buffer (`payload_hint` bytes of it up front) and
    /// the checksum is patched in afterwards.
    pub fn write(
        &self,
        p: &dyn Persistence,
        version: u64,
        payload_hint: usize,
        encode: impl FnOnce(&mut ByteWriter) -> Result<()>,
    ) -> Result<Stored> {
        let mut w = ByteWriter::with_capacity(HEADER_BYTES + payload_hint);
        w.u32(0);
        encode(&mut w)?;
        let mut blob = w.into_bytes();
        let crc = crc32(&blob[HEADER_BYTES..]);
        blob[..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
        p.write_atomic(&self.blob_name(version), &blob)?;
        Ok(Stored {
            crc,
            bytes: blob.len() as u64,
        })
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

    /// Reads and verifies snapshot `version`: its checksum and its
    /// payload (the buffer the backend returned, minus the header).
    /// `Ok(None)` when absent or corrupt.
    pub fn read(&self, p: &dyn Persistence, version: u64) -> Result<Option<(u32, Vec<u8>)>> {
        let Some(mut blob) = p.read(&self.blob_name(version))? else {
            return Ok(None);
        };
        let Some((header, payload)) = blob.split_first_chunk::<HEADER_BYTES>() else {
            return Ok(None);
        };
        let declared = u32::from_le_bytes(*header);
        if crc32(payload) != declared {
            return Ok(None);
        }
        blob.drain(..HEADER_BYTES);
        Ok(Some((declared, blob)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::MemPersistence;

    fn write(s: &SnapshotStore, p: &MemPersistence, version: u64, payload: &[u8]) -> Stored {
        s.write(p, version, payload.len(), |w| {
            payload.iter().for_each(|&b| w.u8(b));
            Ok(())
        })
        .unwrap()
    }

    #[test]
    fn blob_is_checksum_then_payload() {
        let p = MemPersistence::new();
        let s = SnapshotStore::new("snap-");
        let stored = write(&s, &p, 8, b"123456789");
        assert_eq!((stored.crc, stored.bytes), (0xCBF4_3926, 13));
        let blob = p.read(&s.blob_name(8)).unwrap().unwrap();
        assert_eq!(
            blob,
            [&0xCBF4_3926u32.to_le_bytes()[..], b"123456789"].concat()
        );
        assert_eq!(
            s.read(&p, 8).unwrap(),
            Some((stored.crc, b"123456789".to_vec()))
        );
        write(&s, &p, 0, b"old");
        assert_eq!(s.versions(&p).unwrap(), vec![0, 8]);
    }

    #[test]
    fn failed_encode_writes_nothing() {
        let p = MemPersistence::new();
        let s = SnapshotStore::new("snap-");
        assert!(s.write(&p, 1, 0, |_| Err(Error::invalid("no"))).is_err());
        assert!(s.versions(&p).unwrap().is_empty());
    }

    #[test]
    fn corrupt_or_short_blobs_read_as_absent() {
        let p = MemPersistence::new();
        let s = SnapshotStore::new("snap-");
        write(&s, &p, 1, b"good");
        write(&s, &p, 2, b"torn");
        p.mutate(&s.blob_name(2), |b| {
            let last = b.len() - 1;
            b[last] ^= 0xFF;
        })
        .unwrap();
        p.write_atomic(&s.blob_name(3), &[1, 2, 3]).unwrap();
        assert_eq!(s.versions(&p).unwrap(), vec![1, 2, 3]);
        // Absence, not an error: the caller falls back to an older one.
        assert_eq!(s.read(&p, 3).unwrap(), None);
        assert_eq!(s.read(&p, 2).unwrap(), None);
        assert_eq!(s.read(&p, 1).unwrap().unwrap().1, b"good");
        assert_eq!(s.read(&p, 0).unwrap(), None);
    }

    #[test]
    fn foreign_blobs_are_ignored() {
        let p = MemPersistence::new();
        p.write_atomic("wal.log", b"not a snapshot").unwrap();
        p.write_atomic("snap-short", b"bad name").unwrap();
        p.write_atomic(&SnapshotStore::new("base-").blob_name(1), b"other family")
            .unwrap();
        let s = SnapshotStore::new("snap-");
        assert!(s.versions(&p).unwrap().is_empty());
    }
}
