//! The append-only write-ahead log.
//!
//! One WAL is one persistence blob holding a sequence of frames:
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! payload = [seq: u64 LE][body]
//! ```
//!
//! `seq` is a strictly increasing record index starting at 0. The
//! reader accepts the longest prefix of frames that are structurally
//! sound (length fits the remaining bytes and a sanity cap), checksum
//! to their declared CRC32, and carry the expected next sequence
//! number; it stops at the first violation. The sequence check is what
//! catches a *duplicated* tail record — a byte-for-byte copy of a valid
//! frame passes the checksum, but repeats its `seq`. Everything after
//! the stop point is reported as dropped (counting frames where the
//! remaining bytes still parse structurally, plus one for a trailing
//! partial frame), so recovery can tell the operator how much history a
//! torn write cost — and never panics.

use smdb_common::Result;

use crate::codec::{ByteReader, ByteWriter};
use crate::persist::Persistence;

/// Upper bound on a single record's payload; anything larger is treated
/// as corruption (the length field itself may be torn).
pub const MAX_RECORD_BYTES: u32 = 1 << 30;

/// The reflected CRC-32 polynomial (IEEE 802.3).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `CRC32_TABLES[0][b]` is byte `b` pushed through
/// the eight shift-xor steps of the bitwise definition, and
/// `CRC32_TABLES[k][b]` is that byte followed by `k` zero bytes.
const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slice-by-8:
/// eight table lookups per eight input bytes. It is on the management
/// clock of every durable write — a boundary record is tens of KB every
/// bucket, a base blob is the whole table data — and recovery runs it
/// over the whole log plus the base.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Record index within the log (0-based, strictly increasing).
    pub seq: u64,
    /// The opaque record body the caller appended.
    pub body: Vec<u8>,
}

/// The result of reading a WAL: its longest valid prefix.
#[derive(Debug, Clone, Default)]
pub struct WalReadResult {
    /// Records in the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes covered by the valid prefix.
    pub valid_bytes: u64,
    /// Bytes discarded after the valid prefix.
    pub dropped_bytes: u64,
    /// Discarded records: structurally parsable frames after the stop
    /// point, plus one for a trailing partial frame.
    pub dropped_records: u64,
}

/// An append-only log stored in one named persistence blob.
#[derive(Debug, Clone)]
pub struct Wal {
    name: String,
}

impl Wal {
    /// A WAL stored under blob `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Wal { name: name.into() }
    }

    /// The blob name this WAL writes to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Frames and appends one record. Returns the framed size in bytes.
    /// The caller owns sequence numbering (`seq` must increase by 1 per
    /// append; the reader enforces it).
    pub fn append(&self, p: &dyn Persistence, seq: u64, body: &[u8]) -> Result<u64> {
        let mut payload = ByteWriter::new();
        payload.u64(seq);
        let mut payload = payload.into_bytes();
        payload.extend_from_slice(body);
        let mut frame = ByteWriter::new();
        frame.u32(payload.len() as u32);
        frame.u32(crc32(&payload));
        let mut frame = frame.into_bytes();
        frame.extend_from_slice(&payload);
        let len = frame.len() as u64;
        p.append(&self.name, &frame)?;
        Ok(len)
    }

    /// Reads the longest valid prefix. An absent blob is an empty log.
    pub fn read(&self, p: &dyn Persistence) -> Result<WalReadResult> {
        let Some(data) = p.read(&self.name)? else {
            return Ok(WalReadResult::default());
        };
        Ok(read_prefix(&data))
    }
}

/// Parses the longest valid prefix out of raw WAL bytes.
pub fn read_prefix(data: &[u8]) -> WalReadResult {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut next_seq = 0u64;
    loop {
        match parse_frame(&data[pos..]) {
            Some((consumed, seq, body)) if seq == next_seq => {
                records.push(WalRecord { seq, body });
                pos += consumed;
                next_seq += 1;
            }
            _ => break,
        }
    }
    let valid_bytes = pos as u64;
    let dropped_bytes = (data.len() - pos) as u64;
    WalReadResult {
        records,
        valid_bytes,
        dropped_bytes,
        dropped_records: count_dropped(&data[pos..]),
    }
}

/// Parses one frame (length + checksum + sequenced payload) at the head
/// of `data`. Returns `(bytes_consumed, seq, body)` or `None` when the
/// frame is truncated, oversized, or fails its checksum.
fn parse_frame(data: &[u8]) -> Option<(usize, u64, Vec<u8>)> {
    let mut r = ByteReader::new(data);
    let len = r.u32().ok()?;
    let declared_crc = r.u32().ok()?;
    if len > MAX_RECORD_BYTES || (len as usize) > r.remaining() || len < 8 {
        return None;
    }
    let payload = &data[8..8 + len as usize];
    if crc32(payload) != declared_crc {
        return None;
    }
    let mut pr = ByteReader::new(payload);
    let seq = pr.u64().ok()?;
    Some((8 + len as usize, seq, payload[8..].to_vec()))
}

/// Counts how many records the discarded suffix plausibly held: frames
/// whose length header still parses structurally (checksum and sequence
/// ignored — they are already known bad), plus one for trailing bytes
/// that do not form a whole frame.
fn count_dropped(mut data: &[u8]) -> u64 {
    let mut dropped = 0u64;
    while !data.is_empty() {
        let mut r = ByteReader::new(data);
        let Ok(len) = r.u32() else {
            return dropped + 1;
        };
        if r.u32().is_err() {
            return dropped + 1;
        }
        if len > MAX_RECORD_BYTES || (len as usize) > r.remaining() || len < 8 {
            return dropped + 1;
        }
        dropped += 1;
        data = &data[8 + len as usize..];
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::MemPersistence;

    fn filled_wal(bodies: &[&[u8]]) -> (MemPersistence, Wal) {
        let p = MemPersistence::new();
        let wal = Wal::new("wal.log");
        for (i, body) in bodies.iter().enumerate() {
            wal.append(&p, i as u64, body).unwrap();
        }
        (p, wal)
    }

    /// The definition the tables are derived from: one shift-xor step
    /// per input bit.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        for (input, expected) in [(&b""[..], 0), (b"123456789", 0xCBF4_3926)] {
            assert_eq!(crc32(input), expected);
            assert_eq!(crc32_bitwise(input), expected);
        }
    }

    #[test]
    fn crc32_equals_the_bitwise_reference() {
        // xorshift64: a fixed pseudo-random megabyte.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..1 << 20)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        assert_eq!(crc32(&buf), crc32_bitwise(&buf));
        // Every length 0..=64 at every alignment 0..8: the word loop,
        // the tail loop and their hand-over.
        for align in 0..8 {
            for len in 0..=64 {
                let s = &buf[align..align + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "align {align} len {len}");
            }
        }
    }

    #[test]
    fn append_read_roundtrip() {
        let (p, wal) = filled_wal(&[b"alpha", b"", b"gamma"]);
        let r = wal.read(&p).unwrap();
        assert_eq!(r.records.len(), 3);
        assert_eq!(r.records[0].body, b"alpha");
        assert_eq!(r.records[1].body, b"");
        assert_eq!(r.records[2].body, b"gamma");
        assert_eq!(r.dropped_records, 0);
        assert_eq!(r.dropped_bytes, 0);
        assert_eq!(
            r.valid_bytes,
            p.read("wal.log").unwrap().unwrap().len() as u64
        );
    }

    #[test]
    fn missing_blob_is_empty_log() {
        let p = MemPersistence::new();
        let r = Wal::new("wal.log").read(&p).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.valid_bytes, 0);
    }

    #[test]
    fn truncated_tail_record_drops_exactly_it() {
        let (p, wal) = filled_wal(&[b"aaaa", b"bbbb", b"cccc"]);
        p.mutate("wal.log", |b| {
            let cut = b.len() - 3;
            b.truncate(cut);
        })
        .unwrap();
        let r = wal.read(&p).unwrap();
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.dropped_records, 1);
        assert!(r.dropped_bytes > 0);
    }

    #[test]
    fn flipped_checksum_byte_stops_the_prefix() {
        let (p, wal) = filled_wal(&[b"aaaa", b"bbbb", b"cccc"]);
        let full = p.read("wal.log").unwrap().unwrap();
        let frame = full.len() / 3;
        // Flip a byte in the second frame's checksum field.
        p.mutate("wal.log", |b| b[frame + 5] ^= 0x40).unwrap();
        let r = wal.read(&p).unwrap();
        assert_eq!(r.records.len(), 1);
        // The corrupt frame and the (structurally sound) one after it.
        assert_eq!(r.dropped_records, 2);
    }

    #[test]
    fn duplicated_tail_record_is_rejected_by_sequence() {
        let (p, wal) = filled_wal(&[b"aaaa", b"bbbb"]);
        let full = p.read("wal.log").unwrap().unwrap();
        let frame = full.len() / 2;
        let tail = full[frame..].to_vec();
        p.append("wal.log", &tail).unwrap();
        let r = wal.read(&p).unwrap();
        assert_eq!(r.records.len(), 2, "the duplicate must not replay");
        assert_eq!(r.dropped_records, 1);
    }

    #[test]
    fn garbage_and_oversized_lengths_never_panic() {
        let p = MemPersistence::new();
        p.append("wal.log", &[0xFF; 7]).unwrap();
        let r = Wal::new("wal.log").read(&p).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.dropped_records, 1);

        let p = MemPersistence::new();
        let mut w = ByteWriter::new();
        w.u32(u32::MAX); // absurd length
        w.u32(0);
        p.append("wal.log", &w.into_bytes()).unwrap();
        let r = Wal::new("wal.log").read(&p).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.dropped_records, 1);
    }

    #[test]
    fn prefix_reader_is_deterministic_at_every_crash_offset() {
        let (p, _) = filled_wal(&[b"alpha", b"beta", b"gamma", b"delta"]);
        let full = p.read("wal.log").unwrap().unwrap();
        let mut last_len = 0;
        for cut in 0..=full.len() {
            let r = read_prefix(&full[..cut]);
            let again = read_prefix(&full[..cut]);
            assert_eq!(r.records.len(), again.records.len());
            assert!(r.records.len() >= last_len || r.records.len() <= 4);
            last_len = r.records.len().max(last_len);
            // The surviving records are always a true prefix.
            for (i, rec) in r.records.iter().enumerate() {
                assert_eq!(rec.seq, i as u64);
            }
            assert_eq!(r.valid_bytes + r.dropped_bytes, cut as u64);
        }
        assert_eq!(last_len, 4);
    }
}
