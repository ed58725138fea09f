//! The durable byte format: primitives, containers and the
//! [`Encode`] / [`Decode`] pair every durable type implements.
//!
//! **Ownership rule.** A type's durable layout is its `Encode`/`Decode`
//! impl in the file that defines the type. This module owns only what
//! no single type can: the primitives ([`ByteWriter`] / [`ByteReader`] —
//! little-endian integers, floats as their IEEE-754 bit patterns so
//! round-trips are bit-exact, `u32`-length-prefixed UTF-8), the
//! containers (`Vec`, `Option`, tuples, arrays, `BTreeMap`), the
//! `smdb-common` newtypes and the one-tag-byte layout of fieldless enums
//! ([`durable_enum!`](crate::durable_enum)) and the fields-in-order layout
//! of plain structs ([`durable_struct!`](crate::durable_struct)). A count or presence byte is
//! therefore written in exactly one place, and so is the allocation
//! guard for a decoded count. There is no reflection and no schema
//! language: fields travel in declaration order, and a version tag at
//! the container level (WAL record tag, snapshot version byte) gates
//! layout evolution.

use std::collections::BTreeMap;

use smdb_common::{ChunkColumnRef, ChunkId, ColumnId, Cost, LogicalTime, TableId};
use smdb_common::{Error, Result};

/// Appends primitive values to a growing byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Creates an empty writer with room for `bytes`, for a caller that
    /// knows roughly how much it is about to encode.
    pub fn with_capacity(bytes: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its bit pattern (bit-exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// Reads primitive values back out of an encoded buffer.
///
/// Every read is bounds-checked and returns
/// [`Error::InvalidArgument`](smdb_common::Error::InvalidArgument) on a
/// truncated or malformed buffer — decoding corrupt durable state must
/// degrade to an error, never panic.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice for reading from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Whether the whole buffer has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| {
                Error::invalid(format!(
                    "truncated durable record: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.remaining()
                ))
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool` byte (must be 0 or 1).
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::invalid(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a `usize` written as `u64`, checked against the platform.
    pub fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| Error::invalid("usize overflows platform"))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::invalid("invalid UTF-8 in durable string"))
    }
}

/// Writes a value's durable layout.
pub trait Encode {
    /// Appends `self` to `w`.
    fn encode(&self, w: &mut ByteWriter);
}

/// Reads a value back from its durable layout.
pub trait Decode: Sized {
    /// Consumes one value from `r`; corrupt input is an error, never a
    /// panic.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self>;
}

/// Encodes one value into a fresh buffer.
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a buffer that must hold exactly one `T`. Bytes left over mean
/// the writer and this reader disagree on the layout — the one
/// corruption a checksum cannot see — so they are an error.
pub fn decode_all<T: Decode>(bytes: &[u8]) -> Result<T> {
    let mut r = ByteReader::new(bytes);
    let value = T::decode(&mut r)?;
    if !r.is_exhausted() {
        return Err(Error::invalid(format!(
            "{} trailing bytes after a durable value",
            r.remaining()
        )));
    }
    Ok(value)
}

macro_rules! primitive {
    ($($ty:ident),*) => {$(
        impl Encode for $ty {
            fn encode(&self, w: &mut ByteWriter) {
                w.$ty(*self);
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
                r.$ty()
            }
        }
    )*};
}
primitive!(u8, u32, u64, i64, f64, bool, usize);

impl Encode for String {
    fn encode(&self, w: &mut ByteWriter) {
        w.str(self);
    }
}

impl Decode for String {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        r.str()
    }
}

/// A `u64` count, then the elements.
impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut ByteWriter) {
        w.usize(self.len());
        self.iter().for_each(|x| x.encode(w));
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        self.as_slice().encode(w);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let n = r.usize()?;
        // The allocation guard for every decoded count: a corrupt count
        // reserves at most as many bytes as the buffer still holds, and
        // the loop then fails on the first truncated element.
        let fit = r.remaining() / std::mem::size_of::<T>().max(1);
        let mut v = Vec::with_capacity(n.min(fit));
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

/// A presence byte, then the payload.
impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.bool(self.is_some());
        if let Some(x) = self {
            x.encode(w);
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(if r.bool()? { Some(T::decode(r)?) } else { None })
    }
}

/// The shared value itself: sharing is not part of the bytes.
impl<T: Encode> Encode for std::sync::Arc<T> {
    fn encode(&self, w: &mut ByteWriter) {
        (**self).encode(w);
    }
}

impl<T: Decode> Decode for std::sync::Arc<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        T::decode(r).map(std::sync::Arc::new)
    }
}

/// The elements in order, nothing between them.
macro_rules! tuple {
    ($($name:ident),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, w: &mut ByteWriter) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.encode(w);)+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}
tuple!(A, B);
tuple!(A, B, C);
tuple!(A, B, C, D, E);

/// Fixed length, so no count prefix.
impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encode(&self, w: &mut ByteWriter) {
        self.iter().for_each(|x| x.encode(w));
    }
}

impl<T: Decode + Default + Copy, const N: usize> Decode for [T; N] {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::decode(r)?;
        }
        Ok(out)
    }
}

/// A `u64` count, then `(key, value)` pairs in key order.
impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, w: &mut ByteWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let n = r.usize()?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let key = K::decode(r)?;
            map.insert(key, V::decode(r)?);
        }
        Ok(map)
    }
}

macro_rules! newtype {
    ($($ty:ident($inner:ty)),*) => {$(
        impl Encode for $ty {
            fn encode(&self, w: &mut ByteWriter) {
                self.0.encode(w);
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
                Ok($ty(<$inner>::decode(r)?))
            }
        }
    )*};
}
newtype!(TableId(u32), ChunkId(u32), Cost(f64), LogicalTime(u64));

/// Column ids are `u16` in memory and `u32` on disk; this is the one
/// place the width is narrowed back.
impl Encode for ColumnId {
    fn encode(&self, w: &mut ByteWriter) {
        w.u32(u32::from(self.0));
    }
}

impl Decode for ColumnId {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        u16::try_from(r.u32()?)
            .map(ColumnId)
            .map_err(|_| Error::invalid("column id overflow"))
    }
}

crate::durable_struct!(ChunkColumnRef {
    table,
    column,
    chunk
});

/// Implements [`Encode`] / [`Decode`] for a struct whose layout is the
/// listed fields in the listed order — every field of the struct, or the
/// decoder's struct literal does not compile.
#[macro_export]
macro_rules! durable_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, w: &mut $crate::ByteWriter) {
                $($crate::Encode::encode(&self.$field, w);)+
            }
        }
        impl $crate::Decode for $ty {
            fn decode(r: &mut $crate::ByteReader<'_>) -> ::smdb_common::Result<Self> {
                Ok($ty {
                    $($field: $crate::Decode::decode(r)?,)+
                })
            }
        }
    };
}

/// Implements [`Encode`] / [`Decode`] for a fieldless enum as one tag
/// byte; an unknown tag decodes to an error naming `$what`.
#[macro_export]
macro_rules! durable_enum {
    ($ty:ty, $what:literal, { $($variant:path => $tag:literal),+ $(,)? }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, w: &mut $crate::ByteWriter) {
                w.u8(match self {
                    $($variant => $tag,)+
                });
            }
        }
        impl $crate::Decode for $ty {
            fn decode(r: &mut $crate::ByteReader<'_>) -> ::smdb_common::Result<Self> {
                match r.u8()? {
                    $($tag => Ok($variant),)+
                    other => Err(::smdb_common::Error::invalid(format!(
                        "unknown {} tag {other}",
                        $what
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        w.usize(12345);
        w.str("héllo");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.str().unwrap(), "héllo");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_reads_error_without_panicking() {
        let mut w = ByteWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..3]);
        assert!(r.u64().is_err());
        // A huge declared string length must not allocate or panic.
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.str().is_err());
    }

    #[test]
    fn invalid_bool_and_utf8_are_errors() {
        let mut r = ByteReader::new(&[2]);
        assert!(r.bool().is_err());
        assert!(decode_all::<String>(&[2, 0, 0, 0, 0xFF, 0xFE]).is_err());
    }

    /// The container layouts, byte for byte: what each prefix is and how
    /// wide.
    #[test]
    fn container_layouts_are_fixed() {
        assert_eq!(encode_to_vec(&vec![7u8, 9]), [2, 0, 0, 0, 0, 0, 0, 0, 7, 9]);
        assert_eq!(encode_to_vec(&Some(7u8)), [1, 7]);
        assert_eq!(encode_to_vec(&None::<u8>), [0]);
        assert_eq!(encode_to_vec(&[7u8, 9]), [7, 9], "arrays carry no count");
        assert_eq!(encode_to_vec(&(7u8, 9u8, 11u8)), [7, 9, 11]);
        let map: BTreeMap<u8, u8> = [(9, 1), (7, 2)].into_iter().collect();
        assert_eq!(encode_to_vec(&map), [2, 0, 0, 0, 0, 0, 0, 0, 7, 2, 9, 1]);
        assert_eq!(
            encode_to_vec(&ChunkColumnRef::new(1, 2, 3)),
            [1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0]
        );
        assert_eq!(decode_all::<[u8; 2]>(&[7, 9]).unwrap(), [7, 9]);
        assert_eq!(
            decode_all::<BTreeMap<u8, u8>>(&encode_to_vec(&map)).unwrap(),
            map
        );
        assert!(decode_all::<ColumnId>(&[0, 0, 1, 0]).is_err(), "id > u16");
    }

    #[test]
    fn huge_declared_count_errors_without_allocating() {
        let mut bytes = encode_to_vec(&u64::MAX);
        bytes.extend_from_slice(&[1, 2, 3]);
        assert!(decode_all::<Vec<u64>>(&bytes).is_err());
        assert!(decode_all::<Vec<String>>(&bytes).is_err());
        assert!(decode_all::<BTreeMap<u64, u64>>(&bytes).is_err());
    }

    #[test]
    fn decode_all_rejects_trailing_bytes() {
        assert_eq!(decode_all::<u32>(&[1, 0, 0, 0]).unwrap(), 1);
        assert!(decode_all::<u32>(&[1, 0, 0, 0, 0]).is_err());
    }
}
