//! Record serialization: the `Writable` trait and the variable-byte integer
//! codec that underlies every key and value exchanged through the shuffle.
//!
//! The paper (§V, "Sequence Encoding") stores all term sequences as
//! variable-byte encoded integer arrays; the shuffle sorts *serialized*
//! records with raw comparators, so the byte layout defined here is part of
//! the algorithms' contract, not an implementation detail. `serde` is
//! intentionally not used.

use crate::error::{MrError, Result};

/// Append `v` to `out` using LEB128 variable-byte encoding (1–10 bytes).
///
/// Small values dominate in practice because term identifiers are assigned in
/// descending collection-frequency order, so frequent terms cost one byte.
#[inline]
pub fn write_vu64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The varints of `xs`, concatenated: a serialized varint-sequence key.
#[cfg(test)]
pub(crate) fn vu64_seq(xs: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    xs.iter().for_each(|&x| write_vu64(&mut out, x));
    out
}

/// Append a `u32` using the same varint coding.
#[inline]
pub fn write_vu32(out: &mut Vec<u8>, v: u32) {
    write_vu64(out, v as u64);
}

/// Decode a varint from `buf` starting at `*pos`, advancing `*pos`.
///
/// Returns an error on truncated input or a value exceeding 64 bits.
#[inline]
pub fn read_vu64_at(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(MrError::Corrupt("truncated varint"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(MrError::Corrupt("varint overflow"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Decode `n` consecutive varints from `buf` starting at `*pos` into `out`.
///
/// This is the batched decode kernel shared by the run decoder
/// (`Vec<u32>`/`Vec<u64>` values stream through it) and the corpus store's
/// block parser: the single-byte case — the overwhelming majority, because
/// term ids are assigned in descending collection-frequency order — takes a
/// branch-predictable fast path, and the slice bound is checked once per
/// value instead of once per byte.
#[inline]
pub fn read_vu64_seq(buf: &[u8], pos: &mut usize, n: usize, out: &mut Vec<u64>) -> Result<()> {
    out.reserve(n.min(buf.len().saturating_sub(*pos)));
    let mut p = *pos;
    for _ in 0..n {
        match buf.get(p) {
            Some(&b) if b < 0x80 => {
                out.push(u64::from(b));
                p += 1;
            }
            Some(_) => out.push(read_vu64_at(buf, &mut p)?),
            None => return Err(MrError::Corrupt("truncated varint")),
        }
    }
    *pos = p;
    Ok(())
}

/// `u32` variant of [`read_vu64_seq`], failing if any value does not fit.
#[inline]
pub fn read_vu32_seq(buf: &[u8], pos: &mut usize, n: usize, out: &mut Vec<u32>) -> Result<()> {
    out.reserve(n.min(buf.len().saturating_sub(*pos)));
    let mut p = *pos;
    for _ in 0..n {
        match buf.get(p) {
            Some(&b) if b < 0x80 => {
                out.push(u32::from(b));
                p += 1;
            }
            Some(_) => {
                let v = read_vu64_at(buf, &mut p)?;
                out.push(u32::try_from(v).map_err(|_| MrError::Corrupt("varint exceeds u32"))?);
            }
            None => return Err(MrError::Corrupt("truncated varint")),
        }
    }
    *pos = p;
    Ok(())
}

/// A bounded cursor over a serialized record's bytes.
///
/// `Writable::read_from` receives a reader that spans *exactly* one key or
/// one value, which lets length-free encodings (such as n-gram keys) consume
/// "until the end" without an explicit element count.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wrap a byte slice holding exactly one serialized item.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the item has been fully consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Read one raw byte.
    #[inline]
    pub fn read_u8(&mut self) -> Result<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(MrError::Corrupt("truncated byte"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a varint `u64`.
    #[inline]
    pub fn read_vu64(&mut self) -> Result<u64> {
        read_vu64_at(self.buf, &mut self.pos)
    }

    /// Read a varint `u32`, failing if the value does not fit.
    #[inline]
    pub fn read_vu32(&mut self) -> Result<u32> {
        let v = self.read_vu64()?;
        u32::try_from(v).map_err(|_| MrError::Corrupt("varint exceeds u32"))
    }

    /// Batched decode of `n` varint `u64`s via [`read_vu64_seq`].
    #[inline]
    pub fn read_vu64_seq(&mut self, n: usize, out: &mut Vec<u64>) -> Result<()> {
        read_vu64_seq(self.buf, &mut self.pos, n, out)
    }

    /// Batched decode of `n` varint `u32`s via [`read_vu32_seq`].
    #[inline]
    pub fn read_vu32_seq(&mut self, n: usize, out: &mut Vec<u32>) -> Result<()> {
        read_vu32_seq(self.buf, &mut self.pos, n, out)
    }

    /// Read `n` raw bytes.
    #[inline]
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(MrError::Corrupt("truncated byte run"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
}

/// Hadoop-`Writable`-style serialization: fixed functions to and from bytes.
///
/// Implementations must round-trip: `read_from` over the bytes produced by
/// `write_to` yields an equal value and consumes the reader exactly.
pub trait Writable: Sized {
    /// Append the serialized form to `out`.
    fn write_to(&self, out: &mut Vec<u8>);
    /// Decode one value from a reader spanning exactly the serialized bytes.
    fn read_from(r: &mut ByteReader<'_>) -> Result<Self>;
}

impl Writable for () {
    #[inline]
    fn write_to(&self, _out: &mut Vec<u8>) {}
    #[inline]
    fn read_from(_r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(())
    }
}

impl Writable for u8 {
    #[inline]
    fn write_to(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    #[inline]
    fn read_from(r: &mut ByteReader<'_>) -> Result<Self> {
        r.read_u8()
    }
}

impl Writable for u16 {
    #[inline]
    fn write_to(&self, out: &mut Vec<u8>) {
        write_vu64(out, u64::from(*self));
    }
    #[inline]
    fn read_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let v = r.read_vu64()?;
        u16::try_from(v).map_err(|_| MrError::Corrupt("varint exceeds u16"))
    }
}

impl Writable for u32 {
    #[inline]
    fn write_to(&self, out: &mut Vec<u8>) {
        write_vu32(out, *self);
    }
    #[inline]
    fn read_from(r: &mut ByteReader<'_>) -> Result<Self> {
        r.read_vu32()
    }
}

impl Writable for u64 {
    #[inline]
    fn write_to(&self, out: &mut Vec<u8>) {
        write_vu64(out, *self);
    }
    #[inline]
    fn read_from(r: &mut ByteReader<'_>) -> Result<Self> {
        r.read_vu64()
    }
}

impl<A: Writable, B: Writable> Writable for (A, B) {
    #[inline]
    fn write_to(&self, out: &mut Vec<u8>) {
        self.0.write_to(out);
        self.1.write_to(out);
    }
    #[inline]
    fn read_from(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok((A::read_from(r)?, B::read_from(r)?))
    }
}

/// Length-prefixed `Vec<u32>`; elements are varint-coded.
impl Writable for Vec<u32> {
    fn write_to(&self, out: &mut Vec<u8>) {
        write_vu64(out, self.len() as u64);
        for &x in self {
            write_vu32(out, x);
        }
    }
    fn read_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let n = r.read_vu64()? as usize;
        let mut v = Vec::new();
        r.read_vu32_seq(n, &mut v)?;
        Ok(v)
    }
}

/// Length-prefixed `Vec<u64>`; elements are varint-coded.
impl Writable for Vec<u64> {
    fn write_to(&self, out: &mut Vec<u8>) {
        write_vu64(out, self.len() as u64);
        for &x in self {
            write_vu64(out, x);
        }
    }
    fn read_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let n = r.read_vu64()? as usize;
        let mut v = Vec::new();
        r.read_vu64_seq(n, &mut v)?;
        Ok(v)
    }
}

/// Serialize a value into a fresh buffer (test and utility helper).
pub fn to_bytes<T: Writable>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.write_to(&mut out);
    out
}

/// Deserialize a value from a full slice, requiring full consumption.
pub fn from_bytes<T: Writable>(buf: &[u8]) -> Result<T> {
    let mut r = ByteReader::new(buf);
    let v = T::read_from(&mut r)?;
    if !r.is_empty() {
        return Err(MrError::Corrupt("trailing bytes after value"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_vu64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_vu64_at(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        let mut buf = Vec::new();
        write_vu64(&mut buf, 100);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_vu64(&mut buf, 300);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn truncated_varint_is_an_error() {
        let buf = [0x80u8, 0x80];
        let mut pos = 0;
        assert!(read_vu64_at(&buf, &mut pos).is_err());
    }

    #[test]
    fn tuple_and_vec_round_trip() {
        let v: (u64, Vec<u32>) = (42, vec![7, 0, 1_000_000]);
        let bytes = to_bytes(&v);
        let back: (u64, Vec<u32>) = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut bytes = to_bytes(&5u32);
        bytes.push(9);
        assert!(from_bytes::<u32>(&bytes).is_err());
    }

    #[test]
    fn seq_decode_matches_scalar_decode() {
        let values: Vec<u64> = (0..2000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 60))
            .collect();
        let mut buf = Vec::new();
        for &v in &values {
            write_vu64(&mut buf, v);
        }
        let mut pos = 0;
        let mut out = Vec::new();
        read_vu64_seq(&buf, &mut pos, values.len(), &mut out).unwrap();
        assert_eq!(out, values);
        assert_eq!(pos, buf.len());

        let small: Vec<u32> = values.iter().map(|&v| (v & 0xffff) as u32).collect();
        buf.clear();
        for &v in &small {
            write_vu32(&mut buf, v);
        }
        pos = 0;
        let mut out32 = Vec::new();
        read_vu32_seq(&buf, &mut pos, small.len(), &mut out32).unwrap();
        assert_eq!(out32, small);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn seq_decode_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        write_vu64(&mut buf, 300);
        write_vu64(&mut buf, 300);
        let mut pos = 0;
        let mut out = Vec::new();
        // Ask for more values than the buffer holds.
        assert!(read_vu64_seq(&buf, &mut pos, 3, &mut out).is_err());
        // A u64 value that does not fit in u32 fails the u32 variant.
        buf.clear();
        write_vu64(&mut buf, u64::from(u32::MAX) + 1);
        pos = 0;
        let mut out32 = Vec::new();
        assert!(read_vu32_seq(&buf, &mut pos, 1, &mut out32).is_err());
    }

    #[test]
    fn byte_reader_bounds() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.read_bytes(2).unwrap(), &[1, 2]);
        assert_eq!(r.remaining(), 1);
        assert!(r.read_bytes(2).is_err());
        assert_eq!(r.read_u8().unwrap(), 3);
        assert!(r.is_empty());
    }
}
