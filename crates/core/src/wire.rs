//! Shared little-endian framing primitives for every SMORE container.
//!
//! Two subsystems serialize binary payloads: the `.smore` model
//! [`artifact`](crate::artifact) container and the `smore_serve` network
//! protocol. Both follow the same discipline — little-endian fields,
//! CRC-32 integrity, and *bounds-checked* reads where every declared
//! count is validated against the bytes actually present **before** any
//! allocation happens (a hostile or corrupt length prefix must never size
//! a buffer the input itself cannot back). This module is the one codec
//! both decode with: the artifact writes and reads every section, and
//! walks its section table, through [`WireWriter`] and [`WireReader`]; the
//! wire protocol frames its messages with them. Artifact counts are `u64`
//! ([`WireReader::count_u64`]), protocol counts `u32`
//! ([`WireReader::count`]).
//!
//! In [`WireReader`], `take` is the only primitive that touches the byte
//! range, every typed read goes through it, and
//! [`finish`](WireReader::finish) rejects trailing bytes so a payload is
//! either consumed exactly or refused loudly.

use std::fmt;
use std::sync::OnceLock;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
/// of gzip/PNG, hand-rolled because no checksum crate is vendored.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8); // smore-lint: allow(panic_path) index is masked to 0..256 over the 256-entry table
    }
    crc ^ 0xFFFF_FFFF
}

/// A structural decode failure: what was being decoded and why it failed.
///
/// Deliberately *not* a [`crate::SmoreError`] variant — the artifact maps
/// wire failures into `CorruptArtifact` (the `From` conversion, with the
/// context as the section) and the network protocol maps them into an
/// on-wire error response; neither wants the other's vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The payload or field being decoded (static context label).
    pub context: &'static str,
    /// Human-readable description of the failure.
    pub reason: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed {} payload: {}", self.context, self.reason)
    }
}

impl std::error::Error for WireError {}

/// Result alias for wire-level decoding.
pub type WireResult<T> = std::result::Result<T, WireError>;

/// Little-endian payload builder.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with `capacity` bytes pre-reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { buf: Vec::with_capacity(capacity) }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a run of little-endian `f32` values (no length prefix —
    /// write the count yourself first).
    pub fn f32s(&mut self, vs: &[f32]) {
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.f32(v);
        }
    }

    /// Appends a run of little-endian `u64` values (no length prefix —
    /// write the count yourself first).
    pub fn u64s(&mut self, vs: &[u64]) {
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.u64(v);
        }
    }

    /// Appends raw bytes verbatim.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u32` length prefix followed by the UTF-8 bytes of `s`.
    pub fn str_lp(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the assembled payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian reader over one payload.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> WireReader<'a> {
    /// Wraps `bytes`; `context` labels decode errors.
    pub fn new(bytes: &'a [u8], context: &'static str) -> Self {
        Self { bytes, pos: 0, context }
    }

    /// Builds a [`WireError`] in this reader's context.
    pub fn malformed(&self, reason: impl Into<String>) -> WireError {
        WireError { context: self.context, reason: reason.into() }
    }

    /// Unread bytes remaining.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` bytes, or fails if fewer remain.
    pub fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.malformed(format!("payload truncated at byte {}", self.pos)))?;
        let out = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.malformed(format!("payload truncated at byte {}", self.pos)))?;
        self.pos = end;
        Ok(out)
    }

    /// Takes the next `N` bytes as a fixed-size array, or fails if fewer
    /// remain — the panic-free backbone of the integer readers.
    fn take_array<const N: usize>(&mut self) -> WireResult<[u8; N]> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        let Some((chunk, _)) = rest.split_first_chunk::<N>() else {
            return Err(self.malformed(format!("payload truncated at byte {}", self.pos)));
        };
        self.pos += N;
        Ok(*chunk)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> WireResult<u8> {
        let [byte] = self.take_array()?;
        Ok(byte)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> WireResult<u16> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `f32`.
    pub fn f32(&mut self) -> WireResult<f32> {
        Ok(f32::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u64` length, index or tag and checks that it fits in
    /// `usize`. It bounds no allocation by itself: a value that sizes one
    /// goes through [`count_u64`](Self::count_u64) or is checked against
    /// a bounded count.
    pub fn len(&mut self, what: &str) -> WireResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.malformed(format!("{what} count {v} overflows usize")))
    }

    /// Reads an item count declared as a `u32` and rejects it unless
    /// `count × min_bytes_per_item` still fits in the unread payload — so
    /// a crafted count can never size an allocation beyond the input's
    /// own byte length (a valid CRC is no protection: whoever writes the
    /// frame writes the checksum too).
    pub fn count(&mut self, what: &str, min_bytes_per_item: usize) -> WireResult<usize> {
        let n = self.u32()? as usize;
        self.fits(what, n, min_bytes_per_item)
    }

    /// [`count`](Self::count) for a count declared as a `u64` (the
    /// `.smore` artifact's width).
    pub fn count_u64(&mut self, what: &str, min_bytes_per_item: usize) -> WireResult<usize> {
        let n = self.len(what)?;
        self.fits(what, n, min_bytes_per_item)
    }

    /// The bound check behind both count readers.
    fn fits(&self, what: &str, n: usize, min_bytes_per_item: usize) -> WireResult<usize> {
        let remaining = self.remaining();
        let need = n.checked_mul(min_bytes_per_item.max(1));
        if need.is_none_or(|need| need > remaining) {
            return Err(
                self.malformed(format!("{what} count {n} exceeds the {remaining}-byte payload"))
            );
        }
        Ok(n)
    }

    /// Reads `n` f32 values; the byte bound is checked *before* the
    /// allocation.
    pub fn f32s(&mut self, n: usize) -> WireResult<Vec<f32>> {
        let mut raw =
            self.take(n.checked_mul(4).ok_or_else(|| self.malformed("f32 run length overflows"))?)?;
        let mut out = Vec::with_capacity(n);
        while let Some((chunk, rest)) = raw.split_first_chunk::<4>() {
            out.push(f32::from_le_bytes(*chunk));
            raw = rest;
        }
        Ok(out)
    }

    /// Reads `n` u64 values; bounds-checked like [`f32s`](Self::f32s).
    pub fn u64s(&mut self, n: usize) -> WireResult<Vec<u64>> {
        let mut raw =
            self.take(n.checked_mul(8).ok_or_else(|| self.malformed("u64 run length overflows"))?)?;
        let mut out = Vec::with_capacity(n);
        while let Some((chunk, rest)) = raw.split_first_chunk::<8>() {
            out.push(u64::from_le_bytes(*chunk));
            raw = rest;
        }
        Ok(out)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string (bounds-checked,
    /// invalid UTF-8 rejected).
    pub fn str_lp(&mut self) -> WireResult<String> {
        let n = self.count("string byte", 1)?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| self.malformed("string is not valid UTF-8"))
    }

    /// Requires the payload to be fully consumed.
    pub fn finish(self) -> WireResult<()> {
        if self.pos != self.bytes.len() {
            return Err(self.malformed(format!(
                "{} unread trailing bytes in payload",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_all_field_types() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f32(1.25);
        w.u32(3);
        w.f32s(&[1.0, -2.0, 3.5]);
        w.str_lp("hello");
        w.u64(2);
        w.u64s(&[u64::MAX, 0x0123_4567_89AB_CDEF]);
        w.u64(5);
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap(), 1.25);
        let n = r.count("f32", 4).unwrap();
        assert_eq!(r.f32s(n).unwrap(), vec![1.0, -2.0, 3.5]);
        assert_eq!(r.str_lp().unwrap(), "hello");
        let n = r.count_u64("u64", 8).unwrap();
        assert_eq!(r.u64s(n).unwrap(), vec![u64::MAX, 0x0123_4567_89AB_CDEF]);
        assert_eq!(r.len("tag").unwrap(), 5);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let mut w = WireWriter::new();
        w.u64(42);
        let bytes = w.into_bytes();

        let mut short = WireReader::new(&bytes[..5], "test");
        assert!(short.u64().is_err());

        let mut r = WireReader::new(&bytes, "test");
        assert_eq!(r.u32().unwrap(), 42);
        let err = r.finish().unwrap_err();
        assert!(err.reason.contains("trailing"), "{err}");

        // A failed read consumes nothing: the byte after it still reads.
        let mut r = WireReader::new(&[1, 0, 0, 0, 0, 0, 0, 0, 5], "test");
        assert_eq!(r.u64().unwrap(), 1);
        assert!(r.f32().is_err(), "only one byte left");
        assert_eq!(r.u8().unwrap(), 5);
        r.finish().unwrap();

        // A u64 run one byte short of its declared length.
        let mut w = WireWriter::new();
        w.u64s(&[7, 8, 9]);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes[..23], "test");
        let err = r.u64s(3).unwrap_err();
        assert!(err.reason.contains("truncated"), "{err}");
        assert_eq!(r.remaining(), 23, "the failed run consumed nothing");
        assert_eq!(WireReader::new(&bytes, "test").u64s(3).unwrap(), vec![7, 8, 9]);
    }

    #[test]
    fn hostile_counts_cannot_oversize_allocations() {
        // A count of u32::MAX over a 12-byte payload must be refused
        // before any allocation is attempted.
        let mut w = WireWriter::new();
        w.u32(u32::MAX);
        w.f32s(&[0.0, 0.0]);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes, "test");
        let err = r.count("values", 4).unwrap_err();
        assert!(err.reason.contains("exceeds"), "{err}");

        // The u64 count over a two-word payload: u64::MAX items, and one
        // item more than the payload holds, are refused the same way; an
        // exact fit passes.
        let payload = |declared: u64| {
            let mut w = WireWriter::new();
            w.u64(declared);
            w.u64s(&[0, 0]);
            w.into_bytes()
        };
        for declared in [u64::MAX, 3] {
            let bytes = payload(declared);
            let err = WireReader::new(&bytes, "test").count_u64("words", 8).unwrap_err();
            assert!(err.reason.contains("exceeds"), "{err}");
        }
        assert_eq!(WireReader::new(&payload(2), "test").count_u64("words", 8).unwrap(), 2);
    }

    #[test]
    fn strings_reject_bad_utf8_and_bad_lengths() {
        let mut w = WireWriter::new();
        w.u32(2);
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert!(WireReader::new(&bytes, "test").str_lp().is_err());

        let mut w = WireWriter::new();
        w.str_lp("ok");
        let bytes = w.into_bytes();
        // Truncate mid-string.
        assert!(WireReader::new(&bytes[..5], "test").str_lp().is_err());
    }
}
