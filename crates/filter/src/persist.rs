//! Compact length-prefixed binary persistence codec.
//!
//! Durability for the filter pipeline needs two things the textual
//! serde shim does not provide: a *dense* encoding for the flat
//! arrays (`Vec<u32>`/`Vec<u64>` by the megabyte at 1M profiles), and
//! an integrity check so a torn or corrupted checkpoint is detected
//! instead of deserialized into nonsense. This module supplies both:
//!
//! * [`ByteWriter`] / [`ByteReader`] — little-endian primitives with
//!   `u32` length prefixes and allocation guards (a declared sequence
//!   length is validated against the bytes actually remaining before
//!   anything is allocated, so corrupt input fails cleanly instead of
//!   attempting a multi-gigabyte `Vec`);
//! * a binary encoding of the serde shim's `Value` data model, so any
//!   `Serialize`/`Deserialize` type in the workspace (schemas, tree
//!   configurations, distribution estimates, WAL records) rides the
//!   same byte stream as the hand-rolled arena encoders;
//! * [`crc32`] — the IEEE CRC-32 used to frame write-ahead-log records
//!   and to seal checkpoint files.
//!
//! Floats are persisted via [`f64::to_bits`], so a reloaded event
//! model or profile-weight vector is *bit-identical* to the one that
//! was checkpointed — match outputs cannot drift across a recovery.

use std::fmt;

use ens_types::ProfileId;
use serde::__private::{from_value, to_value, Map, Number, Value};
use serde::{de, Deserialize, Serialize};

use crate::FilterError;

/// Nesting depth limit for decoded `Value` trees. Workspace types
/// nest a handful of levels; anything deeper is corrupt input trying
/// to overflow the decoder's stack.
const MAX_VALUE_DEPTH: usize = 64;

/// Broad classification of a persistence failure, so callers can
/// distinguish "the bytes are bad" from "this state cannot be
/// serialized at all".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum PersistErrorKind {
    /// The byte stream is truncated, fails its checksum, or decodes to
    /// nonsense — the durable artifact is damaged.
    #[default]
    Corrupt,
    /// The in-memory state has no defined encoding (e.g. a predicate
    /// variant added upstream before the codec learned its tag).
    /// Serialization must degrade to an error, never a panic.
    Unencodable,
}

/// An error while encoding or decoding persisted state.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistError {
    kind: PersistErrorKind,
    message: String,
}

impl PersistError {
    /// Builds a [`PersistErrorKind::Corrupt`] error with the given
    /// description.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        PersistError {
            kind: PersistErrorKind::Corrupt,
            message: message.into(),
        }
    }

    /// Builds a [`PersistErrorKind::Unencodable`] error: the value
    /// being written has no byte encoding.
    #[must_use]
    pub fn unencodable(message: impl Into<String>) -> Self {
        PersistError {
            kind: PersistErrorKind::Unencodable,
            message: message.into(),
        }
    }

    /// The broad failure class.
    #[must_use]
    pub fn kind(&self) -> PersistErrorKind {
        self.kind
    }

    /// The human-readable description.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "persist: {}", self.message)
    }
}

impl std::error::Error for PersistError {}

impl de::Error for PersistError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        PersistError::new(msg.to_string())
    }
}

impl From<PersistError> for FilterError {
    fn from(e: PersistError) -> Self {
        FilterError::Persist { message: e.message }
    }
}

/// Elements per fixed-width block in [`ByteWriter::packed_u32`] /
/// [`ByteWriter::packed_u64`]: small enough that one outlier delta
/// (a per-leaf restart, a domain-boundary cut) widens at most 32
/// elements, large enough that the per-block width byte is noise.
const PACK_BLOCK: usize = 32;

/// Slicing-by-8 lookup tables for [`crc32`], built at compile time.
/// `CRC_TABLE[0]` is the classic byte-at-a-time table; table `j`
/// advances a byte `j` positions further through the shift register,
/// so eight table lookups consume eight input bytes at once. A
/// `static`, not a `const`: an unoptimised build copies a `const`
/// array at every use.
static CRC_TABLE: [[u32; 256]; 8] = build_crc_table();

const fn build_crc_table() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

/// The IEEE CRC-32 checksum (polynomial `0xEDB88320`), slicing-by-8.
///
/// Checkpoints checksum the filter's profile trees — megabytes at large
/// subscription counts — so the checksum runs on the recovery path's
/// critical section. The slicing form processes eight bytes per step
/// instead of one bit.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLE[7][(lo & 0xFF) as usize]
            ^ CRC_TABLE[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLE[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLE[4][(lo >> 24) as usize]
            ^ CRC_TABLE[3][(hi & 0xFF) as usize]
            ^ CRC_TABLE[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLE[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLE[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLE[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Wraps `payload` into one `[u32 len][u32 crc][payload]` frame: the
/// unit of WAL framing and of the federation wire.
///
/// # Errors
///
/// [`PersistErrorKind::Unencodable`] if the payload exceeds the `u32`
/// length prefix.
pub fn frame(payload: &[u8]) -> Result<Vec<u8>, PersistError> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&[0; FRAME_HEADER]);
    out.extend_from_slice(payload);
    seal_frame(&mut out)?;
    Ok(out)
}

/// Bytes of the `[u32 len][u32 crc]` header in front of a frame's
/// payload.
const FRAME_HEADER: usize = 8;

/// Completes a frame built in place: `buf` is the header's bytes
/// (any value; a writer reserves them with `u64(0)`) followed by the
/// payload, and the length and checksum are written over them — the
/// same bytes [`frame`] returns, without copying the payload.
///
/// # Errors
///
/// Returns a [`PersistErrorKind::Unencodable`] error if `buf` has no
/// room for the header or the payload exceeds the `u32` length prefix.
pub fn seal_frame(buf: &mut [u8]) -> Result<(), PersistError> {
    let len = buf
        .len()
        .checked_sub(FRAME_HEADER)
        .and_then(|len| u32::try_from(len).ok())
        .ok_or_else(|| {
            PersistError::unencodable(format!(
                "a frame of {} bytes has no header or exceeds the u32 length prefix",
                buf.len()
            ))
        })?;
    let (header, payload) = buf.split_at_mut(FRAME_HEADER);
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(())
}

/// Validates a `[u32 len][u32 crc][payload]` frame starting at byte
/// `pos` of `bytes`: the header must be complete, the declared payload
/// in bounds, and the checksum hold. Returns the payload slice and the
/// offset just past the frame.
///
/// This is the unit of WAL framing *and* of WAL salvage: a scanner
/// that lost synchronization (a corrupt frame mid-log) probes
/// successive byte offsets with `frame_at` until a checksummed frame
/// boundary re-emerges.
#[must_use]
pub fn frame_at(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let rest = bytes.get(pos..)?;
    if rest.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    let stored = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
    let payload = rest.get(8..8 + len)?;
    (crc32(payload) == stored).then_some((payload, pos + 8 + len))
}

/// Writes a sorted profile-id list as its symmetric difference against
/// the previously written list, then advances `prev` to `cur`.
///
/// Posting lists in a compiled filter repeat the same ids over and over
/// (don't-care profiles land in every leaf below the node that splits
/// them off; a cell's covering profiles span runs of adjacent cells), so
/// consecutive lists in a fixed traversal order overlap almost
/// entirely. Storing only the removed and added ids — two delta-packed
/// sorted arrays — shrinks the dominant checkpoint sections ~20× at
/// 100k+ subscriptions. [`read_id_diff`] replays the stream.
pub(crate) fn write_id_diff(w: &mut ByteWriter, prev: &mut Vec<ProfileId>, cur: &[ProfileId]) {
    let mut removed: Vec<u32> = Vec::new();
    let mut added: Vec<u32> = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < prev.len() && j < cur.len() {
        match prev[i].cmp(&cur[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                removed.push(prev[i].index() as u32);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(cur[j].index() as u32);
                j += 1;
            }
        }
    }
    removed.extend(prev[i..].iter().map(|p| p.index() as u32));
    added.extend(cur[j..].iter().map(|p| p.index() as u32));
    w.packed_u32(&removed);
    w.packed_u32(&added);
    prev.clear();
    prev.extend_from_slice(cur);
}

/// Reads one list of a [`write_id_diff`] stream: replays the removals
/// and additions against `prev`, returns the reconstructed list and
/// advances `prev` to it.
pub(crate) fn read_id_diff(
    r: &mut ByteReader<'_>,
    prev: &mut Vec<ProfileId>,
) -> Result<Vec<ProfileId>, PersistError> {
    let removed = r.vec_u32_packed()?;
    let added = r.vec_u32_packed()?;
    let cap = (prev.len() + added.len()).saturating_sub(removed.len());
    let mut cur: Vec<ProfileId> = Vec::with_capacity(cap);
    let mut ai = 0usize;
    let mut ri = 0usize;
    for &p in prev.iter() {
        let pv = p.index() as u32;
        while ai < added.len() && added[ai] < pv {
            cur.push(ProfileId::new(added[ai]));
            ai += 1;
        }
        if ri < removed.len() && removed[ri] == pv {
            ri += 1;
            continue;
        }
        cur.push(p);
    }
    if ri != removed.len() {
        return Err(PersistError::new("id diff removes an absent profile"));
    }
    cur.extend(added[ai..].iter().map(|&id| ProfileId::new(id)));
    prev.clear();
    prev.extend_from_slice(&cur);
    Ok(cur)
}

/// An append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
    /// Whether a sequence too long for its `u32` prefix was written:
    /// the bytes then describe nothing a reader accepts, and
    /// [`ByteWriter::into_bytes_crc`] seals them with a checksum that
    /// does not hold.
    overlong: bool,
}

/// Continues writing behind the bytes of `buf` — for a caller that
/// keeps one buffer across writes for its allocation.
impl From<Vec<u8>> for ByteWriter {
    fn from(buf: Vec<u8>) -> Self {
        ByteWriter {
            buf,
            overlong: false,
        }
    }
}

impl ByteWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the raw bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Consumes the writer, appending a CRC-32 of everything written
    /// (the counterpart of [`ByteReader::verify_crc`]) — off by one
    /// bit if a sequence overran its length prefix, so that the image
    /// is refused on load instead of misread.
    #[must_use]
    pub fn into_bytes_crc(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf) ^ u32::from(self.overlong);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern (exact round trip, NaN included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a sequence length as a `u32` prefix. A sequence of more
    /// than `u32::MAX` elements (each at least a byte, so a payload no
    /// frame's `u32` length admits either) writes `u32::MAX` and marks
    /// the writer's output undecodable.
    pub fn seq_len(&mut self, n: usize) {
        match u32::try_from(n) {
            Ok(n) => self.u32(n),
            Err(_) => {
                self.overlong = true;
                self.u32(u32::MAX);
            }
        }
    }

    /// Appends a length-prefixed byte slice.
    pub fn bytes(&mut self, b: &[u8]) {
        self.seq_len(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Appends a LEB128 varint `u64` (1 byte for values below 128,
    /// at most 10 bytes).
    pub fn vu64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8 & 0x7F) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a LEB128 varint `u32`.
    pub fn vu32(&mut self, v: u32) {
        self.vu64(u64::from(v));
    }

    /// Appends a length-prefixed `u32` slice as zig-zag deltas between
    /// consecutive elements, packed per 32-element block at the
    /// smallest byte width that fits the block's deltas. Sorted or
    /// clustered data (CSR offsets, per-leaf profile lists, cost
    /// orderings) lands at one or two bytes per element instead of
    /// four, an occasional large reset only widens its own block, and
    /// the fixed width keeps the decode loop branch-free — varints
    /// would be marginally smaller but several times slower to read,
    /// and these arrays sit on the recovery path. Arbitrary data still
    /// round trips because the delta wraps.
    pub fn packed_u32(&mut self, v: &[u32]) {
        self.seq_len(v.len());
        let mut prev = 0u32;
        for block in v.chunks(PACK_BLOCK) {
            let mut all = 0u32;
            let mut p = prev;
            for &x in block {
                let d = x.wrapping_sub(p) as i32;
                all |= ((d << 1) ^ (d >> 31)) as u32;
                p = x;
            }
            let width = (4 - all.leading_zeros() as usize / 8).max(1);
            self.u8(width as u8);
            for &x in block {
                let d = x.wrapping_sub(prev) as i32;
                let z = ((d << 1) ^ (d >> 31)) as u32;
                self.buf.extend_from_slice(&z.to_le_bytes()[..width]);
                prev = x;
            }
        }
    }

    /// Appends a length-prefixed `u64` slice as block-wise fixed-width
    /// zig-zag deltas (the `u64` counterpart of
    /// [`ByteWriter::packed_u32`]).
    pub fn packed_u64(&mut self, v: &[u64]) {
        self.seq_len(v.len());
        let mut prev = 0u64;
        for block in v.chunks(PACK_BLOCK) {
            let mut all = 0u64;
            let mut p = prev;
            for &x in block {
                let d = x.wrapping_sub(p) as i64;
                all |= ((d << 1) ^ (d >> 63)) as u64;
                p = x;
            }
            let width = (8 - all.leading_zeros() as usize / 8).max(1);
            self.u8(width as u8);
            for &x in block {
                let d = x.wrapping_sub(prev) as i64;
                let z = ((d << 1) ^ (d >> 63)) as u64;
                self.buf.extend_from_slice(&z.to_le_bytes()[..width]);
                prev = x;
            }
        }
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn slice_u32(&mut self, v: &[u32]) {
        self.seq_len(v.len());
        for &x in v {
            self.u32(x);
        }
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn slice_u64(&mut self, v: &[u64]) {
        self.seq_len(v.len());
        for &x in v {
            self.u64(x);
        }
    }

    /// Appends a `Value` tree in the tagged binary form.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Bool(false) => self.u8(1),
            Value::Bool(true) => self.u8(2),
            Value::Number(Number::Int(x)) => {
                self.u8(3);
                self.i64(*x);
            }
            Value::Number(Number::UInt(x)) => {
                self.u8(4);
                self.u64(*x);
            }
            Value::Number(Number::Float(x)) => {
                self.u8(5);
                self.f64(*x);
            }
            Value::String(s) => {
                self.u8(6);
                self.str(s);
            }
            Value::Array(items) => {
                self.u8(7);
                self.seq_len(items.len());
                for item in items {
                    self.value(item);
                }
            }
            Value::Object(map) => {
                self.u8(8);
                self.seq_len(map.len());
                for (k, item) in map.iter() {
                    self.str(k);
                    self.value(item);
                }
            }
        }
    }

    /// Serializes any `Serialize` type through the shim data model
    /// into the binary `Value` form.
    pub fn serde<T: Serialize + ?Sized>(&mut self, v: &T) {
        self.value(&to_value(v));
    }
}

/// A bounds-checked little-endian byte source.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Verifies a trailing CRC-32 (as appended by
    /// [`ByteWriter::into_bytes_crc`]) and returns a reader over the
    /// payload bytes.
    ///
    /// # Errors
    ///
    /// Fails if the buffer is too short or the checksum mismatches.
    pub fn verify_crc(buf: &'a [u8]) -> Result<Self, PersistError> {
        if buf.len() < 4 {
            return Err(PersistError::new("truncated: missing checksum"));
        }
        let (payload, tail) = buf.split_at(buf.len() - 4);
        let stored = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
        let actual = crc32(payload);
        if stored != actual {
            return Err(PersistError::new(format!(
                "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        Ok(ByteReader::new(payload))
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether everything has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails unless the input was consumed exactly.
    ///
    /// # Errors
    ///
    /// Fails if trailing bytes remain.
    pub fn expect_end(&self) -> Result<(), PersistError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(PersistError::new(format!(
                "{} trailing bytes after decoded payload",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::new(format!(
                "truncated: wanted {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool encoded as one byte.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or a byte other than 0/1.
    pub fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(PersistError::new(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn i64(&mut self) -> Result<i64, PersistError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` by bit pattern.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32` sequence-length prefix, validating that a
    /// sequence of `n` elements of at least `elem_size` bytes each
    /// can still fit in the remaining input. This caps any allocation
    /// at the actual input size, so corrupt lengths fail fast.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or an impossible length.
    pub fn seq_len(&mut self, elem_size: usize) -> Result<usize, PersistError> {
        let n = self.u32()? as usize;
        let need = n.checked_mul(elem_size.max(1)).ok_or_else(|| {
            PersistError::new(format!("sequence length {n} overflows byte budget"))
        })?;
        if need > self.remaining() {
            return Err(PersistError::new(format!(
                "sequence of {n} x {elem_size}B exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte slice.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let n = self.seq_len(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Fails on truncated or non-UTF-8 input.
    pub fn str(&mut self) -> Result<String, PersistError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| PersistError::new("invalid UTF-8 in persisted string"))
    }

    /// Reads a LEB128 varint `u64`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or a varint longer than 10 bytes.
    pub fn vu64(&mut self) -> Result<u64, PersistError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(PersistError::new("varint overflows u64"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(PersistError::new("varint longer than 10 bytes"));
            }
        }
    }

    /// Reads a LEB128 varint `u32`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or a value exceeding `u32::MAX`.
    pub fn vu32(&mut self) -> Result<u32, PersistError> {
        let v = self.vu64()?;
        u32::try_from(v).map_err(|_| PersistError::new(format!("varint {v} overflows u32")))
    }

    /// Reads a `u32` vector written by [`ByteWriter::packed_u32`].
    ///
    /// # Errors
    ///
    /// Fails on truncated input or an invalid delta width.
    pub fn vec_u32_packed(&mut self) -> Result<Vec<u32>, PersistError> {
        let n = self.seq_len(1)?;
        let mut out = Vec::with_capacity(n);
        let mut prev = 0u32;
        fn unpack<const W: usize>(raw: &[u8], prev: &mut u32, out: &mut Vec<u32>) {
            for c in raw.chunks_exact(W) {
                let mut le = [0u8; 4];
                le[..W].copy_from_slice(c);
                let z = u32::from_le_bytes(le);
                let d = ((z >> 1) as i32) ^ -((z & 1) as i32);
                *prev = prev.wrapping_add(d as u32);
                out.push(*prev);
            }
        }
        while out.len() < n {
            let count = (n - out.len()).min(PACK_BLOCK);
            let width = self.u8()? as usize;
            if !(1..=4).contains(&width) {
                return Err(PersistError::new(format!(
                    "invalid u32 delta width {width}"
                )));
            }
            let raw = self.take(count * width)?;
            match width {
                1 => unpack::<1>(raw, &mut prev, &mut out),
                2 => unpack::<2>(raw, &mut prev, &mut out),
                3 => unpack::<3>(raw, &mut prev, &mut out),
                _ => unpack::<4>(raw, &mut prev, &mut out),
            }
        }
        Ok(out)
    }

    /// Reads a `u64` vector written by [`ByteWriter::packed_u64`].
    ///
    /// # Errors
    ///
    /// Fails on truncated input or an invalid delta width.
    pub fn vec_u64_packed(&mut self) -> Result<Vec<u64>, PersistError> {
        let n = self.seq_len(1)?;
        let mut out = Vec::with_capacity(n);
        let mut prev = 0u64;
        fn unpack<const W: usize>(raw: &[u8], prev: &mut u64, out: &mut Vec<u64>) {
            for c in raw.chunks_exact(W) {
                let mut le = [0u8; 8];
                le[..W].copy_from_slice(c);
                let z = u64::from_le_bytes(le);
                let d = ((z >> 1) as i64) ^ -((z & 1) as i64);
                *prev = prev.wrapping_add(d as u64);
                out.push(*prev);
            }
        }
        while out.len() < n {
            let count = (n - out.len()).min(PACK_BLOCK);
            let width = self.u8()? as usize;
            if !(1..=8).contains(&width) {
                return Err(PersistError::new(format!(
                    "invalid u64 delta width {width}"
                )));
            }
            let raw = self.take(count * width)?;
            match width {
                1 => unpack::<1>(raw, &mut prev, &mut out),
                2 => unpack::<2>(raw, &mut prev, &mut out),
                3 => unpack::<3>(raw, &mut prev, &mut out),
                4 => unpack::<4>(raw, &mut prev, &mut out),
                5 => unpack::<5>(raw, &mut prev, &mut out),
                6 => unpack::<6>(raw, &mut prev, &mut out),
                7 => unpack::<7>(raw, &mut prev, &mut out),
                _ => unpack::<8>(raw, &mut prev, &mut out),
            }
        }
        Ok(out)
    }

    /// Reads a length-prefixed `u32` vector.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn vec_u32(&mut self) -> Result<Vec<u32>, PersistError> {
        let n = self.seq_len(4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// Reads a length-prefixed `u64` vector.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn vec_u64(&mut self) -> Result<Vec<u64>, PersistError> {
        let n = self.seq_len(8)?;
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .collect())
    }

    /// Reads a `Value` tree in the tagged binary form.
    ///
    /// # Errors
    ///
    /// Fails on truncated input, an unknown tag, or pathological
    /// nesting depth.
    pub fn value(&mut self) -> Result<Value, PersistError> {
        self.value_at(0)
    }

    fn value_at(&mut self, depth: usize) -> Result<Value, PersistError> {
        if depth > MAX_VALUE_DEPTH {
            return Err(PersistError::new("value tree nested too deeply"));
        }
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(false)),
            2 => Ok(Value::Bool(true)),
            3 => Ok(Value::Number(Number::Int(self.i64()?))),
            4 => Ok(Value::Number(Number::UInt(self.u64()?))),
            5 => Ok(Value::Number(Number::Float(self.f64()?))),
            6 => Ok(Value::String(self.str()?)),
            7 => {
                let n = self.seq_len(1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value_at(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            8 => {
                let n = self.seq_len(1)?;
                let mut map = Map::new();
                for _ in 0..n {
                    let key = self.str()?;
                    let value = self.value_at(depth + 1)?;
                    map.insert(key, value);
                }
                Ok(Value::Object(map))
            }
            tag => Err(PersistError::new(format!("unknown value tag {tag}"))),
        }
    }

    /// Deserializes any `Deserialize` type from the binary `Value`
    /// form written by [`ByteWriter::serde`].
    ///
    /// # Errors
    ///
    /// Fails on truncated input or a shape mismatch.
    pub fn serde<T: for<'de> Deserialize<'de>>(&mut self) -> Result<T, PersistError> {
        let value = self.value()?;
        from_value::<T, PersistError>(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.f64(-0.125);
        w.str("héllo");
        w.slice_u32(&[1, 2, 3]);
        w.slice_u64(&[u64::MAX]);
        w.bytes(b"xyz");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.vec_u32().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.vec_u64().unwrap(), vec![u64::MAX]);
        assert_eq!(r.bytes().unwrap(), b"xyz");
        r.expect_end().unwrap();
    }

    #[test]
    fn varints_round_trip() {
        let samples = [
            0u64,
            1,
            127,
            128,
            300,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut w = ByteWriter::new();
        for &v in &samples {
            w.vu64(v);
        }
        w.vu32(0);
        w.vu32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for &v in &samples {
            assert_eq!(r.vu64().unwrap(), v);
        }
        assert_eq!(r.vu32().unwrap(), 0);
        assert_eq!(r.vu32().unwrap(), u32::MAX);
        r.expect_end().unwrap();

        // Small values take one byte.
        let mut w = ByteWriter::new();
        w.vu64(127);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn vu32_rejects_oversized_varint() {
        let mut w = ByteWriter::new();
        w.vu64(u64::from(u32::MAX) + 1);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).vu32().is_err());
        // An 11-byte continuation run never terminates a u64.
        assert!(ByteReader::new(&[0xFF; 11]).vu64().is_err());
    }

    #[test]
    fn packed_slices_round_trip() {
        // Sorted, unsorted, wrapping, and extreme values all survive.
        let u32s: Vec<u32> = vec![5, 5, 9, 1_000_000, 3, 0, u32::MAX, 1];
        let u64s: Vec<u64> = vec![10, 11, 12, u64::MAX, 0, 1 << 60, 7];
        let mut w = ByteWriter::new();
        w.packed_u32(&u32s);
        w.packed_u64(&u64s);
        w.packed_u32(&[]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.vec_u32_packed().unwrap(), u32s);
        assert_eq!(r.vec_u64_packed().unwrap(), u64s);
        assert_eq!(r.vec_u32_packed().unwrap(), Vec::<u32>::new());
        r.expect_end().unwrap();

        // A sorted run with unit steps costs one byte per element plus
        // one width byte per 32-element block.
        let sorted: Vec<u32> = (100..200).collect();
        let mut w = ByteWriter::new();
        w.packed_u32(&sorted);
        assert!(w.len() <= 4 + sorted.len().div_ceil(PACK_BLOCK) + sorted.len() + 1);
    }

    #[test]
    fn value_round_trip() {
        let mut map = Map::new();
        map.insert("a", Value::Number(Number::Int(-5)));
        map.insert("b", Value::Array(vec![Value::Null, Value::Bool(true)]));
        map.insert("c", Value::Number(Number::Float(f64::NAN)));
        let v = Value::Object(map);
        let mut w = ByteWriter::new();
        w.value(&v);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = r.value().unwrap();
        r.expect_end().unwrap();
        // NaN breaks PartialEq; compare the bit-exact encodings instead.
        let mut w2 = ByteWriter::new();
        w2.value(&back);
        assert_eq!(bytes, w2.into_bytes());
    }

    #[test]
    fn crc_seal_detects_corruption() {
        let mut w = ByteWriter::new();
        w.str("payload");
        let mut bytes = w.into_bytes_crc();
        assert!(ByteReader::verify_crc(&bytes).is_ok());
        bytes[2] ^= 0x01;
        assert!(ByteReader::verify_crc(&bytes).is_err());
        assert!(ByteReader::verify_crc(&bytes[..3]).is_err());
    }

    #[test]
    fn corrupt_lengths_fail_without_allocating() {
        // A u32 length prefix claiming 4 billion elements must fail
        // the byte-budget check, not attempt the allocation.
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.vec_u64().is_err());
        let mut r = ByteReader::new(&bytes);
        assert!(r.str().is_err());
    }

    #[test]
    fn truncated_primitives_fail() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.u32().is_err());
        let mut r = ByteReader::new(&[]);
        assert!(r.u8().is_err());
        let mut r = ByteReader::new(&[9]);
        assert!(r.bool().is_err());
    }

    #[test]
    fn unknown_value_tag_fails() {
        let mut r = ByteReader::new(&[200]);
        assert!(r.value().is_err());
    }
}
