//! Binary wire protocol for broker federation.
//!
//! Every message travels as one *frame*:
//!
//! ```text
//! [u32 len][u32 crc32(payload)][payload: len bytes]
//! ```
//!
//! both header words little-endian. The payload reuses the checkpoint
//! codec primitives from [`ens_filter::persist`] ([`ByteWriter`] /
//! [`ByteReader`]), so the federation layer inherits the same varint,
//! value and profile encodings the durable state already exercises —
//! one codec, two consumers.
//!
//! Payload tags:
//!
//! | tag | message       | body |
//! |-----|---------------|------|
//! | 1   | `Hello`       | node, `schema_hash`, epoch, `recv_high`, `your_epoch` |
//! | 2   | `Subscribe`   | seq, id, profile |
//! | 3   | `Unsubscribe` | seq, id |
//! | 4   | `Batch`       | `first_seq`, origin, ttl, count, width (the [`IndexedBatch`]'s `len()` and `width()`), rows (`origin_seq`, then cells as `vu64(idx+1)`, 0 = missing) |
//! | 5   | `Ack`         | high (cumulative) |
//! | 6   | `Heartbeat`   | — |
//!
//! `Subscribe`/`Unsubscribe` consume one sequence number; a `Batch`
//! consumes one per row. `Hello`, `Ack` and `Heartbeat` are
//! unsequenced control traffic.

use ens_filter::persist::{frame_at, ByteReader, ByteWriter, PersistError};
use ens_types::{IndexedBatch, IndexedEvent, Profile, Schema};

use crate::persist::{decode_profile, encode_profile, schema_fingerprint};

/// Upper bound on a single frame's payload (64 MiB). A header
/// declaring more than this is treated as corruption, not a request
/// to allocate.
pub(crate) const MAX_FRAME: usize = 1 << 26;

/// Frame header size: length word plus CRC word.
pub(crate) const FRAME_HEADER: usize = 8;

/// FNV-1a 64-bit hash of the schema's canonical byte form. Two brokers
/// may federate only when their hashes agree — a mismatch is a
/// configuration error, reported once and not retried.
#[must_use]
pub fn schema_hash(schema: &Schema) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in schema_fingerprint(schema) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The payload of the frame `bytes` starts with; `None` while more
/// bytes are needed. The [`MAX_FRAME`] cap is checked before waiting
/// for the body, so a nonsense length word cannot make a reader buffer
/// without bound.
///
/// # Errors
///
/// Returns a corruption error for an oversized length word or a CRC
/// mismatch; the stream is unrecoverable past that point.
pub(crate) fn first_frame(bytes: &[u8]) -> Result<Option<&[u8]>, PersistError> {
    if bytes.len() < FRAME_HEADER {
        return Ok(None);
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if len > MAX_FRAME {
        return Err(PersistError::new(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    if bytes.len() < FRAME_HEADER + len {
        return Ok(None);
    }
    match frame_at(bytes, 0) {
        Some((payload, _)) => Ok(Some(payload)),
        None => Err(PersistError::new("frame CRC mismatch")),
    }
}

/// Incremental deframer over a byte stream.
///
/// Feed raw reads with [`FrameBuffer::extend`]; pull complete,
/// CRC-verified payloads with [`FrameBuffer::next_frame`]. Torn or
/// bit-flipped frames surface as [`PersistError`] — the link layer
/// treats that as a broken connection and resets.
#[derive(Debug, Default)]
pub(crate) struct FrameBuffer {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted lazily.
    pos: usize,
}

impl FrameBuffer {
    pub(crate) fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends raw bytes read from the transport.
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing so a long-lived connection does not
        // accumulate consumed prefixes.
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub(crate) fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extracts the next complete frame's payload ([`first_frame`] of
    /// what is buffered).
    pub(crate) fn next_frame(&mut self) -> Result<Option<Vec<u8>>, PersistError> {
        let Some(payload) = first_frame(&self.buf[self.pos..])? else {
            return Ok(None);
        };
        let out = payload.to_vec();
        self.pos += FRAME_HEADER + out.len();
        Ok(Some(out))
    }
}

/// A decoded federation message.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Msg {
    /// Connection greeting, sent by both sides immediately after the
    /// transport comes up. `recv_high` doubles as an implicit
    /// cumulative ack so a reconnecting sender can fast-forward past
    /// traffic the peer already has — but only when `your_epoch` (the
    /// sender's last-known epoch of the *recipient*, `None` when it
    /// has never greeted the recipient) matches the recipient's
    /// current epoch. A floor accumulated against a previous
    /// incarnation numbers a dead sequence space; acking the new
    /// incarnation's traffic with it would discard messages the
    /// sender never saw.
    Hello {
        node: u64,
        schema_hash: u64,
        epoch: u64,
        recv_high: u64,
        your_epoch: Option<u64>,
    },
    /// Forwarded interest: "send me events matching this". With
    /// covering aggregation the profile is a covering representative of
    /// possibly many local subscriptions; weights stay local to the
    /// subscribing broker's cost model and never cross the wire.
    Subscribe { seq: u64, id: u64, profile: Profile },
    /// Retraction of a previously forwarded subscription.
    Unsubscribe { seq: u64, id: u64 },
    /// A block of matched events as sentinel-encoded index rows
    /// (schema order, [`IndexedEvent::MISSING`] for absent
    /// attributes), in the arena the matcher and the broker's batched
    /// publish read — a row keeps this shape from the publisher's
    /// resolve to the receiver's ingress. Row `i` carries link
    /// sequence `first_seq + i`.
    ///
    /// Multi-hop routing metadata rides alongside: `origin` is the
    /// broker that first published the rows, `ttl` the remaining hop
    /// budget, and `origin_seqs[i]` the row's position in the origin's
    /// publish order (per-row, because a transit broker forwards only
    /// the subset matching each peer's interest — origin sequences are
    /// not contiguous past the first hop).
    Batch {
        first_seq: u64,
        origin: u64,
        ttl: u32,
        origin_seqs: Vec<u64>,
        rows: IndexedBatch,
    },
    /// Cumulative acknowledgement: every sequence `<= high` is
    /// received and processed.
    Ack { high: u64 },
    /// Liveness probe for otherwise idle links.
    Heartbeat,
}

impl Msg {
    /// Sequence numbers this message consumes (0 for control traffic).
    pub(crate) fn seq_span(&self) -> u64 {
        match self {
            Msg::Subscribe { .. } | Msg::Unsubscribe { .. } => 1,
            Msg::Batch { rows, .. } => rows.len() as u64,
            _ => 0,
        }
    }

    /// Rewrites the sequence field (used when a queued message is
    /// assigned its final sequence at send time).
    pub(crate) fn set_first_seq(&mut self, s: u64) {
        match self {
            Msg::Subscribe { seq, .. } | Msg::Unsubscribe { seq, .. } => *seq = s,
            Msg::Batch { first_seq, .. } => *first_seq = s,
            _ => {}
        }
    }

    /// Encodes the message payload (unframed).
    ///
    /// # Errors
    ///
    /// Returns an [`ens_filter::PersistErrorKind::Unencodable`] error
    /// for a profile whose predicates have no wire encoding.
    pub(crate) fn encode(&self) -> Result<Vec<u8>, PersistError> {
        let mut w = ByteWriter::new();
        match self {
            Msg::Hello {
                node,
                schema_hash,
                epoch,
                recv_high,
                your_epoch,
            } => {
                w.u8(1);
                w.vu64(*node);
                w.u64(*schema_hash);
                w.vu64(*epoch);
                w.vu64(*recv_high);
                match your_epoch {
                    Some(e) => {
                        w.u8(1);
                        w.vu64(*e);
                    }
                    None => w.u8(0),
                }
            }
            Msg::Subscribe { seq, id, profile } => {
                w.u8(2);
                w.vu64(*seq);
                w.vu64(*id);
                encode_profile(&mut w, profile)?;
            }
            Msg::Unsubscribe { seq, id } => {
                w.u8(3);
                w.vu64(*seq);
                w.vu64(*id);
            }
            Msg::Batch {
                first_seq,
                origin,
                ttl,
                origin_seqs,
                rows,
            } => {
                w.u8(4);
                w.vu64(*first_seq);
                w.vu64(*origin);
                w.vu32(*ttl);
                w.vu64(rows.len() as u64);
                w.vu32(rows.width() as u32);
                debug_assert_eq!(origin_seqs.len(), rows.len());
                for (i, &oseq) in origin_seqs.iter().enumerate() {
                    w.vu64(oseq);
                    for &idx in rows.row(i) {
                        // Missing → 0, index i → i+1: keeps the varint
                        // short for the common low indices and gives
                        // the sentinel the shortest encoding of all.
                        w.vu64(if idx == IndexedEvent::MISSING {
                            0
                        } else {
                            idx + 1
                        });
                    }
                }
            }
            Msg::Ack { high } => {
                w.u8(5);
                w.vu64(*high);
            }
            Msg::Heartbeat => w.u8(6),
        }
        Ok(w.into_bytes())
    }

    /// Decodes one payload produced by [`Msg::encode`].
    ///
    /// # Errors
    ///
    /// Returns a corruption error for unknown tags, truncated bodies,
    /// trailing garbage, or rows wider than sanity allows.
    pub(crate) fn decode(payload: &[u8], schema: &Schema) -> Result<Msg, PersistError> {
        let mut r = ByteReader::new(payload);
        let msg = match r.u8()? {
            1 => Msg::Hello {
                node: r.vu64()?,
                schema_hash: r.u64()?,
                epoch: r.vu64()?,
                recv_high: r.vu64()?,
                your_epoch: match r.u8()? {
                    0 => None,
                    1 => Some(r.vu64()?),
                    flag => {
                        return Err(PersistError::new(format!(
                            "bad hello epoch-presence flag {flag}"
                        )));
                    }
                },
            },
            2 => Msg::Subscribe {
                seq: r.vu64()?,
                id: r.vu64()?,
                profile: decode_profile(&mut r, schema.len())?,
            },
            3 => Msg::Unsubscribe {
                seq: r.vu64()?,
                id: r.vu64()?,
            },
            4 => {
                let first_seq = r.vu64()?;
                let origin = r.vu64()?;
                let ttl = r.vu32()?;
                let count = r.vu64()?;
                let width = r.vu32()?;
                // Every cell (and each row's origin-sequence prefix)
                // costs at least one varint byte on the wire, so a
                // genuine batch can never declare more of them than
                // payload bytes remain. Checking before the allocation
                // means a hostile CRC-valid 20-byte frame cannot
                // demand gigabytes; allocations stay proportional to
                // the bytes actually received. A row has at least one
                // cell (senders pad an empty schema to width 1), so
                // width 0 is nonsense, not a batch of empty rows.
                let cells = count.checked_mul(u64::from(width) + 1);
                if width == 0
                    || width as usize > u16::MAX as usize
                    || cells.is_none_or(|c| c > r.remaining() as u64)
                {
                    return Err(PersistError::new(format!(
                        "implausible batch shape: {count} rows x {width} columns in {} payload bytes",
                        r.remaining()
                    )));
                }
                let mut origin_seqs = Vec::with_capacity(count as usize);
                let mut rows = IndexedBatch::new();
                rows.reset(width as usize);
                let mut row = Vec::new();
                for _ in 0..count {
                    origin_seqs.push(r.vu64()?);
                    row.clear();
                    for _ in 0..width {
                        let v = r.vu64()?;
                        row.push(if v == 0 { IndexedEvent::MISSING } else { v - 1 });
                    }
                    rows.push_raw(&row);
                }
                Msg::Batch {
                    first_seq,
                    origin,
                    ttl,
                    origin_seqs,
                    rows,
                }
            }
            5 => Msg::Ack { high: r.vu64()? },
            6 => Msg::Heartbeat,
            tag => {
                return Err(PersistError::new(format!(
                    "unknown federation message tag {tag}"
                )));
            }
        };
        r.expect_end()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_filter::persist::frame;
    use ens_types::{Domain, Event, Predicate};

    fn schema() -> Schema {
        Schema::builder()
            .attribute("x", Domain::int(0, 99))
            .unwrap()
            .attribute("label", Domain::categorical(["a", "b"]).unwrap())
            .unwrap()
            .build()
    }

    fn round_trip(msg: &Msg, schema: &Schema) -> Msg {
        Msg::decode(&msg.encode().unwrap(), schema).unwrap()
    }

    fn rows(width: usize, rows: &[&[u64]]) -> IndexedBatch {
        let mut batch = IndexedBatch::new();
        batch.reset(width);
        for row in rows {
            batch.push_raw(row);
        }
        batch
    }

    #[test]
    fn all_message_kinds_round_trip() {
        let s = schema();
        let profile = Profile::builder(&s)
            .predicate("x", Predicate::ge(50))
            .unwrap()
            .build(ens_types::ProfileId::new(0));
        let batch = Msg::Batch {
            first_seq: 6,
            origin: 3,
            ttl: 2,
            origin_seqs: vec![10, 300],
            rows: rows(2, &[&[3, IndexedEvent::MISSING], &[99, 1]]),
        };
        // These rows as the commit before this shape encoded them
        // (`width` a field of its own, a heap vector per row): a peer
        // still running that encoder must read us and be read by us.
        const PARENT: [u8; 13] = [4, 6, 3, 2, 2, 2, 10, 4, 0, 172, 2, 100, 2];
        assert_eq!(batch.encode().unwrap(), PARENT);
        assert_eq!(Msg::decode(&PARENT, &s).unwrap(), batch);
        let msgs = [
            Msg::Hello {
                node: 7,
                schema_hash: schema_hash(&s),
                epoch: 3,
                recv_high: 12,
                your_epoch: Some(2),
            },
            Msg::Hello {
                node: 8,
                schema_hash: schema_hash(&s),
                epoch: 1,
                recv_high: 0,
                your_epoch: None,
            },
            Msg::Subscribe {
                seq: 4,
                id: 9,
                profile,
            },
            Msg::Unsubscribe { seq: 5, id: 9 },
            batch,
            Msg::Ack { high: 11 },
            Msg::Heartbeat,
        ];
        for m in msgs {
            assert_eq!(round_trip(&m, &s), m, "{m:?}");
        }
    }

    #[test]
    fn batch_rows_reconstruct_events() {
        let s = schema();
        let e = Event::builder(&s).value("x", 42).unwrap().build();
        let ix = IndexedEvent::resolve(&s, &e).unwrap();
        let m = Msg::Batch {
            first_seq: 1,
            origin: 1,
            ttl: 0,
            origin_seqs: vec![1],
            rows: rows(2, &[ix.raw()]),
        };
        let Msg::Batch { rows, .. } = round_trip(&m, &s) else {
            panic!("wrong kind");
        };
        let mut back = IndexedEvent::new();
        back.copy_from_raw(rows.row(0));
        assert_eq!(back.to_event(&s).unwrap(), e);
    }

    #[test]
    fn frame_buffer_reassembles_split_frames() {
        let a = frame(&Msg::Heartbeat.encode().unwrap()).unwrap();
        let b = frame(&Msg::Ack { high: 3 }.encode().unwrap()).unwrap();
        let stream: Vec<u8> = a.iter().chain(&b).copied().collect();
        let mut fb = FrameBuffer::new();
        // Feed one byte at a time: frames must reassemble across
        // arbitrary read boundaries.
        let mut got = Vec::new();
        for byte in stream {
            fb.extend(&[byte]);
            while let Some(p) = fb.next_frame().unwrap() {
                got.push(Msg::decode(&p, &schema()).unwrap());
            }
        }
        assert_eq!(got, vec![Msg::Heartbeat, Msg::Ack { high: 3 }]);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn corrupt_frames_are_detected() {
        let mut bytes = frame(&Msg::Heartbeat.encode().unwrap()).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        assert!(fb.next_frame().is_err(), "CRC flip must be caught");

        let mut fb = FrameBuffer::new();
        fb.extend(&(u32::MAX).to_le_bytes());
        fb.extend(&[0, 0, 0, 0]);
        assert!(fb.next_frame().is_err(), "oversized length must be caught");
    }

    #[test]
    fn hostile_batch_shapes_are_rejected_before_allocation() {
        let s = schema();
        // A `Batch` up to and including its declared shape.
        let header = |count: u64, width: u32| {
            let mut w = ByteWriter::new();
            w.u8(4);
            w.vu64(1); // first_seq
            w.vu64(0); // origin
            w.vu32(4); // ttl
            w.vu64(count);
            w.vu32(width);
            w
        };
        // A ~16-byte frame claiming 67M rows of 2 columns: more
        // cells than payload bytes, so it must fail before any
        // row allocation happens.
        assert!(Msg::decode(&header(1 << 26, 2).into_bytes(), &s).is_err());
        // Width 0 must not make rows free either: the per-row
        // origin-sequence prefix still costs a byte each.
        assert!(Msg::decode(&header(1 << 20, 0).into_bytes(), &s).is_err());
        // One row of width 0 passes the cell count (its origin
        // sequence is a byte) but is no row an `IndexedBatch` can
        // hold: refused here, not by a panic in `push_raw`.
        let mut w = header(1, 0);
        w.vu64(1); // origin_seq
        assert!(Msg::decode(&w.into_bytes(), &s).is_err());
        // A width that is merely not this schema's (3 against 2) is a
        // well-formed batch: it decodes, and ingress refuses and counts
        // its rows (`hostile_peer_frames_are_refused_counted_and_survived`
        // in the parent module).
        let mut w = header(1, 3);
        for v in [1, 1, 0, 2] {
            w.vu64(v); // origin_seq, then three cells
        }
        let Msg::Batch { rows, .. } = Msg::decode(&w.into_bytes(), &s).unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!((rows.len(), rows.width()), (1, 3));
        assert_eq!(rows.row(0), &[0, IndexedEvent::MISSING, 1]);
    }

    #[test]
    fn schema_hash_discriminates() {
        let a = schema();
        let b = Schema::builder()
            .attribute("x", Domain::int(0, 100))
            .unwrap()
            .build();
        assert_ne!(schema_hash(&a), schema_hash(&b));
        assert_eq!(schema_hash(&a), schema_hash(&schema()));
    }
}
