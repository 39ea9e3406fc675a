//! Durability: write-ahead subscription log and checkpoint files.
//!
//! The broker's durable state lives inside a single directory:
//!
//! * **`checkpoint.<gen>.ens`** — generational full images of every
//!   shard: the active [`TreeConfig`] (including accepted retunes),
//!   the compiled [`FilterSnapshot`](ens_filter::FilterSnapshot)
//!   (its tree), and the subscription entries (id, weight, profile,
//!   tombstone flag) aligned with the snapshot's dispatch ids. Each is
//!   sealed with a CRC-32 and written atomically (temp file + rename +
//!   parent-directory fsync). The newest
//!   [`DurabilityConfig::checkpoint_generations`] generations are
//!   retained; recovery loads the newest CRC-valid one and falls back
//!   a generation when bit rot took the newest out. (The pre-
//!   generational name `checkpoint.bin` is read as generation 0.)
//! * **`wal.log`** — append-only [`WalRecord`] frames for everything
//!   that changed *since* the oldest retained checkpoint: subscribes,
//!   unsubscribes and accepted retunes. Each frame is
//!   `[u32 len][u32 crc][payload]`, and a payload's first byte says how
//!   the rest is laid out:
//!
//!   | kind | payload after it |
//!   |---|---|
//!   | `1` Subscribe | `vu64 lsn`, `vu64 id`, `f64 weight`, `vu32` predicate count, the profile as checkpoint entries hold it |
//!   | `2` Unsubscribe | `vu64 lsn`, `vu64 id` |
//!   | `8` tagged | the whole record through the tagged serde codec (`8` is that codec's object tag): a Retune, or any record of a log written before kinds `1` and `2` |
//!
//!   A Subscribe frame over a few attributes is 30–40 bytes; the tagged
//!   codec spent about 223. A Subscribe whose weight is not finite and
//!   positive does not decode, and the broker's recovery also refuses,
//!   like a frame that does not decode, one whose profile does not fit
//!   its schema ([`Profile::check`]). [`decode_wal`] stops at the first
//!   frame whose length or checksum does not hold (a torn final record
//!   is indistinguishable from a clean end of log); [`salvage_wal`]
//!   additionally rescans past a corrupt *interior* frame to the next
//!   checksummed frame boundary, counting salvaged frames and
//!   quarantined bytes instead of discarding the rest of the log.
//!   Because frames delimit themselves and LSNs only grow, what a
//!   checkpoint generation still needs of the log is a byte suffix of
//!   it: the broker trims by copying that suffix from an offset it
//!   recorded, never through this codec, and quarantined bytes leave
//!   the log when they fall behind such a cut.
//!
//! Records carry a monotonically increasing log sequence number
//! (LSN, starting at 1). A checkpoint stores the highest LSN it
//! covers; replay applies only records with a higher LSN, so recovery
//! from a checkpoint plus an *un-truncated* WAL (the
//! checkpoint-then-crash-before-truncate window) is idempotent, and a
//! fallback to an older generation simply replays a longer WAL
//! suffix.

use std::path::PathBuf;
use std::sync::Arc;

use ens_dist::JointDist;
use ens_filter::persist::{frame_at, seal_frame, ByteReader, ByteWriter, PersistError};
use ens_filter::{AttributeOrder, SearchStrategy, TreeConfig};
use ens_types::{Predicate, Profile, ProfileId, Schema, Value};
use serde::{Deserialize, Serialize};

use crate::error::ServiceError;
use crate::vfs::{OsFs, Vfs};

/// File name of the write-ahead log inside the durability directory.
pub const WAL_FILE: &str = "wal.log";
/// Temp name the WAL is staged under while it is rewritten (trimmed
/// after a checkpoint retires old generations).
pub const WAL_TMP_FILE: &str = "wal.tmp";
/// Legacy (pre-generational) checkpoint file name, read as
/// generation 0.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// Temp name a checkpoint is staged under before the atomic rename.
pub const CHECKPOINT_TMP_FILE: &str = "checkpoint.tmp";

/// The file name of checkpoint generation `gen`
/// (`checkpoint.<gen>.ens`; generation 0 is the legacy
/// [`CHECKPOINT_FILE`]).
#[must_use]
pub fn checkpoint_gen_file(gen: u64) -> String {
    if gen == 0 {
        CHECKPOINT_FILE.to_string()
    } else {
        format!("checkpoint.{gen}.ens")
    }
}

/// Parses a checkpoint generation number back out of a file name
/// produced by [`checkpoint_gen_file`]; `None` for any other name.
#[must_use]
pub fn parse_checkpoint_gen(name: &str) -> Option<u64> {
    if name == CHECKPOINT_FILE {
        return Some(0);
    }
    let gen: u64 = name
        .strip_prefix("checkpoint.")?
        .strip_suffix(".ens")?
        .parse()
        .ok()?;
    (gen > 0).then_some(gen)
}

/// Leading magic of a checkpoint file (`"ENSC"`).
const CHECKPOINT_MAGIC: u32 = 0x454E_5343;
/// Bumped whenever the checkpoint layout changes incompatibly.
const CHECKPOINT_VERSION: u32 = 2;

/// When WAL appends are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` before every acknowledgement — after each appended
    /// record, and once after all of a bulk load's: no acknowledged
    /// subscription change is ever lost, at per-call latency cost.
    Always,
    /// `fsync` only when a checkpoint is written; a crash may lose the
    /// OS-buffered WAL tail (the default, matching the recovery
    /// oracle's torn-tail tolerance).
    #[default]
    OnCheckpoint,
    /// Never `fsync` explicitly (tests and benchmarks).
    Never,
}

/// Configuration of the broker's durability layer.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `wal.log` and the checkpoint generations
    /// (created if missing).
    pub dir: PathBuf,
    /// Automatic checkpoint interval, counted in WAL records appended
    /// since the last checkpoint; `0` disables automatic checkpoints
    /// (call [`Broker::checkpoint`](crate::Broker::checkpoint)
    /// manually).
    pub checkpoint_every: u64,
    /// WAL flush policy.
    pub fsync: FsyncPolicy,
    /// Storage backend every WAL/checkpoint byte goes through
    /// ([`OsFs`] in production, [`crate::vfs::FaultFs`] under fault
    /// injection).
    pub vfs: Arc<dyn Vfs>,
    /// Checkpoint generations to retain (minimum 1). With `N > 1`,
    /// recovery survives bit rot in the newest checkpoint by falling
    /// back to an older generation; the WAL is only trimmed past what
    /// the *oldest retained* generation covers, so the fallback can
    /// replay forward to the present — which means the log always
    /// carries the older generations' intervals (at `N = 2`, one full
    /// `checkpoint_every` interval right after a checkpoint), and is
    /// empty after a checkpoint only at `N = 1`.
    pub checkpoint_generations: usize,
}

impl DurabilityConfig {
    /// A configuration with the default knobs in `dir`: checkpoint
    /// every 4096 records, fsync on checkpoint, the real filesystem,
    /// two retained checkpoint generations.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_every: 4096,
            fsync: FsyncPolicy::default(),
            vfs: Arc::new(OsFs),
            checkpoint_generations: 2,
        }
    }
}

/// One durable subscription-state change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// A subscription was registered.
    Subscribe {
        /// Log sequence number.
        lsn: u64,
        /// The assigned subscription id.
        id: u64,
        /// Priority weight.
        weight: f64,
        /// The subscribed profile.
        profile: Profile,
    },
    /// A subscription was cancelled (explicitly or by dead-subscriber
    /// garbage collection).
    Unsubscribe {
        /// Log sequence number.
        lsn: u64,
        /// The cancelled subscription id.
        id: u64,
    },
    /// A shard accepted a retune: its active tree configuration
    /// switched to the winning shape under the recorded distribution
    /// estimate.
    Retune {
        /// Log sequence number.
        lsn: u64,
        /// Index of the retuned shard.
        shard: u32,
        /// The accepted attribute order.
        attribute_order: AttributeOrder,
        /// The accepted search strategy.
        search: SearchStrategy,
        /// The online estimate the retune was priced under (becomes
        /// the shard's event-model prior).
        event_model: JointDist,
    },
}

impl WalRecord {
    /// The record's log sequence number.
    #[must_use]
    pub fn lsn(&self) -> u64 {
        match self {
            WalRecord::Subscribe { lsn, .. }
            | WalRecord::Unsubscribe { lsn, .. }
            | WalRecord::Retune { lsn, .. } => *lsn,
        }
    }
}

/// First payload byte of a Subscribe frame.
const KIND_SUBSCRIBE: u8 = 1;
/// First payload byte of an Unsubscribe frame.
const KIND_UNSUBSCRIBE: u8 = 2;
/// First payload byte of a frame in the tagged serde codec: the tag of
/// the object every [`WalRecord`] serializes to. Retune records are
/// written this way, and so was every frame of a log written before
/// the Subscribe and Unsubscribe kinds existed.
const KIND_TAGGED: u8 = 8;
/// The widest profile a Subscribe record may hold. The declared width
/// sizes the dense predicate vector while only the specified predicates
/// cost bytes, so the cap is what keeps a 22-byte frame from asking for
/// more than ≈ 12 KiB.
const MAX_RECORD_WIDTH: usize = u8::MAX as usize;

/// Writes a Subscribe record's fields after its LSN: `vu64 id`,
/// `f64 weight`, `vu32` predicate count, then [`encode_profile`].
fn write_subscribe(
    w: &mut ByteWriter,
    id: u64,
    weight: f64,
    profile: &Profile,
) -> Result<(), PersistError> {
    let width = profile.predicates().len();
    if width > MAX_RECORD_WIDTH {
        return Err(PersistError::unencodable(format!(
            "a profile over {width} attributes is wider than a WAL record allows"
        )));
    }
    w.vu64(id);
    w.f64(weight);
    w.vu32(width as u32);
    encode_profile(w, profile)
}

/// Runs `write` on a [`ByteWriter`] over `buf`, and takes back what it
/// wrote if it fails.
fn write_behind(
    buf: &mut Vec<u8>,
    write: impl FnOnce(&mut ByteWriter) -> Result<(), PersistError>,
) -> Result<(), PersistError> {
    let start = buf.len();
    let mut w = ByteWriter::from(std::mem::take(buf));
    let written = write(&mut w);
    *buf = w.into_bytes();
    if written.is_err() {
        buf.truncate(start);
    }
    written
}

/// Encodes one record as a WAL frame: `[u32 len][u32 crc][payload]`.
/// A Subscribe's payload is its kind byte, `vu64 lsn` and the fields
/// `write_subscribe` lays out; an Unsubscribe's is its kind byte,
/// `vu64 lsn` and `vu64 id`; a Retune goes through the tagged serde
/// codec, whose first byte is `8`.
///
/// # Errors
///
/// Returns a [`PersistErrorKind::Unencodable`] error for a profile the
/// codec cannot write or a payload that exceeds the `u32` length
/// prefix — the caller degrades instead of panicking on the durability
/// path.
///
/// [`PersistErrorKind::Unencodable`]: ens_filter::PersistErrorKind::Unencodable
pub fn encode_frame(record: &WalRecord) -> Result<Vec<u8>, PersistError> {
    // Room for a Subscribe over a few attributes in one allocation.
    let mut out = Vec::with_capacity(128);
    append_frame(&mut out, record)?;
    Ok(out)
}

/// Appends [`encode_frame`]'s bytes to a buffer the caller keeps (the
/// broker's WAL appends reuse one): the header is reserved, the
/// payload written behind it and the header patched in place.
pub(crate) fn append_frame(buf: &mut Vec<u8>, record: &WalRecord) -> Result<(), PersistError> {
    let start = buf.len();
    write_behind(buf, |w| {
        w.u64(0);
        match record {
            WalRecord::Subscribe {
                lsn,
                id,
                weight,
                profile,
            } => {
                w.u8(KIND_SUBSCRIBE);
                w.vu64(*lsn);
                write_subscribe(w, *id, *weight, profile)
            }
            WalRecord::Unsubscribe { lsn, id } => {
                w.u8(KIND_UNSUBSCRIBE);
                w.vu64(*lsn);
                w.vu64(*id);
                Ok(())
            }
            WalRecord::Retune { .. } => {
                w.serde(record);
                Ok(())
            }
        }
    })?;
    seal_frame(&mut buf[start..])
}

/// Subscribe records encoded ahead of the WAL lock. A subscribe path
/// encodes its profiles before it commits them, so that one the codec
/// cannot write is refused before anything changes; the WAL lock then
/// only stamps the LSNs on as it frames them, and never holds a
/// profile.
#[derive(Debug, Default)]
pub(crate) struct SubscribeBodies {
    /// Every record's fields after its LSN, back to back.
    bytes: Vec<u8>,
    /// Where each record's fields end in `bytes`.
    ends: Vec<usize>,
}

impl SubscribeBodies {
    /// Encodes one record's fields.
    ///
    /// # Errors
    ///
    /// A [`PersistErrorKind::Unencodable`] error for a profile the codec
    /// cannot write; nothing is kept of it.
    ///
    /// [`PersistErrorKind::Unencodable`]: ens_filter::PersistErrorKind::Unencodable
    pub(crate) fn push(
        &mut self,
        id: u64,
        weight: f64,
        profile: &Profile,
    ) -> Result<(), PersistError> {
        write_behind(&mut self.bytes, |w| write_subscribe(w, id, weight, profile))?;
        self.ends.push(self.bytes.len());
        Ok(())
    }

    /// How many records are held.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Appends one frame per record to `buf`, the first under
    /// `first_lsn` and each next one under the next LSN.
    pub(crate) fn frame_into(&self, buf: &mut Vec<u8>, first_lsn: u64) -> Result<(), PersistError> {
        let mut from = 0;
        for (lsn, &end) in (first_lsn..).zip(&self.ends) {
            let start = buf.len();
            write_behind(buf, |w| {
                w.u64(0);
                w.u8(KIND_SUBSCRIBE);
                w.vu64(lsn);
                Ok(())
            })?;
            buf.extend_from_slice(&self.bytes[from..end]);
            seal_frame(&mut buf[start..])?;
            from = end;
        }
        Ok(())
    }
}

/// Decodes one frame's payload, by its first byte: a Subscribe or an
/// Unsubscribe, or a record in the tagged serde codec (a Retune, or any
/// record of a log written before the binary kinds). A Subscribe whose
/// weight is not finite and positive is refused, as the subscribe paths
/// refuse it.
fn decode_record(payload: &[u8]) -> Result<WalRecord, PersistError> {
    let mut r = ByteReader::new(payload);
    let record = match r.u8()? {
        KIND_SUBSCRIBE => {
            let (lsn, id, weight) = (r.vu64()?, r.vu64()?, r.f64()?);
            let width = r.vu32()? as usize;
            if width > MAX_RECORD_WIDTH {
                return Err(PersistError::new(format!(
                    "a Subscribe record declares {width} attributes"
                )));
            }
            WalRecord::Subscribe {
                lsn,
                id,
                weight,
                profile: decode_profile(&mut r, width)?,
            }
        }
        KIND_UNSUBSCRIBE => WalRecord::Unsubscribe {
            lsn: r.vu64()?,
            id: r.vu64()?,
        },
        KIND_TAGGED => {
            r = ByteReader::new(payload);
            r.serde()?
        }
        kind => return Err(PersistError::new(format!("unknown WAL record kind {kind}"))),
    };
    r.expect_end()?;
    match record {
        WalRecord::Subscribe { weight, .. } if !(weight.is_finite() && weight > 0.0) => Err(
            PersistError::new(format!("a Subscribe record carries weight {weight}")),
        ),
        record => Ok(record),
    }
}

/// The result of scanning a WAL byte stream.
#[derive(Debug)]
pub struct WalScan {
    /// Every fully-durable record, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset just past each decoded frame: truncating the log at
    /// `offsets[i]` durably keeps exactly `records[..=i]`.
    pub offsets: Vec<usize>,
    /// Bytes up to the end of the last accepted frame (quarantined
    /// gaps included under salvage).
    pub consumed: usize,
    /// Whether trailing bytes past `consumed` were discarded as a torn
    /// or corrupt tail.
    pub torn: bool,
    /// Frames recovered *after* a corrupt region ([`salvage_wal`]
    /// only; [`decode_wal`] never resynchronizes, so always 0 there).
    pub salvaged: u64,
    /// Bytes of corrupt interior regions that were skipped to reach a
    /// later valid frame ([`salvage_wal`] only). A torn tail counts
    /// via `consumed < len`, not here.
    pub quarantined: u64,
}

/// Decodes the checksummed frame at `pos`, if its payload is exactly
/// one well-formed record.
fn record_at(bytes: &[u8], pos: usize) -> Option<(WalRecord, usize)> {
    let (payload, next) = frame_at(bytes, pos)?;
    Some((decode_record(payload).ok()?, next))
}

/// Scans a WAL byte stream, stopping cleanly at the first frame that
/// is incomplete, fails its checksum, or does not decode — everything
/// before it is durable, everything from it on is a torn tail.
#[must_use]
pub fn decode_wal(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut offsets = Vec::new();
    let mut pos = 0usize;
    while let Some((record, next)) = record_at(bytes, pos) {
        records.push(record);
        pos = next;
        offsets.push(pos);
    }
    WalScan {
        records,
        offsets,
        consumed: pos,
        torn: pos < bytes.len(),
        salvaged: 0,
        quarantined: 0,
    }
}

/// Scans a WAL byte stream in salvage mode: where [`decode_wal`]
/// stops, this scanner probes forward byte by byte for the next
/// checksummed frame boundary, quarantines the skipped region, and
/// keeps going.
///
/// Two guards keep salvage from resurrecting state the log never
/// promised:
///
/// * **Checksum** — only a frame whose CRC-32 holds is ever accepted,
///   so a flipped bit can hide a frame but cannot fabricate one.
/// * **Monotone LSNs** — an accepted frame's LSN must be strictly
///   greater than its predecessor's, so a stale sector that still
///   holds a bit-exact *older* frame (dropped/reordered unsynced
///   writes) is quarantined instead of replayed out of order.
///
/// An un-resynchronizable tail is reported as torn, exactly like
/// [`decode_wal`].
#[must_use]
pub fn salvage_wal(bytes: &[u8]) -> WalScan {
    salvage_wal_where(bytes, |_| true)
}

/// [`salvage_wal`] that treats every record `keep` turns down like a
/// frame that does not decode: how a broker's recovery holds the
/// records it replays to its schema ([`Profile::check`]).
pub(crate) fn salvage_wal_where(bytes: &[u8], keep: impl Fn(&WalRecord) -> bool) -> WalScan {
    let mut records: Vec<WalRecord> = Vec::new();
    let mut offsets = Vec::new();
    let mut pos = 0usize;
    let mut salvaged = 0u64;
    let mut quarantined = 0u64;
    let mut skip_from: Option<usize> = None;
    while pos + 8 <= bytes.len() {
        let accept = record_at(bytes, pos).filter(|(record, _)| {
            keep(record) && records.last().is_none_or(|prev| record.lsn() > prev.lsn())
        });
        match accept {
            Some((record, next)) => {
                if let Some(from) = skip_from.take() {
                    quarantined += (pos - from) as u64;
                    salvaged += 1;
                } else if salvaged > 0 {
                    // Past the first resync, every later frame was
                    // recovered by salvage too.
                    salvaged += 1;
                }
                records.push(record);
                pos = next;
                offsets.push(pos);
            }
            None => {
                if skip_from.is_none() {
                    skip_from = Some(pos);
                }
                pos += 1;
            }
        }
    }
    let consumed = offsets.last().copied().unwrap_or(0);
    WalScan {
        records,
        offsets,
        consumed,
        torn: consumed < bytes.len(),
        salvaged,
        quarantined,
    }
}

/// One subscription entry inside a checkpoint, aligned with the
/// shard's dispatch ids.
#[derive(Debug, Clone)]
pub struct CheckpointEntry {
    /// The subscription id.
    pub id: u64,
    /// Priority weight.
    pub weight: f64,
    /// Whether the entry is tombstoned (cancelled but not yet
    /// compacted out; kept so dispatch indices stay aligned).
    pub tombstoned: bool,
    /// The subscribed profile.
    pub profile: Profile,
}

/// One shard's durable image.
#[derive(Debug, Clone)]
pub struct CheckpointShard {
    /// The shard's active tree configuration (accepted retunes
    /// included).
    pub tree: TreeConfig,
    /// The serialized [`FilterSnapshot`](ens_filter::FilterSnapshot).
    pub filter: Vec<u8>,
    /// Compiled-base entries, aligned with base profile ids.
    pub base: Vec<CheckpointEntry>,
    /// Overlay entries, aligned with overlay profile ids.
    pub overlay: Vec<CheckpointEntry>,
}

/// A complete broker checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The broker schema the state was built against.
    pub schema: Schema,
    /// Highest LSN covered: replay skips records at or below it.
    pub last_lsn: u64,
    /// The next subscription id to hand out.
    pub next_sub: u64,
    /// The next publish sequence number.
    pub sequence: u64,
    /// Per-shard images, in shard order.
    pub shards: Vec<CheckpointShard>,
}

/// Appends one attribute value in the compact tagged form. Entry
/// profiles dominate the non-filter checkpoint payload at scale, so
/// they bypass the generic string-keyed serde codec. (Also the wire
/// form of forwarded subscriptions — see [`crate::federation::wire`].)
pub(crate) fn encode_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Bool(false) => w.u8(0),
        Value::Bool(true) => w.u8(1),
        Value::Int(x) => {
            w.u8(2);
            w.vu64(((x << 1) ^ (x >> 63)) as u64);
        }
        Value::Float(x) => {
            w.u8(3);
            w.f64(x.get());
        }
        Value::Str(s) => {
            w.u8(4);
            w.str(s);
        }
    }
}

pub(crate) fn decode_value(r: &mut ByteReader<'_>) -> Result<Value, PersistError> {
    match r.u8()? {
        0 => Ok(Value::Bool(false)),
        1 => Ok(Value::Bool(true)),
        2 => {
            let z = r.vu64()?;
            Ok(Value::Int(((z >> 1) as i64) ^ -((z & 1) as i64)))
        }
        3 => Value::float(r.f64()?).map_err(|e| PersistError::new(e.to_string())),
        4 => Ok(Value::Str(r.str()?)),
        tag => Err(PersistError::new(format!("unknown value tag {tag}"))),
    }
}

fn encode_value_seq(w: &mut ByteWriter, vs: &[Value]) {
    w.seq_len(vs.len());
    for v in vs {
        encode_value(w, v);
    }
}

fn decode_value_seq(r: &mut ByteReader<'_>) -> Result<Vec<Value>, PersistError> {
    let n = r.seq_len(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_value(r)?);
    }
    Ok(out)
}

// Test seam: forces [`encode_profile`] down its unencodable-predicate
// arm, which is otherwise unreachable from safe code (`Predicate` is
// `#[non_exhaustive]`, but every *current* variant has a tag). Lets
// the degradation path — serialization returns a typed error instead
// of panicking the broker — be exercised end to end.
#[cfg(test)]
thread_local! {
    pub(crate) static FORCE_UNENCODABLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Appends a profile as `(id, specified count, [attr, predicate]...)`;
/// don't-care attributes are omitted entirely.
///
/// # Errors
///
/// Returns a [`PersistErrorKind::Unencodable`] error for a predicate
/// variant with no assigned tag (a variant added upstream before this
/// codec learned it) — the caller degrades instead of crashing.
///
/// [`PersistErrorKind::Unencodable`]: ens_filter::PersistErrorKind::Unencodable
pub(crate) fn encode_profile(w: &mut ByteWriter, p: &Profile) -> Result<(), PersistError> {
    #[cfg(test)]
    if FORCE_UNENCODABLE.with(std::cell::Cell::get) {
        return Err(PersistError::unencodable(
            "predicate has no checkpoint encoding (forced by test seam)",
        ));
    }
    w.vu32(p.id().index() as u32);
    w.vu32(p.specified_len() as u32);
    for (attr, pred) in p.predicates().iter().enumerate() {
        let (tag, values): (u8, &[Value]) = match pred {
            Predicate::DontCare => continue,
            Predicate::Eq(v) => (1, std::slice::from_ref(v)),
            Predicate::Ne(v) => (2, std::slice::from_ref(v)),
            Predicate::Lt(v) => (3, std::slice::from_ref(v)),
            Predicate::Le(v) => (4, std::slice::from_ref(v)),
            Predicate::Gt(v) => (5, std::slice::from_ref(v)),
            Predicate::Ge(v) => (6, std::slice::from_ref(v)),
            Predicate::Between(lo, hi) => {
                w.vu32(attr as u32);
                w.u8(7);
                encode_value(w, lo);
                encode_value(w, hi);
                continue;
            }
            Predicate::In(vs) => (8, vs.as_slice()),
            Predicate::NotIn(vs) => (9, vs.as_slice()),
            // `Predicate` is non-exhaustive; a variant added upstream
            // must get a tag here before it can be persisted. Until
            // then the state is unencodable — an error, not a panic.
            other => {
                return Err(PersistError::unencodable(format!(
                    "predicate {other:?} has no checkpoint encoding"
                )));
            }
        };
        w.vu32(attr as u32);
        w.u8(tag);
        match tag {
            8 | 9 => encode_value_seq(w, values),
            _ => encode_value(w, &values[0]),
        }
    }
    Ok(())
}

/// Reads a profile [`encode_profile`] wrote over `width` attributes.
/// Its values are not checked against any domain: a caller with the
/// schema at hand holds the profile to it ([`Profile::check`]).
pub(crate) fn decode_profile(
    r: &mut ByteReader<'_>,
    width: usize,
) -> Result<Profile, PersistError> {
    let id = ProfileId::new(r.vu32()?);
    let specified = r.vu32()? as usize;
    if specified > width {
        return Err(PersistError::new(format!(
            "profile specifies {specified} attributes, schema has {width}"
        )));
    }
    let mut predicates = vec![Predicate::DontCare; width];
    for _ in 0..specified {
        let attr = r.vu32()? as usize;
        if attr >= predicates.len() {
            return Err(PersistError::new(format!(
                "predicate attribute {attr} out of schema range"
            )));
        }
        let pred = match r.u8()? {
            1 => Predicate::Eq(decode_value(r)?),
            2 => Predicate::Ne(decode_value(r)?),
            3 => Predicate::Lt(decode_value(r)?),
            4 => Predicate::Le(decode_value(r)?),
            5 => Predicate::Gt(decode_value(r)?),
            6 => Predicate::Ge(decode_value(r)?),
            7 => Predicate::Between(decode_value(r)?, decode_value(r)?),
            8 => Predicate::In(decode_value_seq(r)?),
            9 => Predicate::NotIn(decode_value_seq(r)?),
            tag => {
                return Err(PersistError::new(format!("unknown predicate tag {tag}")));
            }
        };
        predicates[attr] = pred;
    }
    Ok(Profile::from_parts(id, predicates))
}

fn encode_entries(w: &mut ByteWriter, entries: &[CheckpointEntry]) -> Result<(), PersistError> {
    w.seq_len(entries.len());
    for e in entries {
        w.vu64(e.id);
        w.f64(e.weight);
        w.bool(e.tombstoned);
        encode_profile(w, &e.profile)?;
    }
    Ok(())
}

fn decode_entries(
    r: &mut ByteReader<'_>,
    schema: &Schema,
) -> Result<Vec<CheckpointEntry>, PersistError> {
    let n = r.seq_len(12)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(CheckpointEntry {
            id: r.vu64()?,
            weight: r.f64()?,
            tombstoned: r.bool()?,
            profile: decode_profile(r, schema.len())?,
        });
    }
    Ok(out)
}

impl Checkpoint {
    /// Serializes the checkpoint, sealed with a CRC-32.
    ///
    /// # Errors
    ///
    /// Returns a
    /// [`PersistErrorKind::Unencodable`](ens_filter::PersistErrorKind::Unencodable)
    /// error when a subscription profile has no byte encoding (a
    /// predicate variant added upstream before this codec learned
    /// its tag). The broker degrades — the checkpoint is skipped, the
    /// previous one stays intact — instead of crashing.
    pub fn to_bytes(&self) -> Result<Vec<u8>, PersistError> {
        let mut w = ByteWriter::new();
        w.u32(CHECKPOINT_MAGIC);
        w.u32(CHECKPOINT_VERSION);
        w.serde(&self.schema);
        w.u64(self.last_lsn);
        w.u64(self.next_sub);
        w.u64(self.sequence);
        w.seq_len(self.shards.len());
        for shard in &self.shards {
            w.serde(&shard.tree);
            w.bytes(&shard.filter);
            encode_entries(&mut w, &shard.base)?;
            encode_entries(&mut w, &shard.overlay)?;
        }
        Ok(w.into_bytes_crc())
    }

    /// Restores a checkpoint written by [`Checkpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Fails on checksum mismatch, wrong magic/version or truncation —
    /// a torn checkpoint file is reported, never half-loaded.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ServiceError> {
        Self::decode(bytes).map_err(|e| ServiceError::Persist(e.message().to_string()))
    }

    fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut r = ByteReader::verify_crc(bytes)?;
        let magic = r.u32()?;
        if magic != CHECKPOINT_MAGIC {
            return Err(PersistError::new(format!(
                "bad checkpoint magic {magic:#010x}"
            )));
        }
        let version = r.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(PersistError::new(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let schema: Schema = r.serde()?;
        let last_lsn = r.u64()?;
        let next_sub = r.u64()?;
        let sequence = r.u64()?;
        let n = r.seq_len(8)?;
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            let tree: TreeConfig = r.serde()?;
            let filter = r.bytes()?.to_vec();
            let base = decode_entries(&mut r, &schema)?;
            let overlay = decode_entries(&mut r, &schema)?;
            shards.push(CheckpointShard {
                tree,
                filter,
                base,
                overlay,
            });
        }
        r.expect_end()?;
        Ok(Checkpoint {
            schema,
            last_lsn,
            next_sub,
            sequence,
            shards,
        })
    }
}

/// The canonical byte form of a schema, used to verify that a
/// checkpoint belongs to the broker trying to load it.
#[must_use]
pub(crate) fn schema_fingerprint(schema: &Schema) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.serde(schema);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_types::{Domain, Predicate, ProfileId};

    fn schema() -> Schema {
        Schema::builder()
            .attribute("x", Domain::int(0, 99))
            .unwrap()
            .build()
    }

    fn profile(s: &Schema, lo: i64) -> Profile {
        Profile::builder(s)
            .predicate("x", Predicate::ge(lo))
            .unwrap()
            .build(ProfileId::new(0))
    }

    #[test]
    fn wal_frames_round_trip_and_stop_at_torn_tail() {
        let s = schema();
        let records = vec![
            WalRecord::Subscribe {
                lsn: 1,
                id: 0,
                weight: 1.0,
                profile: profile(&s, 10),
            },
            WalRecord::Unsubscribe { lsn: 2, id: 0 },
            WalRecord::Subscribe {
                lsn: 3,
                id: 1,
                weight: 2.5,
                profile: profile(&s, 50),
            },
        ];
        let mut bytes = Vec::new();
        for rec in &records {
            bytes.extend_from_slice(&encode_frame(rec).unwrap());
        }
        let scan = decode_wal(&bytes);
        assert_eq!(scan.records, records);
        assert_eq!(scan.consumed, bytes.len());
        assert!(!scan.torn);
        assert_eq!(scan.offsets.len(), 3);

        // Every mid-frame cut keeps exactly the fully-framed prefix.
        for cut in 0..bytes.len() {
            let scan = decode_wal(&bytes[..cut]);
            let durable = scan.offsets.iter().filter(|o| **o <= cut).count();
            assert_eq!(scan.records.len(), durable, "cut at {cut}");
            assert_eq!(scan.records[..], records[..durable], "cut at {cut}");
            assert!(scan.torn || scan.consumed == cut);
        }

        // A flipped payload byte invalidates that frame and the rest.
        let mut corrupt = bytes.clone();
        corrupt[scan.offsets[0] + 9] ^= 0x01;
        let scan = decode_wal(&corrupt);
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn);
    }

    #[test]
    fn bodies_framed_under_the_lock_are_encode_frame_bytes() {
        let s = schema();
        let mut bodies = SubscribeBodies::default();
        let mut expected = Vec::new();
        // LSNs and ids on both sides of a varint byte boundary.
        for (lsn, lo) in (126..).zip([10, 50, 90]) {
            let (id, weight) = (lsn * 3, lsn as f64 / 4.0);
            bodies.push(id, weight, &profile(&s, lo)).unwrap();
            let record = WalRecord::Subscribe {
                lsn,
                id,
                weight,
                profile: profile(&s, lo),
            };
            expected.extend(encode_frame(&record).unwrap());
        }
        let mut framed = vec![0xAB];
        bodies.frame_into(&mut framed, 126).unwrap();
        assert_eq!(framed[1..], expected[..], "appended behind what was there");
        assert_eq!(decode_wal(&expected).records.len(), 3);
    }

    #[test]
    fn an_unencodable_profile_is_refused_before_it_is_committed() {
        let s = schema();
        let d = DurabilityConfig {
            vfs: Arc::new(crate::FaultFs::new()),
            ..DurabilityConfig::new("db")
        };
        let broker = crate::Broker::open(&s, crate::BrokerConfig::default(), d)
            .unwrap()
            .broker;
        FORCE_UNENCODABLE.with(|f| f.set(true));
        let one = broker.subscribe_profile(profile(&s, 10));
        let many = broker.subscribe_many([profile(&s, 20), profile(&s, 30)]);
        FORCE_UNENCODABLE.with(|f| f.set(false));
        assert!(one.is_err() && many.is_err());
        assert_eq!(broker.subscription_count(), 0);
        assert!(!broker.metrics().durability_degraded);
    }

    #[test]
    fn checkpoint_round_trips_and_rejects_corruption() {
        let s = schema();
        let cp = Checkpoint {
            schema: s.clone(),
            last_lsn: 17,
            next_sub: 5,
            sequence: 99,
            shards: vec![CheckpointShard {
                tree: TreeConfig::default(),
                filter: vec![1, 2, 3],
                base: vec![
                    CheckpointEntry {
                        id: 0,
                        weight: 1.0,
                        tombstoned: false,
                        profile: profile(&s, 10),
                    },
                    CheckpointEntry {
                        id: 2,
                        weight: 3.5,
                        tombstoned: true,
                        profile: profile(&s, 20),
                    },
                ],
                overlay: vec![CheckpointEntry {
                    id: 4,
                    weight: 1.0,
                    tombstoned: false,
                    profile: profile(&s, 30),
                }],
            }],
        };
        let bytes = cp.to_bytes().unwrap();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.last_lsn, 17);
        assert_eq!(back.next_sub, 5);
        assert_eq!(back.sequence, 99);
        assert_eq!(back.shards.len(), 1);
        assert_eq!(back.shards[0].filter, vec![1, 2, 3]);
        assert_eq!(back.shards[0].base.len(), 2);
        assert!(back.shards[0].base[1].tombstoned);
        assert_eq!(back.shards[0].base[1].weight, 3.5);
        assert_eq!(back.shards[0].overlay[0].profile, profile(&s, 30));
        assert_eq!(
            schema_fingerprint(&back.schema),
            schema_fingerprint(&s),
            "schema survives"
        );

        for at in [0, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x10;
            assert!(Checkpoint::from_bytes(&corrupt).is_err(), "flip at {at}");
        }
        assert!(Checkpoint::from_bytes(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn unencodable_profile_degrades_to_a_typed_error() {
        use ens_filter::PersistErrorKind;

        let s = schema();
        let cp = Checkpoint {
            schema: s.clone(),
            last_lsn: 1,
            next_sub: 1,
            sequence: 0,
            shards: vec![CheckpointShard {
                tree: TreeConfig::default(),
                filter: Vec::new(),
                base: vec![CheckpointEntry {
                    id: 0,
                    weight: 1.0,
                    tombstoned: false,
                    profile: profile(&s, 10),
                }],
                overlay: Vec::new(),
            }],
        };
        // Sanity: encodable without the seam.
        assert!(cp.to_bytes().is_ok());

        FORCE_UNENCODABLE.with(|f| f.set(true));
        let err = cp.to_bytes().expect_err("unencodable must fail, not panic");
        FORCE_UNENCODABLE.with(|f| f.set(false));
        assert_eq!(err.kind(), PersistErrorKind::Unencodable);
        assert!(
            err.message().contains("no checkpoint encoding"),
            "{}",
            err.message()
        );
        // The byte-level failure class is distinct from corruption.
        let corrupt = Checkpoint::from_bytes(&[1, 2, 3]).expect_err("corrupt");
        assert!(matches!(corrupt, crate::ServiceError::Persist(_)));
    }
}
