//! The broker's durability engine: WAL appends, generational
//! checkpoints, and the corruption-tolerant recovery chain.
//!
//! A child module of `broker` so it can reach the broker's private
//! state; it owns every byte that crosses the [`Vfs`] boundary. Three
//! properties the code below maintains, in order of importance:
//!
//! 1. **Acknowledged state survives any crash** (under
//!    [`FsyncPolicy::Always`]): a record is acknowledged only after
//!    its frame is fsynced into a WAL whose directory entry was
//!    fsynced at creation, and a checkpoint exists only after its
//!    rename was fsynced in the parent directory. The crash-point
//!    oracle in `tests/storage_faults.rs` enumerates every journal
//!    boundary under seeded fault plans to enforce this.
//! 2. **Recovery degrades gracefully, never silently**: a corrupt
//!    newest checkpoint falls back one generation (counted in
//!    [`MetricsSnapshot::checkpoint_fallbacks`]); a corrupt interior
//!    WAL frame is skipped by salvage (counted in
//!    `wal_salvaged_frames` / `wal_quarantined_bytes`); and if *no*
//!    consistent state can be assembled, recovery fails loudly rather
//!    than returning a partial broker.
//! 3. **A sick disk does not poison the match path**: a WAL append
//!    failure (ENOSPC, EIO) flips `durability_degraded`, fails the
//!    *mutating* call, and leaves the broker serving reads and
//!    publishes; a later successful checkpoint (which captures the
//!    full in-memory state, un-logged changes included) clears the
//!    flag.
//!
//! A subscribe encodes its WAL record before it commits anything (a
//! profile the codec cannot write is refused up front), and the WAL
//! lock only stamps LSNs on and frames the encoded bodies. A bulk load
//! (`subscribe_many`) is one group commit: its n frames go out in one
//! append and, under [`FsyncPolicy::Always`], one `sync_data` — one
//! fsync instead of n. A crash during it keeps a prefix of the frames,
//! as it would have kept a prefix of n separate appends.
//!
//! A checkpoint costs what it writes: the image, and a copy of the
//! part of the log it keeps. What the retained generations still need
//! of the WAL is a byte suffix of the file, and a checkpoint — which
//! holds the WAL lock from the moment it captures its LSN — records
//! the file's length as the offset where the frames *after* it begin
//! ([`GenTable`]; for the generation a restart loaded, the recovery
//! scan yields it). Trimming is `bytes[offset..]` through the
//! `wal.tmp` → fsync → rename → directory-fsync protocol; no frame is
//! decoded on that path. Bytes salvage would quarantine stay where
//! they are until they fall behind a cut. Every checkpoint journals a
//! [`Decision::CheckpointWritten`] with what it wrote, dropped and
//! kept, and how long each part took.
//!
//! Lock order: shard writer mutexes (index order) → WAL mutex →
//! generation-table mutex.
//!
//! [`MetricsSnapshot::checkpoint_fallbacks`]: crate::MetricsSnapshot::checkpoint_fallbacks

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::journal::Decision;
use crate::notify::Subscriber;
use crate::persist::{self, Checkpoint, DurabilityConfig, FsyncPolicy, WalRecord, WalScan};
use crate::subscription::SubscriptionId;
use crate::vfs::VfsFile;
use crate::ServiceError;

use super::{Broker, Recovered};

pub(super) fn io_persist(e: std::io::Error) -> ServiceError {
    ServiceError::Persist(e.to_string())
}

fn persist_err(e: ens_filter::persist::PersistError) -> ServiceError {
    ServiceError::Persist(e.message().to_string())
}

/// Bytes of frame buffer a WAL append keeps between appends.
const FRAME_KEEP: usize = 4096;

/// Mutable write-ahead-log state, guarded by [`Durability::wal`].
pub(super) struct WalState {
    file: Box<dyn VfsFile>,
    /// LSN the next appended record will carry (LSNs start at 1).
    next_lsn: u64,
    /// Records appended since the last checkpoint (drives the
    /// automatic checkpoint trigger).
    since_checkpoint: u64,
    /// The log's length in fully-appended bytes — the rollback target
    /// when an append tears mid-frame.
    len: u64,
    /// The frame being appended, encoded in place; kept for its
    /// allocation.
    frame: Vec<u8>,
}

/// The checkpoint generations currently on disk, ascending, each with
/// the WAL offset just past the last record it covers — where the
/// frames a replay on top of it needs begin. The offset is known only
/// for generations written (or recovered from) in this process; `None`
/// marks a generation that merely exists, which the WAL trim treats
/// conservatively (trim nothing).
#[derive(Default)]
pub(super) struct GenTable {
    entries: Vec<(u64, Option<u64>)>,
}

impl GenTable {
    fn newest(&self) -> u64 {
        self.entries.last().map_or(0, |e| e.0)
    }

    fn insert(&mut self, gen: u64, covered_to: Option<u64>) {
        self.entries.retain(|(g, _)| *g != gen);
        self.entries.push((gen, covered_to));
        self.entries.sort_unstable_by_key(|(g, _)| *g);
    }

    /// Removes and returns the generations outside the retention
    /// window `(newest - keep, newest]`.
    fn retire(&mut self, keep: u64) -> Vec<u64> {
        let newest = self.newest();
        if newest < keep {
            return Vec::new();
        }
        let cut = newest - keep;
        let retired = self
            .entries
            .iter()
            .filter(|(g, _)| *g <= cut)
            .map(|(g, _)| *g)
            .collect();
        self.entries.retain(|(g, _)| *g > cut);
        retired
    }

    /// The offset the WAL may be trimmed up to: the lowest offset
    /// covered by the generations in the retention window. `0` (trim
    /// nothing) when the window reaches the empty-state origin or
    /// contains a generation whose coverage is unknown — conservative
    /// in both cases, so a fallback recovery can always replay
    /// forward from the oldest retained generation.
    fn floor(&self, keep: u64) -> u64 {
        let newest = self.newest();
        if newest < keep {
            return 0;
        }
        let mut floor = u64::MAX;
        for gen in (newest - keep + 1)..=newest {
            match self.entries.iter().find(|(g, _)| *g == gen) {
                Some((_, Some(offset))) => floor = floor.min(*offset),
                _ => return 0,
            }
        }
        floor
    }

    /// The log lost its first `cut` bytes: every known offset moves
    /// down with it (none is below the floor that was cut at; one that
    /// were would land on `0`, trim nothing).
    fn rebase(&mut self, cut: u64) {
        for offset in self.entries.iter_mut().filter_map(|(_, o)| o.as_mut()) {
            *offset = offset.saturating_sub(cut);
        }
    }
}

/// The broker's durability layer (present only on brokers opened with
/// [`Broker::open`]).
pub(super) struct Durability {
    pub(super) config: DurabilityConfig,
    wal: Mutex<WalState>,
    /// Set when `since_checkpoint` crosses the configured interval;
    /// consumed by [`Broker::maybe_checkpoint`] once all writer locks
    /// are released (a WAL append happens under a writer lock, and the
    /// checkpoint needs them all).
    checkpoint_due: AtomicBool,
    gens: Mutex<GenTable>,
}

impl Broker {
    /// Opens (or creates) a durable broker rooted at
    /// [`DurabilityConfig::dir`].
    ///
    /// Recovery chain: stale staging files (`checkpoint.tmp`,
    /// `wal.tmp`) are removed; the checkpoint generations on disk are
    /// tried newest-first and the first CRC-valid one is loaded —
    /// every shard's compiled profile tree (lowered at load), its active
    /// [`TreeConfig`](ens_filter::TreeConfig) (accepted retunes
    /// included) and its subscription entries restored exactly as
    /// serialized, without recompiling — while corrupt newer
    /// generations are counted as fallbacks and deleted. Generations
    /// older than the retention window are cleaned up. Then the WAL is
    /// scanned ([`persist::salvage_wal`]: past a CRC-corrupt interior
    /// frame to the next valid frame boundary, counting what it
    /// salvaged and what it quarantined, so that bit rot in the middle
    /// of the log does not drop the acknowledged subscriptions behind
    /// it) and every record with an LSN above the checkpoint's is
    /// replayed; where those records begin is kept as the loaded
    /// generation's trim offset, and only they count towards the next
    /// automatic checkpoint. A torn tail is truncated and logging
    /// resumes from the surviving prefix; a checkpoint followed by a
    /// crash *before* the log was trimmed replays idempotently (records
    /// at or below the checkpoint LSN are skipped, and a subscribe for
    /// an id that is already live is a no-op).
    ///
    /// If every generation on disk is corrupt, recovery proceeds from
    /// the empty state only when the WAL reaches back to LSN 1 —
    /// otherwise it fails loudly instead of resurrecting a partial
    /// history.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Persist`] for I/O failures, durable
    /// state that cannot be assembled into a consistent broker, or
    /// state that does not belong to `schema` / the configured shard
    /// count; propagates filter errors from replayed operations.
    pub fn open(
        schema: &ens_types::Schema,
        config: super::BrokerConfig,
        durability: DurabilityConfig,
    ) -> Result<Recovered, ServiceError> {
        let vfs = Arc::clone(&durability.vfs);
        let dir = durability.dir.clone();
        let strict_sync = durability.fsync != FsyncPolicy::Never;
        vfs.create_dir_all(&dir).map_err(io_persist)?;

        // Crash leftovers from an interrupted checkpoint or WAL trim.
        // Best-effort: a failed removal only leaves clutter behind.
        let mut dirty_dir = false;
        for stale in [persist::CHECKPOINT_TMP_FILE, persist::WAL_TMP_FILE] {
            let path = dir.join(stale);
            if vfs.exists(&path) && vfs.remove_file(&path).is_ok() {
                dirty_dir = true;
            }
        }

        // Try the generations newest-first.
        let mut gens: Vec<u64> = vfs
            .list(&dir)
            .map_err(io_persist)?
            .iter()
            .filter_map(|name| persist::parse_checkpoint_gen(name))
            .collect();
        gens.sort_unstable_by(|a, b| b.cmp(a));
        let mut fallbacks = 0u64;
        let mut removed: Vec<u64> = Vec::new();
        let mut chosen: Option<(u64, Checkpoint)> = None;
        for &gen in &gens {
            let path = dir.join(persist::checkpoint_gen_file(gen));
            match vfs.read(&path) {
                Ok(bytes) => match Checkpoint::from_bytes(&bytes) {
                    Ok(cp) => {
                        chosen = Some((gen, cp));
                        break;
                    }
                    Err(_) => {
                        // Bit rot or a torn staging write that still
                        // got renamed: fall back a generation and
                        // clear the damaged file out of the chain.
                        fallbacks += 1;
                        if vfs.remove_file(&path).is_ok() {
                            removed.push(gen);
                            dirty_dir = true;
                        }
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                // A transient read error (EIO) is not corruption:
                // fall back without destroying the file.
                Err(_) => fallbacks += 1,
            }
        }
        let all_generations_corrupt = chosen.is_none() && fallbacks > 0;

        // Orphaned generations below the retention window.
        let keep = durability.checkpoint_generations.max(1) as u64;
        if let Some((chosen_gen, _)) = &chosen {
            for &old in gens.iter().filter(|&&g| g + keep <= *chosen_gen) {
                if vfs
                    .remove_file(&dir.join(persist::checkpoint_gen_file(old)))
                    .is_ok()
                {
                    removed.push(old);
                    dirty_dir = true;
                }
            }
        }
        if dirty_dir && strict_sync {
            let _ = vfs.sync_dir(&dir);
        }

        let chosen_gen = chosen.as_ref().map(|(g, _)| *g);
        let last_lsn = chosen.as_ref().map_or(0, |(_, cp)| cp.last_lsn);
        let mut subscribers: BTreeMap<u64, Subscriber> = BTreeMap::new();
        let mut broker = match chosen {
            Some((_, cp)) => Self::from_checkpoint(schema, config, cp, &mut subscribers)?,
            None => Self::new(schema, config)?,
        };

        let wal_path = dir.join(persist::WAL_FILE);
        let wal_bytes = match vfs.read(&wal_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_persist(e)),
        };
        // A replayed profile passes the checks a subscribe made on its
        // way in, or its frame is treated as one that does not decode.
        let scan = persist::salvage_wal_where(&wal_bytes, |record| match record {
            WalRecord::Subscribe { profile, .. } => profile.check(schema).is_ok(),
            WalRecord::Unsubscribe { .. } | WalRecord::Retune { .. } => true,
        });
        if all_generations_corrupt && scan.records.first().map(WalRecord::lsn) != Some(1) {
            return Err(ServiceError::Persist(
                "every checkpoint generation is corrupt and the WAL does not reach \
                 back to LSN 1; refusing to recover a partial state"
                    .into(),
            ));
        }
        let WalScan {
            records,
            offsets,
            consumed,
            torn,
            salvaged,
            quarantined,
        } = scan;
        let mut max_lsn = last_lsn;
        let mut max_sub = None;
        // Where the records the loaded checkpoint already covers end:
        // the frames replayed below are the byte suffix from here on.
        let mut covered_to = 0u64;
        let mut replayed = 0u64;
        for (record, &end) in records.into_iter().zip(&offsets) {
            max_lsn = max_lsn.max(record.lsn());
            if record.lsn() <= last_lsn {
                if replayed == 0 {
                    covered_to = end as u64;
                }
                continue;
            }
            replayed += 1;
            match record {
                WalRecord::Subscribe {
                    id,
                    weight,
                    profile,
                    ..
                } => {
                    max_sub = max_sub.max(Some(id));
                    let sid = SubscriptionId::new(id);
                    // `subscribers` holds exactly the live ids: restore
                    // and replay keep it in step with the broker.
                    if subscribers.contains_key(&id) {
                        continue;
                    }
                    let sub = broker.commit_subscribe(sid, profile, weight)?;
                    subscribers.insert(id, sub);
                }
                WalRecord::Unsubscribe { id, .. } => {
                    max_sub = max_sub.max(Some(id));
                    match broker.remove_subscription(SubscriptionId::new(id)) {
                        Ok(()) => {
                            subscribers.remove(&id);
                        }
                        // A lost in-memory state change (its record was
                        // torn off) or a replay of the checkpoint
                        // window: already gone, nothing to undo.
                        Err(ServiceError::UnknownSubscription(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
                WalRecord::Retune {
                    shard,
                    attribute_order,
                    search,
                    event_model,
                    ..
                } => {
                    broker.apply_retune(shard as usize, attribute_order, search, event_model)?;
                }
            }
        }
        // Never re-issue an id that was durably handed out.
        let floor = max_sub.map_or(0, |id| id + 1);
        if broker.next_sub.load(Ordering::Relaxed) < floor {
            broker.next_sub.store(floor, Ordering::Relaxed);
        }

        let creating = !vfs.exists(&wal_path);
        let mut file = vfs.open_append(&wal_path).map_err(io_persist)?;
        if creating && strict_sync {
            // The WAL's *name* is durable only once the directory
            // entry is synced; without this, a crash after the first
            // acknowledged append could forget the whole log file.
            vfs.sync_dir(&dir).map_err(io_persist)?;
        }
        if torn {
            // Drop the torn tail so resumed appends extend the valid
            // prefix instead of burying garbage mid-log.
            file.set_len(consumed as u64).map_err(io_persist)?;
        }
        broker
            .metrics
            .wal_salvaged_frames
            .store(salvaged, Ordering::Relaxed);
        broker
            .metrics
            .wal_quarantined_bytes
            .store(quarantined, Ordering::Relaxed);
        broker
            .metrics
            .checkpoint_fallbacks
            .store(fallbacks, Ordering::Relaxed);

        let mut table = GenTable::default();
        for &gen in gens.iter().rev() {
            if removed.contains(&gen) {
                continue;
            }
            table.insert(gen, (Some(gen) == chosen_gen).then_some(covered_to));
        }
        broker.durability = Some(Durability {
            config: durability,
            wal: Mutex::new(WalState {
                file,
                next_lsn: max_lsn + 1,
                since_checkpoint: replayed,
                len: consumed as u64,
                frame: Vec::new(),
            }),
            checkpoint_due: AtomicBool::new(false),
            gens: Mutex::new(table),
        });
        Ok(Recovered {
            broker,
            subscribers: subscribers.into_values().collect(),
        })
    }

    /// Appends one record to the WAL (no-op on in-memory brokers),
    /// built by `make` from its LSN; see `wal_append`.
    pub(super) fn wal_log(&self, make: impl FnOnce(u64) -> WalRecord) -> Result<(), ServiceError> {
        self.wal_append(1, |buf, lsn| persist::append_frame(buf, &make(lsn)))
    }

    /// Appends subscribe records encoded before their commit, all of
    /// them under one WAL lock as one group commit: one append and, at
    /// [`FsyncPolicy::Always`], one `sync_data`.
    pub(super) fn wal_log_subscribes(
        &self,
        bodies: &persist::SubscribeBodies,
    ) -> Result<(), ServiceError> {
        if bodies.len() == 0 {
            return Ok(());
        }
        self.wal_append(bodies.len() as u64, |buf, lsn| bodies.frame_into(buf, lsn))
    }

    /// Appends the `records` frames `frame` writes into the WAL's
    /// buffer, the first under the LSN it is handed and the others
    /// under the LSNs after it, with one append and one sync (no-op on
    /// in-memory brokers). May be called with a shard writer lock held
    /// — the WAL lock nests inside writer locks, never the other way
    /// around.
    ///
    /// A failed append flips
    /// [`MetricsSnapshot::durability_degraded`](crate::MetricsSnapshot::durability_degraded)
    /// and rolls the partial frames back; the caller decides whether
    /// its operation must fail (subscribe/unsubscribe acks) or can
    /// proceed degraded (publish-path bookkeeping).
    fn wal_append(
        &self,
        records: u64,
        frame: impl FnOnce(&mut Vec<u8>, u64) -> Result<(), ens_filter::persist::PersistError>,
    ) -> Result<(), ServiceError> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        let mut guard = d.wal.lock();
        let wal = &mut *guard;
        wal.frame.clear();
        let framed = frame(&mut wal.frame, wal.next_lsn);
        let appended = framed.is_ok().then(|| wal.file.append(&wal.frame));
        let bytes = wal.frame.len() as u64;
        // Keep an allocation for single records, not a bulk load's.
        wal.frame.clear();
        wal.frame.shrink_to(FRAME_KEEP);
        if let Err(e) = framed {
            self.metrics.durability_degraded.store(1, Ordering::Relaxed);
            return Err(persist_err(e));
        }
        if let Some(Err(e)) = appended {
            // The append may have torn mid-frame (a real ENOSPC does):
            // drop the partial bytes so a later successful append
            // extends a clean frame boundary. Salvage covers the case
            // where even the rollback fails — the partial bytes stay,
            // and the rollback target moves past them so that a later
            // rollback cannot cut into frames appended behind them.
            self.metrics.durability_degraded.store(1, Ordering::Relaxed);
            if wal.file.set_len(wal.len).is_err() {
                wal.len = wal.file.byte_len().unwrap_or(wal.len);
            }
            return Err(io_persist(e));
        }
        wal.len += bytes;
        wal.next_lsn += records;
        wal.since_checkpoint += records;
        if d.config.fsync == FsyncPolicy::Always {
            if let Err(e) = wal.file.sync_data() {
                // The frame is written but its durability is unknown;
                // the LSN stays consumed (recovery may legitimately
                // surface the record) and the ack fails.
                self.metrics.durability_degraded.store(1, Ordering::Relaxed);
                return Err(io_persist(e));
            }
        }
        if d.config.checkpoint_every > 0 && wal.since_checkpoint >= d.config.checkpoint_every {
            // Only flag it: the caller may hold a shard writer lock,
            // and the checkpoint needs all of them.
            d.checkpoint_due.store(true, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Runs the automatic checkpoint if one is due. Must be called
    /// with no shard writer lock held. Infallible by design: an
    /// automatic checkpoint failure must not poison the publish or
    /// subscribe call that happened to trigger it — the broker keeps
    /// serving with `durability_degraded` set, and the next interval
    /// (or an explicit [`Broker::checkpoint`]) retries.
    pub(super) fn maybe_checkpoint(&self) {
        let Some(d) = &self.durability else {
            return;
        };
        // Every publish passes here: read the flag, and write it only
        // when set, so publishers share the line instead of trading it.
        if d.checkpoint_due.load(Ordering::Relaxed)
            && d.checkpoint_due.swap(false, Ordering::Relaxed)
            && self.write_checkpoint(true).is_err()
        {
            self.metrics.durability_degraded.store(1, Ordering::Relaxed);
        }
    }

    /// Writes a checkpoint of the full broker state into a fresh
    /// generation and trims the WAL to what the retained generations
    /// still need. Returns `false` (doing nothing) on in-memory
    /// brokers. On success the `durability_degraded` flag clears: the
    /// image captured the complete in-memory state, including changes
    /// whose WAL appends had failed.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Persist`] on I/O failure. The
    /// checkpoint is staged under a temporary name, renamed into
    /// place and made durable with a parent-directory fsync, so a
    /// crash mid-write leaves the previous generations intact.
    pub fn checkpoint(&self) -> Result<bool, ServiceError> {
        self.write_checkpoint(true)
    }

    /// Like [`Broker::checkpoint`], but leaves the WAL untrimmed —
    /// this widens the checkpoint-then-crash-before-truncate window
    /// on purpose, for crash-recovery testing. Replay after recovery
    /// skips the records the checkpoint already covers.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Persist`] on I/O failure.
    pub fn checkpoint_keep_wal(&self) -> Result<bool, ServiceError> {
        self.write_checkpoint(false)
    }

    fn write_checkpoint(&self, trim_wal: bool) -> Result<bool, ServiceError> {
        let Some(d) = &self.durability else {
            return Ok(false);
        };
        let vfs = &d.config.vfs;
        let dir = &d.config.dir;
        let strict_sync = d.config.fsync != FsyncPolicy::Never;
        let started = Instant::now();
        // Freeze every shard (writer locks in index order), then the
        // log: everything at or below the captured LSN is in the
        // image, everything after it will replay on top.
        let mut writers: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        for w in &mut writers {
            w.pack()?;
        }
        let mut wal = d.wal.lock();
        let shards = writers.iter().map(|w| w.checkpoint()).collect();
        let last_lsn = wal.next_lsn - 1;
        // Where record `last_lsn` ends and the next frame will start.
        // The file's real length, not `wal.len`: bytes a failed
        // rollback left behind are in the file and move every offset.
        let covered_to = wal.file.byte_len().map_err(io_persist)?;
        let cp = Checkpoint {
            schema: (*self.schema).clone(),
            last_lsn,
            next_sub: self.next_sub.load(Ordering::Relaxed),
            sequence: self.sequence.load(Ordering::Relaxed),
            shards,
        };
        // An unencodable profile degrades to an error (the previous
        // generations stay intact and the WAL keeps growing) instead
        // of panicking with every writer lock held.
        let bytes = cp.to_bytes().map_err(persist_err)?;
        drop(writers);

        let mut gens = d.gens.lock();
        let gen = gens.newest() + 1;
        let tmp = dir.join(persist::CHECKPOINT_TMP_FILE);
        {
            let mut f = vfs.create(&tmp).map_err(io_persist)?;
            f.append(&bytes).map_err(io_persist)?;
            if strict_sync {
                f.sync_data().map_err(io_persist)?;
            }
        }
        vfs.rename(&tmp, &dir.join(persist::checkpoint_gen_file(gen)))
            .map_err(io_persist)?;
        if strict_sync {
            // The rename is durable only once the directory entry is
            // synced; until then a crash can resurrect the previous
            // generation under this name — which recovery tolerates,
            // but the *acknowledged* checkpoint must stick.
            vfs.sync_dir(dir).map_err(io_persist)?;
        }
        gens.insert(gen, Some(covered_to));

        // Retire generations that fell out of the retention window,
        // then trim the WAL to what the remaining window still needs.
        let keep = d.config.checkpoint_generations.max(1) as u64;
        let mut dirty_dir = false;
        for old in gens.retire(keep) {
            if vfs
                .remove_file(&dir.join(persist::checkpoint_gen_file(old)))
                .is_ok()
            {
                dirty_dir = true;
            }
        }
        let (mut cut, mut trim_ns) = (0, 0);
        if trim_wal {
            cut = gens.floor(keep);
            let trim_started = Instant::now();
            self.rewrite_wal(d, &mut wal, &mut gens, cut)?;
            trim_ns = trim_started.elapsed().as_nanos() as u64;
            wal.since_checkpoint = 0;
        }
        if dirty_dir && strict_sync {
            vfs.sync_dir(dir).map_err(io_persist)?;
        }
        d.checkpoint_due.store(false, Ordering::Relaxed);
        self.metrics.durability_degraded.store(0, Ordering::Relaxed);
        self.journal(Decision::CheckpointWritten {
            generation: gen,
            image_bytes: bytes.len() as u64,
            wal_bytes_dropped: cut,
            wal_bytes_kept: covered_to - cut,
            ns: started.elapsed().as_nanos() as u64,
            trim_ns,
        });
        Ok(true)
    }

    /// Trims the WAL to its byte suffix from `cut` on — the frames the
    /// oldest retained checkpoint generation still needs for replay —
    /// via temp file + rename + directory fsync. Frames are copied, not
    /// decoded: `cut` is a frame boundary recorded when a checkpoint
    /// froze the log. With a single retained generation this empties
    /// the log, matching the pre-generational truncate-on-checkpoint
    /// behaviour.
    fn rewrite_wal(
        &self,
        d: &Durability,
        wal: &mut WalState,
        gens: &mut GenTable,
        cut: u64,
    ) -> Result<(), ServiceError> {
        if cut == 0 {
            return Ok(());
        }
        let vfs = &d.config.vfs;
        let dir = &d.config.dir;
        let strict_sync = d.config.fsync != FsyncPolicy::Never;
        let wal_path = dir.join(persist::WAL_FILE);
        let bytes = vfs.read(&wal_path).map_err(io_persist)?;
        // A short read would pass for a short log and drop its tail.
        let whole = wal.file.byte_len().map_err(io_persist)?;
        let kept = bytes.get(cut as usize..);
        let Some(kept) = kept.filter(|_| bytes.len() as u64 == whole) else {
            return Err(ServiceError::Persist(format!(
                "WAL read returned {} of {whole} bytes, cut at {cut}; not trimming",
                bytes.len()
            )));
        };
        let tmp = dir.join(persist::WAL_TMP_FILE);
        {
            let mut f = vfs.create(&tmp).map_err(io_persist)?;
            if !kept.is_empty() {
                f.append(kept).map_err(io_persist)?;
            }
            if strict_sync {
                f.sync_data().map_err(io_persist)?;
            }
        }
        vfs.rename(&tmp, &wal_path).map_err(io_persist)?;
        // The name now means the trimmed file: the table and the append
        // handle follow it before anything else can fail.
        gens.rebase(cut);
        wal.file = vfs.open_append(&wal_path).map_err(io_persist)?;
        wal.len = kept.len() as u64;
        if strict_sync {
            vfs.sync_dir(dir).map_err(io_persist)?;
        }
        Ok(())
    }
}
