//! Immutable compiled filter snapshots for the lock-free read path.
//!
//! A [`FilterSnapshot`] packages everything the hot matching path needs
//! — the compiled [`Dfsa`] of the optimised profile tree, the
//! incremental-subscription overlay and the tombstone set — behind
//! cheaply clonable [`Arc`]s. Readers clone a handle and match without
//! any lock; writers build a *new* snapshot (sharing every unchanged
//! part) and swap it in:
//!
//! * [`FilterSnapshot::compile`] — full build, the expensive path taken
//!   only on compaction or adaptive drift rebuilds;
//! * the **overlay** holds subscriptions that arrived since the last
//!   compaction (the DFSA is shared untouched). Between packs
//!   an overlay entry keeps its position, and a change touches only its
//!   own entry: [`FilterSnapshot::with_covered_entry`] appends one child
//!   to a copy of the expansion map of covered entries, sharing the
//!   counting index; [`FilterSnapshot::with_indexed_entry`] rebuilds the
//!   small [`OverlayIndex`] counting index over the entries it matches
//!   (so overlay matching costs O(postings hit) instead of the naive
//!   side-matcher's O(profiles × predicates));
//!   [`FilterSnapshot::with_overlay_removed`] sets one bit of the
//!   overlay's tombstone bitmap. [`FilterSnapshot::with_overlay_entries`]
//!   packs: the whole overlay, built anew at dense positions;
//! * [`FilterSnapshot::with_removed`] — O(base) copy of the tombstone
//!   bitmap for unsubscriptions of compiled profiles (DFSA and overlay
//!   shared).
//!
//! Besides the per-event [`FilterSnapshot::match_into`], the snapshot
//! exposes [`FilterSnapshot::match_block`]: whole pre-resolved event
//! blocks driven through the DFSA's interleaved traversal with one
//! scratch setup, the batch fast path `ens-service` publishes through.
//!
//! Matched profiles are reported in a single *global* id space: compiled
//! (base) profiles keep their dense tree ids `0..base_len`, overlay
//! positions follow at `base_len..base_len + overlay_len`, tombstoned
//! ones never reported. The caller
//! (e.g. the `ens-service` broker) maps those ids onto its dispatch
//! table, which is versioned together with the snapshot.

use std::sync::Arc;

use ens_dist::JointDist;
use ens_types::{
    CoverSet, IndexedBatch, IndexedEvent, Profile, ProfileId, ProfileSet, Residual, Schema,
};

use crate::cost::CostModel;
use crate::cover::{Appended, CoverPlan, CoverScratch, Expand, OverlayCover};
use crate::dfsa::Dfsa;
use crate::overlay::OverlayIndex;
use crate::persist::{ByteReader, ByteWriter, PersistError};
use crate::scratch::{BlockScratch, MatchScratch, Matcher};
use crate::tree::{encode_section, TreeConfig};
use crate::FilterError;

/// Leading magic of a serialized snapshot (`"ENSF"`).
const SNAPSHOT_MAGIC: u32 = 0x454E_5346;
/// Bumped whenever the binary layout changes incompatibly.
/// Version 3 added the covering sections (expansion plan + overlay
/// cover entries); version 4 dropped the automaton section, which a
/// load derives from the tree; version 5 writes the tree's leaf lists
/// once, as a pool its leaves index, and its event model once.
const SNAPSHOT_VERSION: u32 = 5;
/// The last version that wrote the automaton section, which a load
/// reads only to step over.
const SNAPSHOT_VERSION_WITH_AUTOMATON: u32 = 3;

/// Reusable buffers for one [`FilterSnapshot::match_into`] call.
///
/// Keep one per worker thread (e.g. in a `thread_local!`); after warm-up
/// a match performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct SnapshotScratch {
    base: MatchScratch,
    overlay: MatchScratch,
    matched: Vec<u32>,
    ops: u64,
    overlay_ops: u64,
    cover: CoverScratch,
}

impl SnapshotScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        SnapshotScratch::default()
    }

    /// Global profile ids matched by the last call, ascending: base
    /// (compiled) ids first, overlay ids offset by the snapshot's
    /// [`FilterSnapshot::base_len`]. Tombstoned profiles are already
    /// filtered out.
    #[must_use]
    pub fn matched(&self) -> &[u32] {
        &self.matched
    }

    /// Comparison operations spent by the last call: base plus overlay.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The overlay's share of [`SnapshotScratch::ops`] — what the
    /// incremental-subscription side index spent on the last call.
    #[must_use]
    pub fn overlay_ops(&self) -> u64 {
        self.overlay_ops
    }

    /// Residual interval checks covering expansion evaluated on the
    /// last call (0 on a snapshot without covered profiles). Not part
    /// of [`SnapshotScratch::ops`], which stays the tree's comparisons.
    #[must_use]
    pub fn cover_checks(&self) -> u64 {
        self.cover.checks
    }

    /// Profiles the last call delivered through covering expansion:
    /// representatives' own slots, duplicates, strict children and
    /// covered overlay entries. Over [`SnapshotScratch::cover_checks`]
    /// this is what the expansion delivered per check it paid.
    #[must_use]
    pub fn cover_delivered(&self) -> u64 {
        self.cover.delivered
    }

    /// Whether the last call matched anything.
    #[must_use]
    pub fn is_match(&self) -> bool {
        !self.matched.is_empty()
    }
}

/// Reusable buffers for one [`FilterSnapshot::match_block`] call: the
/// per-event global-id match lists of a whole block in one CSR arena.
///
/// Keep one per worker thread; after warm-up a block match performs no
/// heap allocation.
#[derive(Debug, Clone, Default)]
pub struct SnapshotBlockScratch {
    /// Base-layer block scratch (also holds the row buffer the overlay
    /// pass reuses).
    base: BlockScratch,
    /// Overlay per-event scratch.
    overlay: MatchScratch,
    /// CSR offsets: event `i`'s ids live at
    /// `matched[off[i] .. off[i + 1]]`.
    off: Vec<u32>,
    matched: Vec<u32>,
    ops: u64,
    overlay_ops: u64,
    /// Per-event ops (base + overlay) and the overlay's share — the
    /// per-event attribution batch publish receipts report.
    event_ops: Vec<u64>,
    event_overlay_ops: Vec<u64>,
    /// Expansion scratch; its counters run over the whole block.
    cover: CoverScratch,
}

impl SnapshotBlockScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        SnapshotBlockScratch::default()
    }

    /// Number of events in the last matched block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.off.len().saturating_sub(1)
    }

    /// Whether the last block held no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the block, keeping its buffers.
    fn clear(&mut self) {
        self.off.clear();
        self.off.push(0);
        self.matched.clear();
        self.ops = 0;
        self.overlay_ops = 0;
        self.event_ops.clear();
        self.event_overlay_ops.clear();
        self.cover.checks = 0;
        self.cover.delivered = 0;
    }

    /// Global profile ids matched by event `i` of the last block,
    /// ascending (same id space as [`SnapshotScratch::matched`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn matched_of(&self, i: usize) -> &[u32] {
        &self.matched[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// Total comparison operations over the block (base plus overlay).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The overlay's share of [`SnapshotBlockScratch::ops`].
    #[must_use]
    pub fn overlay_ops(&self) -> u64 {
        self.overlay_ops
    }

    /// [`SnapshotScratch::cover_checks`] summed over the block.
    #[must_use]
    pub fn cover_checks(&self) -> u64 {
        self.cover.checks
    }

    /// [`SnapshotScratch::cover_delivered`] summed over the block.
    #[must_use]
    pub fn cover_delivered(&self) -> u64 {
        self.cover.delivered
    }

    /// Comparison operations spent on event `i` (base + overlay).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn ops_of(&self, i: usize) -> u64 {
        self.event_ops[i]
    }

    /// The overlay's share of [`SnapshotBlockScratch::ops_of`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn overlay_ops_of(&self, i: usize) -> u64 {
        self.event_overlay_ops[i]
    }
}

/// An immutable, shareable compiled filter: DFSA + overlay +
/// tombstones.
///
/// # Example
///
/// ```
/// use ens_filter::{FilterSnapshot, SnapshotScratch, TreeConfig};
/// use ens_types::{Domain, Event, IndexedEvent, Predicate, ProfileSet, Schema};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::builder().attribute("x", Domain::int(0, 99))?.build();
/// let mut base = ProfileSet::new(&schema);
/// base.insert_with(|b| b.predicate("x", Predicate::between(10, 19)))?;
/// let snap = FilterSnapshot::compile(&base, &TreeConfig::default())?;
///
/// // A new subscription enters the overlay without recompiling the tree.
/// let mut delta = ProfileSet::new(&schema);
/// delta.insert_with(|b| b.predicate("x", Predicate::ge(90)))?;
/// let snap = snap.with_overlay(&delta)?;
///
/// let mut scratch = SnapshotScratch::new();
/// let e = Event::builder(&schema).value("x", 95)?.build();
/// let indexed = IndexedEvent::resolve(&schema, &e)?;
/// snap.match_into(&indexed, &mut scratch, false);
/// assert_eq!(scratch.matched(), &[1], "overlay profile 0 -> global id 1");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FilterSnapshot {
    compiled: Arc<Dfsa>,
    base_len: usize,
    /// Tombstoned base profiles, one bit per slot (the word layout of
    /// the expansion bitmap, which masks with it); empty when no
    /// tombstone set was attached.
    removed: Arc<[u64]>,
    removed_count: usize,
    /// The counting index over the overlay positions it matches; `None`
    /// when it matches none. It may span fewer than `overlay_len`
    /// positions: those past it are never posted.
    overlay: Option<Arc<OverlayIndex>>,
    overlay_len: usize,
    /// Tombstoned overlay positions, in the layout of `removed`.
    overlay_removed: Arc<[u64]>,
    overlay_removed_count: usize,
    /// Covering-pruned compilations only: the tree/DFSA hold the
    /// antichain representatives (compiled ids `0..plan.rep_count()`)
    /// and matches expand to original base slots through this plan.
    /// `None` means compiled ids *are* base slots.
    cover: Option<Arc<CoverPlan>>,
    /// Overlay positions covered by a compiled representative: skipped
    /// by the counting index, delivered by expansion instead. `None`
    /// when there are none.
    overlay_children: Option<Arc<OverlayCover>>,
}

/// Whether slot `k` is not set in the tombstone bitmap `dead` (slots
/// beyond its end are live).
#[inline]
fn is_live(dead: &[u64], k: u32) -> bool {
    dead.get(k as usize / 64)
        .is_none_or(|word| word >> (k % 64) & 1 == 0)
}

/// Steps over a version 3 image's automaton section: a state count,
/// ten packed state columns (two of them `u64`), the cut bounds
/// (`u64`) and targets, the jump tables and the bucket index, the leaf
/// arena (tag 1: references into the tree; tag 0: offsets and ids) and
/// the root. No field of it is used, so none is checked.
fn skip_automaton(r: &mut ByteReader<'_>) -> Result<(), PersistError> {
    r.u32()?;
    for wide in [0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0] {
        if wide == 1 {
            r.vec_u64_packed()?;
        } else {
            r.vec_u32_packed()?;
        }
    }
    let leaf_columns = match r.u8()? {
        1 => 1,
        0 => 2,
        tag => return Err(PersistError::new(format!("unknown leaf arena tag {tag}"))),
    };
    for _ in 0..leaf_columns {
        r.vec_u32_packed()?;
    }
    r.u32()?;
    Ok(())
}

/// Below this many slots per candidate an expansion is *sparse*: it
/// appends to the output list and sorts it if it has to, which for a
/// handful of slots out of thousands beats touching one bitmap word —
/// and one cache line — per slot. At two candidates or more per 64-slot
/// word the bitmap wins: it never sorts, and a word read back yields
/// several slots. Measured either side of it in CHANGES.md (PR 13).
const SPARSE_SLOTS_PER_CANDIDATE: usize = 32;

/// One ascending stretch of a match result that covering expansion
/// fills: the base slots, or the overlay positions.
struct Region<'a> {
    /// Slots `0..slots` exist in the region.
    slots: usize,
    /// Added to a slot to make its global id.
    offset: u32,
    /// Tombstone bitmap over the region's slots (empty: all live).
    dead: &'a [u64],
}

impl Region<'_> {
    /// Appends to `out`, ascending and without the dead ones, the ids of
    /// `listed` (ascending already) and of every slot the compiled
    /// `hits` expand to through `cover`.
    fn expand<E: Expand>(
        &self,
        cover: &E,
        hits: &[ProfileId],
        listed: &[ProfileId],
        raw: &[u64],
        out: &mut Vec<u32>,
        x: &mut CoverScratch,
    ) {
        let start = out.len();
        let candidates = listed.len()
            + hits
                .iter()
                .map(|p| cover.candidates(p.index() as u32))
                .sum::<usize>();
        if candidates * SPARSE_SLOTS_PER_CANDIDATE >= self.slots {
            x.bits.reserve_slots(self.slots);
            x.bits.announce(listed.len());
            for p in listed {
                x.bits.mark(p.index() as u32);
            }
            for p in hits {
                x.checks += cover.expand(p.index() as u32, raw, &mut x.bits);
            }
            x.bits.drain_into(self.dead, self.offset, out);
        } else {
            out.extend(listed.iter().map(|p| self.offset + p.index() as u32));
            let mut list = Appended {
                floor: out[start..].last().map_or(0, |last| last + 1),
                out,
                offset: self.offset,
                ascending: true,
            };
            for p in hits {
                x.checks += cover.expand(p.index() as u32, raw, &mut list);
            }
            if !list.ascending {
                out[start..].sort_unstable();
            }
            if !self.dead.is_empty() {
                let mut kept = start;
                for k in start..out.len() {
                    let id = out[k];
                    if is_live(self.dead, id - self.offset) {
                        out[kept] = id;
                        kept += 1;
                    }
                }
                out.truncate(kept);
            }
        }
        let listed_live = match self.dead {
            [] => listed.len(),
            dead => listed
                .iter()
                .filter(|p| is_live(dead, p.index() as u32))
                .count(),
        };
        x.delivered += (out.len() - start - listed_live) as u64;
    }
}

impl FilterSnapshot {
    /// Compiles `profiles` into a fresh snapshot ([`Dfsa::build`]) with
    /// an empty overlay and no tombstones.
    ///
    /// # Errors
    ///
    /// Propagates tree construction errors.
    pub fn compile(profiles: &ProfileSet, config: &TreeConfig) -> Result<Self, FilterError> {
        let dfsa = Dfsa::build(profiles, config)?;
        Self::from_dfsa(dfsa, profiles.len(), None)
    }

    /// Finishes a compilation around an already built automaton (the
    /// expansion plan): what [`FilterSnapshot::compile`] and
    /// [`FilterSnapshot::compile_with_cover`] do after building theirs.
    /// For a caller that built the automaton to price it first and now
    /// commits that same automaton.
    ///
    /// `dfsa` must be built from the `base_len` profiles of the
    /// population themselves, or — with `cover` — from that covering
    /// analysis' representatives in ascending slot order (see
    /// [`FilterSnapshot::cover_representatives`]).
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::Persist`] when the automaton does not hold
    /// as many profiles as that, and propagates expansion-plan errors.
    pub fn from_dfsa(
        dfsa: Dfsa,
        base_len: usize,
        cover: Option<&CoverSet>,
    ) -> Result<Self, FilterError> {
        let compiled = cover.map_or(base_len, |c| c.rep_slots().len());
        if dfsa.profile_count() != compiled {
            return Err(FilterError::Persist {
                message: format!(
                    "automaton holds {} profiles, the population compiles to {compiled}",
                    dfsa.profile_count()
                ),
            });
        }
        let plan = match cover {
            Some(cover) => Some(Arc::new(CoverPlan::from_parts(
                cover.rep_slots().to_vec(),
                base_len,
                cover.children_sorted(),
            )?)),
            None => None,
        };
        Ok(FilterSnapshot {
            compiled: Arc::new(dfsa),
            base_len,
            removed: Arc::from(Vec::new()),
            removed_count: 0,
            overlay: None,
            overlay_len: 0,
            overlay_removed: Arc::from(Vec::new()),
            overlay_removed_count: 0,
            cover: plan,
            overlay_children: None,
        })
    }

    /// Compiles `profiles` pruned by an already-built covering
    /// analysis: only `cover`'s representatives enter the tree/DFSA
    /// (in ascending slot order, so compiled id `c` is the rank of its
    /// slot), and the snapshot carries the expansion plan derived from
    /// `cover`, so matches still report *original* base slots. Build
    /// `cover` with [`CoverSet::build_bulk`] over `profiles` keyed by
    /// their ids, and keep it to probe later subscriptions against.
    ///
    /// Match semantics are identical to [`FilterSnapshot::compile`]; on
    /// duplicate-heavy populations build time and compiled bytes drop
    /// with the representative count instead of the population size
    /// (the `profile_scale` section of `BENCH_throughput.json`).
    ///
    /// # Errors
    ///
    /// Propagates tree construction errors.
    pub fn compile_with_cover(
        profiles: &ProfileSet,
        cover: &CoverSet,
        config: &TreeConfig,
    ) -> Result<Self, FilterError> {
        let reps = Self::cover_representatives(profiles, cover)?;
        let dfsa = Dfsa::build(&reps, config)?;
        Self::from_dfsa(dfsa, profiles.len(), Some(cover))
    }

    /// The profiles a covering-pruned compilation of `profiles` puts in
    /// the tree: `cover`'s representatives, in ascending slot order, so
    /// compiled id `c` is the rank of its slot.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::Persist`] for a representative slot
    /// outside `profiles`.
    pub fn cover_representatives(
        profiles: &ProfileSet,
        cover: &CoverSet,
    ) -> Result<ProfileSet, FilterError> {
        let mut reps = ProfileSet::new(profiles.schema());
        for &slot in cover.rep_slots() {
            let p = profiles
                .get(ProfileId::new(slot))
                .ok_or_else(|| FilterError::Persist {
                    message: format!("cover rep slot {slot} outside population"),
                })?;
            reps.insert(p.clone());
        }
        Ok(reps)
    }

    /// A new snapshot with the overlay replaced by `overlay` (dense ids
    /// `0..overlay.len()`, reported offset by [`FilterSnapshot::base_len`]),
    /// compiled into an [`OverlayIndex`] counting index — a pack (see
    /// [`FilterSnapshot::with_overlay_entries`]) with nothing covered.
    ///
    /// # Errors
    ///
    /// Propagates predicate lowering errors.
    pub fn with_overlay(&self, overlay: &ProfileSet) -> Result<Self, FilterError> {
        self.with_overlay_entries(overlay.iter().map(|p| (p, None)))
    }

    /// Packs: a new snapshot whose overlay is `entries` at dense
    /// positions `0..n`, each a profile and the compiled representative
    /// and residual it is delivered through (`None`: the counting index
    /// matches it). Tombstoned overlay positions are gone; the compiled
    /// base and its tombstones are shared.
    ///
    /// Cost is O(overlay) — the counting index and the expansion map of
    /// covered entries are built anew — and independent of the compiled
    /// subscription count. The profiles are borrowed, never cloned.
    ///
    /// # Errors
    ///
    /// Propagates predicate lowering errors.
    pub fn with_overlay_entries<'a>(
        &self,
        entries: impl IntoIterator<Item = (&'a Profile, Option<(u32, &'a [Residual])>)>,
    ) -> Result<Self, FilterError> {
        let mut indexed = Vec::new();
        let mut covered = Vec::new();
        let mut len = 0;
        for (k, (profile, cover)) in entries.into_iter().enumerate() {
            match cover {
                Some((rep, residual)) => covered.push((rep, k as u32, residual)),
                None => indexed.push((k as u32, profile)),
            }
            len = k + 1;
        }
        let children = OverlayCover::from_entries(len, covered)?;
        let mut next = self.clone();
        next.overlay_len = len;
        next.overlay = self.index_over(&indexed)?;
        next.overlay_removed = Arc::from(Vec::new());
        next.overlay_removed_count = 0;
        next.overlay_children = (!children.is_empty()).then(|| Arc::new(children));
        Ok(next)
    }

    /// A new snapshot with one more overlay entry, at position
    /// [`FilterSnapshot::overlay_len`], delivered through compiled
    /// representative `rep`'s expansion with `residual`: one child
    /// appended to a copy of the covered entries' expansion map. The
    /// counting index is shared.
    ///
    /// # Errors
    ///
    /// Fails when the overlay has no position left to give.
    pub fn with_covered_entry(&self, rep: u32, residual: &[Residual]) -> Result<Self, FilterError> {
        let pos = self.overlay_len as u32;
        let children = match &self.overlay_children {
            Some(children) => children.with_entry(rep, pos, residual)?,
            None => OverlayCover::default().with_entry(rep, pos, residual)?,
        };
        let mut next = self.clone();
        next.overlay_len += 1;
        next.overlay_children = Some(Arc::new(children));
        Ok(next)
    }

    /// A new snapshot with one more overlay entry, `profile` at position
    /// [`FilterSnapshot::overlay_len`], matched by the counting index:
    /// the index is rebuilt over `indexed` — the positions it is to keep
    /// matching, ascending, each with its profile — and the new entry.
    /// Cost is O(those entries); covered and tombstoned entries are not
    /// touched.
    ///
    /// # Errors
    ///
    /// Propagates predicate lowering errors.
    pub fn with_indexed_entry<'a>(
        &self,
        profile: &'a Profile,
        indexed: impl IntoIterator<Item = (u32, &'a Profile)>,
    ) -> Result<Self, FilterError> {
        let pos = self.overlay_len as u32;
        let kept = indexed.into_iter().filter(|&(k, _)| k < pos);
        let entries: Vec<_> = kept.chain([(pos, profile)]).collect();
        let mut next = self.clone();
        next.overlay_len += 1;
        next.overlay = self.index_over(&entries)?;
        Ok(next)
    }

    /// A new snapshot with overlay position `pos` tombstoned: one bit
    /// set in a copy of the overlay's tombstone bitmap, everything else
    /// shared. A position outside the overlay changes nothing.
    #[must_use]
    pub fn with_overlay_removed(&self, pos: usize) -> Self {
        let mut next = self.clone();
        if pos >= self.overlay_len || !is_live(&self.overlay_removed, pos as u32) {
            return next;
        }
        let dead = &self.overlay_removed;
        let word =
            |w: usize| dead.get(w).copied().unwrap_or(0) | u64::from(w == pos / 64) << (pos % 64);
        next.overlay_removed = (0..dead.len().max(pos / 64 + 1)).map(word).collect();
        next.overlay_removed_count += 1;
        next
    }

    /// The counting index over `indexed` (positions ascending), or none
    /// when it would match nothing.
    fn index_over(
        &self,
        indexed: &[(u32, &Profile)],
    ) -> Result<Option<Arc<OverlayIndex>>, FilterError> {
        if indexed.is_empty() {
            return Ok(None);
        }
        let index = OverlayIndex::from_entries(self.schema(), indexed)?;
        Ok(Some(Arc::new(index)))
    }

    /// A new snapshot with the tombstone bitmap replaced (length must be
    /// [`FilterSnapshot::base_len`]). The compiled base and the overlay
    /// are shared.
    #[must_use]
    pub fn with_removed(&self, removed: Vec<bool>) -> Self {
        debug_assert_eq!(removed.len(), self.base_len);
        let mut words = vec![0u64; removed.len().div_ceil(64)];
        for (k, _) in removed.iter().enumerate().filter(|(_, dead)| **dead) {
            words[k / 64] |= 1 << (k % 64);
        }
        let mut next = self.clone();
        next.removed_count = words.iter().map(|w| w.count_ones() as usize).sum();
        next.removed = Arc::from(words);
        next
    }

    /// Serializes the snapshot — tree, tombstone bitmap, overlay index
    /// and covering sections — into the checkpoint byte form, sealed
    /// with a CRC-32.
    ///
    /// The tree section is written off the automaton, which keeps all
    /// the codec needs of the tree; [`FilterSnapshot::from_bytes`]
    /// decodes it straight back into an automaton. A reload skips the
    /// partitioning and ordering of the tree build, the covering
    /// analysis and every re-optimisation — what makes it cheaper than
    /// recompiling the profile set (see the `recovery` section of
    /// `BENCH_throughput.json`).
    ///
    /// The format has no overlay tombstones: pack the overlay first
    /// ([`FilterSnapshot::with_overlay_entries`]).
    ///
    /// # Panics
    ///
    /// Panics if an overlay position is tombstoned.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        assert_eq!(
            self.overlay_removed_count, 0,
            "pack the overlay before serializing the snapshot"
        );
        let mut w = ByteWriter::new();
        w.u32(SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        encode_section(&self.compiled, &mut w);
        w.u64(self.base_len as u64);
        // Tombstones, bit-packed (1M base profiles -> 122 KiB): the
        // bitmap's words in little-endian order, cut to whole bytes.
        let n_removed = if self.removed.is_empty() {
            0
        } else {
            self.base_len
        };
        w.u32(n_removed as u32);
        let packed: Vec<u8> = self
            .removed
            .iter()
            .flat_map(|word| word.to_le_bytes())
            .take(n_removed.div_ceil(8))
            .collect();
        w.bytes(&packed);
        // The index as a build over the whole overlay writes it: one
        // sentinel per covered position, and present whenever the
        // overlay is not empty.
        w.bool(self.overlay_len > 0);
        w.u64(self.overlay_len as u64);
        if self.overlay_len > 0 {
            let attrs = self.schema().len();
            OverlayIndex::encode(self.overlay.as_deref(), attrs, self.overlay_len, &mut w);
        }
        // Covering sections (v3): the expansion plan and the covered
        // overlay entries, so recovery reproduces the covering analysis
        // without re-deriving containment.
        match &self.cover {
            None => w.bool(false),
            Some(plan) => {
                w.bool(true);
                plan.encode(&mut w);
            }
        }
        match &self.overlay_children {
            None => w.seq_len(0),
            Some(children) => children.encode(&mut w),
        }
        w.into_bytes_crc()
    }

    /// Restores a snapshot written by [`FilterSnapshot::to_bytes`],
    /// decoding its tree into the automaton. Versions 3 and 4 still load:
    /// their leaf lists are interned as they are read, and a version 3
    /// image's automaton section is stepped over, not read.
    ///
    /// # Errors
    ///
    /// Fails on checksum mismatch, wrong magic/version, truncation or
    /// structural inconsistency — a torn or corrupt checkpoint is
    /// reported, never silently half-loaded.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FilterError> {
        let mut r = ByteReader::verify_crc(bytes)?;
        let out = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(out)
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let magic = r.u32()?;
        if magic != SNAPSHOT_MAGIC {
            return Err(PersistError::new(format!(
                "bad snapshot magic {magic:#010x}"
            )));
        }
        let version = r.u32()?;
        if !(SNAPSHOT_VERSION_WITH_AUTOMATON..=SNAPSHOT_VERSION).contains(&version) {
            return Err(PersistError::new(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let dfsa = Dfsa::decode(r, version < SNAPSHOT_VERSION)?;
        if version == SNAPSHOT_VERSION_WITH_AUTOMATON {
            skip_automaton(r)?;
        }
        let base_len = r.u64()? as usize;
        let n_removed = r.u32()? as usize;
        let packed = r.bytes()?;
        if packed.len() != n_removed.div_ceil(8) {
            return Err(PersistError::new("tombstone bitmap length mismatch"));
        }
        if n_removed != 0 && n_removed != base_len {
            return Err(PersistError::new("tombstone bitmap does not cover base"));
        }
        let mut removed: Vec<u64> = packed
            .chunks(8)
            .map(|b| {
                let mut le = [0u8; 8];
                le[..b.len()].copy_from_slice(b);
                u64::from_le_bytes(le)
            })
            .collect();
        if let Some(last) = removed.last_mut().filter(|_| n_removed % 64 != 0) {
            // Padding bits of the last byte carry no slot.
            *last &= (1 << (n_removed % 64)) - 1;
        }
        let removed_count = removed.iter().map(|w| w.count_ones() as usize).sum();
        let has_overlay = r.bool()?;
        let overlay_len = r.u64()? as usize;
        let overlay = if has_overlay {
            let overlay = OverlayIndex::decode(r)?;
            if overlay.profile_count() != overlay_len {
                return Err(PersistError::new("overlay length mismatch"));
            }
            Some(Arc::new(overlay))
        } else {
            if overlay_len != 0 {
                return Err(PersistError::new("missing overlay index"));
            }
            None
        };
        let cover = if r.bool()? {
            Some(Arc::new(CoverPlan::decode(r, base_len)?))
        } else {
            None
        };
        let compiled_len = cover.as_ref().map_or(base_len, |plan| plan.rep_count());
        if dfsa.profile_count() != compiled_len {
            return Err(PersistError::new("tree profile count mismatch"));
        }
        let overlay_children = OverlayCover::decode(r, compiled_len, overlay_len)?;
        Ok(FilterSnapshot {
            compiled: Arc::new(dfsa),
            base_len,
            removed: Arc::from(removed),
            removed_count,
            overlay,
            overlay_len,
            overlay_removed: Arc::from(Vec::new()),
            overlay_removed_count: 0,
            cover,
            overlay_children: (!overlay_children.is_empty()).then(|| Arc::new(overlay_children)),
        })
    }

    /// Matches one pre-resolved event against base and overlay, writing
    /// global profile ids into `scratch`. Lock-free and allocation-free
    /// after scratch warm-up.
    ///
    /// The compiled base is matched through its [`Dfsa`], the one
    /// compiled form; `scratch.ops()` is the paper's comparison count.
    /// The `bool` selects nothing: it is kept only because the frozen
    /// end-to-end benchmark harness passes one, and ROADMAP items 1(b)
    /// and 2(d) delete it.
    pub fn match_into(&self, event: &IndexedEvent, scratch: &mut SnapshotScratch, _: bool) {
        scratch.matched.clear();
        scratch.overlay_ops = 0;
        scratch.cover.checks = 0;
        scratch.cover.delivered = 0;
        self.compiled.match_into(event, &mut scratch.base);
        scratch.ops = scratch.base.ops();
        let hits = scratch.base.profiles();
        self.collect_base(hits, event.raw(), &mut scratch.matched, &mut scratch.cover);
        let mut overlay_hits: &[ProfileId] = &[];
        if let Some(overlay) = &self.overlay {
            overlay.match_into(event, &mut scratch.overlay);
            scratch.ops += scratch.overlay.ops();
            scratch.overlay_ops = scratch.overlay.ops();
            overlay_hits = scratch.overlay.profiles();
        }
        self.collect_overlay(
            hits,
            overlay_hits,
            event.raw(),
            &mut scratch.matched,
            &mut scratch.cover,
        );
    }

    /// Appends the base slots one event delivers to `out`, ascending:
    /// the compiled hits themselves, or under a covering plan their
    /// expansion. Tombstoned slots are left out — but a tombstoned
    /// representative stays compiled and still expands, so its live
    /// children keep being delivered.
    fn collect_base(
        &self,
        hits: &[ProfileId],
        raw: &[u64],
        out: &mut Vec<u32>,
        x: &mut CoverScratch,
    ) {
        match &self.cover {
            None if self.removed.is_empty() => out.extend(hits.iter().map(|p| p.index() as u32)),
            None => out.extend(
                hits.iter()
                    .map(|p| p.index() as u32)
                    .filter(|&k| is_live(&self.removed, k)),
            ),
            Some(plan) => {
                let region = Region {
                    slots: self.base_len,
                    offset: 0,
                    dead: &self.removed,
                };
                region.expand(&**plan, hits, &[], raw, out, x);
            }
        }
    }

    /// Appends the overlay profiles one event delivers to `out` as
    /// global ids, ascending: the counting index's hits plus the
    /// covered positions the compiled hits expand to, less the
    /// tombstoned positions.
    fn collect_overlay(
        &self,
        hits: &[ProfileId],
        overlay_hits: &[ProfileId],
        raw: &[u64],
        out: &mut Vec<u32>,
        x: &mut CoverScratch,
    ) {
        let off = self.base_len as u32;
        let dead = &self.overlay_removed;
        match &self.overlay_children {
            None if dead.is_empty() => {
                out.extend(overlay_hits.iter().map(|p| off + p.index() as u32));
            }
            None => out.extend(
                overlay_hits
                    .iter()
                    .map(|p| p.index() as u32)
                    .filter(|&k| is_live(dead, k))
                    .map(|k| off + k),
            ),
            Some(children) => {
                let region = Region {
                    slots: self.overlay_len,
                    offset: off,
                    dead,
                };
                region.expand(&**children, hits, overlay_hits, raw, out, x);
            }
        }
    }

    /// Matches a whole pre-resolved block against base and overlay,
    /// writing per-event global profile ids into `scratch` (CSR
    /// layout). Lock-free and allocation-free after scratch warm-up.
    ///
    /// The compiled base runs through the DFSA's interleaved
    /// multi-event traversal ([`Matcher::match_block`]), the fastest
    /// path in the system, and the overlay's counting index is applied
    /// per event on top. Semantics, per-event ops included, are
    /// identical to calling [`FilterSnapshot::match_into`] per event.
    /// The `bool` selects nothing, as on [`FilterSnapshot::match_into`].
    pub fn match_block(&self, batch: &IndexedBatch, scratch: &mut SnapshotBlockScratch, _: bool) {
        self.compiled.match_block(batch, &mut scratch.base);
        scratch.clear();
        scratch.ops = scratch.base.ops();
        for i in 0..batch.len() {
            let raw = batch.row(i);
            // Borrowed by field: the overlay pass below reuses
            // `scratch.base.row`.
            let hits = &scratch.base.profiles
                [scratch.base.off[i] as usize..scratch.base.off[i + 1] as usize];
            self.collect_base(hits, raw, &mut scratch.matched, &mut scratch.cover);
            let mut overlay_ops = 0;
            let mut overlay_hits: &[ProfileId] = &[];
            if let Some(overlay) = &self.overlay {
                scratch.base.row.copy_from_raw(raw);
                overlay.match_into(&scratch.base.row, &mut scratch.overlay);
                overlay_ops = scratch.overlay.ops();
                overlay_hits = scratch.overlay.profiles();
            }
            self.collect_overlay(
                hits,
                overlay_hits,
                raw,
                &mut scratch.matched,
                &mut scratch.cover,
            );
            scratch.ops += overlay_ops;
            scratch.overlay_ops += overlay_ops;
            scratch.event_ops.push(scratch.base.ops_of(i) + overlay_ops);
            scratch.event_overlay_ops.push(overlay_ops);
            scratch.off.push(scratch.matched.len() as u32);
        }
    }

    /// The same as [`FilterSnapshot::dfsa`]: the compiled tree is its
    /// automaton. Kept only because the frozen end-to-end benchmark
    /// harness names it; ROADMAP items 1(b) and 2(d) delete it.
    #[must_use]
    pub fn tree(&self) -> &Dfsa {
        self.dfsa()
    }

    /// The compiled automaton.
    #[must_use]
    pub fn dfsa(&self) -> &Dfsa {
        &self.compiled
    }

    /// The schema the compiled profiles are over.
    fn schema(&self) -> &Schema {
        self.compiled.schema()
    }

    /// Eq. 2 for the compiled base under `joint` ([`CostModel`]): the
    /// expected comparison operations per event the compiled tree
    /// costs. The overlay is not priced.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::ModelMismatch`] if the model's arity or
    /// domain sizes disagree with the schema.
    pub fn expected_ops(&self, joint: &JointDist) -> Result<f64, FilterError> {
        let cost = CostModel::new(&self.compiled, joint)?.evaluate()?;
        Ok(cost.expected_total_ops())
    }

    /// Number of compiled (base) profiles, including tombstoned ones.
    #[must_use]
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Number of overlay positions, including tombstoned ones.
    #[must_use]
    pub fn overlay_len(&self) -> usize {
        self.overlay_len
    }

    /// Number of tombstoned base profiles.
    #[must_use]
    pub fn removed_len(&self) -> usize {
        self.removed_count
    }

    /// Number of tombstoned overlay positions.
    #[must_use]
    pub fn overlay_removed_len(&self) -> usize {
        self.overlay_removed_count
    }

    /// Number of profiles that can still match.
    #[must_use]
    pub fn live_len(&self) -> usize {
        self.base_len - self.removed_count + self.overlay_len - self.overlay_removed_count
    }

    /// The covering expansion plan, when this snapshot was compiled
    /// covering-pruned.
    #[must_use]
    pub fn cover_plan(&self) -> Option<&Arc<CoverPlan>> {
        self.cover.as_ref()
    }

    /// Number of profiles actually compiled into the tree/DFSA — the
    /// representative count under a covering plan, otherwise
    /// [`FilterSnapshot::base_len`].
    #[must_use]
    pub fn compiled_len(&self) -> usize {
        self.cover
            .as_ref()
            .map_or(self.base_len, |plan| plan.rep_count())
    }

    /// Per overlay position: the compiled representative id and
    /// residual it is delivered through, or `None` for positions
    /// matched by the counting index — the inverse of the argument to
    /// [`FilterSnapshot::with_overlay_entries`], used to rebuild writer
    /// state at recovery.
    #[must_use]
    pub fn overlay_cover_entries(&self) -> Vec<Option<(u32, Vec<Residual>)>> {
        match &self.overlay_children {
            None => vec![None; self.overlay_len],
            Some(children) => children.to_entries(self.overlay_len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_types::{CoverSet, Domain, Event, Predicate, Schema};

    fn schema() -> Schema {
        Schema::builder()
            .attribute("x", Domain::int(0, 99))
            .unwrap()
            .build()
    }

    fn base(schema: &Schema) -> ProfileSet {
        let mut ps = ProfileSet::new(schema);
        ps.insert_with(|b| b.predicate("x", Predicate::between(10, 19)))
            .unwrap();
        ps.insert_with(|b| b.predicate("x", Predicate::between(15, 30)))
            .unwrap();
        ps
    }

    fn matched(snap: &FilterSnapshot, schema: &Schema, x: i64, use_dfsa: bool) -> Vec<u32> {
        let e = Event::builder(schema).value("x", x).unwrap().build();
        let indexed = IndexedEvent::resolve(schema, &e).unwrap();
        let mut s = SnapshotScratch::new();
        snap.match_into(&indexed, &mut s, use_dfsa);
        s.matched().to_vec()
    }

    #[test]
    fn base_overlay_and_tombstones_compose() {
        let schema = schema();
        let snap = FilterSnapshot::compile(&base(&schema), &TreeConfig::default()).unwrap();
        assert_eq!(snap.base_len(), 2);
        assert_eq!((snap.overlay_len(), snap.removed_len()), (0, 0));
        assert_eq!(matched(&snap, &schema, 17, false), &[0, 1]);

        let mut delta = ProfileSet::new(&schema);
        delta
            .insert_with(|b| b.predicate("x", Predicate::between(16, 40)))
            .unwrap();
        let snap = snap.with_overlay(&delta).unwrap();
        assert_eq!(snap.overlay_len(), 1);
        assert_eq!(snap.live_len(), 3);
        assert_eq!(matched(&snap, &schema, 17, false), &[0, 1, 2]);
        assert_eq!(matched(&snap, &schema, 35, false), &[2]);

        let snap = snap.with_removed(vec![false, true]);
        assert_eq!(snap.removed_len(), 1);
        assert_eq!(snap.live_len(), 2);
        assert_eq!(matched(&snap, &schema, 17, false), &[0, 2]);
        // Clearing the overlay keeps the tombstones.
        let snap = snap.with_overlay(&ProfileSet::new(&schema)).unwrap();
        assert_eq!(matched(&snap, &schema, 17, false), &[0]);
    }

    #[test]
    fn dfsa_and_tree_paths_agree() {
        let schema = schema();
        let mut delta = ProfileSet::new(&schema);
        delta
            .insert_with(|b| b.predicate("x", Predicate::ge(90)))
            .unwrap();
        let snap = FilterSnapshot::compile(&base(&schema), &TreeConfig::default())
            .unwrap()
            .with_overlay(&delta)
            .unwrap()
            .with_removed(vec![true, false]);
        for x in 0..100 {
            assert_eq!(
                matched(&snap, &schema, x, false),
                matched(&snap, &schema, x, true),
                "x = {x}"
            );
        }
    }

    #[test]
    fn dfsa_path_counts_the_tree_ops() {
        let schema = schema();
        let mut base = base(&schema);
        base.insert_with(|b| b.predicate("x", Predicate::between(11, 13)))
            .unwrap();
        let mut delta = ProfileSet::new(&schema);
        delta
            .insert_with(|b| b.predicate("x", Predicate::ge(90)))
            .unwrap();
        delta
            .insert_with(|b| b.predicate("x", Predicate::le(20)))
            .unwrap();
        let cover =
            CoverSet::build_bulk(&schema, base.iter().map(|p| (p.id().index() as u32, p))).unwrap();
        let config = TreeConfig::default();
        let uncovered = FilterSnapshot::compile(&base, &config).unwrap();
        let covered = FilterSnapshot::compile_with_cover(&base, &cover, &config).unwrap();
        assert!(covered.compiled_len() < base.len());
        for snap in [uncovered, covered] {
            let snap = snap
                .with_overlay(&delta)
                .unwrap()
                .with_removed(vec![false, true, false])
                .with_overlay_removed(0);
            let (mut tree, mut dfsa) = (SnapshotScratch::new(), SnapshotScratch::new());
            for x in 0..100 {
                let e = Event::builder(&schema).value("x", x).unwrap().build();
                let indexed = IndexedEvent::resolve(&schema, &e).unwrap();
                snap.match_into(&indexed, &mut tree, false);
                snap.match_into(&indexed, &mut dfsa, true);
                assert!(tree.ops() > tree.overlay_ops());
                assert_eq!(dfsa.matched(), tree.matched(), "x = {x}");
                assert_eq!(
                    dfsa.ops(),
                    tree.ops(),
                    "the DFSA counts what the tree counts"
                );
                assert_eq!(dfsa.overlay_ops(), tree.overlay_ops());
            }
        }
    }

    #[test]
    fn match_block_agrees_with_match_into() {
        let schema = schema();
        let mut delta = ProfileSet::new(&schema);
        delta
            .insert_with(|b| b.predicate("x", Predicate::ge(90)))
            .unwrap();
        delta
            .insert_with(|b| b.predicate("x", Predicate::le(20)))
            .unwrap();
        let snap = FilterSnapshot::compile(&base(&schema), &TreeConfig::default())
            .unwrap()
            .with_overlay(&delta)
            .unwrap()
            .with_removed(vec![true, false]);
        let events: Vec<Event> = (0..100)
            .map(|x| Event::builder(&schema).value("x", x).unwrap().build())
            .collect();
        let mut batch = ens_types::IndexedBatch::new();
        batch.resolve_into(&schema, events.iter()).unwrap();
        for use_dfsa in [false, true] {
            let mut block = SnapshotBlockScratch::new();
            snap.match_block(&batch, &mut block, use_dfsa);
            assert_eq!(block.len(), events.len());
            assert!(!block.is_empty());
            let mut single = SnapshotScratch::new();
            let mut total_ops = 0;
            let mut total_overlay = 0;
            for (i, e) in events.iter().enumerate() {
                let indexed = IndexedEvent::resolve(&schema, e).unwrap();
                snap.match_into(&indexed, &mut single, use_dfsa);
                assert_eq!(block.matched_of(i), single.matched(), "x = {i}");
                total_ops += single.ops();
                total_overlay += single.overlay_ops();
            }
            assert_eq!(block.ops(), total_ops, "use_dfsa = {use_dfsa}");
            assert_eq!(block.overlay_ops(), total_overlay);
            assert!(block.overlay_ops() > 0);
        }
    }

    #[test]
    fn empty_set_compiles() {
        let schema = schema();
        let snap =
            FilterSnapshot::compile(&ProfileSet::new(&schema), &TreeConfig::default()).unwrap();
        assert_eq!(snap.live_len(), 0);
        assert!(matched(&snap, &schema, 5, false).is_empty());
    }
}
