//! The allocation-free matching fast path: reusable scratch buffers and
//! the [`Matcher`] trait.
//!
//! The paper's whole point is minimising per-event matching cost, so
//! matching splits its work:
//!
//! 1. the caller resolves the event once into an
//!    [`IndexedEvent`](ens_types::IndexedEvent) (reused across events via
//!    [`IndexedEvent::resolve_into`](ens_types::IndexedEvent::resolve_into));
//! 2. every matcher implements [`Matcher::match_into`], writing its
//!    result into a caller-owned [`MatchScratch`] whose buffers are
//!    reused — after warm-up the hot loop performs **zero** heap
//!    allocations (asserted by `crates/filter/tests/alloc.rs`).
//!
//! On top of the per-event path, [`Matcher::match_block`] drives a whole
//! [`IndexedBatch`](ens_types::IndexedBatch) through one call with a
//! [`BlockScratch`], amortising per-event call overhead; the
//! [`crate::Dfsa`] overrides it with an interleaved multi-event
//! traversal. [`Matcher::match_event`] is the one convenience entry for
//! a single raw [`Event`]: it allocates fresh buffers per call.

use ens_types::{Event, IndexedBatch, IndexedEvent, ProfileId, Schema};

use crate::FilterError;

/// Caller-owned, reusable buffers for one matching call.
///
/// Create one per worker/thread, then feed it to any number of
/// [`Matcher::match_into`] calls; each call resets and refills it.
/// Buffers only ever grow, so a warmed-up scratch never reallocates.
///
/// # Example
///
/// ```
/// use ens_filter::{Dfsa, Matcher, MatchScratch, ProfileTree, TreeConfig};
/// use ens_types::{Domain, Event, IndexedEvent, Predicate, ProfileSet, Schema};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::builder().attribute("x", Domain::int(0, 99))?.build();
/// let mut ps = ProfileSet::new(&schema);
/// ps.insert_with(|b| b.predicate("x", Predicate::between(10, 19)))?;
/// let tree = ProfileTree::build(&ps, &TreeConfig::default())?;
/// let dfsa = Dfsa::from_tree(&tree);
///
/// let mut indexed = IndexedEvent::new();
/// let mut scratch = MatchScratch::new();
/// for x in [5i64, 15, 25] {
///     let e = Event::builder(&schema).value("x", x)?.build();
///     indexed.resolve_into(&schema, &e)?;
///     dfsa.match_into(&indexed, &mut scratch);
///     assert_eq!(scratch.is_match(), (10..20).contains(&x));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    /// Matched profile ids, ascending and deduplicated after a
    /// [`Matcher::match_into`] call.
    pub(crate) profiles: Vec<ProfileId>,
    /// Comparison operations per tree level (tree matcher only; empty
    /// for matchers that do not track levels).
    pub(crate) per_level: Vec<u64>,
    /// Total comparison operations (0 for matchers that do not count).
    pub(crate) ops: u64,
    /// Per-profile satisfied-predicate counters (counting index
    /// only). Values are valid only where `epochs` matches `epoch`; the
    /// epoch scheme means no per-event O(profiles) clearing.
    pub(crate) counters: Vec<u32>,
    /// Epoch tag per counter (see [`MatchScratch::begin_epoch`]).
    pub(crate) epochs: Vec<u32>,
    /// Current epoch; 0 means "no epoch started yet".
    pub(crate) epoch: u32,
}

impl MatchScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        MatchScratch::default()
    }

    /// Clears the result buffers for a new match. `levels` is the number
    /// of per-level counters to zero (0 for level-less matchers).
    pub(crate) fn reset(&mut self, levels: usize) {
        self.profiles.clear();
        self.per_level.clear();
        self.per_level.resize(levels, 0);
        self.ops = 0;
    }

    /// Opens a new counter epoch over `profiles` counters: a counter is
    /// *logically* zero until first touched in the current epoch, so no
    /// per-event clearing pass is needed. Counters are physically
    /// re-zeroed only when the profile count changes or the 32-bit
    /// epoch wraps around.
    pub(crate) fn begin_epoch(&mut self, profiles: usize) {
        // Both lengths are checked, so the two tables cannot get out
        // of step whatever else touched `counters` on a shared scratch.
        if self.epochs.len() != profiles || self.counters.len() != profiles {
            self.epochs.clear();
            self.epochs.resize(profiles, 0);
            self.counters.clear();
            self.counters.resize(profiles, 0);
            self.epoch = 0;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale tags could collide with the restarted
            // sequence, so re-zero once every 2^32 events.
            self.epochs.iter_mut().for_each(|e| *e = 0);
            self.epoch = 1;
        }
    }

    /// Bumps profile `k`'s counter within the current epoch and returns
    /// the new count (starting from 1 on the first touch this epoch).
    #[inline]
    pub(crate) fn bump_counter(&mut self, k: usize) -> u32 {
        if self.epochs[k] == self.epoch {
            self.counters[k] += 1;
        } else {
            self.epochs[k] = self.epoch;
            self.counters[k] = 1;
        }
        self.counters[k]
    }

    /// Ids of the profiles matched by the last call, ascending.
    #[must_use]
    pub fn profiles(&self) -> &[ProfileId] {
        &self.profiles
    }

    /// Comparison operations spent by the last call (0 for matchers that
    /// do not count operations). The tree and the DFSA lowered from it
    /// report the same count.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Operations per tree level for the last call (empty for matchers
    /// without levels).
    #[must_use]
    pub fn per_level(&self) -> &[u64] {
        &self.per_level
    }

    /// Whether the last call matched any profile.
    #[must_use]
    pub fn is_match(&self) -> bool {
        !self.profiles.is_empty()
    }
}

/// Caller-owned, reusable buffers for one [`Matcher::match_block`] call.
///
/// Holds the per-event match lists of a whole block in one CSR arena
/// (offsets + flat profile ids) so block matching stays allocation-free
/// after warm-up, like the single-event path.
///
/// # Example
///
/// ```
/// use ens_filter::{BlockScratch, Dfsa, Matcher, ProfileTree, TreeConfig};
/// use ens_types::{Domain, Event, IndexedBatch, Predicate, ProfileSet, Schema};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::builder().attribute("x", Domain::int(0, 99))?.build();
/// let mut ps = ProfileSet::new(&schema);
/// ps.insert_with(|b| b.predicate("x", Predicate::between(10, 19)))?;
/// let tree = ProfileTree::build(&ps, &TreeConfig::default())?;
/// let dfsa = Dfsa::from_tree(&tree);
///
/// let events: Vec<Event> = (0..4)
///     .map(|x| Event::builder(&schema).value("x", x * 10).unwrap().build())
///     .collect();
/// let mut batch = IndexedBatch::new();
/// batch.resolve_into(&schema, events.iter())?;
/// let mut block = BlockScratch::new();
/// dfsa.match_block(&batch, &mut block);
/// assert_eq!(block.len(), 4);
/// assert_eq!(block.profiles_of(1).len(), 1, "x = 10 matches");
/// assert!(block.profiles_of(0).is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BlockScratch {
    /// CSR offsets: event `i`'s matches live at
    /// `profiles[off[i] .. off[i + 1]]`; `off.len() == events + 1`.
    pub(crate) off: Vec<u32>,
    /// Flat matched-profile arena, each event's slice ascending and
    /// deduplicated.
    pub(crate) profiles: Vec<ProfileId>,
    /// Total comparison operations over the block (0 for matchers that
    /// do not count).
    pub(crate) ops: u64,
    /// Per-event comparison operations (all zero for matchers that do
    /// not count).
    pub(crate) event_ops: Vec<u64>,
    /// Per-event working scratch for the generic fallback and for
    /// matchers that compose block and single paths.
    pub(crate) single: MatchScratch,
    /// Row view buffer for the generic fallback.
    pub(crate) row: IndexedEvent,
}

impl BlockScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        BlockScratch::default()
    }

    /// Clears the CSR result for a block of `events` events.
    pub(crate) fn reset_block(&mut self, events: usize) {
        self.off.clear();
        self.off.reserve(events + 1);
        self.off.push(0);
        self.profiles.clear();
        self.ops = 0;
        self.event_ops.clear();
        self.event_ops.resize(events, 0);
    }

    /// Closes the current event's CSR row.
    #[inline]
    pub(crate) fn seal_event(&mut self) {
        self.off.push(self.profiles.len() as u32);
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

    /// Ids of the profiles matched by event `i` of the last block,
    /// ascending and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn profiles_of(&self, i: usize) -> &[ProfileId] {
        &self.profiles[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// Total comparison operations spent on the last block (0 for
    /// matchers that do not count operations).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Comparison operations spent on event `i` of the last block.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn ops_of(&self, i: usize) -> u64 {
        self.event_ops[i]
    }
}

/// A reusable set of slot ids read back in ascending order: the buffer
/// covering expansion delivers into (see [`crate::CoverPlan`]).
///
/// One bit per slot in `words`, one byte per word in `used` saying the
/// word holds something, one byte per 64 of those in `used_lines`. A
/// mark is one OR and two plain byte stores — the upper levels are
/// bytes and not bits so that marks do not queue up behind each other's
/// read-modify-write of one shared summary word — and a drain visits
/// only what the bytes point at: its cost follows the slots delivered,
/// not the slot range (the top level alone is scanned whole, one byte
/// per 4096 slots, eight bytes at a time). Draining leaves the set
/// empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotBits {
    words: Vec<u64>,
    /// `words.len()` bytes (a multiple of 64).
    used: Vec<u8>,
    /// `words.len() / 64` bytes, padded to a multiple of 8.
    used_lines: Vec<u8>,
    /// Marks announced since the last drain: an upper bound on the
    /// slots held.
    announced: usize,
}

/// Clears eight summary bytes and calls `f(k)` for each `k` that was
/// set, ascending.
#[inline]
fn take_used(bytes: &mut [u8], mut f: impl FnMut(usize)) {
    let eight: &mut [u8; 8] = bytes.try_into().expect("summary levels come in eights");
    let mut set = u64::from_le_bytes(*eight);
    if set != 0 {
        *eight = [0; 8];
        while set != 0 {
            f(set.trailing_zeros() as usize / 8);
            set &= set - 1;
        }
    }
}

impl SlotBits {
    /// Grows the set to hold slots `0..n`; never shrinks, so a scratch
    /// stays at its high-water mark.
    #[inline]
    pub(crate) fn reserve_slots(&mut self, n: usize) {
        if self.words.len() * 64 < n {
            let words = n.div_ceil(64).next_multiple_of(64);
            self.words.resize(words, 0);
            self.used.resize(words, 0);
            self.used_lines.resize((words / 64).next_multiple_of(8), 0);
        }
    }

    /// Announces up to `n` coming [`SlotBits::mark`]s, so the drain can
    /// size its output once. Counted here, per batch of marks, and not
    /// in `mark` itself, where the counter would be one more memory
    /// update every mark waits on.
    #[inline]
    pub(crate) fn announce(&mut self, n: usize) {
        self.announced += n;
    }

    /// Adds slot `s` (idempotent); must have been announced.
    ///
    /// # Panics
    ///
    /// Panics if `s` lies beyond the reserved range.
    #[inline]
    pub(crate) fn mark(&mut self, s: u32) {
        let w = s as usize >> 6;
        self.words[w] |= 1 << (s & 63);
        self.used[w] = 1;
        self.used_lines[w >> 6] = 1;
    }

    /// Appends every marked slot not set in `dead` (a bitmap in the
    /// same word layout; slots beyond its end are live) to `out` as
    /// `offset + slot`, ascending, and empties the set. Returns how
    /// many were appended.
    pub(crate) fn drain_into(&mut self, dead: &[u64], offset: u32, out: &mut Vec<u32>) -> usize {
        // Sized once for every announced mark, cut back to what was
        // live and distinct: the bit loop then neither checks capacity
        // nor bounds.
        let before = out.len();
        out.resize(before + std::mem::take(&mut self.announced), 0);
        let mut rest = &mut out[before..];
        let (words, used) = (&mut self.words, &mut self.used);
        for (i, lines) in self.used_lines.chunks_exact_mut(8).enumerate() {
            take_used(lines, |k| {
                let line = (i * 8 + k) * 64;
                for (j, bytes) in used[line..line + 64].chunks_exact_mut(8).enumerate() {
                    take_used(bytes, |k| {
                        let w = line + j * 8 + k;
                        let mut bits = std::mem::take(&mut words[w]);
                        if let Some(d) = dead.get(w) {
                            bits &= !d;
                        }
                        let base = offset + ((w as u32) << 6);
                        let (head, tail) =
                            std::mem::take(&mut rest).split_at_mut(bits.count_ones() as usize);
                        for slot in head {
                            *slot = base + bits.trailing_zeros();
                            bits &= bits - 1;
                        }
                        rest = tail;
                    });
                }
            });
        }
        let unused = rest.len();
        out.truncate(out.len() - unused);
        out.len() - before
    }
}

/// A matcher that can run against pre-resolved events with caller-owned
/// buffers — the allocation-free fast path shared by the profile tree,
/// the DFSA and the baseline matchers.
///
/// Implementations must leave `scratch.profiles()` sorted ascending and
/// deduplicated. Out-of-domain indices in `event` (possible only via
/// [`IndexedEvent::from_indices`](ens_types::IndexedEvent::from_indices))
/// are treated as values that satisfy no specific edge.
pub trait Matcher {
    /// Matches one pre-resolved event, writing the result into
    /// `scratch`. The result is valid until the next call with the same
    /// scratch.
    fn match_into(&self, event: &IndexedEvent, scratch: &mut MatchScratch);

    /// Matches a whole pre-resolved block, writing per-event results
    /// into `scratch` (CSR layout, allocation-free after warm-up).
    ///
    /// The default implementation loops [`Matcher::match_into`] over the
    /// rows; matchers with a cheaper block form (notably [`crate::Dfsa`]
    /// with its interleaved multi-event traversal) override it.
    /// Semantics are identical to the per-event loop.
    fn match_block(&self, batch: &IndexedBatch, scratch: &mut BlockScratch) {
        scratch.reset_block(batch.len());
        let BlockScratch {
            off,
            profiles,
            ops,
            event_ops,
            single,
            row,
            ..
        } = scratch;
        for (i, slot) in event_ops.iter_mut().enumerate() {
            row.copy_from_raw(batch.row(i));
            self.match_into(row, single);
            profiles.extend_from_slice(single.profiles());
            *ops += single.ops();
            *slot = single.ops();
            off.push(profiles.len() as u32);
        }
    }

    /// Matches one raw event: resolves it against `schema` into a fresh
    /// [`IndexedEvent`], runs [`Matcher::match_into`] and returns the
    /// scratch holding the result. Allocates per call; hot loops reuse
    /// an [`IndexedEvent`] and a [`MatchScratch`] instead.
    ///
    /// # Errors
    ///
    /// Propagates domain errors for ill-typed event values. Resolution
    /// is eager over the whole schema: a value that is ill-typed for
    /// *any* attribute errors, even one no matcher state would test.
    fn match_event(&self, schema: &Schema, event: &Event) -> Result<MatchScratch, FilterError> {
        let indexed = IndexedEvent::resolve(schema, event)?;
        let mut scratch = MatchScratch::new();
        self.match_into(&indexed, &mut scratch);
        Ok(scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_clears_and_sizes_levels() {
        let mut s = MatchScratch::new();
        s.profiles.push(ProfileId::new(3));
        s.ops = 9;
        s.per_level.push(7);
        s.reset(2);
        assert!(s.profiles().is_empty());
        assert!(!s.is_match());
        assert_eq!(s.ops(), 0);
        assert_eq!(s.per_level(), &[0, 0]);
        s.reset(0);
        assert!(s.per_level().is_empty());
    }

    #[test]
    fn epoch_counters_reset_logically() {
        let mut s = MatchScratch::new();
        s.begin_epoch(3);
        assert_eq!(s.bump_counter(1), 1);
        assert_eq!(s.bump_counter(1), 2);
        assert_eq!(s.bump_counter(2), 1);
        // New epoch: every counter is logically zero again without any
        // clearing pass.
        s.begin_epoch(3);
        assert_eq!(s.bump_counter(1), 1);
        // Resizing re-zeroes physically.
        s.begin_epoch(5);
        assert_eq!(s.bump_counter(4), 1);
        assert_eq!(s.bump_counter(1), 1);
    }

    #[test]
    fn epoch_counters_survive_foreign_counter_resize() {
        // Something else may resize `counters` on a shared scratch
        // without touching `epochs`; the next epoch must re-synchronise
        // both.
        let mut s = MatchScratch::new();
        s.begin_epoch(100);
        assert_eq!(s.bump_counter(99), 1);
        s.counters.clear();
        s.counters.resize(10, 0);
        s.begin_epoch(100);
        assert_eq!(s.bump_counter(99), 1);
    }

    #[test]
    fn epoch_wrap_rezeroes_tags() {
        let mut s = MatchScratch::new();
        s.begin_epoch(2);
        s.bump_counter(0);
        s.epoch = u32::MAX; // force the wrap on the next epoch
        s.begin_epoch(2);
        assert_eq!(s.epoch, 1);
        assert_eq!(s.bump_counter(0), 1, "stale tag must not survive wrap");
    }

    #[test]
    fn slot_bits_drain_ascending_masked_and_empty_afterwards() {
        let mut bits = SlotBits::default();
        // Wide enough for two top-level bytes (one per 4096 slots).
        bits.reserve_slots(300_000);
        let slots = [
            299_999u32, 0, 63, 64, 4095, 4096, 70_000, 262_143, 262_144, 63,
        ];
        bits.announce(slots.len());
        for s in slots {
            bits.mark(s);
        }
        let mut dead = vec![0u64; 2];
        dead[1] = 1; // slot 64
        let mut out = vec![7];
        let n = bits.drain_into(&dead, 10, &mut out);
        assert_eq!(n, 8, "64 is dead, 63 was marked twice");
        assert_eq!(
            out,
            [7, 10, 73, 4105, 4106, 70_010, 262_153, 262_154, 300_009]
        );
        // Drained: nothing is left behind, and growing keeps it so.
        assert_eq!(bits.drain_into(&[], 0, &mut out), 0);
        bits.reserve_slots(1_000_000);
        bits.announce(1);
        bits.mark(999_999);
        out.clear();
        assert_eq!(bits.drain_into(&[], 0, &mut out), 1);
        assert_eq!(out, [999_999]);
    }

    #[test]
    fn block_scratch_csr_rows() {
        let mut b = BlockScratch::new();
        b.reset_block(2);
        b.profiles.push(ProfileId::new(4));
        b.seal_event();
        b.seal_event();
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.profiles_of(0), &[ProfileId::new(4)]);
        assert!(b.profiles_of(1).is_empty());
    }
}
