//! The compiled form of a covering analysis: which base slots were
//! compiled as representatives and how matches expand back to the
//! covered profiles.
//!
//! A [`CoverPlan`] is derived from an
//! [`ens_types::CoverSet`] at compile time and travels with the
//! [`FilterSnapshot`](crate::FilterSnapshot) it prunes — including
//! through the checkpoint codec, so crash recovery restores the
//! expansion map verbatim instead of re-deriving containment over the
//! whole population.
//!
//! Matching with a plan works on two id spaces: the tree/DFSA emit
//! **compiled** ids `0..rep_count` (dense over the representatives,
//! ascending in original slot order), which the snapshot expands to
//! **original** base slots — the representative itself plus every
//! covered profile whose [`Residual`] the event passes.
//!
//! # Expansion layout
//!
//! Both the plan and the covered overlay entries of a snapshot keep
//! their children in one flat `ExpandIndex`, and every hit goes
//! through its one routine (`ExpandIndex::expand_row`). Per row (one
//! compiled representative) the index holds
//!
//! * a **run**: the representative's own slot and its exact
//!   duplicates, delivered without any check;
//! * its strict children as three parallel columns `lo`, `hi`, `slot`,
//!   grouped by residual attribute and sorted by `lo` inside a group.
//!   An event value `v` stabs a group with one `partition_point` (the
//!   children with `lo <= v`) and a `v < hi` compare per candidate;
//!   a max-`hi` summary per block of `BLOCK` entries lets narrow
//!   ranges that ended before `v` be skipped a block at a time.
//!
//! A set of several intervals is one entry per interval, an empty set
//! one entry no value can pass, and a child with residuals on several
//! attributes sits in the group of its first one with the remaining
//! conjuncts behind a flag bit in `slot` — so every shape the codec
//! admits lives in the same columns, and the common shape (one
//! attribute, one interval) is a straight-line compare. Memory is
//! linear: 20 bytes per interval plus one `u64` per block.
//!
//! # Order
//!
//! The routine delivers to a [`Deliver`] sink. Only the per-event path
//! (`FilterSnapshot::match_into`) chooses between sinks, per event, by
//! how many slots the hit rows can deliver against how many exist.
//! Many out of few (a fan-out population): slots are marked in a
//! `SlotBits` bitmap and read back ascending, so ordering costs what is
//! delivered, never what was scanned, and nothing is sorted. Few out of
//! many (a large, selective population): they are appended to the
//! output list, which one hit's run leaves ascending as it is, and
//! which is sorted only when it is not — a bitmap would touch a cache
//! line per slot there. The block path (`FilterSnapshot::match_block`)
//! makes no choice: it appends every event's expansion as it comes
//! ([`Unordered`]) and puts the whole block in order once, when it
//! transposes the block by slot.

use ens_types::{AttrId, IndexInterval, IndexedEvent, IntervalSet, Residual};

use crate::persist::{ByteReader, ByteWriter, PersistError};
use crate::scratch::SlotBits;

/// Entries per max-`hi` summary block.
const BLOCK: usize = 8;
/// Flag bit of an `ExpandIndex::slot` value: the low bits index
/// `ExpandIndex::more` (further residual attributes to check) instead
/// of naming the slot directly. Slots themselves stay below it.
const MORE: u32 = 1 << 31;

/// Scratch of the expansion routine: the delivery bitmap plus the
/// counters a running broker reports.
#[derive(Debug, Clone, Default)]
pub(crate) struct CoverScratch {
    pub(crate) bits: SlotBits,
    /// Residual interval checks evaluated.
    pub(crate) checks: u64,
    /// Slots delivered through expansion.
    pub(crate) delivered: u64,
}

/// Where [`ExpandIndex::expand_row`] delivers: the [`SlotBits`] bitmap,
/// or — when too few slots are coming to be worth a bitmap — the output
/// list itself ([`Appended`]).
pub(crate) trait Deliver {
    /// A row's run: ascending, none of it delivered before.
    fn run(&mut self, slots: &[u32]);
    /// Up to `n` calls of [`Deliver::slot`] follow.
    fn announce(&mut self, n: usize);
    fn slot(&mut self, s: u32);
}

impl Deliver for SlotBits {
    #[inline]
    fn run(&mut self, slots: &[u32]) {
        self.announce(slots.len());
        for &s in slots {
            self.mark(s);
        }
    }

    #[inline]
    fn announce(&mut self, n: usize) {
        SlotBits::announce(self, n);
    }

    #[inline]
    fn slot(&mut self, s: u32) {
        self.mark(s);
    }
}

/// The output list as a sink: slots go in as `offset + slot` in the
/// order they are delivered, and `ascending` says whether that order
/// still ascends — one hit's run with nothing else does, and then
/// nothing is left to restore.
pub(crate) struct Appended<'a> {
    pub(crate) out: &'a mut Vec<u32>,
    pub(crate) offset: u32,
    /// The smallest id that keeps `out` ascending.
    pub(crate) floor: u32,
    pub(crate) ascending: bool,
}

impl Deliver for Appended<'_> {
    #[inline]
    fn run(&mut self, slots: &[u32]) {
        let (Some(first), Some(last)) = (slots.first(), slots.last()) else {
            return;
        };
        self.ascending &= self.offset + first >= self.floor;
        self.floor = self.offset + last + 1;
        let offset = self.offset;
        self.out.extend(slots.iter().map(|s| offset + s));
    }

    #[inline]
    fn announce(&mut self, _: usize) {}

    #[inline]
    fn slot(&mut self, s: u32) {
        let id = self.offset + s;
        self.ascending &= id >= self.floor;
        self.floor = id + 1;
        self.out.push(id);
    }
}

/// The output list as a sink that keeps no order: slots go in as
/// `offset + slot` in the order they are delivered, for the block path
/// to order once per block.
pub(crate) struct Unordered<'a> {
    pub(crate) out: &'a mut Vec<u32>,
    pub(crate) offset: u32,
}

impl Deliver for Unordered<'_> {
    #[inline]
    fn run(&mut self, slots: &[u32]) {
        let offset = self.offset;
        self.out.extend(slots.iter().map(|s| offset + s));
    }

    #[inline]
    fn announce(&mut self, _: usize) {}

    #[inline]
    fn slot(&mut self, s: u32) {
        self.out.push(self.offset + s);
    }
}

/// What [`FilterSnapshot`](crate::FilterSnapshot) expands compiled hits
/// through: the [`CoverPlan`] (to base slots) and the [`OverlayCover`]
/// (to overlay positions).
pub(crate) trait Expand {
    /// How many slots a hit on compiled id `c` can deliver at most:
    /// its row's children, and the slot of its own.
    fn candidates(&self, c: u32) -> usize;

    /// Delivers what a hit on compiled id `c` expands to for the event
    /// `raw` (see [`ExpandIndex::expand_row`]); returns the residual
    /// checks it took.
    fn expand<D: Deliver>(&self, c: u32, raw: &[u64], to: &mut D) -> u64;
}

/// Where a row's run and groups begin, and how many children the rows
/// before it hold; a row ends where the next one begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Row {
    run: u32,
    group: u32,
    children: u32,
}

/// One residual attribute of one row: its entries start at `start` and
/// end where the next group's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Group {
    attr: u32,
    start: u32,
}

/// A child with more than one residual: `terms[..terms_end]` (from the
/// previous entry's end) must all pass before `slot` is delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct More {
    slot: u32,
    terms_end: u32,
}

/// One further residual of a [`More`] child: attribute `attr` must lie
/// in one of `term_lo/term_hi[..ivs_end]` (from the previous term's
/// end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Term {
    attr: u32,
    ivs_end: u32,
}

/// One interval of a strict child's first residual, as
/// [`ExpandIndex::for_each_child`] hands children back: ordered by
/// slot, then by interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Flat {
    slot: u32,
    lo: u64,
    hi: u64,
    attr: u32,
    /// Index into `ExpandIndex::more` when further residuals follow.
    more: Option<usize>,
}

/// The flat expansion index (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ExpandIndex {
    /// `rows + 1` entries.
    rows: Vec<Row>,
    /// Per row ascending: own slot and exact duplicates.
    runs: Vec<u32>,
    /// All rows' groups plus one closing sentinel.
    groups: Vec<Group>,
    lo: Vec<u64>,
    hi: Vec<u64>,
    slot: Vec<u32>,
    /// Max `hi` per `BLOCK` entries, blocks aligned to the columns (a
    /// block straddling two groups only summarises conservatively).
    block_hi: Vec<u64>,
    more: Vec<More>,
    terms: Vec<Term>,
    term_lo: Vec<u64>,
    term_hi: Vec<u64>,
}

impl Default for ExpandIndex {
    fn default() -> Self {
        ExpandBuilder::new(0).finish()
    }
}

#[inline]
fn value(raw: &[u64], attr: u32) -> u64 {
    raw.get(attr as usize)
        .copied()
        .unwrap_or(IndexedEvent::MISSING)
}

impl ExpandIndex {
    /// Delivers every slot of row `row` the event `raw` (the
    /// sentinel-encoded index row) reaches to `out`: the run unchecked,
    /// a strict child when the event carries each residual attribute
    /// with an index inside the child's allowed set. A missing
    /// attribute reads as `u64::MAX`, which no interval contains.
    /// Returns the residual interval checks evaluated.
    #[inline]
    fn expand_row<D: Deliver>(&self, row: usize, raw: &[u64], out: &mut D) -> u64 {
        let (from, to) = (self.rows[row], self.rows[row + 1]);
        out.run(&self.runs[from.run as usize..to.run as usize]);
        let mut checks = 0;
        for g in from.group as usize..to.group as usize {
            let (start, end) = (
                self.groups[g].start as usize,
                self.groups[g + 1].start as usize,
            );
            let v = value(raw, self.groups[g].attr);
            let hit = start + self.lo[start..end].partition_point(|&lo| lo <= v);
            let mut i = start;
            while i < hit {
                let stop = ((i | (BLOCK - 1)) + 1).min(hit);
                if self.block_hi[i / BLOCK] > v {
                    checks += (stop - i) as u64;
                    out.announce(stop - i);
                    for (&hi, &s) in self.hi[i..stop].iter().zip(&self.slot[i..stop]) {
                        if v < hi {
                            if s & MORE == 0 {
                                out.slot(s);
                            } else {
                                checks += self.deliver_more((s & !MORE) as usize, raw, out);
                            }
                        }
                    }
                }
                i = stop;
            }
        }
        checks
    }

    /// The remaining conjuncts of a multi-attribute child whose first
    /// residual passed.
    #[cold]
    fn deliver_more<D: Deliver>(&self, id: usize, raw: &[u64], out: &mut D) -> u64 {
        let mut checks = 0;
        for (attr, ivs) in self.more_terms(id) {
            let v = value(raw, attr);
            checks += ivs.len() as u64;
            let ok = self.term_lo[ivs.clone()]
                .iter()
                .zip(&self.term_hi[ivs])
                .any(|(&lo, &hi)| lo <= v && v < hi);
            if !ok {
                return checks;
            }
        }
        // Already within what the caller told `out` to expect.
        out.slot(self.more[id].slot);
        checks
    }

    /// The further residuals of `more[id]`: attribute and the range of
    /// its intervals in `term_lo`/`term_hi`.
    fn more_terms(&self, id: usize) -> impl Iterator<Item = (u32, std::ops::Range<usize>)> + '_ {
        let first = match id {
            0 => 0,
            _ => self.more[id - 1].terms_end as usize,
        };
        let mut iv = match first {
            0 => 0,
            _ => self.terms[first - 1].ivs_end as usize,
        };
        self.terms[first..self.more[id].terms_end as usize]
            .iter()
            .map(move |t| {
                let ivs = iv..t.ivs_end as usize;
                iv = ivs.end;
                (t.attr, ivs)
            })
    }

    /// Calls `f` for each child of row `row` in ascending slot order —
    /// the order and content the builder was given, which is also the
    /// serialised form. `own` is the row's own slot, which the run
    /// holds but which is no child. A duplicate comes with no
    /// [`Flat`]s, a strict child with one per interval of its first
    /// residual.
    fn for_each_child(&self, row: usize, own: Option<u32>, mut f: impl FnMut(u32, &[Flat])) {
        let (from, to) = (self.rows[row], self.rows[row + 1]);
        let mut flats: Vec<Flat> = Vec::new();
        for g in from.group as usize..to.group as usize {
            let attr = self.groups[g].attr;
            for i in self.groups[g].start as usize..self.groups[g + 1].start as usize {
                let s = self.slot[i];
                let (slot, more) = if s & MORE == 0 {
                    (s, None)
                } else {
                    let id = (s & !MORE) as usize;
                    (self.more[id].slot, Some(id))
                };
                flats.push(Flat {
                    slot,
                    lo: self.lo[i],
                    hi: self.hi[i],
                    attr,
                    more,
                });
            }
        }
        flats.sort_unstable();
        let mut strict = flats.chunk_by(|a, b| a.slot == b.slot).peekable();
        for &dup in &self.runs[from.run as usize..to.run as usize] {
            while let Some(child) = strict.next_if(|c| c[0].slot < dup) {
                f(child[0].slot, child);
            }
            if Some(dup) != own {
                f(dup, &[]);
            }
        }
        for child in strict {
            f(child[0].slot, child);
        }
    }

    /// The residual list a child's [`Flat`]s stand for.
    fn residual_of(&self, child: &[Flat]) -> Vec<Residual> {
        let Some(first) = child.first() else {
            return Vec::new();
        };
        let set = |ivs: Vec<IndexInterval>| IntervalSet::from_intervals(ivs);
        let mut residual = vec![Residual {
            attr: AttrId::new(first.attr),
            // The "no value passes" entry of an empty set is itself an
            // empty interval, which normalisation drops again.
            allowed: set(child
                .iter()
                .map(|c| IndexInterval::new(c.lo, c.hi))
                .collect()),
        }];
        if let Some(id) = first.more {
            residual.extend(self.more_terms(id).map(|(attr, ivs)| {
                Residual {
                    attr: AttrId::new(attr),
                    allowed: set(ivs
                        .map(|k| IndexInterval::new(self.term_lo[k], self.term_hi[k]))
                        .collect()),
                }
            }));
        }
        residual
    }

    /// Children of row `row` (its own slot is none). Read off `rows`
    /// alone, which a hit's expansion is about to need anyway.
    #[inline]
    fn row_children(&self, row: usize) -> usize {
        (self.rows[row + 1].children - self.rows[row].children) as usize
    }

    /// Children over all rows.
    fn child_count(&self) -> usize {
        self.rows[self.rows.len() - 1].children as usize
    }

    /// The `slot` column value of a strict child whose further residuals
    /// are `rest`: the slot itself, or — with `rest` laid out in `more`
    /// and `terms`, referenced by id so they sit wherever the child
    /// lands — a flagged reference.
    fn child_target(&mut self, slot: u32, rest: &[Residual]) -> Result<u32, PersistError> {
        if rest.is_empty() {
            return Ok(slot);
        }
        let id = len_u32(self.more.len())?;
        if id & MORE != 0 {
            return Err(PersistError::new("too many multi-attribute cover children"));
        }
        for res in rest {
            for iv in res.allowed.as_slice() {
                self.term_lo.push(iv.lo());
                self.term_hi.push(iv.hi());
            }
            self.terms.push(Term {
                attr: res.attr.index() as u32,
                ivs_end: len_u32(self.term_lo.len())?,
            });
        }
        self.more.push(More {
            slot,
            terms_end: len_u32(self.terms.len())?,
        });
        Ok(id | MORE)
    }

    /// A copy with room for one more child in the columns a child goes
    /// into, so that adding it reallocates nothing.
    fn clone_with_room(&self) -> Self {
        ExpandIndex {
            rows: with_room(&self.rows),
            runs: with_room(&self.runs),
            groups: with_room(&self.groups),
            lo: with_room(&self.lo),
            hi: with_room(&self.hi),
            slot: with_room(&self.slot),
            block_hi: with_room(&self.block_hi),
            more: self.more.clone(),
            terms: self.terms.clone(),
            term_lo: self.term_lo.clone(),
            term_hi: self.term_hi.clone(),
        }
    }

    /// Inserts an empty row before row `at`.
    fn insert_row(&mut self, at: usize) {
        let start = self.rows[at];
        self.rows.insert(at, start);
    }

    /// Adds a child to row `row` of a finished index where
    /// [`ExpandBuilder`] would have put it — a duplicate into the row's
    /// run, a strict child's entries into its groups in `(lo, hi)` order
    /// — shifting what follows and summarising the blocks again.
    fn insert_child(
        &mut self,
        row: usize,
        slot: u32,
        residual: &[Residual],
    ) -> Result<(), PersistError> {
        if slot & MORE != 0 {
            return Err(PersistError::new(format!("cover slot {slot} out of range")));
        }
        let Some((first, rest)) = residual.split_first() else {
            let (from, to) = (self.rows[row].run as usize, self.rows[row + 1].run as usize);
            let at = from + self.runs[from..to].partition_point(|&s| s < slot);
            self.runs.insert(at, slot);
            for r in &mut self.rows[row + 1..] {
                r.run += 1;
                r.children += 1;
            }
            return Ok(());
        };
        let target = self.child_target(slot, rest)?;
        let attr = first.attr.index() as u32;
        len_u32(self.lo.len() + first_entries(first).count())?;
        for (lo, hi) in first_entries(first) {
            let (g0, g1) = (
                self.rows[row].group as usize,
                self.rows[row + 1].group as usize,
            );
            let g = g0 + self.groups[g0..g1].partition_point(|gr| gr.attr < attr);
            if g == g1 || self.groups[g].attr != attr {
                // The closing sentinel guarantees a group at `g`, whose
                // start is where this row's entries end.
                let start = self.groups[g].start;
                self.groups.insert(g, Group { attr, start });
                for r in &mut self.rows[row + 1..] {
                    r.group += 1;
                }
            }
            let (start, end) = (
                self.groups[g].start as usize,
                self.groups[g + 1].start as usize,
            );
            let at = (start..end)
                .find(|&i| (self.lo[i], self.hi[i], self.slot[i]) > (lo, hi, target))
                .unwrap_or(end);
            self.lo.insert(at, lo);
            self.hi.insert(at, hi);
            self.slot.insert(at, target);
            for gr in &mut self.groups[g + 1..] {
                gr.start += 1;
            }
        }
        for r in &mut self.rows[row + 1..] {
            r.children += 1;
        }
        self.summarise_blocks();
        Ok(())
    }

    /// Recomputes the max-`hi` summary of every block.
    fn summarise_blocks(&mut self) {
        self.block_hi.clear();
        let blocks = self.hi.chunks(BLOCK);
        (self.block_hi).extend(blocks.map(|b| b.iter().copied().max().unwrap_or(0)));
    }
}

/// The `(lo, hi)` column entries of a strict child's first residual:
/// one per interval, or one no value passes for an empty set.
fn first_entries(first: &Residual) -> impl Iterator<Item = (u64, u64)> + '_ {
    let empty = first.allowed.is_empty().then_some((u64::MAX, 0));
    let ivs = first.allowed.as_slice().iter();
    empty.into_iter().chain(ivs.map(|iv| (iv.lo(), iv.hi())))
}

/// A copy of `v` with room for two more.
fn with_room<T: Copy>(v: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(v.len() + 2);
    out.extend_from_slice(v);
    out
}

/// Builds an [`ExpandIndex`] row by row, checking what the expansion
/// routine and the codec rely on: every slot below `n_slots` and below
/// the flag bit, and no slot claimed twice.
pub(crate) struct ExpandBuilder {
    index: ExpandIndex,
    n_slots: usize,
    seen: Vec<u64>,
    /// Strict-child entries of the open row: (attr, lo, hi, slot).
    pending: Vec<(u32, u64, u64, u32)>,
    /// Children added so far.
    children: usize,
}

fn len_u32(n: usize) -> Result<u32, PersistError> {
    u32::try_from(n).map_err(|_| PersistError::new("expansion index exceeds u32 entries"))
}

impl ExpandBuilder {
    /// A builder over slots `0..n_slots`. The caller bounds `n_slots`
    /// (the claim bitmap takes `n_slots / 8` bytes).
    pub(crate) fn new(n_slots: usize) -> Self {
        ExpandBuilder {
            index: ExpandIndex {
                rows: vec![Row::default()],
                runs: Vec::new(),
                groups: Vec::new(),
                lo: Vec::new(),
                hi: Vec::new(),
                slot: Vec::new(),
                block_hi: Vec::new(),
                more: Vec::new(),
                terms: Vec::new(),
                term_lo: Vec::new(),
                term_hi: Vec::new(),
            },
            n_slots,
            seen: vec![0; n_slots.div_ceil(64)],
            pending: Vec::new(),
            children: 0,
        }
    }

    /// Claims `slot` for one row: fails if it is out of range or some
    /// row (as own slot or as child) already has it.
    pub(crate) fn claim(&mut self, slot: u32) -> Result<(), PersistError> {
        if slot as usize >= self.n_slots || slot & MORE != 0 {
            return Err(PersistError::new(format!("cover slot {slot} out of range")));
        }
        let (w, bit) = (slot as usize / 64, 1u64 << (slot % 64));
        if self.seen[w] & bit != 0 {
            return Err(PersistError::new(format!(
                "cover slot {slot} delivered twice"
            )));
        }
        self.seen[w] |= bit;
        Ok(())
    }

    /// Adds the open row's own slot (already claimed by the caller).
    pub(crate) fn own(&mut self, slot: u32) {
        self.index.runs.push(slot);
    }

    /// Adds a child to the open row.
    pub(crate) fn child(&mut self, slot: u32, residual: &[Residual]) -> Result<(), PersistError> {
        self.claim(slot)?;
        self.children += 1;
        let Some((first, rest)) = residual.split_first() else {
            self.index.runs.push(slot);
            return Ok(());
        };
        let target = self.index.child_target(slot, rest)?;
        let attr = first.attr.index() as u32;
        let entries = first_entries(first).map(|(lo, hi)| (attr, lo, hi, target));
        self.pending.extend(entries);
        Ok(())
    }

    /// Closes the open row: orders its run and lays its entries out in
    /// groups.
    pub(crate) fn end_row(&mut self) -> Result<(), PersistError> {
        let Some(&open) = self.index.rows.last() else {
            return Err(PersistError::new("no open cover row"));
        };
        self.index.runs[open.run as usize..].sort_unstable();
        self.pending.sort_unstable();
        for run in self.pending.chunk_by(|a, b| a.0 == b.0) {
            self.index.groups.push(Group {
                attr: run[0].0,
                start: len_u32(self.index.lo.len())?,
            });
            for &(_, lo, hi, slot) in run {
                self.index.lo.push(lo);
                self.index.hi.push(hi);
                self.index.slot.push(slot);
            }
        }
        self.pending.clear();
        // The closing sentinel group (see `finish`) starts here.
        len_u32(self.index.lo.len())?;
        self.index.rows.push(Row {
            run: len_u32(self.index.runs.len())?,
            group: len_u32(self.index.groups.len())?,
            children: len_u32(self.children)?,
        });
        Ok(())
    }

    pub(crate) fn finish(mut self) -> ExpandIndex {
        let index = &mut self.index;
        index.groups.push(Group {
            attr: 0,
            start: index.lo.len() as u32,
        });
        index.summarise_blocks();
        index.runs.shrink_to_fit();
        index.groups.shrink_to_fit();
        index.lo.shrink_to_fit();
        index.hi.shrink_to_fit();
        index.slot.shrink_to_fit();
        self.index
    }
}

/// Expansion map of a covering-pruned compilation: compiled id →
/// original slot, plus each representative's covered children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoverPlan {
    /// Compiled id → original base slot; strictly ascending.
    rep_of: Vec<u32>,
    /// Row `c` expands compiled id `c`.
    index: ExpandIndex,
}

impl CoverPlan {
    /// Builds a plan over base slots `0..base_len` from its raw parts:
    /// the representatives' slots and `(child slot, representative
    /// slot, residual)` triples in any order — a covering analysis's
    /// expansion map ([`ens_types::CoverSet::children_sorted`]).
    ///
    /// # Errors
    ///
    /// Fails unless `rep_of` is strictly ascending, every child names
    /// a representative in it, and representatives and children
    /// together are exactly the slots `0..base_len`, each once.
    pub fn from_parts<I, R>(
        rep_of: Vec<u32>,
        base_len: usize,
        children: I,
    ) -> Result<Self, PersistError>
    where
        I: IntoIterator<Item = (u32, u32, R)>,
        R: AsRef<[Residual]>,
    {
        let mut by_rep = Vec::new();
        for (child, rep, residual) in children {
            let c = rep_of.binary_search(&rep).map_err(|_| {
                PersistError::new(format!("cover child {child} references non-rep slot {rep}"))
            })?;
            by_rep.push((c, child, residual));
        }
        by_rep.sort_unstable_by_key(|&(c, child, _)| (c, child));
        let mut rows = by_rep.chunk_by(|a, b| a.0 == b.0).peekable();
        Self::build(rep_of, base_len, |c, b| {
            if let Some(row) = rows.next_if(|row| row[0].0 == c) {
                for (_, child, residual) in row {
                    b.child(*child, residual.as_ref())?;
                }
            }
            Ok(())
        })
    }

    /// Shared by [`CoverPlan::from_parts`] and [`CoverPlan::decode`]:
    /// `children(c, builder)` adds compiled id `c`'s children.
    fn build(
        rep_of: Vec<u32>,
        base_len: usize,
        mut children: impl FnMut(usize, &mut ExpandBuilder) -> Result<(), PersistError>,
    ) -> Result<Self, PersistError> {
        if !rep_of.windows(2).all(|w| w[0] < w[1]) {
            return Err(PersistError::new("cover plan reps not ascending"));
        }
        let mut b = ExpandBuilder::new(base_len);
        // Representatives first, so a child that is also one is caught
        // whichever row it hangs under.
        for &rep in &rep_of {
            b.claim(rep)?;
        }
        for (c, &rep) in rep_of.iter().enumerate() {
            b.own(rep);
            children(c, &mut b)?;
            b.end_row()?;
        }
        // Every claim was of a fresh slot below `base_len`, so counting
        // them tells whether any slot went unclaimed.
        let claimed = rep_of.len() + b.children;
        if claimed != base_len {
            return Err(PersistError::new(format!(
                "cover plan delivers {claimed} of {base_len} base slots"
            )));
        }
        Ok(CoverPlan {
            rep_of,
            index: b.finish(),
        })
    }

    /// Number of compiled representatives.
    #[must_use]
    pub fn rep_count(&self) -> usize {
        self.rep_of.len()
    }

    /// Number of covered (expansion-delivered) profiles.
    #[must_use]
    pub fn covered_count(&self) -> usize {
        self.index.child_count()
    }

    /// Original base slot of compiled id `c`.
    #[must_use]
    pub fn rep_of(&self, c: u32) -> u32 {
        self.rep_of[c as usize]
    }

    /// Compiled id → original slot mapping, strictly ascending.
    #[must_use]
    pub fn rep_slots(&self) -> &[u32] {
        &self.rep_of
    }

    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.packed_u32(&self.rep_of);
        for (c, &rep) in self.rep_of.iter().enumerate() {
            w.seq_len(self.index.row_children(c));
            self.index.for_each_child(c, Some(rep), |slot, child| {
                w.u32(slot);
                encode_residual(w, &self.index.residual_of(child));
            });
        }
    }

    pub(crate) fn decode(r: &mut ByteReader<'_>, base_len: usize) -> Result<Self, PersistError> {
        // Every base slot is written at least once below, so a plan
        // over more slots than bytes remain cannot be complete — and
        // the builder's claim bitmap stays bounded by the input.
        if base_len > r.remaining() {
            return Err(PersistError::new("cover plan smaller than its base"));
        }
        let rep_of = r.vec_u32_packed()?;
        Self::build(rep_of, base_len, |_, b| {
            let mut prev = None;
            for _ in 0..r.seq_len(8)? {
                let slot = r.u32()?;
                if prev.is_some_and(|p| p >= slot) {
                    return Err(PersistError::new("cover plan children not ascending"));
                }
                prev = Some(slot);
                b.child(slot, &decode_residual(r)?)?;
            }
            Ok(())
        })
    }
}

impl Expand for CoverPlan {
    #[inline]
    fn candidates(&self, c: u32) -> usize {
        self.index.row_children(c as usize) + 1
    }

    #[inline]
    fn expand<D: Deliver>(&self, c: u32, raw: &[u64], to: &mut D) -> u64 {
        self.index.expand_row(c as usize, raw, to)
    }
}

/// Overlay positions delivered through expansion instead of the
/// counting index: per compiled representative that covers any, one
/// [`ExpandIndex`] row over overlay positions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct OverlayCover {
    /// Compiled ids with a row, ascending; row `k` expands `reps[k]`.
    reps: Vec<u32>,
    index: ExpandIndex,
}

impl OverlayCover {
    /// From `(compiled id, overlay position, residual)` entries in
    /// strictly ascending `(compiled id, position)` order, over
    /// positions `0..overlay_len`.
    fn build<R: AsRef<[Residual]>>(
        overlay_len: usize,
        entries: impl IntoIterator<Item = Result<(u32, u32, R), PersistError>>,
    ) -> Result<Self, PersistError> {
        let mut b = ExpandBuilder::new(overlay_len);
        let mut reps: Vec<u32> = Vec::new();
        let mut prev = None;
        for entry in entries {
            let (rep, pos, residual) = entry?;
            if prev.is_some_and(|p| p >= (rep, pos)) {
                return Err(PersistError::new("overlay cover entries not ascending"));
            }
            prev = Some((rep, pos));
            if reps.last() != Some(&rep) {
                if !reps.is_empty() {
                    b.end_row()?;
                }
                reps.push(rep);
            }
            b.child(pos, residual.as_ref())?;
        }
        if !reps.is_empty() {
            b.end_row()?;
        }
        Ok(OverlayCover {
            reps,
            index: b.finish(),
        })
    }

    /// From `(compiled id, overlay position, residual)` entries, in any
    /// order, over positions `0..overlay_len`.
    pub(crate) fn from_entries<R: AsRef<[Residual]>>(
        overlay_len: usize,
        mut entries: Vec<(u32, u32, R)>,
    ) -> Result<Self, PersistError> {
        entries.sort_unstable_by_key(|&(rep, pos, _)| (rep, pos));
        Self::build(overlay_len, entries.into_iter().map(Ok))
    }

    /// A copy with one more entry: overlay position `pos`, above every
    /// position held, under compiled id `rep` — laid out where
    /// [`OverlayCover::from_entries`] would have put it, so matching it
    /// costs the same.
    pub(crate) fn with_entry(
        &self,
        rep: u32,
        pos: u32,
        residual: &[Residual],
    ) -> Result<Self, PersistError> {
        let mut next = OverlayCover {
            reps: with_room(&self.reps),
            index: self.index.clone_with_room(),
        };
        let row = match next.reps.binary_search(&rep) {
            Ok(row) => row,
            Err(at) => {
                next.reps.insert(at, rep);
                next.index.insert_row(at);
                at
            }
        };
        next.index.insert_child(row, pos, residual)?;
        Ok(next)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }

    /// Per position `0..overlay_len`: the compiled id and residual it
    /// is delivered through, if any.
    pub(crate) fn to_entries(&self, overlay_len: usize) -> Vec<Option<(u32, Vec<Residual>)>> {
        let mut out = vec![None; overlay_len];
        for (row, &rep) in self.reps.iter().enumerate() {
            self.index.for_each_child(row, None, |pos, child| {
                out[pos as usize] = Some((rep, self.index.residual_of(child)));
            });
        }
        out
    }

    /// Entries in ascending `(compiled id, position)` order.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.seq_len(self.index.child_count());
        for (row, &rep) in self.reps.iter().enumerate() {
            self.index.for_each_child(row, None, |pos, child| {
                w.u32(rep);
                w.u32(pos);
                encode_residual(w, &self.index.residual_of(child));
            });
        }
    }

    pub(crate) fn decode(
        r: &mut ByteReader<'_>,
        compiled_len: usize,
        overlay_len: usize,
    ) -> Result<Self, PersistError> {
        let n = r.seq_len(12)?;
        if n > overlay_len {
            return Err(PersistError::new("more overlay cover entries than overlay"));
        }
        Self::build(
            overlay_len,
            (0..n).map(|_| {
                let rep = r.u32()?;
                if rep as usize >= compiled_len {
                    return Err(PersistError::new("overlay cover rep out of range"));
                }
                Ok((rep, r.u32()?, decode_residual(r)?))
            }),
        )
    }
}

impl Expand for OverlayCover {
    #[inline]
    fn candidates(&self, c: u32) -> usize {
        self.reps
            .binary_search(&c)
            .map_or(0, |row| self.index.row_children(row) + 1)
    }

    #[inline]
    fn expand<D: Deliver>(&self, c: u32, raw: &[u64], to: &mut D) -> u64 {
        self.reps
            .binary_search(&c)
            .map_or(0, |row| self.index.expand_row(row, raw, to))
    }
}

fn encode_residual(w: &mut ByteWriter, residual: &[Residual]) {
    w.seq_len(residual.len());
    for res in residual {
        w.u32(res.attr.index() as u32);
        let ivs = res.allowed.as_slice();
        w.seq_len(ivs.len());
        for iv in ivs {
            w.vu64(iv.lo());
            w.vu64(iv.hi());
        }
    }
}

fn decode_residual(r: &mut ByteReader<'_>) -> Result<Vec<Residual>, PersistError> {
    let n = r.seq_len(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let attr = AttrId::new(r.u32()?);
        let n_iv = r.seq_len(2)?;
        let mut ivs = Vec::with_capacity(n_iv);
        for _ in 0..n_iv {
            let lo = r.vu64()?;
            let hi = r.vu64()?;
            if lo > hi {
                return Err(PersistError::new("residual interval inverted"));
            }
            ivs.push(IndexInterval::new(lo, hi));
        }
        let allowed = IntervalSet::from_intervals(ivs);
        out.push(Residual { attr, allowed });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(attr: u32, ivs: &[(u64, u64)]) -> Residual {
        Residual {
            attr: AttrId::new(attr),
            allowed: IntervalSet::from_intervals(
                ivs.iter()
                    .map(|&(lo, hi)| IndexInterval::new(lo, hi))
                    .collect(),
            ),
        }
    }

    /// What a hit on compiled id `c` delivers for `raw`, ascending —
    /// through the bitmap, and the same through the list.
    fn expand(plan: &CoverPlan, c: u32, raw: &[Option<u64>]) -> Vec<u32> {
        let event = IndexedEvent::from_indices(raw.to_vec());
        let mut bits = SlotBits::default();
        bits.reserve_slots(16);
        let checks = plan.expand(c, event.raw(), &mut bits);
        let mut out = Vec::new();
        bits.drain_into(&[], 0, &mut out);

        let mut listed = Vec::new();
        let mut list = Appended {
            out: &mut listed,
            offset: 0,
            floor: 0,
            ascending: true,
        };
        assert_eq!(plan.expand(c, event.raw(), &mut list), checks);
        let ascending = list.ascending;
        assert!(listed.len() <= plan.candidates(c));
        assert_eq!(ascending, listed.windows(2).all(|w| w[0] < w[1]));
        listed.sort_unstable();
        assert_eq!(listed, out);
        out
    }

    /// `(child, rep, residual)` triples of [`plan`].
    fn triples() -> Vec<(u32, u32, Vec<Residual>)> {
        vec![
            // A duplicate, out of order on purpose.
            (9, 3, vec![]),
            (1, 0, vec![]),
            // Two attributes, the second with two intervals.
            (
                2,
                0,
                vec![residual(0, &[(5, 9)]), residual(2, &[(0, 1), (4, 6)])],
            ),
            // Two intervals on the first attribute.
            (4, 0, vec![residual(1, &[(2, 3), (6, 8)])]),
            // An empty allowed set: never delivered, still a child.
            (5, 3, vec![residual(1, &[])]),
            (6, 7, vec![residual(1, &[]), residual(0, &[(0, 9)])]),
            (8, 7, vec![residual(1, &[(2, 3)])]),
        ]
    }

    fn plan() -> CoverPlan {
        CoverPlan::from_parts(vec![0, 3, 7], 10, triples()).unwrap()
    }

    #[test]
    fn expansion_requires_presence_and_membership() {
        let plan = plan();
        // Own slot and the duplicate always; 2 needs both attributes.
        assert_eq!(expand(&plan, 0, &[Some(5), Some(0), Some(5)]), [0, 1, 2]);
        assert_eq!(expand(&plan, 0, &[Some(5), Some(0), Some(6)]), [0, 1]);
        assert_eq!(expand(&plan, 0, &[Some(9), Some(0), Some(0)]), [0, 1]);
        // A missing attribute fails a residual: the covered profile
        // specifies it, so the `(*)` path must not deliver.
        assert_eq!(expand(&plan, 0, &[Some(5), Some(0), None]), [0, 1]);
        assert_eq!(expand(&plan, 0, &[None, None, None]), [0, 1]);
        // Half-open on both intervals of 4.
        assert_eq!(expand(&plan, 0, &[None, Some(2), None]), [0, 1, 4]);
        assert_eq!(expand(&plan, 0, &[None, Some(3), None]), [0, 1]);
        assert_eq!(expand(&plan, 0, &[None, Some(7), None]), [0, 1, 4]);
        assert_eq!(expand(&plan, 0, &[None, Some(8), None]), [0, 1]);
        // An empty allowed set never passes, alone or first of several.
        assert_eq!(expand(&plan, 1, &[Some(0), Some(0), Some(0)]), [3, 9]);
        assert_eq!(expand(&plan, 2, &[Some(0), Some(2), Some(0)]), [7, 8]);
        // An attribute beyond the event's width reads as missing.
        assert_eq!(expand(&plan, 2, &[Some(0)]), [7]);
    }

    #[test]
    fn plan_round_trips_through_bytes_and_parts() {
        let plan = plan();
        assert_eq!(plan.rep_count(), 3);
        assert_eq!(plan.covered_count(), 7);
        assert_eq!(plan.rep_of(1), 3);
        // The triples' order does not matter.
        let reversed = triples().into_iter().rev();
        assert_eq!(
            CoverPlan::from_parts(plan.rep_slots().to_vec(), 10, reversed).unwrap(),
            plan
        );

        let mut w = ByteWriter::new();
        plan.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = CoverPlan::decode(&mut r, 10).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, plan);
        let mut w = ByteWriter::new();
        back.encode(&mut w);
        assert_eq!(w.into_bytes(), bytes);
        // A base of another size than the plan delivers is rejected.
        for base_len in [9, 11] {
            assert!(CoverPlan::decode(&mut ByteReader::new(&bytes), base_len).is_err());
        }
    }

    /// A plan in the checkpoint form, straight from `(rep, children)`
    /// rows, with none of the builder's checks.
    fn raw_plan(rows: &[(u32, &[u32])]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        let reps: Vec<u32> = rows.iter().map(|(rep, _)| *rep).collect();
        w.packed_u32(&reps);
        for (_, children) in rows {
            w.seq_len(children.len());
            for &slot in *children {
                w.u32(slot);
                w.seq_len(0);
            }
        }
        w.into_bytes()
    }

    #[test]
    fn decode_rejects_what_would_deliver_twice_or_out_of_order() {
        let decode = |rows: &[(u32, &[u32])], base_len| {
            let bytes = raw_plan(rows);
            let mut r = ByteReader::new(&bytes);
            CoverPlan::decode(&mut r, base_len).map_err(|e| e.message().to_owned())
        };
        assert!(decode(&[(0, &[1, 2]), (3, &[4])], 5).is_ok());
        let err = decode(&[(0, &[2, 1]), (3, &[4])], 5).unwrap_err();
        assert!(err.contains("not ascending"), "{err}");
        // A child that is also a representative.
        let err = decode(&[(0, &[1, 3]), (3, &[4])], 5).unwrap_err();
        assert!(err.contains("delivered twice"), "{err}");
        // A slot under two representatives.
        let err = decode(&[(0, &[1, 2]), (3, &[2])], 5).unwrap_err();
        assert!(err.contains("delivered twice"), "{err}");
        let err = decode(&[(0, &[1, 2]), (3, &[5])], 5).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = decode(&[(3, &[]), (0, &[])], 5).unwrap_err();
        assert!(err.contains("reps not ascending"), "{err}");
        // A slot nobody delivers.
        let err = decode(&[(0, &[1]), (3, &[4])], 5).unwrap_err();
        assert!(err.contains("4 of 5"), "{err}");
        // A base no input of this size could cover.
        let err = decode(&[(0, &[])], 1 << 40).unwrap_err();
        assert!(err.contains("smaller than its base"), "{err}");
    }

    #[test]
    fn overlay_cover_round_trips_and_rejects_bad_sections() {
        let entries = vec![
            Some((4, vec![residual(0, &[(1, 3)])])),
            None,
            Some((1, vec![])),
            Some((4, vec![])),
        ];
        let triples = entries.iter().enumerate().filter_map(|(pos, e)| {
            e.as_ref()
                .map(|(rep, residual)| (*rep, pos as u32, residual.clone()))
        });
        let cover = OverlayCover::from_entries(4, triples.collect()).unwrap();
        assert!(!cover.is_empty());
        assert_eq!(cover.to_entries(4), entries);
        let event = IndexedEvent::from_indices(vec![Some(2)]);
        let mut bits = SlotBits::default();
        bits.reserve_slots(4);
        let checks: u64 = [0, 1, 4]
            .map(|c| cover.expand(c, event.raw(), &mut bits))
            .iter()
            .sum();
        let mut out = Vec::new();
        bits.drain_into(&[], 100, &mut out);
        assert_eq!(out, [100, 102, 103]);
        assert_eq!(checks, 1);
        assert_eq!([0, 1, 4].map(|c| cover.candidates(c)), [0, 2, 3]);

        let mut w = ByteWriter::new();
        cover.encode(&mut w);
        let bytes = w.into_bytes();
        let back = OverlayCover::decode(&mut ByteReader::new(&bytes), 5, 4).unwrap();
        assert_eq!(back, cover);
        assert!(OverlayCover::decode(&mut ByteReader::new(&bytes), 4, 4).is_err());
        assert!(OverlayCover::decode(&mut ByteReader::new(&bytes), 5, 3).is_err());

        let section = |entries: &[(u32, u32)]| {
            let mut w = ByteWriter::new();
            w.seq_len(entries.len());
            for &(rep, pos) in entries {
                w.u32(rep);
                w.u32(pos);
                w.seq_len(0);
            }
            let bytes = w.into_bytes();
            OverlayCover::decode(&mut ByteReader::new(&bytes), 5, 4).map(|_| ())
        };
        assert!(section(&[(1, 2), (4, 0), (4, 3)]).is_ok());
        assert!(
            section(&[(1, 2), (4, 3), (4, 0)]).is_err(),
            "positions out of order"
        );
        assert!(section(&[(4, 0), (1, 2)]).is_err(), "reps out of order");
        assert!(
            section(&[(1, 2), (4, 2)]).is_err(),
            "a position under two reps"
        );
        assert!(OverlayCover::default().is_empty());
    }

    /// Entries appended one at a time land where a build over all of
    /// them puts them: same layout, same bytes, same expansions.
    #[test]
    fn appended_entries_lay_out_like_a_build() {
        let entries: Vec<(u32, Vec<Residual>)> = vec![
            (4, vec![residual(0, &[(1, 3)])]),
            (1, vec![]),
            (4, vec![]),
            (4, vec![residual(0, &[(0, 2)])]),
            (2, vec![residual(1, &[(2, 3), (5, 9)])]),
            (4, vec![residual(1, &[])]),
            (1, vec![residual(0, &[(4, 6)])]),
            (4, vec![residual(0, &[(1, 2)])]),
            (4, vec![residual(1, &[(0, 1)])]),
            (1, vec![]),
        ];
        let mut appended = OverlayCover::default();
        for (n, (rep, res)) in entries.iter().enumerate() {
            appended = appended.with_entry(*rep, n as u32, res).unwrap();
            let triples = entries[..=n].iter().enumerate();
            let triples = triples.map(|(pos, (rep, res))| (*rep, pos as u32, res.clone()));
            let built = OverlayCover::from_entries(n + 1, triples.collect()).unwrap();
            assert_eq!(appended, built, "after {} entries", n + 1);
        }
        let mut w = ByteWriter::new();
        appended.encode(&mut w);
        let bytes = w.into_bytes();
        let back = OverlayCover::decode(&mut ByteReader::new(&bytes), 5, entries.len()).unwrap();
        assert_eq!(back, appended);
        // A multi-attribute residual, too: equal expansions and bytes,
        // though the conjunct table may be numbered in another order.
        let more = vec![residual(1, &[(0, 4)]), residual(0, &[(2, 3)])];
        let appended = appended
            .with_entry(2, 10, &more)
            .unwrap()
            .with_entry(2, 11, &more)
            .unwrap();
        let all = entries
            .iter()
            .cloned()
            .chain([(2, more.clone()), (2, more)]);
        let all = all
            .enumerate()
            .map(|(pos, (rep, res))| (rep, pos as u32, res));
        let built = OverlayCover::from_entries(12, all.collect()).unwrap();
        assert_eq!(appended.to_entries(12), built.to_entries(12));
        let bytes = |c: &OverlayCover| {
            let mut w = ByteWriter::new();
            c.encode(&mut w);
            w.into_bytes()
        };
        assert_eq!(bytes(&appended), bytes(&built));
        for raw in [[0, 0], [2, 1], [5, 2], [1, 6], [u64::MAX, 3]] {
            for c in 0..6 {
                let mut out = [Vec::new(), Vec::new()];
                for (cover, out) in [&appended, &built].into_iter().zip(&mut out) {
                    let mut list = Appended {
                        out: &mut *out,
                        offset: 0,
                        floor: 0,
                        ascending: true,
                    };
                    cover.expand(c, &raw, &mut list);
                    out.sort_unstable();
                }
                assert_eq!(out[0], out[1], "rep {c}, event {raw:?}");
            }
        }
    }

    #[test]
    fn block_summaries_skip_ranges_that_ended() {
        // 40 disjoint unit ranges under one representative: a stab
        // finds its one range having compared one block's worth.
        let children: Vec<(u32, u32, Vec<Residual>)> = (0..40)
            .map(|k| {
                (
                    k + 1,
                    0,
                    vec![residual(0, &[(u64::from(k) * 2, u64::from(k) * 2 + 1)])],
                )
            })
            .collect();
        let plan = CoverPlan::from_parts(vec![0], 41, children).unwrap();
        let event = IndexedEvent::from_indices(vec![Some(60)]);
        let mut bits = SlotBits::default();
        bits.reserve_slots(41);
        let checks = plan.expand(0, event.raw(), &mut bits);
        let mut out = Vec::new();
        bits.drain_into(&[], 0, &mut out);
        assert_eq!(out, [0, 31]);
        assert!(checks <= BLOCK as u64, "{checks} checks");
    }
}
