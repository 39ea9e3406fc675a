//! The compiled filter: the paper's profile tree as a deterministic
//! finite state automaton, in a cache-friendly CSR layout.
//!
//! §3: "from a given set of profiles, a deterministic finite state
//! automaton (DFSA) is created". [`Dfsa`] is the one compiled form of a
//! profile set: [`Dfsa::build`] builds the paper's profile tree straight
//! into structure-of-arrays state tables, one state per tree node, and
//! a checkpoint decodes into them the same way. Every event is matched
//! with it, Eq. 2 ([`CostModel`](crate::CostModel)) prices it, and a
//! checkpoint's tree section is written off it. Each transition carries
//! the comparison operations the paper's search charges for it, so a
//! walk adds the charges up instead of running the search.
//!
//! # Charges
//!
//! A node charges every [`SearchStrategy`](crate::SearchStrategy) from
//! fixed tables ([`NodeOrdering`](crate::NodeOrdering)): a value in
//! edge `g` costs `hit_cost[g]`; one in the gap before edge `g`
//! (`g = 0` / `g = m`: below / above every edge) costs `miss_cost[g]`,
//! plus 1 when an else edge `(*)` follows; a missing attribute, or any
//! value at an edge-less node, costs 1 with a star edge and 0 without.
//! A transition (a `Hop`) carries the charge of its interval and a
//! state the charges of its three out-of-span cases.
//!
//! # Building
//!
//! The tree builder and the checkpoint decoder walk the tree
//! depth-first and freeze each node into the arenas once its children
//! have states (post-order: the star child, then the edges), so node
//! *i* of the walk is state *i* — no map, and no two nodes share a
//! state. Leaves are interned into one pool as they are met, and a leaf
//! target is its index there. Beside the transitions, an automaton
//! keeps one bit per cut point or jump-table slot that says where an
//! edge (rather than a gap to the star target) begins, whether each
//! star edge is `*` or `(*)`, and the [`NodeOrdering`] of every node
//! whose ordering the checkpoint codec cannot derive from its edges
//! (the probability-driven V1–V3 orders, and a few edge-less nodes):
//! all that the tree section of a checkpoint holds.
//!
//! # Layout
//!
//! Instead of one heap allocation per node (the pointer-heavy layout
//! the workspace started with, 2.5× slower per event), all states share
//! contiguous arenas:
//!
//! * `cuts` — sorted cut points, each fused with the hop of the interval
//!   it opens; a binary-search state owns one `(offset, len)` range
//!   describing a piecewise-constant map from domain index to hop (gaps
//!   between profile edges are materialised as explicit intervals
//!   leading to the star target, so a lookup is a single
//!   `partition_point`, optionally narrowed by a per-state bucket
//!   index);
//! * `jumps` — dense **jump tables** (one hop per domain point over the
//!   state's covered span), chosen automatically for spans of at most
//!   [`JUMP_TABLE_MAX_DOMAIN`] points (a lookup is then one range check
//!   + one load, no search at all);
//! * `leaves` — the leaf pool, a flat arena with per-leaf offsets; its
//!   lists are strictly ascending (the builder sorts them, the decoder
//!   refuses others), so the match loop never sorts.
//!
//! Matching through [`Matcher::match_into`] with a reused
//! [`MatchScratch`] performs zero heap allocations after warm-up
//! (asserted by `crates/filter/tests/alloc.rs`).

use ens_types::{AttrId, IndexInterval, IndexedBatch, IndexedEvent, ProfileId, Schema};

use crate::order::NodeOrdering;
use crate::scratch::{BlockScratch, MatchScratch, Matcher};
use crate::tree::{Derived, LeafPool, OrderCtx, TreeConfig, TreeHeader};

/// Number of events traversed concurrently by [`Matcher::match_block`]:
/// one automaton step is issued for every in-flight lane before any
/// lane advances again, so the lanes' independent arena loads overlap
/// in the memory pipeline instead of serialising behind one event's
/// pointer chase.
pub const BLOCK_LANES: usize = 8;

/// Best-effort software prefetch of the cache line at `p` (a hint, not
/// a load: no-op on non-x86_64 targets). The interleaved block
/// traversal issues it for the *next* round's state metadata and leaf
/// ranges while the current round still has work in flight.
#[inline(always)]
#[allow(unsafe_code)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a pure cache hint; it performs no
    // memory access and is defined for any address value.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Largest covered index span (in grid points) for which a state stores
/// a dense jump table (`index -> hop`) instead of binary-searched
/// bounds. The table covers only the span between the state's first and
/// last edge, so even large domains get jump tables when the
/// subscriptions cluster.
pub const JUMP_TABLE_MAX_DOMAIN: u64 = 256;

/// Binary-search states with at least this many cut points additionally
/// carry a bucket index (see [`StateMeta`]) that narrows each lookup to
/// a handful of bounds.
const SEARCH_ACCEL_MIN_BOUNDS: usize = 8;

/// Sentinel for "no bucket index".
const NO_ACCEL: u32 = u32::MAX;

/// Transition target, packed into 4 bytes: tag in the top two bits
/// (`00` reject, `01` state, `10` leaf), payload index below. Packing
/// halves the arena footprint — jump tables in particular — which keeps
/// more of the automaton in cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PTarget(u32);

const TAG_SHIFT: u32 = 30;
const TAG_STATE: u32 = 0b01;
const TAG_LEAF: u32 = 0b10;
const PAYLOAD_MASK: u32 = (1 << TAG_SHIFT) - 1;

impl PTarget {
    pub(crate) const REJECT: PTarget = PTarget(0);

    fn state(s: u32) -> PTarget {
        assert!(
            s <= PAYLOAD_MASK,
            "DFSA state index overflows packed target"
        );
        PTarget((TAG_STATE << TAG_SHIFT) | s)
    }

    pub(crate) fn leaf(l: u32) -> PTarget {
        assert!(l <= PAYLOAD_MASK, "DFSA leaf index overflows packed target");
        PTarget((TAG_LEAF << TAG_SHIFT) | l)
    }

    fn next(self) -> Next {
        match self.0 >> TAG_SHIFT {
            TAG_STATE => Next::State(self.0 & PAYLOAD_MASK),
            TAG_LEAF => Next::Leaf(self.0 & PAYLOAD_MASK),
            _ => Next::Reject,
        }
    }
}

/// Where a transition leads, as the tree sees it: a node (state), a
/// leaf (of the pool), or the empty leaf.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Next {
    State(u32),
    Leaf(u32),
    Reject,
}

/// Sets bit `i` of a bitmap over an arena's slots.
fn set_bit(words: &mut Vec<u64>, i: usize) {
    if words.len() <= i / 64 {
        words.resize(i / 64 + 1, 0);
    }
    words[i / 64] |= 1 << (i % 64);
}

/// Bit `i` of a bitmap; slots past its end are clear.
fn bit(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
}

/// The first set bit of `words` in `from..end`, or `end`.
fn next_bit(words: &[u64], mut from: usize, end: usize) -> usize {
    while from < end {
        let word = words.get(from / 64).map_or(0, |w| w >> (from % 64));
        if word != 0 {
            return (from + word.trailing_zeros() as usize).min(end);
        }
        from = (from / 64 + 1) * 64;
    }
    end
}

/// One transition: where a value leads, and the comparison operations
/// the tree charges for finding that out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hop {
    target: PTarget,
    cost: u32,
}

/// One cut point of a binary-search state, fused with the hop of the
/// interval it opens (`[cut.bound, next_cut.bound) -> cut.hop`; the
/// last cut of a state carries a dummy hop). The charge sits where the
/// struct had 4 bytes of padding: 16 bytes either way.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cut {
    bound: u64,
    hop: Hop,
}

/// Per-state metadata, flat (no enum indirection) so the hot loop reads
/// one cache line per state. A state is either a **jump table**
/// (`jump == true`: `jumps[off + (idx - lo)]` for `idx` in
/// `[lo, hi)`) or a **binary-search** state over
/// `cuts[off .. off + b_len]`. `lo`/`hi` cache the covered index
/// range so out-of-range values (including the
/// [`IndexedEvent::MISSING`] sentinel) fall to `star` without touching
/// the arenas, charged `below`, `above` or `missing`. When
/// `acc_off != NO_ACCEL`, `accel[acc_off + k]` counts the cut points
/// below bucket `k`'s first value (bucket = index `>> shift`),
/// narrowing the binary search to one bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StateMeta {
    /// Schema position of the tested attribute.
    attr: u32,
    shift: u8,
    jump: bool,
    /// Charged for a missing attribute: 1 with a star edge, 0 without.
    missing: u8,
    /// The star edge is `*` (the node has no specific edges), not `(*)`.
    star_all: bool,
    star: PTarget,
    /// Covered index range: `lo == hi` means no specific edges.
    lo: u64,
    hi: u64,
    /// Start of the state's jump table in `jumps`, or of its cut points
    /// in `cuts`.
    off: u32,
    b_len: u32,
    acc_off: u32,
    /// Charged for a value below the covered span.
    below: u32,
    /// Charged for a (present) value at or above the covered span.
    above: u32,
}

/// The compiled filter: the profile tree of a profile set as a flat
/// automaton, with what it was built for and how.
///
/// # Example
///
/// ```
/// use ens_filter::{Dfsa, Matcher, TreeConfig};
/// use ens_types::{Schema, Domain, Predicate, ProfileSet, Event};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::builder().attribute("x", Domain::int(0, 99))?.build();
/// let mut ps = ProfileSet::new(&schema);
/// ps.insert_with(|b| b.predicate("x", Predicate::between(10, 19)))?;
/// let dfsa = Dfsa::build(&ps, &TreeConfig::default())?;
/// let e = Event::builder(&schema).value("x", 15)?.build();
/// let out = dfsa.match_event(&schema, &e)?;
/// assert_eq!(out.profiles().len(), 1);
/// // One natural-order scan step finds the single edge.
/// assert_eq!(out.ops(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dfsa {
    header: TreeHeader,
    states: Vec<StateMeta>,
    /// Cut points of all binary-search states, each fused with the hop
    /// of the interval it opens (so the probe that finds a cut has its
    /// hop on the same cache line).
    cuts: Vec<Cut>,
    /// Dense jump tables of all jump states.
    jumps: Vec<Hop>,
    /// Bucket indices for accelerated search states (see [`StateMeta`]).
    accel: Vec<u32>,
    /// The leaf pool: a leaf target indexes it.
    leaves: LeafPool,
    root: PTarget,
    /// Bitmaps: set where a cut point opens an edge rather than a gap;
    /// where a run of equal jump-table slots (an edge or a gap) begins,
    /// and where one that is an edge begins.
    cut_edges: Box<[u64]>,
    jump_runs: Box<[u64]>,
    jump_edges: Box<[u64]>,
    /// The orderings the checkpoint codec does not derive, by state,
    /// ascending.
    orderings: Box<[(u32, NodeOrdering)]>,
}

/// A run of values that one state sends the same way: `lo..hi`, where
/// to, at what charge, and whether it is an edge of the node rather
/// than a gap to its star target.
pub(crate) struct Run {
    pub(crate) lo: u64,
    pub(crate) hi: u64,
    pub(crate) next: Next,
    pub(crate) cost: u32,
    pub(crate) edge: bool,
}

impl Dfsa {
    pub(crate) fn header(&self) -> &TreeHeader {
        &self.header
    }

    /// The schema this automaton was built for.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.header.schema
    }

    /// The configuration the automaton was built with, less an event
    /// model its shape does not read.
    #[must_use]
    pub fn config(&self) -> &TreeConfig {
        &self.header.config
    }

    /// The resolved attribute order: `attribute_order()[k]` is tested
    /// at level `k` of the tree.
    #[must_use]
    pub fn attribute_order(&self) -> &[AttrId] {
        &self.header.attribute_order
    }

    /// Number of profiles compiled.
    #[must_use]
    pub fn profile_count(&self) -> usize {
        self.header.profile_count
    }

    /// State `s`'s transitions over a domain of `size` points,
    /// ascending: the values below its covered span, its edges and the
    /// gaps between them, and the values above the span (up to `size`,
    /// or to the span's end if that lies beyond).
    pub(crate) fn runs(&self, s: u32, size: u64) -> Vec<Run> {
        let state = &self.states[s as usize];
        let run = |lo, hi, hop: Hop, edge| Run {
            lo,
            hi,
            next: hop.target.next(),
            cost: hop.cost,
            edge,
        };
        let star = |cost| Hop {
            target: state.star,
            cost,
        };
        let off = state.off as usize;
        let mut runs = vec![run(0, state.lo, star(state.below), false)];
        if state.jump {
            let end = off + (state.hi - state.lo) as usize;
            let at = |k: usize| state.lo + (k - off) as u64;
            let mut k = off;
            while k < end {
                let next = next_bit(&self.jump_runs, k + 1, end);
                let edge = bit(&self.jump_edges, k);
                runs.push(run(at(k), at(next), self.jumps[k], edge));
                k = next;
            }
        } else {
            let cuts = &self.cuts[off..off + state.b_len as usize];
            for (k, pair) in cuts.windows(2).enumerate() {
                let edge = bit(&self.cut_edges, off + k);
                runs.push(run(pair[0].bound, pair[1].bound, pair[0].hop, edge));
            }
        }
        runs.push(run(state.hi, size.max(state.hi), star(state.above), false));
        runs
    }

    /// Where matching starts.
    pub(crate) fn root(&self) -> Next {
        self.root.next()
    }

    /// The leaf lists a [`Next::Leaf`] indexes.
    pub(crate) fn leaves(&self) -> &LeafPool {
        &self.leaves
    }

    /// The attribute state `s` tests.
    pub(crate) fn attr(&self, s: u32) -> AttrId {
        AttrId::new(self.states[s as usize].attr)
    }

    /// State `s`'s star edge, if it has one: whether it is `*` rather
    /// than `(*)`, and where it leads.
    pub(crate) fn star(&self, s: u32) -> Option<(bool, Next)> {
        let state = &self.states[s as usize];
        (state.missing != 0).then(|| (state.star_all, state.star.next()))
    }

    /// State `s`'s ordering, when the checkpoint codec does not derive
    /// it.
    pub(crate) fn ordering(&self, s: u32) -> Option<&NodeOrdering> {
        let k = self.orderings.binary_search_by_key(&s, |(t, _)| *t).ok()?;
        self.orderings.get(k).map(|(_, ordering)| ordering)
    }

    /// State `s`'s edges, ascending: each interval and where it leads.
    pub(crate) fn edges(&self, s: u32) -> Vec<(IndexInterval, Next)> {
        let runs = self.runs(s, 0).into_iter().filter(|run| run.edge);
        runs.map(|r| (IndexInterval::new(r.lo, r.hi), r.next))
            .collect()
    }

    /// Number of states: the tree's inner nodes.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of distinct leaves.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Number of the tree's edges, `*` and `(*)` edges included.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        (0..self.states.len() as u32)
            .map(|s| self.edges(s).len() + usize::from(self.star(s).is_some()))
            .sum()
    }

    /// Number of states resolved by a dense jump table (the rest use
    /// binary search over their bounds range).
    #[must_use]
    pub fn jump_state_count(&self) -> usize {
        self.states.iter().filter(|s| s.jump).count()
    }

    /// Renders the tree in the style of the paper's Fig. 1: one line per
    /// edge, labelled with the attribute name and the inclusive value
    /// range (`*` for all-values edges, `(*)` for the else edge), leaves
    /// listing the matched profiles.
    ///
    /// ```text
    /// a1 [30, 34] -> a2 [90, 100] -> (leaf) {p2, p5}
    /// ```
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_from(self.root(), 0, &mut out);
        out
    }

    fn render_from(&self, next: Next, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        let leaf = |ids: &[ProfileId]| {
            let names: Vec<String> = ids.iter().map(ToString::to_string).collect();
            format!("{pad}=> {{{}}}\n", names.join(", "))
        };
        let s = match next {
            Next::State(s) => s,
            Next::Leaf(l) => return out.push_str(&leaf(self.leaves.get(l))),
            Next::Reject => return out.push_str(&leaf(&[])),
        };
        let attribute = self.schema().attribute(self.attr(s));
        let (name, domain) = (attribute.name(), attribute.domain());
        for (interval, child) in self.edges(s) {
            let (lo, hi) = (interval.lo(), interval.hi() - 1);
            out.push_str(&if lo == hi {
                format!("{pad}{name} = {}\n", domain.value_at(lo))
            } else {
                let (lo, hi) = (domain.value_at(lo), domain.value_at(hi));
                format!("{pad}{name} in [{lo}, {hi}]\n")
            });
            self.render_from(child, indent + 1, out);
        }
        if let Some((all, child)) = self.star(s) {
            let star = if all { "*" } else { "(*)" };
            out.push_str(&format!("{pad}{name} = {star}\n"));
            self.render_from(child, indent + 1, out);
        }
    }

    /// Resolves one state transition for a raw domain index
    /// ([`IndexedEvent::MISSING`] falls outside every covered range and
    /// follows the star target like any other uncovered value).
    #[inline]
    fn step(&self, state: &StateMeta, idx: u64) -> Hop {
        // One range check covers: missing values, out-of-domain indices,
        // edge-less `*` states (lo == hi) and gap values beyond the
        // covered span — without touching the arenas.
        if idx < state.lo || idx >= state.hi {
            let cost = if idx < state.lo {
                state.below
            } else if idx == IndexedEvent::MISSING {
                u32::from(state.missing)
            } else {
                state.above
            };
            return Hop {
                target: state.star,
                cost,
            };
        }
        if state.jump {
            // The table covers the span [lo, hi), indexed relative to lo.
            return self.jumps[state.off as usize + (idx - state.lo) as usize];
        }
        let cuts = &self.cuts[state.off as usize..(state.off + state.b_len) as usize];
        let k = if state.acc_off == NO_ACCEL {
            // Unaccelerated states are small (< SEARCH_ACCEL_MIN_BOUNDS
            // cuts): a forward scan beats a branchy binary search here
            // (predictable branches, sequential prefetch).
            let mut k = 1;
            while k < cuts.len() && cuts[k].bound <= idx {
                k += 1;
            }
            k
        } else {
            // Bucket index (span-relative): the answer lies between the
            // cut-point counts at this bucket's first value and the
            // next bucket's — a handful of cuts, scanned forward.
            let bucket = ((idx - state.lo) >> state.shift) as usize;
            let mut k = self.accel[state.acc_off as usize + bucket] as usize;
            let hi = self.accel[state.acc_off as usize + bucket + 1] as usize;
            while k < hi && cuts[k].bound <= idx {
                k += 1;
            }
            k
        };
        cuts[k - 1].hop
    }

    /// Runs the automaton to its terminal target over the raw
    /// sentinel-encoded index slice, adding up the charges on the way.
    #[inline]
    fn terminal(&self, raw: &[u64]) -> (PTarget, u64) {
        let (mut t, mut ops) = (self.root, 0);
        while t.0 >> TAG_SHIFT == TAG_STATE {
            let state = &self.states[(t.0 & PAYLOAD_MASK) as usize];
            let idx = raw
                .get(state.attr as usize)
                .copied()
                .unwrap_or(IndexedEvent::MISSING);
            let hop = self.step(state, idx);
            ops += u64::from(hop.cost);
            t = hop.target;
        }
        (t, ops)
    }
}

impl Matcher for Dfsa {
    /// One automaton walk, leaf profiles copied from the pre-sorted
    /// arena; `ops` is the paper's count for the event.
    fn match_into(&self, event: &IndexedEvent, scratch: &mut MatchScratch) {
        scratch.reset();
        let (t, ops) = self.terminal(event.raw());
        scratch.ops = ops;
        if t.0 >> TAG_SHIFT == TAG_LEAF {
            scratch
                .profiles
                .extend_from_slice(self.leaves.get(t.0 & PAYLOAD_MASK));
        }
    }

    /// Interleaved multi-event traversal: up to [`BLOCK_LANES`] events
    /// walk the automaton in lock-step rounds, so each round issues one
    /// independent arena load per in-flight event (memory-level
    /// parallelism the one-at-a-time walk cannot express) and the next
    /// round's state metadata / leaf ranges are software-prefetched
    /// while the current round completes. Per-event call overhead
    /// (scratch reset, result handoff) is paid once per block.
    ///
    /// Semantics, per-event `ops` included, are identical to looping
    /// [`Matcher::match_into`].
    fn match_block(&self, batch: &IndexedBatch, scratch: &mut BlockScratch) {
        let n = batch.len();
        scratch.reset_block(n);
        let raw = batch.raw();
        let width = batch.width();

        let mut base = 0;
        while base < n {
            let m = BLOCK_LANES.min(n - base);
            let mut t = [self.root; BLOCK_LANES];
            let mut ops = [0u64; BLOCK_LANES];
            // Active-lane list, compacted each round: only lanes still
            // inside the automaton are revisited. Row start offsets are
            // computed once per chunk, not per step.
            let mut act = [0u8; BLOCK_LANES];
            let mut row_off = [0usize; BLOCK_LANES];
            let mut live = 0;
            if self.root.0 >> TAG_SHIFT == TAG_STATE {
                for l in 0..m {
                    act[l] = l as u8;
                    row_off[l] = (base + l) * width;
                }
                live = m;
                prefetch(&self.states[(self.root.0 & PAYLOAD_MASK) as usize]);
            }
            while live > 0 {
                let mut still = 0;
                for r in 0..live {
                    let l = act[r] as usize;
                    let state = &self.states[(t[l].0 & PAYLOAD_MASK) as usize];
                    let idx = raw
                        .get(row_off[l] + state.attr as usize)
                        .copied()
                        .unwrap_or(IndexedEvent::MISSING);
                    let hop = self.step(state, idx);
                    let next = hop.target;
                    t[l] = next;
                    ops[l] += u64::from(hop.cost);
                    match next.0 >> TAG_SHIFT {
                        TAG_STATE => {
                            prefetch(&self.states[(next.0 & PAYLOAD_MASK) as usize]);
                            act[still] = l as u8;
                            still += 1;
                        }
                        TAG_LEAF => prefetch(&self.leaves.off[(next.0 & PAYLOAD_MASK) as usize]),
                        _ => {}
                    }
                }
                live = still;
            }
            // Emit the chunk's CSR rows in event order (lanes finish
            // out of order, but `t` keeps them positional).
            for (l, &tl) in t.iter().take(m).enumerate() {
                if tl.0 >> TAG_SHIFT == TAG_LEAF {
                    scratch
                        .profiles
                        .extend_from_slice(self.leaves.get(tl.0 & PAYLOAD_MASK));
                }
                scratch.seal_event();
                scratch.event_ops[base + l] = ops[l];
                scratch.ops += ops[l];
            }
            base += m;
        }
    }
}

/// An automaton being built: the tree builder and the checkpoint
/// decoder freeze each node into the arenas once its children have
/// states, so the walk's node *i* is state *i*.
#[derive(Default)]
pub(crate) struct Arenas {
    states: Vec<StateMeta>,
    cuts: Vec<Cut>,
    jumps: Vec<Hop>,
    accel: Vec<u32>,
    /// Edge targets of the nodes on the walk's path, innermost last: a
    /// node pushes its edges' targets as it builds them and
    /// [`Arenas::freeze`] pops them.
    pub(crate) targets: Vec<PTarget>,
    cut_edges: Vec<u64>,
    jump_runs: Vec<u64>,
    jump_edges: Vec<u64>,
    orderings: Vec<(u32, NodeOrdering)>,
    /// Where [`OrderCtx::written`] derives the orderings it compares.
    derived: Derived,
}

/// A node ready to freeze: the attribute it tests, its edges in natural
/// (ascending interval) order, whose targets are the walk's
/// `targets[first..]`, its scan ordering and its star edge (whether it
/// is `*` rather than `(*)`, and where it leads).
pub(crate) struct NodeSpec<'a> {
    pub(crate) attr: AttrId,
    pub(crate) intervals: &'a [IndexInterval],
    pub(crate) first: usize,
    pub(crate) ordering: &'a NodeOrdering,
    pub(crate) star: Option<(bool, PTarget)>,
}

impl Arenas {
    /// Appends node `n`'s jump table or cut points (and bucket index)
    /// to the arenas, charged as the module docs say, and returns its
    /// state. Its ordering is kept when `ctx` says the codec writes it.
    pub(crate) fn freeze(&mut self, n: NodeSpec<'_>, ctx: &OrderCtx<'_>) -> PTarget {
        let (star, star_all) = n.star.map_or((PTarget::REJECT, false), |(all, t)| (t, all));
        let missing = u8::from(n.star.is_some());
        let else_cost = u32::from(n.star.is_some() && !star_all);
        // A decoded node has its tables checked against its edges; the
        // fallback only keeps this total.
        let charge = |costs: &[u32], g: usize| costs.get(g).copied().unwrap_or_default();
        let gap = |g: usize| charge(&n.ordering.miss_cost, g).saturating_add(else_cost);
        let mut meta = StateMeta {
            attr: n.attr.index() as u32,
            shift: 0,
            jump: false,
            missing,
            star_all,
            star,
            lo: 0,
            hi: 0,
            off: 0,
            b_len: 0,
            acc_off: NO_ACCEL,
            below: u32::from(missing),
            above: u32::from(missing),
        };
        // Taken for the walk below, which fills the arenas, and put back
        // without this node's edges.
        let mut targets = std::mem::take(&mut self.targets);
        if let (Some(head), Some(tail)) = (n.intervals.first(), n.intervals.last()) {
            // A `*` node keeps lo == hi: every value follows the star
            // target.
            meta.lo = head.lo();
            meta.hi = tail.hi();
            meta.below = gap(0);
            meta.above = gap(n.intervals.len());
            // The covered span cut into runs `(lo, hi, hop, is_edge)`
            // of values that take the same hop: each edge, and the gap
            // before it (to the star target) where there is one.
            let runs = n.intervals.iter().enumerate().flat_map(|(g, e)| {
                let after = g.checked_sub(1).map_or(e.lo(), |p| n.intervals[p].hi());
                let to_star = Hop {
                    target: star,
                    cost: gap(g),
                };
                let to_child = Hop {
                    target: targets.get(n.first + g).copied().unwrap_or(PTarget::REJECT),
                    cost: charge(&n.ordering.hit_cost, g),
                };
                let before = (after < e.lo()).then_some((after, e.lo(), to_star, false));
                before.into_iter().chain([(e.lo(), e.hi(), to_child, true)])
            });
            self.fill(&mut meta, runs);
        }
        targets.truncate(n.first);
        self.targets = targets;
        let s = self.states.len() as u32;
        if ctx.written(n.attr, n.intervals, n.ordering, &mut self.derived) {
            self.orderings.push((s, n.ordering.clone()));
        }
        self.states.push(meta);
        PTarget::state(s)
    }

    /// Lays the covered span's `runs` out as a jump table or as cut
    /// points, whichever `meta`'s span calls for.
    fn fill(&mut self, meta: &mut StateMeta, runs: impl Iterator<Item = (u64, u64, Hop, bool)>) {
        let (span_lo, span_hi) = (meta.lo, meta.hi);
        if span_hi - span_lo <= JUMP_TABLE_MAX_DOMAIN {
            // Dense jump table over the covered span, indexed by `idx - lo`.
            meta.jump = true;
            meta.off = self.jumps.len() as u32;
            for (lo, hi, hop, is_edge) in runs {
                set_bit(&mut self.jump_runs, self.jumps.len());
                if is_edge {
                    set_bit(&mut self.jump_edges, self.jumps.len());
                }
                self.jumps
                    .extend(std::iter::repeat_n(hop, (hi - lo) as usize));
            }
            return;
        }
        meta.off = self.cuts.len() as u32;
        for (bound, _, hop, is_edge) in runs {
            if is_edge {
                set_bit(&mut self.cut_edges, self.cuts.len());
            }
            self.cuts.push(Cut { bound, hop });
        }
        // Closing cut of the last edge (dummy hop: values at or beyond it
        // take the star path via the range check).
        self.cuts.push(Cut {
            bound: span_hi,
            hop: Hop {
                target: PTarget::REJECT,
                cost: 0,
            },
        });
        meta.b_len = (self.cuts.len() as u32) - meta.off;
        let state_cuts = &self.cuts[meta.off as usize..];
        if state_cuts.len() >= SEARCH_ACCEL_MIN_BOUNDS {
            // Bucket width 2^shift over the covered span, adapted to the
            // cut density so a bucket holds ~2 cuts on average (one accel
            // line + one or two probes per lookup); accel[k] counts the cut
            // points below bucket k's first value.
            let span = span_hi - span_lo;
            // span / (cuts/2), computed division-first so huge domains
            // (e.g. full i64 ranges) cannot overflow.
            let target_width = (span / (state_cuts.len() as u64 / 2).max(1)).max(1);
            meta.shift = (63 - target_width.leading_zeros() as u64) as u8;
            let nb = ((span - 1) >> meta.shift) + 1;
            meta.acc_off = self.accel.len() as u32;
            for k in 0..=nb {
                let first = span_lo + (k << meta.shift);
                self.accel
                    .push(state_cuts.partition_point(|c| c.bound < first) as u32);
            }
        }
    }

    /// The automaton whose walk starts at `root`, at its exact size.
    pub(crate) fn finish(self, header: TreeHeader, mut leaves: LeafPool, root: PTarget) -> Dfsa {
        let Arenas {
            mut states,
            mut cuts,
            mut jumps,
            mut accel,
            cut_edges,
            jump_runs,
            jump_edges,
            orderings,
            ..
        } = self;
        states.shrink_to_fit();
        cuts.shrink_to_fit();
        jumps.shrink_to_fit();
        accel.shrink_to_fit();
        leaves.off.shrink_to_fit();
        leaves.ids.shrink_to_fit();
        Dfsa {
            header,
            states,
            cuts,
            jumps,
            accel,
            leaves,
            root,
            cut_edges: cut_edges.into_boxed_slice(),
            jump_runs: jump_runs.into_boxed_slice(),
            jump_edges: jump_edges.into_boxed_slice(),
            orderings: orderings.into_boxed_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeConfig;
    use ens_types::{Domain, Predicate, ProfileSet, Schema};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_profiles(seed: u64, n: usize) -> (Schema, ProfileSet) {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 49))
            .unwrap()
            .attribute("y", Domain::int(0, 49))
            .unwrap()
            .attribute("z", Domain::int(0, 9))
            .unwrap()
            .build();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ProfileSet::new(&schema);
        for _ in 0..n {
            let names = ["x", "y", "z"];
            ps.insert_with(|mut b| {
                for name in names {
                    let roll: f64 = rng.gen();
                    let hi = if name == "z" { 9 } else { 49 };
                    if roll < 0.3 {
                        continue; // don't care
                    } else if roll < 0.6 {
                        b = b.predicate(name, Predicate::eq(rng.gen_range(0..=hi)))?;
                    } else {
                        let a = rng.gen_range(0..=hi);
                        let c = rng.gen_range(0..=hi);
                        b = b.predicate(name, Predicate::between(a.min(c), a.max(c)))?;
                    }
                }
                Ok(b)
            })
            .unwrap();
        }
        (schema, ps)
    }

    /// Same workload over a domain too large for jump tables, to cover
    /// the binary-search (CSR bounds) state kind.
    fn random_profiles_large_domain(seed: u64, n: usize) -> (Schema, ProfileSet) {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 9_999))
            .unwrap()
            .attribute("y", Domain::int(0, 49))
            .unwrap()
            .build();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ProfileSet::new(&schema);
        for _ in 0..n {
            ps.insert_with(|mut b| {
                if rng.gen_bool(0.8) {
                    let a = rng.gen_range(0..10_000);
                    let c = rng.gen_range(0..10_000);
                    b = b.predicate("x", Predicate::between(a.min(c), a.max(c)))?;
                }
                if rng.gen_bool(0.5) {
                    b = b.predicate("y", Predicate::eq(rng.gen_range(0..50)))?;
                }
                Ok(b)
            })
            .unwrap();
        }
        (schema, ps)
    }

    #[test]
    fn dfsa_agrees_with_oracle() {
        let (schema, ps) = random_profiles(7, 40);
        let dfsa = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..500 {
            let e = ens_types::Event::builder(&schema)
                .value("x", rng.gen_range(0..50))
                .unwrap()
                .value("y", rng.gen_range(0..50))
                .unwrap()
                .value("z", rng.gen_range(0..10))
                .unwrap()
                .build();
            let oracle = ps.matches(&e).unwrap();
            let via_dfsa = dfsa.match_event(&schema, &e).unwrap();
            assert_eq!(via_dfsa.profiles(), oracle);
        }
    }

    #[test]
    fn search_states_agree_with_oracle_on_large_domains() {
        let (schema, ps) = random_profiles_large_domain(5, 30);
        let dfsa = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
        assert!(
            dfsa.jump_state_count() < dfsa.state_count(),
            "the 10k-point domain must use binary-search states"
        );
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..500 {
            let e = ens_types::Event::builder(&schema)
                .value("x", rng.gen_range(0..10_000))
                .unwrap()
                .value("y", rng.gen_range(0..50))
                .unwrap()
                .build();
            assert_eq!(
                dfsa.match_event(&schema, &e).unwrap().profiles(),
                ps.matches(&e).unwrap()
            );
        }
    }

    #[test]
    fn small_domains_use_jump_tables() {
        let (_, ps) = random_profiles(3, 20);
        let dfsa = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
        // Every domain here has <= 50 points, far under the threshold;
        // only edge-less `*` states fall back to the search kind.
        assert!(dfsa.jump_state_count() > 0);
        // A raw row is not validated: an index outside the domain must
        // satisfy no edge (jump tables bounds-check), like a missing
        // value.
        let mut scratch = MatchScratch::new();
        dfsa.match_into(&IndexedEvent::from_indices(vec![None; 3]), &mut scratch);
        let star = scratch.profiles().to_vec();
        let outside = IndexedEvent::from_indices(vec![Some(1_000_000); 3]);
        dfsa.match_into(&outside, &mut scratch);
        assert_eq!(scratch.profiles(), star);
    }

    #[test]
    fn missing_values_follow_star() {
        let (schema, ps) = random_profiles(11, 20);
        let dfsa = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
        let e = ens_types::Event::builder(&schema)
            .value("y", 25)
            .unwrap()
            .build();
        assert_eq!(
            dfsa.match_event(&schema, &e).unwrap().profiles(),
            ps.matches(&e).unwrap(),
            "partial events agree with the oracle"
        );
    }

    #[test]
    fn structure_is_compact() {
        let (_, ps) = random_profiles(3, 30);
        let dfsa = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
        // Every state is reached from the root exactly once: node i is
        // state i, and no two nodes share one.
        let mut seen = vec![0; dfsa.state_count()];
        let mut stack = vec![dfsa.root()];
        while let Some(next) = stack.pop() {
            if let Next::State(s) = next {
                seen[s as usize] += 1;
                stack.extend(dfsa.edges(s).into_iter().map(|(_, child)| child));
                stack.extend(dfsa.star(s).map(|(_, child)| child));
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
        // Each leaf list is held once.
        let lists: std::collections::BTreeSet<_> = (0..dfsa.leaf_count() as u32)
            .map(|l| dfsa.leaves().get(l))
            .collect();
        assert_eq!(lists.len(), dfsa.leaf_count());
    }

    #[test]
    fn match_block_agrees_with_single_path() {
        use crate::scratch::BlockScratch;
        use ens_types::IndexedBatch;

        // Both state kinds (jump table + binary search), partial events
        // and block sizes around the lane width.
        for (schema, ps) in [
            random_profiles(31, 40),
            random_profiles_large_domain(33, 30),
        ] {
            let dfsa = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
            let mut rng = StdRng::seed_from_u64(34);
            let names: Vec<&str> = schema.iter().map(|(_, a)| a.name()).collect();
            let events: Vec<ens_types::Event> = (0..97)
                .map(|_| {
                    let mut b = ens_types::Event::builder(&schema);
                    for (id, a) in schema.iter() {
                        if rng.gen_bool(0.85) {
                            let hi = a.domain().size() as i64;
                            b = b.value(names[id.index()], rng.gen_range(0..hi)).unwrap();
                        }
                    }
                    b.build()
                })
                .collect();
            let mut batch = IndexedBatch::new();
            let mut block = BlockScratch::new();
            let mut single = MatchScratch::new();
            let mut indexed = IndexedEvent::new();
            for size in [0usize, 1, 3, 8, 9, 64, 97] {
                let chunk = &events[..size];
                batch.resolve_into(&schema, chunk.iter()).unwrap();
                dfsa.match_block(&batch, &mut block);
                assert_eq!(block.len(), size);
                let mut ops = 0;
                for (i, e) in chunk.iter().enumerate() {
                    indexed.resolve_into(&schema, e).unwrap();
                    dfsa.match_into(&indexed, &mut single);
                    assert_eq!(
                        block.profiles_of(i),
                        single.profiles(),
                        "event {i} of block size {size}"
                    );
                    assert_eq!(block.ops_of(i), single.ops(), "event {i}");
                    ops += single.ops();
                }
                assert_eq!(block.ops(), ops);
            }
        }
    }

    #[test]
    fn match_into_reuses_scratch() {
        let (schema, ps) = random_profiles(23, 30);
        let dfsa = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
        let mut scratch = MatchScratch::new();
        let mut indexed = IndexedEvent::new();
        let mut rng = StdRng::seed_from_u64(24);
        for _ in 0..200 {
            let e = ens_types::Event::builder(&schema)
                .value("x", rng.gen_range(0..50))
                .unwrap()
                .value("y", rng.gen_range(0..50))
                .unwrap()
                .value("z", rng.gen_range(0..10))
                .unwrap()
                .build();
            indexed.resolve_into(&schema, &e).unwrap();
            dfsa.match_into(&indexed, &mut scratch);
            assert_eq!(scratch.profiles(), ps.matches(&e).unwrap().as_slice());
            let fresh = dfsa.match_event(&schema, &e).unwrap();
            assert_eq!(scratch.ops(), fresh.ops(), "a reused scratch counts afresh");
        }
    }
    #[test]
    fn charges_take_no_bytes_in_states_or_cuts() {
        assert_eq!(std::mem::size_of::<StateMeta>(), 48);
        assert_eq!(std::mem::size_of::<Cut>(), 16);
    }
}
