//! Flattened DFSA form of a profile tree, in a cache-friendly CSR layout.
//!
//! §3: "from a given set of profiles, a deterministic finite state
//! automaton (DFSA) is created". [`Dfsa`] lowers a [`ProfileTree`] into
//! structure-of-arrays state tables — the representation every event is
//! matched with. It matches exactly what its [`ProfileTree`] matches and
//! counts exactly the comparison operations the tree charges (asserted
//! by tests and the `matchers` bench): each transition carries the
//! tree's charge for it, so a walk adds the charges up instead of
//! running the tree's search.
//!
//! # Charges
//!
//! The tree charges every [`SearchStrategy`](crate::SearchStrategy)
//! from fixed per-node tables ([`NodeOrdering`](crate::NodeOrdering)):
//! a value in edge `g` costs `hit_cost[g]`; one in the gap before edge
//! `g` (`g = 0` / `g = m`: below / above every edge) costs
//! `miss_cost[g]`, plus 1 when an else edge `(*)` follows; a missing
//! attribute, or any value at an edge-less node, costs 1 with a star
//! edge and 0 without. A transition (a `Hop`) carries the charge of
//! its interval and a state the charges of its three out-of-span cases,
//! and all of them are part of the hash-consing key, so two nodes the
//! tree charges differently never share a state. Checkpoints carry no
//! automaton at all: loading one lowers the decoded tree, as compiling
//! does, so [`Dfsa::from_tree`] is the only way an automaton is built.
//!
//! # Layout
//!
//! Instead of one heap allocation per state (the pointer-heavy layout
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
//! * `leaf_profiles` — a flat leaf arena with per-leaf offsets; leaf
//!   profile lists come from the tree strictly ascending and are
//!   hash-consed at build time, so the match loop never sorts.
//!
//! Matching through [`Matcher::match_into`] with a reused
//! [`MatchScratch`] performs zero heap allocations after warm-up
//! (asserted by `crates/filter/tests/alloc.rs`).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use ens_types::{IndexedBatch, IndexedEvent, ProfileId};

use crate::scratch::{BlockScratch, MatchScratch, Matcher};
use crate::tree::{Node, NodeRef, ProfileTree, Star};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PTarget(u32);

const TAG_SHIFT: u32 = 30;
const TAG_STATE: u32 = 0b01;
const TAG_LEAF: u32 = 0b10;
const PAYLOAD_MASK: u32 = (1 << TAG_SHIFT) - 1;

impl PTarget {
    const REJECT: PTarget = PTarget(0);

    fn state(s: u32) -> PTarget {
        assert!(
            s <= PAYLOAD_MASK,
            "DFSA state index overflows packed target"
        );
        PTarget((TAG_STATE << TAG_SHIFT) | s)
    }

    fn leaf(l: u32) -> PTarget {
        assert!(l <= PAYLOAD_MASK, "DFSA leaf index overflows packed target");
        PTarget((TAG_LEAF << TAG_SHIFT) | l)
    }
}

/// One transition: where a value leads, and the comparison operations
/// the tree charges for finding that out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// Pre-freeze form of a state, and its hash-consing key: the tested
/// attribute, the covered span cut into runs of values that take the
/// same hop, and the out-of-span charges. Two tree nodes share a state
/// only if they send every value to the same place at the same cost.
#[derive(Clone, PartialEq, Eq, Hash)]
struct BuildState {
    attr: u32,
    /// `(lo, hop)`: values from `lo` up to the next run's `lo` (the last
    /// run's: up to `hi`) take `hop`. The gaps between the node's edges
    /// are runs to the star target. Empty for an edge-less node.
    runs: Vec<(u64, Hop)>,
    hi: u64,
    star: PTarget,
    missing: u8,
    below: u32,
    above: u32,
}

impl BuildState {
    /// The state tree node `n` lowers to when its star edge leads to
    /// `star` and its edge `g` to `edges[g]`; charged as the module docs
    /// say.
    fn of_node(n: &Node, star: PTarget, edges: &[PTarget]) -> Self {
        let missing = u8::from(!matches!(n.star, Star::None));
        let else_cost = u32::from(matches!(n.star, Star::Else(_)));
        // A decoded tree has its tables checked against its edges; the
        // fallback only keeps this total.
        let charge = |costs: &[u32], g: usize| costs.get(g).copied().unwrap_or_default();
        let gap = |g: usize| charge(&n.ordering.miss_cost, g).saturating_add(else_cost);
        let mut runs = Vec::with_capacity(2 * n.edges.len());
        let mut hi = 0;
        for (g, e) in n.edges.iter().enumerate() {
            let lo = e.interval.lo();
            if g > 0 && hi < lo {
                let cost = gap(g);
                runs.push((hi, Hop { target: star, cost }));
            }
            let (target, cost) = (edges[g], charge(&n.ordering.hit_cost, g));
            runs.push((lo, Hop { target, cost }));
            hi = e.interval.hi();
        }
        let (below, above) = if n.edges.is_empty() {
            (u32::from(missing), u32::from(missing))
        } else {
            (gap(0), gap(n.edges.len()))
        };
        BuildState {
            attr: n.attr.index() as u32,
            runs,
            hi,
            star,
            missing,
            below,
            above,
        }
    }
}

/// The flattened automaton.
///
/// # Example
///
/// ```
/// use ens_filter::{Dfsa, Matcher, ProfileTree, TreeConfig};
/// use ens_types::{Schema, Domain, Predicate, ProfileSet, Event};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::builder().attribute("x", Domain::int(0, 99))?.build();
/// let mut ps = ProfileSet::new(&schema);
/// ps.insert_with(|b| b.predicate("x", Predicate::between(10, 19)))?;
/// let tree = ProfileTree::build(&ps, &TreeConfig::default())?;
/// let dfsa = Dfsa::from_tree(&tree);
/// let e = Event::builder(&schema).value("x", 15)?.build();
/// let out = dfsa.match_event(&schema, &e)?;
/// assert_eq!(out.profiles().len(), 1);
/// assert_eq!(out.ops(), tree.match_event(&schema, &e)?.ops());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dfsa {
    states: Vec<StateMeta>,
    /// Cut points of all binary-search states, each fused with the hop
    /// of the interval it opens (so the probe that finds a cut has its
    /// hop on the same cache line).
    cuts: Vec<Cut>,
    /// Dense jump tables of all jump states.
    jumps: Vec<Hop>,
    /// Bucket indices for accelerated search states (see [`StateMeta`]).
    accel: Vec<u32>,
    /// `leaf_off[l] .. leaf_off[l+1]` delimits leaf `l` in
    /// `leaf_profiles`; always starts with 0.
    leaf_off: Vec<u32>,
    leaf_profiles: Vec<ProfileId>,
    root: PTarget,
}

impl Dfsa {
    /// Lowers a profile tree into flat CSR state tables. The automaton
    /// holds no schema: events reach it already resolved.
    #[must_use]
    pub fn from_tree(tree: &ProfileTree) -> Self {
        let mut lowering = Lowering::default();
        let root = lowering.lower(tree.root());
        freeze(&lowering.states, &lowering.leaves, root)
    }

    /// Number of states.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of distinct leaves.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.leaf_off.len().saturating_sub(1)
    }

    /// Number of states resolved by a dense jump table (the rest use
    /// binary search over their bounds range).
    #[must_use]
    pub fn jump_state_count(&self) -> usize {
        self.states.iter().filter(|s| s.jump).count()
    }

    fn leaf(&self, l: u32) -> &[ProfileId] {
        let lo = self.leaf_off[l as usize] as usize;
        let hi = self.leaf_off[l as usize + 1] as usize;
        &self.leaf_profiles[lo..hi]
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
    /// arena. `ops` is the tree's count for the event; `per_level`
    /// stays empty — the automaton has states, not levels.
    fn match_into(&self, event: &IndexedEvent, scratch: &mut MatchScratch) {
        scratch.reset(0);
        let (t, ops) = self.terminal(event.raw());
        scratch.ops = ops;
        if t.0 >> TAG_SHIFT == TAG_LEAF {
            scratch
                .profiles
                .extend_from_slice(self.leaf(t.0 & PAYLOAD_MASK));
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
                        TAG_LEAF => prefetch(&self.leaf_off[(next.0 & PAYLOAD_MASK) as usize]),
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
                        .extend_from_slice(self.leaf(tl.0 & PAYLOAD_MASK));
                }
                scratch.seal_event();
                scratch.event_ops[base + l] = ops[l];
                scratch.ops += ops[l];
            }
            base += m;
        }
    }
}

/// Ids of a leaf that [`leaf_key`] reads one by one.
const LEAF_KEY_SAMPLE: usize = 8;

/// Leaves sharing a key that a lowering compares a leaf with before it
/// takes the leaf as new: a tree built to make keys collide then costs
/// a duplicate leaf, not a comparison with every leaf before it.
const LEAF_CHAIN_MAX: usize = 8;

/// The dedup key of a leaf: its length, the wrapping sum of its ids and
/// at most [`LEAF_KEY_SAMPLE`] of them, spread over the list, mixed by
/// multiply-rotate steps. Equal leaves have equal keys, and a key costs
/// no hashing of the whole list.
fn leaf_key(ids: &[ProfileId]) -> u64 {
    let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    let sum = ids
        .iter()
        .fold(0u64, |s, p| s.wrapping_add(p.index() as u64));
    let step = ids.len().div_ceil(LEAF_KEY_SAMPLE).max(1);
    let sample = ids.iter().step_by(step).map(|p| p.index() as u64);
    sample.fold(mix(ids.len() as u64, sum), mix)
}

/// Tree-to-build-state lowering with leaf *and* interior-state
/// hash-consing: structurally identical states (same tested attribute,
/// runs, star target and charges) are emitted once and shared.
/// Don't-care profiles duplicate whole subtrees along sibling edges of
/// the tree; because children are lowered before their parent is
/// keyed, equal subtrees collapse bottom-up into one state chain — on
/// duplicate-heavy populations the automaton is much smaller than the
/// tree even when containment analysis misses the duplicates.
#[derive(Default)]
struct Lowering<'t> {
    states: Vec<BuildState>,
    /// Distinct non-empty leaves, as the tree holds them: strictly
    /// ascending (the build sorts them, the decoder refuses others).
    leaves: Vec<&'t [ProfileId]>,
    /// [`leaf_key`] -> the last leaf with that key; `leaf_chain[l]` is
    /// the leaf before `l` with `l`'s key.
    leaf_canon: HashMap<u64, u32>,
    leaf_chain: Vec<Option<u32>>,
    /// Built state -> its slot. Exact structural equality: leaves below
    /// are already consed, so equal keys imply equal languages (and,
    /// the charges being part of the key, equal counts). The default
    /// hasher stays: the keys come from subscriptions and checkpoints,
    /// input from outside the process.
    state_canon: HashMap<BuildState, u32>,
}

impl<'t> Lowering<'t> {
    fn lower(&mut self, node: &'t NodeRef) -> PTarget {
        match node {
            NodeRef::Leaf(ids) => {
                if ids.is_empty() {
                    return PTarget::REJECT;
                }
                let key = leaf_key(ids);
                let head = self.leaf_canon.get(&key).copied();
                let chain = std::iter::successors(head, |&l| self.leaf_chain[l as usize]);
                let mut same = chain.take(LEAF_CHAIN_MAX);
                if let Some(l) = same.find(|&l| self.leaves[l as usize] == ids.as_slice()) {
                    return PTarget::leaf(l);
                }
                let l = self.leaves.len() as u32;
                self.leaves.push(ids);
                self.leaf_chain.push(head);
                self.leaf_canon.insert(key, l);
                PTarget::leaf(l)
            }
            NodeRef::Inner(n) => {
                // Children first, so the parent's structural key is over
                // already-canonical targets. The automaton references
                // its root through an explicit target (no slot-0
                // assumption anywhere), so the children-before-parents
                // layout is safe.
                let edges: Vec<PTarget> = n.edges.iter().map(|e| self.lower(&e.child)).collect();
                let star = match &n.star {
                    Star::None => PTarget::REJECT,
                    Star::All(child) | Star::Else(child) => self.lower(child),
                };
                let state = BuildState::of_node(n, star, &edges);
                let slot = self.states.len() as u32;
                match self.state_canon.entry(state) {
                    Entry::Occupied(seen) => PTarget::state(*seen.get()),
                    Entry::Vacant(new) => {
                        self.states.push(new.key().clone());
                        PTarget::state(*new.insert(slot))
                    }
                }
            }
        }
    }
}

/// Packs build states and leaves into the shared CSR arenas, each left
/// at its exact size: the automaton lives as long as its snapshot.
fn freeze(states: &[BuildState], leaves: &[&[ProfileId]], root: PTarget) -> Dfsa {
    let mut cuts: Vec<Cut> = Vec::new();
    let mut jumps: Vec<Hop> = Vec::new();
    let mut accel: Vec<u32> = Vec::new();
    let metas = states
        .iter()
        .map(|s| freeze_state(s, &mut cuts, &mut jumps, &mut accel))
        .collect();
    cuts.shrink_to_fit();
    jumps.shrink_to_fit();
    accel.shrink_to_fit();

    let mut leaf_off: Vec<u32> = Vec::with_capacity(leaves.len() + 1);
    let mut leaf_profiles = Vec::with_capacity(leaves.iter().map(|l| l.len()).sum());
    leaf_off.push(0);
    for leaf in leaves {
        leaf_profiles.extend_from_slice(leaf);
        leaf_off.push(leaf_profiles.len() as u32);
    }

    Dfsa {
        states: metas,
        cuts,
        jumps,
        accel,
        leaf_off,
        leaf_profiles,
        root,
    }
}

/// Appends one state's jump table or cut points (and bucket index) to
/// the arenas and returns its metadata.
fn freeze_state(
    s: &BuildState,
    cuts: &mut Vec<Cut>,
    jumps: &mut Vec<Hop>,
    accel: &mut Vec<u32>,
) -> StateMeta {
    let mut meta = StateMeta {
        attr: s.attr,
        shift: 0,
        jump: false,
        missing: s.missing,
        star: s.star,
        lo: 0,
        hi: 0,
        off: 0,
        b_len: 0,
        acc_off: NO_ACCEL,
        below: s.below,
        above: s.above,
    };
    let Some(&(span_lo, _)) = s.runs.first() else {
        // `*` node: lo == hi, every value follows the star target.
        return meta;
    };
    let span_hi = s.hi;
    meta.lo = span_lo;
    meta.hi = span_hi;
    if span_hi - span_lo <= JUMP_TABLE_MAX_DOMAIN {
        // Dense jump table over the covered span, indexed by `idx - lo`.
        meta.jump = true;
        meta.off = jumps.len() as u32;
        for (k, &(lo, hop)) in s.runs.iter().enumerate() {
            let end = s.runs.get(k + 1).map_or(span_hi, |next| next.0);
            jumps.extend(std::iter::repeat_n(hop, (end - lo) as usize));
        }
        return meta;
    }
    meta.off = cuts.len() as u32;
    cuts.extend(s.runs.iter().map(|&(bound, hop)| Cut { bound, hop }));
    // Closing cut of the last edge (dummy hop: values at or beyond it
    // take the star path via the range check).
    cuts.push(Cut {
        bound: span_hi,
        hop: Hop {
            target: PTarget::REJECT,
            cost: 0,
        },
    });
    meta.b_len = (cuts.len() as u32) - meta.off;
    let state_cuts = &cuts[meta.off as usize..];
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
        meta.acc_off = accel.len() as u32;
        for k in 0..=nb {
            let first = span_lo + (k << meta.shift);
            accel.push(state_cuts.partition_point(|c| c.bound < first) as u32);
        }
    }
    meta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{ProfileTree, TreeConfig};
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
    fn dfsa_agrees_with_tree_and_oracle() {
        let (schema, ps) = random_profiles(7, 40);
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let dfsa = Dfsa::from_tree(&tree);
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
            let via_tree = tree.match_event(&schema, &e).unwrap();
            let via_dfsa = dfsa.match_event(&schema, &e).unwrap();
            assert_eq!(via_tree.profiles(), oracle.as_slice());
            assert_eq!(via_dfsa.profiles(), oracle);
        }
    }

    #[test]
    fn search_states_agree_with_oracle_on_large_domains() {
        let (schema, ps) = random_profiles_large_domain(5, 30);
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let dfsa = Dfsa::from_tree(&tree);
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
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let dfsa = Dfsa::from_tree(&tree);
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
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let dfsa = Dfsa::from_tree(&tree);
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
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let dfsa = Dfsa::from_tree(&tree);
        assert!(dfsa.state_count() <= tree.node_count());
        assert!(dfsa.leaf_count() <= tree.leaf_count());
    }

    #[test]
    fn interior_hash_consing_shares_duplicate_subtrees() {
        // Exact duplicate profiles are distinct tree paths ending in
        // distinct leaves, but pairs of duplicated *suffix* structure
        // (don't-care duplication along sibling edges) must collapse.
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 49))
            .unwrap()
            .attribute("y", Domain::int(0, 49))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        // Multi-interval x-predicates: every x-interval of a profile
        // leads to the *same* leaf set, so the y-subtree below each of
        // its edges is structurally identical and must be emitted once.
        for k in 0..4i64 {
            ps.insert_with(|b| {
                b.predicate("x", Predicate::in_set([k, k + 10, k + 20, k + 30]))?
                    .predicate("y", Predicate::le(10 + k))
            })
            .unwrap();
        }
        ps.insert_with(|b| b.predicate("y", Predicate::le(10)))
            .unwrap();
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let dfsa = Dfsa::from_tree(&tree);
        assert!(
            dfsa.state_count() < tree.node_count(),
            "consing must share states: {} states for {} tree nodes",
            dfsa.state_count(),
            tree.node_count()
        );
        for x in 0..50 {
            for y in [0, 5, 10, 11, 49] {
                let e = ens_types::Event::builder(&schema)
                    .value("x", x)
                    .unwrap()
                    .value("y", y)
                    .unwrap()
                    .build();
                assert_eq!(
                    dfsa.match_event(&schema, &e).unwrap().profiles(),
                    ps.matches(&e).unwrap()
                );
            }
        }
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
            let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
            let dfsa = Dfsa::from_tree(&tree);
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
                    assert_eq!(single.ops(), tree.match_event(&schema, e).unwrap().ops());
                    ops += single.ops();
                }
                assert_eq!(block.ops(), ops);
            }
        }
    }

    #[test]
    fn match_into_reuses_scratch() {
        let (schema, ps) = random_profiles(23, 30);
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let dfsa = Dfsa::from_tree(&tree);
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
            let by_tree = tree.match_event(&schema, &e).unwrap().ops();
            assert_eq!(
                scratch.ops(),
                by_tree,
                "the DFSA counts what the tree counts"
            );
        }
    }
    #[test]
    fn charges_take_no_bytes_in_states_or_cuts() {
        assert_eq!(std::mem::size_of::<StateMeta>(), 48);
        assert_eq!(std::mem::size_of::<Cut>(), 16);
    }
}
