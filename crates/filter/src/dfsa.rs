//! Flattened DFSA form of a profile tree, in a cache-friendly CSR layout.
//!
//! §3: "from a given set of profiles, a deterministic finite state
//! automaton (DFSA) is created". [`Dfsa`] lowers a [`ProfileTree`] into
//! structure-of-arrays state tables — the representation used for
//! raw-throughput matching, where operation counting is not needed.
//! It matches exactly what its [`ProfileTree`] matches (asserted by
//! tests and the `matchers` bench).
//!
//! # Layout
//!
//! Instead of one heap allocation per state (the pointer-heavy layout
//! the workspace started with, 2.5× slower per event), all states share
//! contiguous arenas:
//!
//! * `cuts` — sorted cut points, each fused with the packed target of
//!   the interval it opens; a binary-search state owns one
//!   `(offset, len)` range describing a piecewise-constant map from
//!   domain index to transition target (gaps between profile edges are
//!   materialised as explicit intervals leading to the star target, so
//!   a lookup is a single `partition_point`, optionally narrowed by a
//!   per-state bucket index);
//! * `jumps` — dense **jump tables** (one packed target per domain
//!   point over the state's covered span), chosen automatically for
//!   spans of at most [`JUMP_TABLE_MAX_DOMAIN`] points (a lookup is
//!   then one range check + one load, no search at all);
//! * `leaf_profiles` — a flat leaf arena with per-leaf offsets; leaf
//!   profile lists are sorted, deduplicated and hash-consed at build
//!   time, so the match loop never sorts.
//!
//! Matching through [`Matcher::match_into`] with a reused
//! [`MatchScratch`] performs zero heap allocations after warm-up
//! (asserted by `crates/filter/tests/alloc.rs`).

use ens_types::{AttrId, IndexedBatch, IndexedEvent, ProfileId};

use crate::persist::{ByteReader, ByteWriter, PersistError};
use crate::scratch::{BlockScratch, MatchScratch, Matcher};
use crate::tree::{NodeRef, ProfileTree, Star};

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
/// a dense jump table (`index -> target`) instead of binary-searched
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

/// Transition target of a DFSA state (build/minimise-time form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Target {
    State(u32),
    Leaf(u32),
    Reject,
}

/// Match-time target, packed into 4 bytes: tag in the top two bits
/// (`00` reject, `01` state, `10` leaf), payload index below. Packing
/// halves the arena footprint — jump tables in particular — which keeps
/// more of the automaton in cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PTarget(u32);

const TAG_SHIFT: u32 = 30;
const TAG_STATE: u32 = 0b01;
const TAG_LEAF: u32 = 0b10;
const PAYLOAD_MASK: u32 = (1 << TAG_SHIFT) - 1;

impl PTarget {
    const REJECT: PTarget = PTarget(0);

    fn pack(t: Target) -> PTarget {
        match t {
            Target::Reject => PTarget::REJECT,
            Target::State(s) => {
                assert!(
                    s <= PAYLOAD_MASK,
                    "DFSA state index overflows packed target"
                );
                PTarget((TAG_STATE << TAG_SHIFT) | s)
            }
            Target::Leaf(l) => {
                assert!(l <= PAYLOAD_MASK, "DFSA leaf index overflows packed target");
                PTarget((TAG_LEAF << TAG_SHIFT) | l)
            }
        }
    }
}

/// One cut point of a binary-search state, fused with the target of the
/// interval it opens (`[cut.bound, next_cut.bound) -> cut.target`; the
/// last cut of a state carries a dummy target).
#[derive(Debug, Clone, Copy)]
struct Cut {
    bound: u64,
    target: PTarget,
}

/// Per-state metadata, flat (no enum indirection) so the hot loop reads
/// one cache line per state. A state is either a **jump table**
/// (`jump == true`: `jumps[t_off + (idx - lo)]` for `idx` in
/// `[lo, hi)`) or a **binary-search** state over
/// `cuts[b_off .. b_off + b_len]`. `lo`/`hi` cache the covered index
/// range so out-of-range values (including the
/// [`IndexedEvent::MISSING`] sentinel) fall to `star` without touching
/// the arenas. When `acc_off != NO_ACCEL`, `accel[acc_off + k]` counts
/// the cut points below bucket `k`'s first value (bucket = index
/// `>> shift`), narrowing the binary search to one bucket.
#[derive(Debug, Clone, Copy)]
struct StateMeta {
    /// Schema position of the tested attribute.
    attr: u32,
    shift: u8,
    jump: bool,
    star: PTarget,
    /// Covered index range: `lo == hi` means no specific edges.
    lo: u64,
    hi: u64,
    b_off: u32,
    b_len: u32,
    t_off: u32,
    acc_off: u32,
}

/// Pre-freeze form of a state: explicit `[lo, hi) -> target` edges.
struct BuildState {
    attr: AttrId,
    /// Sorted, non-overlapping, non-empty intervals.
    edges: Vec<(u64, u64, Target)>,
    star: Target,
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
/// assert_eq!(dfsa.match_event(&schema, &e)?.profiles().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dfsa {
    states: Vec<StateMeta>,
    /// Cut points of all binary-search states, each fused with the
    /// target of the interval it opens (so the probe that finds a cut
    /// has its target on the same cache line).
    cuts: Vec<Cut>,
    /// Dense jump tables of all jump states.
    jumps: Vec<PTarget>,
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
        let mut lowering = Lowering {
            states: Vec::new(),
            leaves: Vec::new(),
            leaf_canon: std::collections::HashMap::new(),
            state_canon: std::collections::HashMap::new(),
        };
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
        self.leaf_off.len() - 1
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
    fn step(&self, state: &StateMeta, idx: u64) -> PTarget {
        // One range check covers: missing values, out-of-domain indices,
        // edge-less `*` states (lo == hi) and gap values beyond the
        // covered span — without touching the arenas.
        if idx < state.lo || idx >= state.hi {
            return state.star;
        }
        if state.jump {
            // The table covers the span [lo, hi), indexed relative to lo.
            return self.jumps[state.t_off as usize + (idx - state.lo) as usize];
        }
        let cuts = &self.cuts[state.b_off as usize..(state.b_off + state.b_len) as usize];
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
        cuts[k - 1].target
    }

    /// Runs the automaton to its terminal target over the raw
    /// sentinel-encoded index slice.
    #[inline]
    fn terminal(&self, raw: &[u64]) -> PTarget {
        let mut t = self.root;
        while t.0 >> TAG_SHIFT == TAG_STATE {
            let state = &self.states[(t.0 & PAYLOAD_MASK) as usize];
            let idx = raw
                .get(state.attr as usize)
                .copied()
                .unwrap_or(IndexedEvent::MISSING);
            t = self.step(state, idx);
        }
        t
    }
}

impl Matcher for Dfsa {
    /// The raw-throughput fast path: one automaton walk, leaf profiles
    /// copied from the pre-sorted arena. `ops`/`per_level` stay zero —
    /// the DFSA does not count comparison operations.
    fn match_into(&self, event: &IndexedEvent, scratch: &mut MatchScratch) {
        scratch.reset(0);
        let t = self.terminal(event.raw());
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
    /// Semantics are identical to looping [`Matcher::match_into`];
    /// `ops` stays zero (the DFSA does not count operations).
    fn match_block(&self, batch: &IndexedBatch, scratch: &mut BlockScratch) {
        let n = batch.len();
        scratch.reset_block(n);
        let raw = batch.raw();
        let width = batch.width();

        let mut base = 0;
        while base < n {
            let m = BLOCK_LANES.min(n - base);
            let mut t = [self.root; BLOCK_LANES];
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
                    let next = self.step(state, idx);
                    t[l] = next;
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
            for &tl in t.iter().take(m) {
                if tl.0 >> TAG_SHIFT == TAG_LEAF {
                    scratch
                        .profiles
                        .extend_from_slice(self.leaf(tl.0 & PAYLOAD_MASK));
                }
                scratch.seal_event();
            }
            base += m;
        }
    }
}

/// Tree-to-build-state lowering with leaf *and* interior-state
/// hash-consing: structurally identical states (same tested attribute,
/// edge list and star target) are emitted once and shared. Don't-care
/// profiles duplicate whole subtrees along sibling edges of the tree;
/// because children are lowered before their parent is keyed, equal
/// subtrees collapse bottom-up into one state chain — on duplicate-heavy
/// populations the automaton is much smaller than the tree even when
/// containment analysis misses the duplicates.
/// Structural key of an interior state: tested attribute, `(lo, hi,
/// target)` edge list, star target.
type StateKey = (AttrId, Vec<(u64, u64, Target)>, Target);

struct Lowering {
    states: Vec<BuildState>,
    leaves: Vec<Vec<ProfileId>>,
    leaf_canon: std::collections::HashMap<Vec<ProfileId>, u32>,
    /// `(attr, edges, star)` -> existing state. Exact structural
    /// equality: leaves below are already consed, so equal keys imply
    /// equal languages.
    state_canon: std::collections::HashMap<StateKey, u32>,
}

impl Lowering {
    fn lower(&mut self, node: &NodeRef) -> Target {
        match node {
            NodeRef::Leaf(ids) => {
                if ids.is_empty() {
                    Target::Reject
                } else {
                    // Tree leaves are already sorted and unique; dedup
                    // identical lists so the arena stays small.
                    if let Some(&l) = self.leaf_canon.get(ids) {
                        return Target::Leaf(l);
                    }
                    self.leaves.push(ids.clone());
                    let l = self.leaves.len() as u32 - 1;
                    self.leaf_canon.insert(ids.clone(), l);
                    Target::Leaf(l)
                }
            }
            NodeRef::Inner(n) => {
                // Children first, so the parent's structural key is over
                // already-canonical targets. The automaton references
                // its root through an explicit target (no slot-0
                // assumption anywhere), so the children-before-parents
                // layout is safe.
                let mut edges = Vec::with_capacity(n.edges.len());
                for e in &n.edges {
                    let target = self.lower(&e.child);
                    edges.push((e.interval.lo(), e.interval.hi(), target));
                }
                let star = match &n.star {
                    Star::None => Target::Reject,
                    Star::All(child) | Star::Else(child) => self.lower(child),
                };
                if let Some(&s) = self.state_canon.get(&(n.attr, edges.clone(), star)) {
                    return Target::State(s);
                }
                let slot = self.states.len() as u32;
                self.state_canon.insert((n.attr, edges.clone(), star), slot);
                self.states.push(BuildState {
                    attr: n.attr,
                    edges,
                    star,
                });
                Target::State(slot)
            }
        }
    }
}

/// Packs build states and leaves into the shared CSR arenas.
fn freeze(states: &[BuildState], leaves: &[Vec<ProfileId>], root: Target) -> Dfsa {
    let mut metas = Vec::with_capacity(states.len());
    let mut cuts: Vec<Cut> = Vec::new();
    let mut jumps: Vec<PTarget> = Vec::new();
    let mut accel: Vec<u32> = Vec::new();
    for s in states {
        let star = PTarget::pack(s.star);
        let mut meta = StateMeta {
            attr: s.attr.index() as u32,
            shift: 0,
            jump: false,
            star,
            lo: 0,
            hi: 0,
            b_off: 0,
            b_len: 0,
            t_off: 0,
            acc_off: NO_ACCEL,
        };
        if s.edges.is_empty() {
            // `*` node: lo == hi, every value follows the star target.
            metas.push(meta);
            continue;
        }
        let span_lo = s.edges[0].0;
        let span_hi = s.edges[s.edges.len() - 1].1;
        meta.lo = span_lo;
        meta.hi = span_hi;
        if span_hi - span_lo <= JUMP_TABLE_MAX_DOMAIN {
            // Dense jump table over the covered span, indexed by
            // `idx - lo`; gaps read the pre-filled star target.
            meta.jump = true;
            meta.t_off = jumps.len() as u32;
            jumps.resize(jumps.len() + (span_hi - span_lo) as usize, star);
            for &(lo, hi, t) in &s.edges {
                let t = PTarget::pack(t);
                let start = meta.t_off as usize + (lo - span_lo) as usize;
                let end = meta.t_off as usize + (hi - span_lo) as usize;
                for slot in &mut jumps[start..end] {
                    *slot = t;
                }
            }
        } else {
            meta.b_off = cuts.len() as u32;
            let mut prev_hi: Option<u64> = None;
            for &(lo, hi, t) in &s.edges {
                match prev_hi {
                    None => cuts.push(Cut {
                        bound: lo,
                        target: PTarget::pack(t),
                    }),
                    Some(p) => {
                        // The previous edge's closing cut opens either a
                        // gap interval (to the star target) or, when the
                        // edges are adjacent, the next edge directly.
                        if p < lo {
                            cuts.push(Cut {
                                bound: p,
                                target: star,
                            });
                            cuts.push(Cut {
                                bound: lo,
                                target: PTarget::pack(t),
                            });
                        } else {
                            cuts.push(Cut {
                                bound: lo,
                                target: PTarget::pack(t),
                            });
                        }
                    }
                }
                prev_hi = Some(hi);
            }
            // Closing cut of the last edge (dummy target: values at or
            // beyond it take the star path via the range check).
            cuts.push(Cut {
                bound: span_hi,
                target: PTarget::REJECT,
            });
            meta.b_len = (cuts.len() as u32) - meta.b_off;
            let state_cuts = &cuts[meta.b_off as usize..];
            if state_cuts.len() >= SEARCH_ACCEL_MIN_BOUNDS {
                // Bucket width 2^shift over the covered span, adapted to
                // the cut density so a bucket holds ~2 cuts on average
                // (one accel line + one or two probes per lookup);
                // accel[k] counts the cut points below bucket k's first
                // value.
                let span = span_hi - span_lo;
                // span / (cuts/2), computed division-first so huge
                // domains (e.g. full i64 ranges) cannot overflow.
                let target_width = (span / (state_cuts.len() as u64 / 2).max(1)).max(1);
                meta.shift = (63 - target_width.leading_zeros() as u64) as u8;
                let nb = ((span - 1) >> meta.shift) + 1;
                meta.acc_off = accel.len() as u32;
                for k in 0..=nb {
                    let first = span_lo + (k << meta.shift);
                    accel.push(state_cuts.partition_point(|c| c.bound < first) as u32);
                }
            }
        }
        metas.push(meta);
    }

    let mut leaf_off: Vec<u32> = Vec::with_capacity(leaves.len() + 1);
    let mut leaf_profiles: Vec<ProfileId> = Vec::new();
    leaf_off.push(0);
    for leaf in leaves {
        let mut ids = leaf.clone();
        // Pre-sort at build time so the match loop never sorts.
        ids.sort_unstable();
        ids.dedup();
        leaf_profiles.extend_from_slice(&ids);
        leaf_off.push(leaf_profiles.len() as u32);
    }

    Dfsa {
        states: metas,
        cuts,
        jumps,
        accel,
        leaf_off,
        leaf_profiles,
        root: PTarget::pack(root),
    }
}

impl Dfsa {
    /// Appends the automaton arenas in the dense binary checkpoint
    /// form. The leaf arena is stored as references into `tree`'s
    /// leaves whenever the lists agree (see below), which halves the
    /// dominant leaf bytes of a snapshot.
    pub(crate) fn encode_into(&self, w: &mut ByteWriter, tree: &ProfileTree) {
        // Column-oriented: each `StateMeta` field becomes one packed
        // array. Per-state offsets are monotone and the rest are small
        // or repetitive, so the zig-zag deltas compress the 42-byte
        // row-form to a few bytes per state.
        let states = &self.states;
        w.seq_len(states.len());
        let col_u32 = |w: &mut ByteWriter, f: &dyn Fn(&StateMeta) -> u32| {
            let col: Vec<u32> = states.iter().map(f).collect();
            w.packed_u32(&col);
        };
        let col_u64 = |w: &mut ByteWriter, f: &dyn Fn(&StateMeta) -> u64| {
            let col: Vec<u64> = states.iter().map(f).collect();
            w.packed_u64(&col);
        };
        col_u32(w, &|s| s.attr);
        col_u32(w, &|s| u32::from(s.shift));
        col_u32(w, &|s| u32::from(s.jump));
        col_u32(w, &|s| s.star.0);
        col_u64(w, &|s| s.lo);
        col_u64(w, &|s| s.hi);
        col_u32(w, &|s| s.b_off);
        col_u32(w, &|s| s.b_len);
        col_u32(w, &|s| s.t_off);
        col_u32(w, &|s| s.acc_off);
        let cut_bounds: Vec<u64> = self.cuts.iter().map(|c| c.bound).collect();
        let cut_targets: Vec<u32> = self.cuts.iter().map(|c| c.target.0).collect();
        w.packed_u64(&cut_bounds);
        w.packed_u32(&cut_targets);
        let jumps: Vec<u32> = self.jumps.iter().map(|j| j.0).collect();
        w.packed_u32(&jumps);
        w.packed_u32(&self.accel);
        // Leaf arena: every DFSA leaf is a sorted, deduplicated copy of
        // a tree leaf, and the tree's leaves precede the automaton in
        // the snapshot stream. When each list matches one of the tree's
        // (byte-for-byte — the normal case, since tree leaves are built
        // sorted), store a single position per leaf instead of
        // repeating millions of profile ids; the decoder replays the
        // references against [`ProfileTree::leaf_slices`].
        let tree_leaves = tree.leaf_slices();
        let mut by_content: std::collections::HashMap<&[ProfileId], u32> =
            std::collections::HashMap::with_capacity(tree_leaves.len());
        for (i, s) in tree_leaves.iter().enumerate() {
            by_content.entry(s).or_insert(i as u32);
        }
        let refs: Option<Vec<u32>> = self
            .leaf_off
            .windows(2)
            .map(|lh| {
                let list = &self.leaf_profiles[lh[0] as usize..lh[1] as usize];
                by_content.get(list).copied()
            })
            .collect();
        match refs {
            Some(refs) => {
                w.u8(1);
                w.packed_u32(&refs);
            }
            None => {
                // Some leaf was deduplicated away from its tree form:
                // fall back to the verbatim arena.
                w.u8(0);
                w.packed_u32(&self.leaf_off);
                let leaf_profiles: Vec<u32> = self
                    .leaf_profiles
                    .iter()
                    .map(|p| p.index() as u32)
                    .collect();
                w.packed_u32(&leaf_profiles);
            }
        }
        w.u32(self.root.0);
    }

    /// Decodes an automaton written by [`Dfsa::encode_into`]. `tree`
    /// must be the profile tree decoded from the same snapshot — leaf
    /// references resolve against it.
    pub(crate) fn decode_from(
        r: &mut ByteReader<'_>,
        tree: &ProfileTree,
    ) -> Result<Self, PersistError> {
        let n_states = r.seq_len(10)?;
        let column = |r: &mut ByteReader<'_>, n: usize, what: &str| {
            let col = r.vec_u32_packed()?;
            if col.len() != n {
                return Err(PersistError::new(format!(
                    "state column {what} has {} entries, expected {n}",
                    col.len()
                )));
            }
            Ok(col)
        };
        let column64 = |r: &mut ByteReader<'_>, n: usize, what: &str| {
            let col = r.vec_u64_packed()?;
            if col.len() != n {
                return Err(PersistError::new(format!(
                    "state column {what} has {} entries, expected {n}",
                    col.len()
                )));
            }
            Ok(col)
        };
        let attr = column(r, n_states, "attr")?;
        let shift = column(r, n_states, "shift")?;
        let jump = column(r, n_states, "jump")?;
        let star = column(r, n_states, "star")?;
        let lo = column64(r, n_states, "lo")?;
        let hi = column64(r, n_states, "hi")?;
        let b_off = column(r, n_states, "b_off")?;
        let b_len = column(r, n_states, "b_len")?;
        let t_off = column(r, n_states, "t_off")?;
        let acc_off = column(r, n_states, "acc_off")?;
        let mut states = Vec::with_capacity(n_states);
        for i in 0..n_states {
            let s = u8::try_from(shift[i])
                .map_err(|_| PersistError::new(format!("state shift {} overflows u8", shift[i])))?;
            let j = match jump[i] {
                0 => false,
                1 => true,
                other => {
                    return Err(PersistError::new(format!("invalid jump flag {other}")));
                }
            };
            states.push(StateMeta {
                attr: attr[i],
                shift: s,
                jump: j,
                star: PTarget(star[i]),
                lo: lo[i],
                hi: hi[i],
                b_off: b_off[i],
                b_len: b_len[i],
                t_off: t_off[i],
                acc_off: acc_off[i],
            });
        }
        let cut_bounds = r.vec_u64_packed()?;
        let cut_targets = r.vec_u32_packed()?;
        if cut_bounds.len() != cut_targets.len() {
            return Err(PersistError::new(format!(
                "cut columns disagree: {} bounds, {} targets",
                cut_bounds.len(),
                cut_targets.len()
            )));
        }
        let cuts = cut_bounds
            .into_iter()
            .zip(cut_targets)
            .map(|(bound, target)| Cut {
                bound,
                target: PTarget(target),
            })
            .collect();
        let jumps = r.vec_u32_packed()?.into_iter().map(PTarget).collect();
        let accel = r.vec_u32_packed()?;
        let (leaf_off, leaf_profiles) = match r.u8()? {
            1 => {
                // Referenced form: rebuild the arena by copying the
                // referenced tree leaves (a memcpy per leaf).
                let refs = r.vec_u32_packed()?;
                let tree_leaves = tree.leaf_slices();
                let mut off: Vec<u32> = Vec::with_capacity(refs.len() + 1);
                off.push(0);
                let total: usize = refs
                    .iter()
                    .map(|&rf| {
                        tree_leaves
                            .get(rf as usize)
                            .map(|s| s.len())
                            .ok_or_else(|| {
                                PersistError::new(format!("leaf reference {rf} out of range"))
                            })
                    })
                    .sum::<Result<usize, PersistError>>()?;
                if u32::try_from(total).is_err() {
                    return Err(PersistError::new("leaf arena exceeds u32 offsets"));
                }
                let mut arena: Vec<ProfileId> = Vec::with_capacity(total);
                for &rf in &refs {
                    arena.extend_from_slice(tree_leaves[rf as usize]);
                    off.push(arena.len() as u32);
                }
                (off, arena)
            }
            0 => {
                let leaf_off = r.vec_u32_packed()?;
                let leaf_profiles = r
                    .vec_u32_packed()?
                    .into_iter()
                    .map(ProfileId::new)
                    .collect();
                (leaf_off, leaf_profiles)
            }
            tag => {
                return Err(PersistError::new(format!("unknown leaf arena tag {tag}")));
            }
        };
        let root = PTarget(r.u32()?);
        Ok(Dfsa {
            states,
            cuts,
            jumps,
            accel,
            leaf_off,
            leaf_profiles,
            root,
        })
    }
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
                assert_eq!(block.ops(), 0);
                for (i, e) in chunk.iter().enumerate() {
                    indexed.resolve_into(&schema, e).unwrap();
                    dfsa.match_into(&indexed, &mut single);
                    assert_eq!(
                        block.profiles_of(i),
                        single.profiles(),
                        "event {i} of block size {size}"
                    );
                }
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
            assert_eq!(scratch.ops(), 0, "the DFSA does not count operations");
        }
    }
}
