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
//! its interval and a state the charges of its three out-of-span cases.
//!
//! # Lowering
//!
//! [`Dfsa::from_tree`] is the only way an automaton is built; loading a
//! checkpoint lowers the decoded tree, as compiling does. It is a copy:
//! one post-order walk freezes each inner node into the arenas once its
//! children have states, so the walk's node *i* is state *i* — no
//! map, and no two nodes share a state. The leaves are not copied at
//! all: the tree builder interns each distinct leaf list once, into a
//! pool the automaton shares, and a leaf target is its index there.
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
//! * `leaves` — the tree's leaf pool, a flat arena with per-leaf
//!   offsets; its lists are strictly ascending (the builder sorts them,
//!   the decoder refuses others), so the match loop never sorts.
//!
//! Matching through [`Matcher::match_into`] with a reused
//! [`MatchScratch`] performs zero heap allocations after warm-up
//! (asserted by `crates/filter/tests/alloc.rs`).

use std::sync::Arc;

use ens_types::{IndexedBatch, IndexedEvent};

use crate::scratch::{BlockScratch, MatchScratch, Matcher};
use crate::tree::{LeafPool, Node, NodeRef, ProfileTree, Star};

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
    /// The tree's leaf pool: a leaf target indexes it.
    leaves: Arc<LeafPool>,
    root: PTarget,
}

impl Dfsa {
    /// Lowers a profile tree into flat CSR state tables. The automaton
    /// holds no schema: events reach it already resolved.
    #[must_use]
    pub fn from_tree(tree: &ProfileTree) -> Self {
        let mut lowering = Lowering::default();
        let root = lowering.lower(tree.root());
        let Lowering {
            mut states,
            mut cuts,
            mut jumps,
            mut accel,
            ..
        } = lowering;
        states.shrink_to_fit();
        cuts.shrink_to_fit();
        jumps.shrink_to_fit();
        accel.shrink_to_fit();
        Dfsa {
            states,
            cuts,
            jumps,
            accel,
            leaves: Arc::clone(tree.leaves()),
            root,
        }
    }

    /// Number of states.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of distinct leaves.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Number of states resolved by a dense jump table (the rest use
    /// binary search over their bounds range).
    #[must_use]
    pub fn jump_state_count(&self) -> usize {
        self.states.iter().filter(|s| s.jump).count()
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

/// Tree-to-automaton lowering: a post-order walk that freezes each
/// inner node into the arenas once its children have states.
#[derive(Default)]
struct Lowering {
    states: Vec<StateMeta>,
    cuts: Vec<Cut>,
    jumps: Vec<Hop>,
    accel: Vec<u32>,
    /// Edge targets of the nodes on the walk's path, innermost last.
    edges: Vec<PTarget>,
}

impl Lowering {
    fn lower(&mut self, node: &NodeRef) -> PTarget {
        let n = match node {
            NodeRef::Inner(n) => n,
            NodeRef::Leaf(l) => return PTarget::leaf(*l),
            NodeRef::Empty => return PTarget::REJECT,
        };
        // Children first, in the order the node codec writes them. The
        // automaton references its root through an explicit target (no
        // slot-0 assumption anywhere), so the children-before-parents
        // layout is safe.
        let star = match &n.star {
            Star::None => PTarget::REJECT,
            Star::All(child) | Star::Else(child) => self.lower(child),
        };
        let first = self.edges.len();
        for e in &n.edges {
            let target = self.lower(&e.child);
            self.edges.push(target);
        }
        let meta = self.freeze(n, star, first);
        self.edges.truncate(first);
        self.states.push(meta);
        PTarget::state(self.states.len() as u32 - 1)
    }

    /// Appends node `n`'s jump table or cut points (and bucket index)
    /// to the arenas and returns its metadata, charged as the module
    /// docs say. Its star edge leads to `star`, its edge `g` to
    /// `edges[first + g]`.
    fn freeze(&mut self, n: &Node, star: PTarget, first: usize) -> StateMeta {
        let missing = u8::from(!matches!(n.star, Star::None));
        let else_cost = u32::from(matches!(n.star, Star::Else(_)));
        // A decoded tree has its tables checked against its edges; the
        // fallback only keeps this total.
        let charge = |costs: &[u32], g: usize| costs.get(g).copied().unwrap_or_default();
        let gap = |g: usize| charge(&n.ordering.miss_cost, g).saturating_add(else_cost);
        let mut meta = StateMeta {
            attr: n.attr.index() as u32,
            shift: 0,
            jump: false,
            missing,
            star,
            lo: 0,
            hi: 0,
            off: 0,
            b_len: 0,
            acc_off: NO_ACCEL,
            below: u32::from(missing),
            above: u32::from(missing),
        };
        let (Some(head), Some(tail)) = (n.edges.first(), n.edges.last()) else {
            // `*` node: lo == hi, every value follows the star target.
            return meta;
        };
        let (span_lo, span_hi) = (head.interval.lo(), tail.interval.hi());
        meta.lo = span_lo;
        meta.hi = span_hi;
        meta.below = gap(0);
        meta.above = gap(n.edges.len());
        // The covered span cut into runs `(lo, hi, hop)` of values that
        // take the same hop: each edge, and the gap before it (to the
        // star target) where there is one.
        let targets = &self.edges[first..];
        let runs = n.edges.iter().enumerate().flat_map(|(g, e)| {
            let (lo, hi) = (e.interval.lo(), e.interval.hi());
            let after = g.checked_sub(1).map_or(lo, |p| n.edges[p].interval.hi());
            let to_star = Hop {
                target: star,
                cost: gap(g),
            };
            let to_child = Hop {
                target: targets[g],
                cost: charge(&n.ordering.hit_cost, g),
            };
            let before = (after < lo).then_some((after, lo, to_star));
            before.into_iter().chain([(lo, hi, to_child)])
        });
        if span_hi - span_lo <= JUMP_TABLE_MAX_DOMAIN {
            // Dense jump table over the covered span, indexed by `idx - lo`.
            meta.jump = true;
            meta.off = self.jumps.len() as u32;
            for (lo, hi, hop) in runs {
                self.jumps
                    .extend(std::iter::repeat_n(hop, (hi - lo) as usize));
            }
            return meta;
        }
        meta.off = self.cuts.len() as u32;
        self.cuts
            .extend(runs.map(|(bound, _, hop)| Cut { bound, hop }));
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
        meta
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
        assert_eq!(dfsa.state_count(), tree.node_count());
        assert!(dfsa.leaf_count() <= tree.leaf_count());
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
