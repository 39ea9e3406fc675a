//! Counting index over the incremental-subscription overlay.
//!
//! Between compactions, subscriptions that arrived since the last tree
//! build live in a small side set that every published event must also
//! be matched against. The seed implementation used the O(profiles ×
//! predicates) [`NaiveMatcher`](crate::baseline::NaiveMatcher) for that
//! side set, so churn-heavy shards decayed toward naive-scan cost as
//! the overlay grew. [`OverlayIndex`] replaces it with the counting /
//! predicate-index scheme (Fabret et al., Aguilera et al. — the
//! paper's §2 "counting algorithms" family), laid out for an overlay
//! that changes between events:
//!
//! * **per-attribute posting lists** — each attribute's overlay
//!   predicate intervals are cut into sorted elementary segments; one
//!   CSR arena maps a segment to the overlay profiles whose predicate
//!   covers it, so an event value finds *all* satisfied predicates of
//!   an attribute with one binary search plus one posting-list scan;
//! * **epoch-reset counters** — per-profile satisfied-predicate
//!   counters live in the caller's [`MatchScratch`] and are reset
//!   *logically* by bumping an epoch tag, so matching never pays a
//!   per-event O(profiles) clearing pass (see
//!   [`MatchScratch::begin_epoch`]);
//! * **built over what it matches** — the index covers only the overlay
//!   positions it matches (covered entries are delivered by expansion,
//!   tombstoned ones not at all) and touches each of their predicate
//!   intervals once, plus sorting the segment cuts. A snapshot rebuilds
//!   it only when an uncovered subscription joins or the overlay is
//!   packed ([`FilterSnapshot::with_indexed_entry`](crate::FilterSnapshot::with_indexed_entry),
//!   [`FilterSnapshot::with_overlay_entries`](crate::FilterSnapshot::with_overlay_entries)):
//!   a covered subscribe and an unsubscribe share it untouched, and no
//!   build depends on the compiled subscription count.
//!
//! Matching cost is O(postings hit) instead of O(profiles ×
//! predicates): an event only pays for the predicates it actually
//! satisfies. The `overlay_depth` section of `BENCH_throughput.json`
//! quantifies the gap against the naive side-matcher.

use ens_types::{IndexedEvent, Profile, ProfileId, ProfileSet, Schema};

use crate::persist::{ByteReader, ByteWriter, PersistError};
use crate::scratch::{MatchScratch, Matcher};
use crate::FilterError;

/// Per-attribute posting lists: sorted elementary segment bounds plus a
/// CSR map from segment to covering overlay profiles.
#[derive(Debug, Clone, Default)]
struct AttrPostings {
    /// Sorted segment boundaries; segment `i` covers
    /// `[bounds[i], bounds[i + 1])`. Empty when no overlay profile
    /// constrains this attribute.
    bounds: Vec<u64>,
    /// CSR offsets into `postings`, one per segment (+1 sentinel).
    off: Vec<u32>,
    /// Overlay profile indices covering each segment, ascending within
    /// a segment.
    postings: Vec<u32>,
}

impl AttrPostings {
    /// The postings of the segment containing `idx`, or `None` when the
    /// index falls outside every covered segment (including the
    /// [`IndexedEvent::MISSING`] sentinel and out-of-domain indices).
    /// Also returns the binary-search step count for ops accounting.
    #[inline]
    fn lookup(&self, idx: u64) -> (u64, Option<&[u32]>) {
        // One range check rejects missing values, out-of-domain indices
        // and values below the first covered segment without touching
        // the arenas. `bounds.len() >= 2` whenever postings exist.
        if self.bounds.is_empty()
            || idx < self.bounds[0]
            || idx >= self.bounds[self.bounds.len() - 1]
        {
            return (0, None);
        }
        let steps = u64::from((usize::BITS - (self.bounds.len() - 1).leading_zeros()).max(1));
        let seg = self.bounds.partition_point(|b| *b <= idx) - 1;
        let lo = self.off[seg] as usize;
        let hi = self.off[seg + 1] as usize;
        (steps, (lo < hi).then(|| &self.postings[lo..hi]))
    }
}

/// The incrementally-buildable counting index over an overlay profile
/// set.
///
/// Dense overlay ids `0..len` follow insertion order, exactly like the
/// naive side-matcher it replaces; the snapshot reports them offset by
/// its compiled base length.
///
/// # Example
///
/// ```
/// use ens_filter::{MatchScratch, Matcher, OverlayIndex};
/// use ens_types::{Domain, Event, IndexedEvent, Predicate, ProfileSet, Schema};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::builder().attribute("x", Domain::int(0, 99))?.build();
/// let mut overlay = ProfileSet::new(&schema);
/// overlay.insert_with(|b| b.predicate("x", Predicate::ge(90)))?;
/// let index = OverlayIndex::new(&overlay)?;
/// let e = Event::builder(&schema).value("x", 95)?.build();
/// let indexed = IndexedEvent::resolve(&schema, &e)?;
/// let mut scratch = MatchScratch::new();
/// index.match_into(&indexed, &mut scratch);
/// assert!(scratch.is_match());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OverlayIndex {
    /// Posting lists per schema attribute (schema order).
    attrs: Vec<AttrPostings>,
    /// Per overlay profile: number of non-don't-care predicates.
    required: Vec<u32>,
    /// Overlay profiles with no predicates at all (match everything).
    unconditional: Vec<ProfileId>,
}

impl OverlayIndex {
    /// Builds the counting index over `overlay` (dense ids in insertion
    /// order). Cost is O(overlay predicates), independent of any
    /// compiled base.
    ///
    /// # Errors
    ///
    /// Propagates predicate lowering errors.
    pub fn new(overlay: &ProfileSet) -> Result<Self, FilterError> {
        let entries = overlay.iter().enumerate();
        let entries: Vec<_> = entries.map(|(k, p)| (k as u32, p)).collect();
        Self::from_entries(overlay.schema(), &entries)
    }

    /// Builds the counting index over the overlay positions `entries`
    /// names (ascending), each with its profile. Every other position
    /// is excluded from matching entirely: it contributes no postings,
    /// is never unconditional, and its `required` count is an
    /// unreachable sentinel — or, after the last named position, absent
    /// ([`OverlayIndex::profile_count`] stops there).
    ///
    /// Used by covering-aware snapshots: overlay subscriptions covered
    /// by a compiled representative are delivered through the expansion
    /// map instead, and tombstoned ones not at all.
    pub(crate) fn from_entries(
        schema: &Schema,
        entries: &[(u32, &Profile)],
    ) -> Result<Self, FilterError> {
        let len = entries.last().map_or(0, |&(k, _)| k as usize + 1);
        // Unsatisfiable sentinel: counters never reach it.
        let mut required = vec![u32::MAX; len];
        let mut unconditional = Vec::new();
        for &(k, p) in entries {
            let r = p.specified_len() as u32;
            if r == 0 {
                unconditional.push(ProfileId::new(k));
            }
            required[k as usize] = r;
        }

        let mut attrs = Vec::with_capacity(schema.len());
        // Reused per attribute: (profile, interval) pairs and cuts.
        let mut spans: Vec<(u32, u64, u64)> = Vec::new();
        for (id, a) in schema.iter() {
            spans.clear();
            for &(k, p) in entries {
                let pred = p.predicate(id);
                if pred.is_dont_care() {
                    continue;
                }
                for iv in pred.to_intervals(a.domain())?.iter() {
                    if !iv.is_empty() {
                        spans.push((k, iv.lo(), iv.hi()));
                    }
                }
            }
            if spans.is_empty() {
                attrs.push(AttrPostings::default());
                continue;
            }
            // Elementary segment bounds: every interval endpoint.
            let mut bounds: Vec<u64> = spans.iter().flat_map(|&(_, lo, hi)| [lo, hi]).collect();
            bounds.sort_unstable();
            bounds.dedup();
            let segments = bounds.len() - 1;
            // Counting sort of the postings into CSR: first the per-
            // segment counts, then the placement pass. Scanning spans in
            // profile order keeps each segment's postings ascending.
            let mut counts = vec![0u32; segments];
            for &(_, lo, hi) in spans.iter() {
                let s0 = bounds.partition_point(|b| *b < lo);
                let s1 = bounds.partition_point(|b| *b < hi);
                for c in &mut counts[s0..s1] {
                    *c += 1;
                }
            }
            let mut off = Vec::with_capacity(segments + 1);
            let mut total = 0u32;
            off.push(0);
            for c in &counts {
                total += c;
                off.push(total);
            }
            // Placement pass. `spans` was built in ascending profile
            // order, so each segment's postings come out ascending, and
            // a segment sees any profile at most once (its intervals
            // are disjoint and segments are elementary).
            let mut cursor: Vec<u32> = off[..segments].to_vec();
            let mut postings = vec![0u32; total as usize];
            for &(k, lo, hi) in spans.iter() {
                let s0 = bounds.partition_point(|b| *b < lo);
                let s1 = bounds.partition_point(|b| *b < hi);
                for cur in &mut cursor[s0..s1] {
                    postings[*cur as usize] = k;
                    *cur += 1;
                }
            }
            attrs.push(AttrPostings {
                bounds,
                off,
                postings,
            });
        }
        Ok(OverlayIndex {
            attrs,
            required,
            unconditional,
        })
    }

    /// Number of overlay positions the index spans: up to and including
    /// the last one it matches.
    #[must_use]
    pub fn profile_count(&self) -> usize {
        self.required.len()
    }
}

impl Matcher for OverlayIndex {
    /// One binary search + posting scan per event attribute; counters
    /// reset by epoch, so cost is O(postings hit), not O(profiles).
    /// Operation accounting: one op per binary-search step plus one
    /// per counter increment.
    fn match_into(&self, event: &IndexedEvent, scratch: &mut MatchScratch) {
        scratch.reset();
        scratch.begin_epoch(self.required.len());
        let raw = event.raw();
        for (a, postings) in self.attrs.iter().enumerate() {
            let Some(&idx) = raw.get(a) else { continue };
            let (steps, hit) = postings.lookup(idx);
            scratch.ops += steps;
            let Some(hit) = hit else { continue };
            for &k in hit {
                scratch.ops += 1;
                if scratch.bump_counter(k as usize) == self.required[k as usize] {
                    scratch.profiles.push(ProfileId::new(k));
                }
            }
        }
        scratch.profiles.extend_from_slice(&self.unconditional);
        // Completions arrive in posting order, not id order.
        scratch.profiles.sort_unstable();
    }
}

impl OverlayIndex {
    /// Appends the posting-list arenas in the dense binary form, as an
    /// index over all `len` positions of an overlay whose schema has
    /// `attrs` attributes: positions past the end of `index` (all of
    /// them without one) are written as never matched — the bytes a
    /// build over the whole overlay writes.
    pub(crate) fn encode(index: Option<&Self>, attrs: usize, len: usize, w: &mut ByteWriter) {
        let (postings, required, unconditional) = match index {
            Some(x) => (&x.attrs[..], &x.required[..], &x.unconditional[..]),
            None => (&[][..], &[][..], &[][..]),
        };
        w.seq_len(attrs);
        for k in 0..attrs {
            let a = postings.get(k);
            w.slice_u64(a.map_or(&[], |a| &a.bounds));
            w.slice_u32(a.map_or(&[], |a| &a.off));
            w.slice_u32(a.map_or(&[], |a| &a.postings));
        }
        w.seq_len(len);
        for k in 0..len {
            w.u32(required.get(k).copied().unwrap_or(u32::MAX));
        }
        w.seq_len(unconditional.len());
        for p in unconditional {
            w.u32(p.index() as u32);
        }
    }

    /// Decodes an index written by [`OverlayIndex::encode`], refusing
    /// one that [`Matcher::match_into`] could not walk: segment bounds
    /// out of order, offsets that do not delimit the postings, or a
    /// position past the index.
    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let n_attrs = r.seq_len(12)?;
        let mut attrs = Vec::with_capacity(n_attrs);
        for _ in 0..n_attrs {
            attrs.push(AttrPostings {
                bounds: r.vec_u64()?,
                off: r.vec_u32()?,
                postings: r.vec_u32()?,
            });
        }
        let required = r.vec_u32()?;
        let n = r.seq_len(4)?;
        let mut unconditional = Vec::with_capacity(n);
        for _ in 0..n {
            unconditional.push(ProfileId::new(r.u32()?));
        }
        let len = required.len();
        let walkable = |a: &AttrPostings| {
            let delimits = a.off.first() == Some(&0)
                && a.off.windows(2).all(|w| w[0] <= w[1])
                && a.off.last().map(|&end| end as usize) == Some(a.postings.len());
            match a.bounds.len() {
                0 => a.off.is_empty() && a.postings.is_empty(),
                1 => false,
                n => {
                    a.bounds.windows(2).all(|w| w[0] < w[1])
                        && a.off.len() == n
                        && delimits
                        && a.postings.iter().all(|&k| (k as usize) < len)
                }
            }
        };
        if !attrs.iter().all(walkable) || unconditional.iter().any(|p| p.index() >= len) {
            return Err(PersistError::new("overlay index out of shape"));
        }
        Ok(OverlayIndex {
            attrs,
            required,
            unconditional,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::NaiveMatcher;
    use ens_types::{Domain, Event, Predicate, Schema};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn schema() -> Schema {
        Schema::builder()
            .attribute("x", Domain::int(0, 99))
            .unwrap()
            .attribute("y", Domain::int(0, 9))
            .unwrap()
            .attribute("kind", Domain::categorical(["a", "b", "c"]).unwrap())
            .unwrap()
            .build()
    }

    fn random_overlay(seed: u64, n: usize) -> ProfileSet {
        let schema = schema();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ProfileSet::new(&schema);
        let kinds = ["a", "b", "c"];
        for _ in 0..n {
            ps.insert_with(|mut b| {
                if rng.gen_bool(0.7) {
                    let a = rng.gen_range(0..100);
                    let c = rng.gen_range(0..100);
                    b = b.predicate("x", Predicate::between(a.min(c), a.max(c)))?;
                }
                if rng.gen_bool(0.4) {
                    b = b.predicate("y", Predicate::ne(rng.gen_range(0..10)))?;
                }
                if rng.gen_bool(0.3) {
                    b = b.predicate("kind", Predicate::eq(kinds[rng.gen_range(0..3)]))?;
                }
                Ok(b)
            })
            .unwrap();
        }
        ps
    }

    #[test]
    fn agrees_with_naive_on_random_overlays() {
        let schema = schema();
        let kinds = ["a", "b", "c"];
        let mut rng = StdRng::seed_from_u64(5);
        for n in [0usize, 1, 7, 60] {
            let overlay = random_overlay(100 + n as u64, n);
            let index = OverlayIndex::new(&overlay).unwrap();
            let naive = NaiveMatcher::new(&overlay).unwrap();
            assert_eq!(index.profile_count(), n);
            let mut si = MatchScratch::new();
            let mut sn = MatchScratch::new();
            for _ in 0..200 {
                let mut b = Event::builder(&schema);
                if rng.gen_bool(0.9) {
                    b = b.value("x", rng.gen_range(0..100)).unwrap();
                }
                if rng.gen_bool(0.9) {
                    b = b.value("y", rng.gen_range(0..10)).unwrap();
                }
                if rng.gen_bool(0.9) {
                    b = b.value("kind", kinds[rng.gen_range(0..3)]).unwrap();
                }
                let e = b.build();
                let indexed = IndexedEvent::resolve(&schema, &e).unwrap();
                index.match_into(&indexed, &mut si);
                naive.match_into(&indexed, &mut sn);
                assert_eq!(si.profiles(), sn.profiles(), "overlay size {n}");
            }
        }
    }

    #[test]
    fn unconditional_profiles_always_match() {
        let schema = schema();
        let mut overlay = ProfileSet::new(&schema);
        overlay.insert_with(|b| Ok(b)).unwrap();
        overlay
            .insert_with(|b| b.predicate("x", Predicate::eq(5)))
            .unwrap();
        let index = OverlayIndex::new(&overlay).unwrap();
        let mut s = MatchScratch::new();
        let e = Event::builder(&schema).build();
        let indexed = IndexedEvent::resolve(&schema, &e).unwrap();
        index.match_into(&indexed, &mut s);
        assert_eq!(s.profiles(), &[ProfileId::new(0)]);
        let e = Event::builder(&schema).value("x", 5).unwrap().build();
        let indexed = IndexedEvent::resolve(&schema, &e).unwrap();
        index.match_into(&indexed, &mut s);
        assert_eq!(s.profiles(), &[ProfileId::new(0), ProfileId::new(1)]);
    }

    #[test]
    fn out_of_domain_indices_match_nothing_specific() {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 9))
            .unwrap()
            .build();
        let mut overlay = ProfileSet::new(&schema);
        overlay
            .insert_with(|b| b.predicate("x", Predicate::ge(0)))
            .unwrap();
        let index = OverlayIndex::new(&overlay).unwrap();
        let mut s = MatchScratch::new();
        index.match_into(&IndexedEvent::from_indices(vec![Some(1_000)]), &mut s);
        assert!(!s.is_match());
        index.match_into(&IndexedEvent::from_indices(vec![Some(3)]), &mut s);
        assert!(s.is_match());
    }

    #[test]
    fn ops_scale_with_postings_hit_not_profiles() {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 999))
            .unwrap()
            .build();
        let mut overlay = ProfileSet::new(&schema);
        for v in 0..200 {
            overlay
                .insert_with(|b| b.predicate("x", Predicate::eq((v * 5) % 1000)))
                .unwrap();
        }
        let index = OverlayIndex::new(&overlay).unwrap();
        let naive = NaiveMatcher::new(&overlay).unwrap();
        let e = Event::builder(&schema).value("x", 500).unwrap().build();
        let indexed = IndexedEvent::resolve(&schema, &e).unwrap();
        let mut si = MatchScratch::new();
        let mut sn = MatchScratch::new();
        index.match_into(&indexed, &mut si);
        naive.match_into(&indexed, &mut sn);
        assert_eq!(si.profiles(), sn.profiles());
        assert!(si.ops() < 20, "counting ops = {}", si.ops());
        assert!(sn.ops() >= 200, "naive ops = {}", sn.ops());
    }
}
