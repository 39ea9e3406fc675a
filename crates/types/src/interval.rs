use std::fmt;

use serde::{Deserialize, Serialize};

/// A half-open interval `[lo, hi)` of *domain indices*.
///
/// Every [`Domain`](crate::Domain) maps its points onto the index grid
/// `0..d`; predicates normalise to sets of these intervals. The half-open
/// convention makes adjacency and complement computations exact.
///
/// # Example
///
/// ```
/// use ens_types::IndexInterval;
/// let a = IndexInterval::new(2, 5);
/// assert_eq!(a.len(), 3);
/// assert!(a.contains(4));
/// assert!(!a.contains(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IndexInterval {
    lo: u64,
    hi: u64,
}

impl IndexInterval {
    /// Creates `[lo, hi)`. An interval with `hi <= lo` is empty and
    /// normalised to `[lo, lo)`.
    #[must_use]
    pub fn new(lo: u64, hi: u64) -> Self {
        IndexInterval { lo, hi: hi.max(lo) }
    }

    /// The single-point interval `[i, i+1)`.
    #[must_use]
    pub fn point(i: u64) -> Self {
        IndexInterval { lo: i, hi: i + 1 }
    }

    /// Inclusive lower endpoint.
    #[must_use]
    pub fn lo(&self) -> u64 {
        self.lo
    }

    /// Exclusive upper endpoint.
    #[must_use]
    pub fn hi(&self) -> u64 {
        self.hi
    }

    /// Number of indices covered.
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u64 {
        self.hi - self.lo
    }

    /// Whether the interval covers no indices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }

    /// Whether `i` lies in `[lo, hi)`.
    #[must_use]
    pub fn contains(&self, i: u64) -> bool {
        self.lo <= i && i < self.hi
    }

    /// Whether `other` is fully contained in `self`.
    #[must_use]
    pub fn contains_interval(&self, other: &IndexInterval) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// Intersection of two intervals (possibly empty).
    #[must_use]
    pub fn intersect(&self, other: &IndexInterval) -> IndexInterval {
        IndexInterval::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Whether the two intervals share at least one index.
    #[must_use]
    pub fn overlaps(&self, other: &IndexInterval) -> bool {
        !self.intersect(other).is_empty()
    }
}

impl fmt::Display for IndexInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

/// A normalised set of disjoint, sorted, non-adjacent [`IndexInterval`]s.
///
/// This is the canonical form predicates are lowered to: e.g. on the
/// domain `[0, 100]`, `humidity != 50` becomes `{[0,50), [51,101)}`.
///
/// # Example
///
/// ```
/// use ens_types::{IndexInterval, IntervalSet};
/// let s = IntervalSet::from_intervals(vec![
///     IndexInterval::new(5, 8),
///     IndexInterval::new(0, 5), // adjacent: merged
/// ]);
/// assert_eq!(s.iter().count(), 1);
/// assert_eq!(s.covered_len(), 8);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IntervalSet {
    intervals: Vec<IndexInterval>,
}

impl IntervalSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// Builds a normalised set from arbitrary intervals: empties dropped,
    /// the rest sorted and merged (overlapping *or adjacent* intervals
    /// coalesce).
    #[must_use]
    pub fn from_intervals(mut intervals: Vec<IndexInterval>) -> Self {
        normalize_tail(&mut intervals, 0);
        IntervalSet { intervals }
    }

    /// Wraps intervals that are normalised already: ascending,
    /// non-empty, and none touching the next.
    pub(crate) fn from_normalized(intervals: Vec<IndexInterval>) -> Self {
        IntervalSet { intervals }
    }

    /// The full domain `[0, d)`.
    #[must_use]
    pub fn full(d: u64) -> Self {
        IntervalSet::from_intervals(vec![IndexInterval::new(0, d)])
    }

    /// Whether the set covers no indices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Total number of indices covered.
    #[must_use]
    pub fn covered_len(&self) -> u64 {
        self.intervals.iter().map(IndexInterval::len).sum()
    }

    /// Whether index `i` is covered.
    #[must_use]
    pub fn contains(&self, i: u64) -> bool {
        // Find the last interval starting at or before `i`.
        match self.intervals.partition_point(|iv| iv.lo() <= i) {
            0 => false,
            k => self.intervals[k - 1].contains(i),
        }
    }

    /// Whether every index of `other` is also covered by `self`
    /// (set inclusion `other ⊆ self`), by a single merge walk over the
    /// two sorted interval lists.
    ///
    /// This is the per-attribute core of the profile covering relation
    /// ([`covers`](crate::covers)): predicate `b` implies predicate `a`
    /// exactly when `b`'s lowered index set is contained in `a`'s.
    #[must_use]
    pub fn contains_set(&self, other: &IntervalSet) -> bool {
        contains_slice(&self.intervals, &other.intervals)
    }

    /// Iterates over the disjoint intervals in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &IndexInterval> {
        self.intervals.iter()
    }

    /// Borrow the sorted intervals as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[IndexInterval] {
        &self.intervals
    }

    /// Set union.
    #[must_use]
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        let mut all = self.intervals.clone();
        all.extend_from_slice(&other.intervals);
        IntervalSet::from_intervals(all)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.intervals.len() && j < other.intervals.len() {
            let a = self.intervals[i];
            let b = other.intervals[j];
            let iv = a.intersect(&b);
            if !iv.is_empty() {
                out.push(iv);
            }
            if a.hi() <= b.hi() {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { intervals: out }
    }

    /// Complement with respect to the full domain `[0, d)`.
    ///
    /// Intervals extending beyond `d` are clipped.
    #[must_use]
    pub fn complement(&self, d: u64) -> IntervalSet {
        let mut intervals = self.intervals.clone();
        complement_tail(&mut intervals, 0, d);
        IntervalSet { intervals }
    }
}

impl FromIterator<IndexInterval> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = IndexInterval>>(iter: I) -> Self {
        IntervalSet::from_intervals(iter.into_iter().collect())
    }
}

impl Extend<IndexInterval> for IntervalSet {
    fn extend<I: IntoIterator<Item = IndexInterval>>(&mut self, iter: I) {
        let mut all = std::mem::take(&mut self.intervals);
        all.extend(iter);
        *self = IntervalSet::from_intervals(all);
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, iv) in self.intervals.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, "}}")
    }
}

/// Whether the normalised `outer` covers every index of the normalised
/// `inner`, by a single merge walk over the two sorted lists.
pub(crate) fn contains_slice(outer: &[IndexInterval], inner: &[IndexInterval]) -> bool {
    let mut i = 0;
    'outer: for o in inner {
        while i < outer.len() {
            let s = outer[i];
            if s.hi() <= o.lo() {
                // Entirely left of `o` — and of every later `o` too.
                i += 1;
                continue;
            }
            if s.lo() <= o.lo() && o.hi() <= s.hi() {
                // `o` contained; the same `s` may contain later `o`s.
                continue 'outer;
            }
            return false;
        }
        return false;
    }
    true
}

/// Normalises `v[start..]` in place: empties dropped, the rest sorted
/// and merged (overlapping *or adjacent* intervals coalesce).
pub(crate) fn normalize_tail(v: &mut Vec<IndexInterval>, start: usize) {
    v[start..].sort_unstable();
    let mut w = start;
    for r in start..v.len() {
        let iv = v[r];
        if iv.is_empty() {
            continue;
        }
        match w.checked_sub(1).filter(|&l| l >= start) {
            Some(l) if iv.lo() <= v[l].hi() => {
                v[l] = IndexInterval::new(v[l].lo(), v[l].hi().max(iv.hi()));
            }
            _ => {
                v[w] = iv;
                w += 1;
            }
        }
    }
    v.truncate(w);
}

/// Replaces the normalised `v[start..]` by its complement in `[0, d)`,
/// in place; intervals extending beyond `d` are clipped.
pub(crate) fn complement_tail(v: &mut Vec<IndexInterval>, start: usize, d: u64) {
    let (mut w, mut cursor) = (start, 0u64);
    // Piece `w` is written after interval `r >= w` is read.
    for r in start..v.len() {
        let iv = v[r];
        let lo = iv.lo().min(d);
        if cursor < lo {
            v[w] = IndexInterval::new(cursor, lo);
            w += 1;
        }
        cursor = cursor.max(iv.hi());
    }
    v.truncate(w);
    if cursor < d {
        v.push(IndexInterval::new(cursor, d));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_interval_normalised() {
        let iv = IndexInterval::new(5, 3);
        assert!(iv.is_empty());
        assert_eq!(iv.len(), 0);
    }

    #[test]
    fn point_interval() {
        let iv = IndexInterval::point(7);
        assert_eq!(iv.len(), 1);
        assert!(iv.contains(7));
        assert!(!iv.contains(8));
    }

    #[test]
    fn interval_intersection_and_overlap() {
        let a = IndexInterval::new(0, 10);
        let b = IndexInterval::new(5, 15);
        assert_eq!(a.intersect(&b), IndexInterval::new(5, 10));
        assert!(a.overlaps(&b));
        let c = IndexInterval::new(10, 12);
        assert!(!a.overlaps(&c), "half-open: [0,10) and [10,12) disjoint");
    }

    #[test]
    fn contains_interval_handles_empty() {
        let a = IndexInterval::new(2, 4);
        assert!(a.contains_interval(&IndexInterval::new(9, 9)));
        assert!(a.contains_interval(&IndexInterval::new(2, 4)));
        assert!(!a.contains_interval(&IndexInterval::new(2, 5)));
    }

    #[test]
    fn set_merges_overlapping_and_adjacent() {
        let s = IntervalSet::from_intervals(vec![
            IndexInterval::new(0, 3),
            IndexInterval::new(2, 5),
            IndexInterval::new(5, 6),
            IndexInterval::new(8, 9),
        ]);
        assert_eq!(
            s.as_slice(),
            &[IndexInterval::new(0, 6), IndexInterval::new(8, 9)]
        );
        assert_eq!(s.covered_len(), 7);
    }

    #[test]
    fn set_contains_uses_binary_search() {
        let s = IntervalSet::from_intervals(vec![
            IndexInterval::new(0, 2),
            IndexInterval::new(10, 20),
            IndexInterval::new(30, 31),
        ]);
        assert!(s.contains(0));
        assert!(s.contains(19));
        assert!(s.contains(30));
        assert!(!s.contains(2));
        assert!(!s.contains(25));
        assert!(!s.contains(31));
    }

    #[test]
    fn set_union_intersect_complement() {
        let a =
            IntervalSet::from_intervals(vec![IndexInterval::new(0, 5), IndexInterval::new(10, 15)]);
        let b = IntervalSet::from_intervals(vec![IndexInterval::new(3, 12)]);
        let u = a.union(&b);
        assert_eq!(u.as_slice(), &[IndexInterval::new(0, 15)]);
        let i = a.intersect(&b);
        assert_eq!(
            i.as_slice(),
            &[IndexInterval::new(3, 5), IndexInterval::new(10, 12)]
        );
        let c = a.complement(20);
        assert_eq!(
            c.as_slice(),
            &[IndexInterval::new(5, 10), IndexInterval::new(15, 20)]
        );
        // Complement twice returns the original (within [0, 20)).
        assert_eq!(c.complement(20), a);
    }

    #[test]
    fn complement_of_empty_is_full() {
        let e = IntervalSet::new();
        assert_eq!(e.complement(4).as_slice(), &[IndexInterval::new(0, 4)]);
        assert_eq!(IntervalSet::full(4).complement(4), IntervalSet::new());
    }

    #[test]
    fn complement_clips_beyond_domain() {
        let s = IntervalSet::from_intervals(vec![IndexInterval::new(2, 100)]);
        assert_eq!(s.complement(5).as_slice(), &[IndexInterval::new(0, 2)]);
    }

    #[test]
    fn contains_set_agrees_with_pointwise_inclusion() {
        let cases = [
            (vec![(0, 10)], vec![(2, 5)], true),
            (vec![(0, 10)], vec![(2, 5), (7, 10)], true),
            (vec![(0, 10), (20, 30)], vec![(5, 12)], false),
            (vec![(0, 10), (20, 30)], vec![(2, 4), (25, 26)], true),
            (vec![(0, 10), (20, 30)], vec![(2, 4), (15, 16)], false),
            (vec![(5, 6)], vec![(5, 6)], true),
            (vec![(5, 6)], vec![], true),
            (vec![], vec![(0, 1)], false),
            (vec![], vec![], true),
        ];
        for (a, b, want) in cases {
            let a = IntervalSet::from_intervals(
                a.iter().map(|&(l, h)| IndexInterval::new(l, h)).collect(),
            );
            let b = IntervalSet::from_intervals(
                b.iter().map(|&(l, h)| IndexInterval::new(l, h)).collect(),
            );
            assert_eq!(a.contains_set(&b), want, "{a} ⊇ {b}");
            // Cross-check against a pointwise scan.
            let scan = (0..40).all(|i| !b.contains(i) || a.contains(i));
            assert_eq!(scan, want, "pointwise {a} ⊇ {b}");
        }
    }

    #[test]
    fn collect_from_iterator() {
        let s: IntervalSet = (0..3)
            .map(|k| IndexInterval::new(k * 4, k * 4 + 2))
            .collect();
        assert_eq!(s.iter().count(), 3);
        let mut t = IntervalSet::new();
        t.extend([IndexInterval::new(0, 1), IndexInterval::new(1, 2)]);
        assert_eq!(t.as_slice(), &[IndexInterval::new(0, 2)]);
    }

    #[test]
    fn display_formats() {
        let s =
            IntervalSet::from_intervals(vec![IndexInterval::new(0, 2), IndexInterval::new(5, 6)]);
        assert_eq!(s.to_string(), "{[0, 2), [5, 6)}");
    }
}
