//! Subrange decomposition of an attribute domain against a profile set.
//!
//! Paper §3: "each attribute's domain `D` is divided in, at the most,
//! `(2p-1)` subsets (referred to in the profiles) and an additional
//! subset `D0` which is not referred to in any profile." This module
//! computes exactly that partition: the elementary, non-overlapping
//! subranges induced by all profile interval endpoints, each labelled
//! with the profiles covering it.

use ens_types::{AttrId, Domain, IndexInterval, IntervalSet, Profile, ProfileId, TypesError};
use serde::{Deserialize, Serialize};

use crate::persist::{self, ByteReader, PersistError};

/// One elementary subrange of an attribute's domain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    interval: IndexInterval,
    profiles: Vec<ProfileId>,
}

impl Cell {
    /// The index interval this cell covers.
    #[must_use]
    pub fn interval(&self) -> &IndexInterval {
        &self.interval
    }

    /// Profiles whose (non-don't-care) predicate covers the whole cell,
    /// in ascending id order.
    #[must_use]
    pub fn profiles(&self) -> &[ProfileId] {
        &self.profiles
    }

    /// Whether no profile references this cell (part of `D0`).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.profiles.is_empty()
    }
}

/// The partition of one attribute's domain into elementary subranges.
///
/// # Example
///
/// ```
/// use ens_filter::AttributePartition;
/// use ens_types::{Schema, Domain, Predicate, ProfileSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::builder()
///     .attribute("a2", Domain::int(0, 100))?
///     .build();
/// let mut ps = ProfileSet::new(&schema);
/// ps.insert_with(|b| b.predicate("a2", Predicate::ge(90)))?;
/// ps.insert_with(|b| b.predicate("a2", Predicate::le(5)))?;
/// ps.insert_with(|b| b.predicate("a2", Predicate::ge(80)))?;
///
/// let a2 = schema.attr("a2").ok_or("no attribute a2")?;
/// let part = AttributePartition::build(ps.iter(), a2, schema.attribute(a2).domain())?;
/// // Referenced subranges: [0,5], [80,90), [90,100]  ->  d0 = 75.
/// assert_eq!(part.referenced_cells().count(), 3);
/// assert_eq!(part.zero_len(), 74); // (5, 80) exclusive on the grid
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributePartition {
    domain_size: u64,
    cells: Vec<Cell>,
    /// Profiles that are don't-care on this attribute.
    dont_care: Vec<ProfileId>,
}

impl AttributePartition {
    /// Builds the partition for `attr` from the given profiles.
    ///
    /// Cells are maximal — the paper's "at the most `(2p-1)`" referenced
    /// subsets — without a merge step: lowered interval sets are
    /// normalised (no two of a set's intervals touch), so at every
    /// inner cut some profile's membership changes, and no two adjacent
    /// cells are covered by the same profiles.
    ///
    /// # Errors
    ///
    /// Propagates predicate lowering errors ([`TypesError`]).
    pub fn build<'a, I>(profiles: I, attr: AttrId, domain: &Domain) -> Result<Self, TypesError>
    where
        I: IntoIterator<Item = &'a Profile>,
    {
        let mut lowered = Vec::new();
        for p in profiles {
            let pred = p.predicate(attr);
            let set = (!pred.is_dont_care()).then(|| pred.to_intervals(domain));
            lowered.push((p.id(), set.transpose()?));
        }
        let entries = lowered
            .iter()
            .map(|(id, set)| (*id, set.as_ref().map(IntervalSet::as_slice)));
        Ok(Self::from_lowered(entries, domain.size()))
    }

    /// The partition of one attribute over a domain of size `d`, from
    /// each profile's lowered predicate on it (`None`: don't-care).
    pub(crate) fn from_lowered<'s, I>(entries: I, d: u64) -> Self
    where
        I: Iterator<Item = (ProfileId, Option<&'s [IndexInterval]>)> + Clone,
    {
        let dont_care = entries
            .clone()
            .filter_map(|(id, set)| set.is_none().then_some(id));
        let mut dont_care: Vec<ProfileId> = dont_care.collect();
        dont_care.sort_unstable();
        let mut cells = Cells::default();
        cells.decompose(entries.filter_map(|(id, set)| Some((id, set?))), d, &[]);
        let cells = (0..cells.len()).map(|c| {
            let (interval, profiles) = cells.cell(c);
            let profiles = profiles.to_vec();
            Cell { interval, profiles }
        });
        AttributePartition {
            domain_size: d,
            cells: cells.collect(),
            dont_care,
        }
    }

    /// Domain size `d`.
    #[must_use]
    pub fn domain_size(&self) -> u64 {
        self.domain_size
    }

    /// All cells in ascending order (referenced and zero cells).
    #[must_use]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Cells referenced by at least one profile (the `x_i ∈ W`).
    pub fn referenced_cells(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter().filter(|c| !c.is_zero())
    }

    /// Cells referenced by no profile (the parts of `D0`, ignoring
    /// don't-care profiles).
    pub fn zero_cells(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter().filter(|c| c.is_zero())
    }

    /// Profiles that are don't-care on this attribute.
    #[must_use]
    pub fn dont_care_profiles(&self) -> &[ProfileId] {
        &self.dont_care
    }

    /// The paper's `d0`: the number of domain values on which no profile
    /// can match. A single don't-care profile makes `d0 = 0`, because it
    /// accepts every value (cf. Example 3, where `a3` has `d0 = 0`
    /// despite two range predicates, since P1/P2/P5 are don't-care).
    #[must_use]
    pub fn zero_len(&self) -> u64 {
        if !self.dont_care.is_empty() {
            return 0;
        }
        self.zero_cells().map(|c| c.interval.len()).sum()
    }

    /// `d0` of the *referenced structure only*, ignoring don't-care
    /// profiles — the measure of how much of the domain the tree edges
    /// leave uncovered.
    #[must_use]
    pub fn uncovered_len(&self) -> u64 {
        self.zero_cells().map(|c| c.interval.len()).sum()
    }
}

/// An elementary decomposition of one attribute's domain in buffers
/// kept from one decomposition to the next: the cut points, and the
/// profiles covering each cell as CSR.
#[derive(Debug, Default)]
pub(crate) struct Cells {
    /// Cell `c` is `[cuts[c], cuts[c + 1])`.
    cuts: Vec<u64>,
    /// Each interval's cells `first..end`, and its profile.
    spans: Vec<(u32, u32, ProfileId)>,
    /// Cell `c`'s profiles are `members[off[c]..off[c + 1]]`; `fill` is
    /// where each cell's next one goes while they are placed.
    off: Vec<u32>,
    fill: Vec<u32>,
    members: Vec<ProfileId>,
}

impl Cells {
    /// Cuts `[0, d)` at `extra` and at every endpoint of the `specified`
    /// profiles' intervals, and lists in each cell, ascending, the
    /// profiles covering it. An interval lists its profile in the cells
    /// from its first cut up to its last, so the cost is what the lists
    /// hold, not cells × profiles.
    pub(crate) fn decompose<'s, I>(&mut self, specified: I, d: u64, extra: &[u64])
    where
        I: Iterator<Item = (ProfileId, &'s [IndexInterval])> + Clone,
    {
        self.cuts.clear();
        self.cuts.extend_from_slice(&[0, d]);
        self.cuts.extend_from_slice(extra);
        for (_, ivs) in specified.clone() {
            self.cuts
                .extend(ivs.iter().flat_map(|iv| [iv.lo(), iv.hi()]));
        }
        self.cuts.retain(|c| *c <= d);
        self.cuts.sort_unstable();
        self.cuts.dedup();
        let n = self.len();
        self.spans.clear();
        self.off.clear();
        self.off.resize(n + 1, 0);
        for (id, ivs) in specified {
            for iv in ivs {
                let first = self.cuts.partition_point(|&c| c < iv.lo());
                let end = self.cuts.partition_point(|&c| c < iv.hi()).min(n);
                if first < end {
                    self.spans.push((first as u32, end as u32, id));
                    self.off[first + 1..=end].iter_mut().for_each(|k| *k += 1);
                }
            }
        }
        for c in 0..n {
            self.off[c + 1] += self.off[c];
        }
        self.members.clear();
        self.members.resize(self.off[n] as usize, ProfileId::new(0));
        self.fill.clear();
        self.fill.extend_from_slice(&self.off[..n]);
        for &(first, end, id) in &self.spans {
            for at in &mut self.fill[first as usize..end as usize] {
                self.members[*at as usize] = id;
                *at += 1;
            }
        }
        for c in 0..n {
            self.members[self.off[c] as usize..self.off[c + 1] as usize].sort_unstable();
        }
    }

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        self.cuts.len().saturating_sub(1)
    }

    /// Cell `c` and the profiles covering it, ascending.
    pub(crate) fn cell(&self, c: usize) -> (IndexInterval, &[ProfileId]) {
        let members = &self.members[self.off[c] as usize..self.off[c + 1] as usize];
        (IndexInterval::new(self.cuts[c], self.cuts[c + 1]), members)
    }
}

impl AttributePartition {
    /// Decodes a partition in the form older images wrote (this build
    /// writes none: a tree keeps no partitions): the attribute, the
    /// domain size, the cells as widths from the first bound (they tile
    /// the domain), each cell's list diff-coded against its left
    /// neighbour, and the don't-care ids.
    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        r.u32()?; // the attribute
        let domain_size = r.u64()?;
        let n_cells = r.seq_len(3)?;
        let mut bound = r.vu64()?;
        let mut prev: Vec<ProfileId> = Vec::new();
        let mut cells = Vec::with_capacity(n_cells);
        for _ in 0..n_cells {
            let hi = bound
                .checked_add(r.vu64()?)
                .ok_or_else(|| PersistError::new("cell interval overflows u64"))?;
            let interval = IndexInterval::new(bound, hi);
            bound = hi;
            cells.push(Cell {
                interval,
                profiles: persist::read_id_diff(r, &mut prev)?,
            });
        }
        let dont_care = r
            .vec_u32_packed()?
            .into_iter()
            .map(ProfileId::new)
            .collect();
        Ok(AttributePartition {
            domain_size,
            cells,
            dont_care,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_types::{Predicate, ProfileSet, Schema};

    /// Example 1 of the paper.
    fn example1() -> (Schema, ProfileSet) {
        let schema = Schema::builder()
            .attribute("a1", Domain::int(-30, 50))
            .unwrap()
            .attribute("a2", Domain::int(0, 100))
            .unwrap()
            .attribute("a3", Domain::int(1, 100))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::ge(35))?
                .predicate("a2", Predicate::ge(90))
        })
        .unwrap();
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::ge(30))?
                .predicate("a2", Predicate::ge(90))
        })
        .unwrap();
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::ge(30))?
                .predicate("a2", Predicate::ge(90))?
                .predicate("a3", Predicate::between(35, 50))
        })
        .unwrap();
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::between(-30, -20))?
                .predicate("a2", Predicate::le(5))?
                .predicate("a3", Predicate::between(40, 100))
        })
        .unwrap();
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::ge(30))?
                .predicate("a2", Predicate::ge(80))
        })
        .unwrap();
        (schema, ps)
    }

    fn partition(attr: &str) -> AttributePartition {
        let (schema, ps) = example1();
        let id = schema.attr(attr).unwrap();
        AttributePartition::build(ps.iter(), id, schema.attribute(id).domain()).unwrap()
    }

    #[test]
    fn example1_a1_subranges() {
        // Referenced: [-30,-20] {P4}, [30,35) {P2,P3,P5}, [35,50] {P1,P2,P3,P5}.
        let part = partition("a1");
        let refs: Vec<(u64, u64, usize)> = part
            .referenced_cells()
            .map(|c| (c.interval().lo(), c.interval().hi(), c.profiles().len()))
            .collect();
        assert_eq!(refs, vec![(0, 11, 1), (60, 65, 3), (65, 81, 4)]);
        // Paper Example 3: d1 = 80 (we count the integer grid: 81 points,
        // the paper uses interval length 80), d0 = 50 (grid: 49 interior
        // points of (-20, 30)).
        assert_eq!(part.domain_size(), 81);
        assert_eq!(part.zero_len(), 49);
        assert!(part.dont_care_profiles().is_empty());
    }

    #[test]
    fn example1_a2_subranges() {
        // Referenced: [0,5] {P4}, [80,90) {P5}, [90,100] {P1,P2,P3,P5}.
        let part = partition("a2");
        let refs: Vec<(u64, u64, usize)> = part
            .referenced_cells()
            .map(|c| (c.interval().lo(), c.interval().hi(), c.profiles().len()))
            .collect();
        assert_eq!(refs, vec![(0, 6, 1), (80, 90, 1), (90, 101, 4)]);
        assert_eq!(part.zero_len(), 74, "grid points 6..=79");
    }

    #[test]
    fn example1_a3_zero_subdomain_vanishes_with_dont_care() {
        // P1, P2, P5 are don't-care on a3, so d0 = 0 (paper Example 3).
        let part = partition("a3");
        assert_eq!(part.zero_len(), 0);
        assert_eq!(part.dont_care_profiles().len(), 3);
        // The referenced structure still splits [35,50] and [40,100].
        let refs: Vec<(u64, u64)> = part
            .referenced_cells()
            .map(|c| (c.interval().lo(), c.interval().hi()))
            .collect();
        // a3 domain [1,100] -> 35 maps to 34, 40 -> 39, 50 -> 49 (hi 50),
        // 100 -> 99 (hi 100).
        assert_eq!(refs, vec![(34, 39), (39, 50), (50, 100)]);
        assert!(part.uncovered_len() > 0);
    }

    #[test]
    fn cells_tile_the_domain() {
        for attr in ["a1", "a2", "a3"] {
            let part = partition(attr);
            let mut cursor = 0;
            for c in part.cells() {
                assert_eq!(c.interval().lo(), cursor, "{attr}: contiguous");
                cursor = c.interval().hi();
            }
            assert_eq!(cursor, part.domain_size(), "{attr}: full tiling");
        }
    }

    #[test]
    fn at_most_2p_minus_1_referenced_cells() {
        let (schema, ps) = example1();
        for (id, a) in schema.iter() {
            let part = AttributePartition::build(ps.iter(), id, a.domain()).unwrap();
            let p = ps.len();
            assert!(
                part.referenced_cells().count() < 2 * p,
                "attribute {} exceeds 2p-1",
                a.name()
            );
        }
    }

    #[test]
    fn equality_profiles_produce_point_cells() {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 9))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        for v in [3, 7, 3] {
            ps.insert_with(|b| b.predicate("x", Predicate::eq(v)))
                .unwrap();
        }
        let id = schema.attr("x").unwrap();
        let part = AttributePartition::build(ps.iter(), id, schema.attribute(id).domain()).unwrap();
        let refs: Vec<(u64, usize)> = part
            .referenced_cells()
            .map(|c| (c.interval().lo(), c.profiles().len()))
            .collect();
        assert_eq!(refs, vec![(3, 2), (7, 1)]);
        assert_eq!(part.zero_len(), 8);
    }

    #[test]
    fn all_dont_care_yields_single_zero_cell_with_no_references() {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 9))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        ps.insert_with(|b| Ok(b)).unwrap();
        let id = schema.attr("x").unwrap();
        let part = AttributePartition::build(ps.iter(), id, schema.attribute(id).domain()).unwrap();
        assert_eq!(part.referenced_cells().count(), 0);
        assert_eq!(part.zero_len(), 0, "don't-care covers everything");
        assert_eq!(part.uncovered_len(), 10);
        assert_eq!(part.dont_care_profiles().len(), 1);
    }

    #[test]
    fn overlapping_ranges_split_correctly() {
        // Two overlapping ranges produce three referenced cells (2p-1 = 3).
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 99))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        ps.insert_with(|b| b.predicate("x", Predicate::between(10, 50)))
            .unwrap();
        ps.insert_with(|b| b.predicate("x", Predicate::between(30, 70)))
            .unwrap();
        let id = schema.attr("x").unwrap();
        let part = AttributePartition::build(ps.iter(), id, schema.attribute(id).domain()).unwrap();
        let refs: Vec<(u64, u64, usize)> = part
            .referenced_cells()
            .map(|c| (c.interval().lo(), c.interval().hi(), c.profiles().len()))
            .collect();
        assert_eq!(refs, vec![(10, 30, 1), (30, 51, 2), (51, 71, 1)]);
    }
}
