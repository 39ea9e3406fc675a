//! Profile containment (covering) analysis.
//!
//! In the classic ENS literature (SIENA's covering relations, REBECA's
//! subscription merging) a profile `a` **covers** `b` when every event
//! matching `b` also matches `a` — e.g. `AAPL > 100` covers
//! `AAPL > 150`. A production service with millions of subscribers has
//! huge populations of near-duplicate and mutually-covering profiles,
//! and exploiting containment is what makes compiled broker state
//! sublinear in subscribers: only the **minimal antichain** of covering
//! representatives needs to be compiled; covered profiles are delivered
//! through a cheap expansion map at match time.
//!
//! Two pieces live here:
//!
//! * [`covers`] — the exact containment relation on profiles, decided
//!   attribute-wise on the lowered [`IntervalSet`]s: `a` covers `b` iff
//!   for every attribute either `a` is don't-care, or `b` is specified
//!   with `intervals(b) ⊆ intervals(a)` (a missing event attribute
//!   satisfies only don't-care, so a specified `a` over a don't-care
//!   `b` never covers). An unsatisfiable `b` is vacuously covered.
//! * [`CoverSet`] — antichain maintenance with an **attribute-keyed
//!   signature index**: exact duplicates resolve through one hash of
//!   the full lowered signature, and single-attribute weakenings (the
//!   REBECA "perfect merge" class — identical on all attributes but
//!   one, weaker on that one) resolve through one hash per attribute of
//!   the signature with that attribute wildcarded. Both are O(1)
//!   expected per probe — no O(n) pairwise scan — at the price of not
//!   detecting covers that weaken several attributes at once; missing a
//!   cover is always safe (the profile is simply compiled as its own
//!   representative). A bulk pass also decides the expansion map; a
//!   compile hands that to its plan, and what is kept between compiles
//!   — and rebuilt at recovery — is the representative index alone.
//!
//! Every covered profile carries a [`Residual`]: the attributes on
//! which it is *strictly stronger* than its representative, lowered to
//! index sets. At delivery time a match of the representative expands
//! to the covered profile only if the event also passes the residual —
//! so expansion is exact, and exact duplicates (empty residual) are
//! delivered for free.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::BuildHasher;

use crate::interval::contains_slice;
use crate::{AttrId, IndexInterval, IntervalSet, LoweredTable, Profile, Schema, TypesError};

/// Returns whether `a` covers `b`: every event matching `b` matches `a`.
///
/// Decided attribute-wise on the lowered interval sets (see the module
/// docs for the exact rule, including the `(*)`/missing-attribute and
/// unsatisfiability cases). This is the reference relation the
/// [`CoverSet`] detection classes are tested against.
///
/// # Errors
///
/// Propagates predicate lowering errors.
pub fn covers(schema: &Schema, a: &Profile, b: &Profile) -> Result<bool, TypesError> {
    let t = LoweredTable::lower(schema, [a, b])?;
    let pairs = || (0..t.width()).map(|k| (t.get(0, k), t.get(1, k)));
    // An unsatisfiable `b` matches no event: vacuously covered.
    if pairs().any(|(_, y)| y.is_some_and(<[_]>::is_empty)) {
        return Ok(true);
    }
    Ok(pairs().all(|pair| match pair {
        (None, _) => true,
        // An event missing this attribute matches `b` but not `a`.
        (Some(_), None) => false,
        (Some(x), Some(y)) => contains_slice(x, y),
    }))
}

/// The canonical byte signature of `profile` under `schema`: the lowered
/// per-attribute interval sets serialised in schema order. Two profiles
/// share a signature iff they lower to the same index sets — i.e. they
/// match exactly the same events — which makes the signature a stable
/// identity key for forwarded-interest ledgers (a re-learned profile
/// maps to the same key regardless of predicate spelling).
///
/// # Errors
///
/// Propagates predicate lowering errors.
pub fn profile_signature(schema: &Schema, profile: &Profile) -> Result<Vec<u8>, TypesError> {
    let t = LoweredTable::lower(schema, [profile])?;
    let mut out = Vec::with_capacity(t.width() * 8);
    for k in 0..t.width() {
        match t.get(0, k) {
            None => out.push(0),
            Some(ivs) => {
                out.push(1);
                out.extend_from_slice(&(ivs.len() as u32).to_le_bytes());
                for iv in ivs {
                    out.extend_from_slice(&iv.lo().to_le_bytes());
                    out.extend_from_slice(&iv.hi().to_le_bytes());
                }
            }
        }
    }
    Ok(out)
}

/// One delivery-time residual check of a covered profile: the event
/// must carry `attr` with an index inside `allowed` (the covered
/// profile's own lowered predicate on that attribute).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Residual {
    /// The attribute the covered profile is strictly stronger on.
    pub attr: AttrId,
    /// The covered profile's lowered index set on that attribute.
    pub allowed: IntervalSet,
}

/// Outcome of probing a [`CoverSet`] with a new profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverOutcome {
    /// Not covered by any known representative: compile it.
    Rep,
    /// Covered by the representative at slot `rep`; deliver through the
    /// expansion map, gated by `residual`.
    Covered {
        /// Slot of the covering representative.
        rep: u32,
        /// Residual checks (empty for an exact duplicate).
        residual: Vec<Residual>,
    },
}

/// The end of a chain in [`CoverSet`]'s indexes.
const NONE: u32 = u32::MAX;

/// The minimal-antichain tracker: which profiles of a population are
/// covering representatives, which are covered by whom, and the
/// residual each covered profile carries.
///
/// Slots are caller-assigned dense `u32` positions (base indices in the
/// broker, [`crate::ProfileSet`] ids in a bulk compile). A bulk
/// [`CoverSet::build_bulk`] pass (profiles sorted general-first so
/// representatives are seen before the profiles they cover) decides
/// both halves: the **representative index** and the **expansion map**
/// (covered slot → representative, residual). The expansion map is
/// what a compile hands to its plan; once it has,
/// [`CoverSet::into_index`] drops it, and the set the broker keeps is
/// the representative index alone — probed read-only via
/// [`CoverSet::probe`] until the next compile. Crash recovery rebuilds that index from the
/// representatives alone ([`CoverSet::from_parts`] with no children):
/// signatures are re-hashed, containment is never re-derived, and the
/// expansion map stays in the restored plan.
///
/// The representatives' lowered rows are kept in one [`LoweredTable`].
/// Both indexes hash rows where they lie and confirm a hit against the
/// table: no signature is ever built.
///
/// # Example
///
/// ```
/// use ens_types::{CoverOutcome, CoverSet, Domain, Predicate, ProfileSet, Schema};
/// # fn main() -> Result<(), ens_types::TypesError> {
/// let schema = Schema::builder()
///     .attribute("price", Domain::int(0, 1000))?
///     .build();
/// let mut ps = ProfileSet::new(&schema);
/// ps.insert_with(|b| b.predicate("price", Predicate::gt(100)))?;
/// ps.insert_with(|b| b.predicate("price", Predicate::gt(150)))?; // covered
/// ps.insert_with(|b| b.predicate("price", Predicate::gt(100)))?; // duplicate
/// let cover = CoverSet::build_bulk(
///     &schema,
///     ps.iter().map(|p| (p.id().index() as u32, p)),
/// )?;
/// assert_eq!(cover.rep_count(), 1);
/// assert_eq!(cover.covered_count(), 2);
/// assert_eq!(cover.cover_of(2).map(|(rep, _)| rep), Some(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CoverSet {
    schema: Schema,
    /// The representatives' lowered rows, in the order they were indexed.
    reps: LoweredTable,
    /// Row of `reps` → its representative slot.
    rep_slot: Vec<u32>,
    /// Hash of a whole row → the last row indexed with it (exact
    /// duplicates); `full_prev[row]` is the row before it with that
    /// hash. A row equal to one indexed already is not indexed again.
    full: HashMap<u64, u32>,
    full_prev: Vec<u32>,
    /// Hash of a row with attribute `j` wildcarded → the first and last
    /// entry `row * width + j` indexed with it (single-attribute
    /// weakenings); `attr_next[entry]` is the next one with that hash.
    by_attr: HashMap<u64, (u32, u32)>,
    attr_next: Vec<u32>,
    /// Representative slots, ascending — position in this list is the
    /// dense compiled id a covering-pruned compilation assigns.
    rep_sorted: Vec<u32>,
    /// The expansion map: `(covered slot, representative slot,
    /// residual)`, ascending by covered slot. Empty in a set that is an
    /// index only ([`CoverSet::into_index`]).
    children: Vec<(u32, u32, Vec<Residual>)>,
}

impl CoverSet {
    /// Creates an empty cover set over `schema`.
    #[must_use]
    pub fn new(schema: &Schema) -> Self {
        CoverSet {
            schema: schema.clone(),
            reps: LoweredTable::new(schema),
            rep_slot: Vec::new(),
            full: HashMap::new(),
            full_prev: Vec::new(),
            by_attr: HashMap::new(),
            attr_next: Vec::new(),
            rep_sorted: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builds the antichain over a whole population in one containment
    /// pass: profiles are lowered once, sorted general-first (fewer
    /// specified attributes, then wider index sets), and inserted in
    /// that order so every detectable cover finds its representative
    /// already indexed.
    ///
    /// # Errors
    ///
    /// Propagates predicate lowering errors.
    pub fn build_bulk<'a, I>(schema: &Schema, profiles: I) -> Result<Self, TypesError>
    where
        I: IntoIterator<Item = (u32, &'a Profile)>,
    {
        let (slots, profiles): (Vec<u32>, Vec<&Profile>) = profiles.into_iter().unzip();
        let table = LoweredTable::lower(schema, profiles)?;
        Ok(Self::bulk(schema, &table, &slots, true))
    }

    /// [`CoverSet::build_bulk`] over a population lowered already, the
    /// profile in row `r` of `table` at slot `r`.
    #[must_use]
    pub fn build_lowered(schema: &Schema, table: &LoweredTable) -> Self {
        let slots: Vec<u32> = (0..table.rows() as u32).collect();
        Self::bulk(schema, table, &slots, true)
    }

    /// Indexes row `r` of `table` at slot `slots[r]`, general-first:
    /// ascending count of specified attributes, then descending total
    /// covered length (wider = weaker), then slot for determinism. If
    /// `a` covers `b` then `a` specifies a subset of `b`'s attributes
    /// with supersets per attribute, so `a` sorts at or before `b`; ties
    /// are exact duplicates, where either order yields a valid
    /// antichain. Each row is a representative or, `with_children`, a
    /// child of the first representative indexed that covers it.
    fn bulk(schema: &Schema, table: &LoweredTable, slots: &[u32], with_children: bool) -> Self {
        let mut order: Vec<(usize, std::cmp::Reverse<u64>, u32, usize)> = (0..slots.len())
            .map(|row| {
                let sets = (0..table.width()).filter_map(|k| table.get(row, k));
                let (mut specified, mut len) = (0, 0);
                for ivs in sets {
                    specified += 1;
                    len += ivs.iter().map(IndexInterval::len).sum::<u64>();
                }
                (specified, std::cmp::Reverse(len), slots[row], row)
            })
            .collect();
        order.sort_unstable();
        let mut out = CoverSet::new(schema);
        for (_, _, slot, row) in order {
            match with_children.then(|| out.find_cover(table, row)).flatten() {
                Some((rep, residual)) => out.children.push((slot, rep, residual)),
                None => out.index_rep(table, row, slot),
            }
        }
        out.rep_sorted.sort_unstable();
        out.children.sort_unstable_by_key(|&(child, _, _)| child);
        out
    }

    /// Rebuilds a cover set from its parts — the representatives and
    /// the `(child, rep, residual)` triples of an expansion map —
    /// without re-deriving any containment: representatives are
    /// re-indexed (pure hashing) in the order a bulk pass over their
    /// population indexed them, so a probe finds the representative it
    /// found before, and the triples are taken verbatim. Crash recovery
    /// passes no triples: the expansion map lives in the restored plan.
    ///
    /// # Errors
    ///
    /// Propagates predicate lowering errors; fails if a child references
    /// an unknown representative.
    pub fn from_parts<'a, R, C>(schema: &Schema, reps: R, children: C) -> Result<Self, TypesError>
    where
        R: IntoIterator<Item = (u32, &'a Profile)>,
        C: IntoIterator<Item = (u32, u32, Vec<Residual>)>,
    {
        let (slots, reps): (Vec<u32>, Vec<&Profile>) = reps.into_iter().unzip();
        let table = LoweredTable::lower(schema, reps)?;
        let mut out = Self::bulk(schema, &table, &slots, false);
        for (child, rep, residual) in children {
            if out.rep_sorted.binary_search(&rep).is_err() {
                return Err(TypesError::UnknownAttribute(format!(
                    "cover child {child} references unknown representative {rep}"
                )));
            }
            out.children.push((child, rep, residual));
        }
        out.children.sort_unstable_by_key(|&(child, _, _)| child);
        Ok(out)
    }

    /// The representative index alone: the expansion map dropped, once
    /// a compile has handed it to its plan. What a broker keeps between
    /// compiles — [`CoverSet::probe`] and [`CoverSet::compiled_index_of`]
    /// read nothing else.
    #[must_use]
    pub fn into_index(mut self) -> Self {
        self.children = Vec::new();
        self
    }

    /// Probes whether `profile` is covered by a known representative,
    /// without mutating the set — the incremental (overlay) subscribe
    /// path. Detection classes: exact duplicate (one hash of the full
    /// signature) and single-attribute weakening (one hash per
    /// specified attribute); O(1) expected per probe.
    ///
    /// # Errors
    ///
    /// Propagates predicate lowering errors.
    pub fn probe(&self, profile: &Profile) -> Result<CoverOutcome, TypesError> {
        let probe = LoweredTable::lower(&self.schema, [profile])?;
        Ok(match self.find_cover(&probe, 0) {
            Some((rep, residual)) => CoverOutcome::Covered { rep, residual },
            None => CoverOutcome::Rep,
        })
    }

    /// Number of covering representatives.
    #[must_use]
    pub fn rep_count(&self) -> usize {
        self.rep_sorted.len()
    }

    /// Number of covered (non-compiled) profiles in the expansion map.
    #[must_use]
    pub fn covered_count(&self) -> usize {
        self.children.len()
    }

    /// Representative slots in ascending order. Position in this slice
    /// is the dense compiled id a covering-pruned compilation assigns.
    #[must_use]
    pub fn rep_slots(&self) -> &[u32] {
        &self.rep_sorted
    }

    /// The dense compiled id of representative `slot`, if it is one.
    #[must_use]
    pub fn compiled_index_of(&self, slot: u32) -> Option<u32> {
        let k = self.rep_sorted.partition_point(|&s| s < slot);
        (self.rep_sorted.get(k) == Some(&slot)).then_some(k as u32)
    }

    /// The representative covering `slot` and its residual, if `slot`
    /// is in the expansion map.
    #[must_use]
    pub fn cover_of(&self, slot: u32) -> Option<(u32, &[Residual])> {
        let k = self.children.partition_point(|c| c.0 < slot);
        let (child, rep, residual) = self.children.get(k)?;
        (*child == slot).then_some((*rep, residual.as_slice()))
    }

    /// The expansion map's `(covered slot, representative, residual)`
    /// entries, ascending by covered slot.
    pub fn children_sorted(&self) -> impl Iterator<Item = (u32, u32, &[Residual])> {
        let children = self.children.iter();
        children.map(|(child, rep, residual)| (*child, *rep, residual.as_slice()))
    }

    /// The representative covering row `row` of `probe`, and the
    /// residual: an exact duplicate, else the first representative
    /// indexed that is weaker on one attribute and equal on the rest.
    fn find_cover(&self, probe: &LoweredTable, row: usize) -> Option<(u32, Vec<Residual>)> {
        if let Some(rep) = self.duplicate_of(probe, row) {
            return Some((self.rep_slot[rep], Vec::new()));
        }
        for j in 0..probe.width() {
            // A representative strictly weaker on a don't-care
            // attribute would have to be don't-care too — and then the
            // full signatures would have matched already.
            let Some(set) = probe.get(row, j) else {
                continue;
            };
            for cand in self.weakenings(probe, row, j) {
                if self
                    .reps
                    .get(cand, j)
                    .is_none_or(|r| contains_slice(r, set))
                {
                    let residual = vec![Residual {
                        attr: AttrId::new(j as u32),
                        allowed: IntervalSet::from_normalized(set.to_vec()),
                    }];
                    return Some((self.rep_slot[cand], residual));
                }
            }
        }
        None
    }

    /// Hash of row `row` of `table`, attribute `skip` wildcarded.
    fn hash(&self, table: &LoweredTable, row: usize, skip: Option<usize>) -> u64 {
        let mut state = self.full.hasher().build_hasher();
        std::hash::Hash::hash(&skip, &mut state);
        table.hash_row(row, skip, &mut state);
        std::hash::Hasher::finish(&state)
    }

    /// The representative row equal to row `row` of `probe`.
    fn duplicate_of(&self, probe: &LoweredTable, row: usize) -> Option<usize> {
        let hash = self.hash(probe, row, None);
        let mut r = self.full.get(&hash).copied().unwrap_or(NONE);
        while r != NONE {
            if self.reps.rows_agree(r as usize, probe, row, None) {
                return Some(r as usize);
            }
            r = self.full_prev[r as usize];
        }
        None
    }

    /// The representative rows that agree with row `row` of `probe` on
    /// every attribute but `j`, in the order they were indexed.
    fn weakenings<'a>(
        &'a self,
        probe: &'a LoweredTable,
        row: usize,
        j: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        let width = self.reps.width();
        let hash = self.hash(probe, row, Some(j));
        let head = self.by_attr.get(&hash).map_or(NONE, |&(first, _)| first);
        let next = |&e: &u32| Some(self.attr_next[e as usize]).filter(|&n| n != NONE);
        std::iter::successors(Some(head).filter(|&e| e != NONE), next)
            .map(|e| e as usize)
            .filter(move |&e| e % width == j)
            .map(move |e| e / width)
            .filter(move |&cand| self.reps.rows_agree(cand, probe, row, Some(j)))
    }

    /// Indexes row `row` of `table` as the representative at `slot`.
    fn index_rep(&mut self, table: &LoweredTable, row: usize, slot: u32) {
        let prev = match self.duplicate_of(table, row) {
            Some(_) => NONE,
            None => {
                let hash = self.hash(table, row, None);
                let r = self.reps.rows() as u32;
                self.full.insert(hash, r).unwrap_or(NONE)
            }
        };
        let r = self.reps.rows();
        self.full_prev.push(prev);
        for j in 0..table.width() {
            let entry = (r * table.width() + j) as u32;
            self.attr_next.push(NONE);
            match self.by_attr.entry(self.hash(table, row, Some(j))) {
                Entry::Occupied(mut o) => {
                    let (_, last) = o.get_mut();
                    self.attr_next[*last as usize] = entry;
                    *last = entry;
                }
                Entry::Vacant(v) => {
                    v.insert((entry, entry));
                }
            }
        }
        self.reps.push_row(table, row);
        self.rep_slot.push(slot);
        self.rep_sorted.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, Event, Predicate, ProfileId, ProfileSet, Value};

    fn schema() -> Schema {
        Schema::builder()
            .attribute("x", Domain::int(0, 9))
            .unwrap()
            .attribute("y", Domain::int(0, 4))
            .unwrap()
            .attribute("kind", Domain::categorical(["a", "b", "c"]).unwrap())
            .unwrap()
            .build()
    }

    fn profile(schema: &Schema, preds: Vec<Predicate>) -> Profile {
        Profile::from_predicates(schema, ProfileId::new(0), preds).unwrap()
    }

    /// Brute-force implication oracle: every event (including partial
    /// ones) matching `b` matches `a`.
    fn implies(schema: &Schema, a: &Profile, b: &Profile) -> bool {
        let sizes: Vec<u64> = schema.iter().map(|(_, at)| at.domain().size()).collect();
        let mut stack = vec![Vec::<Option<u64>>::new()];
        while let Some(prefix) = stack.pop() {
            if prefix.len() < sizes.len() {
                let j = prefix.len();
                for choice in std::iter::once(None).chain((0..sizes[j]).map(Some)) {
                    let mut next = prefix.clone();
                    next.push(choice);
                    stack.push(next);
                }
                continue;
            }
            let mut b_ev = Event::builder(schema);
            for (j, choice) in prefix.iter().enumerate() {
                if let Some(i) = choice {
                    let id = AttrId::new(j as u32);
                    let v: Value = schema.attribute(id).domain().value_at(*i);
                    b_ev = b_ev.value_by_id(id, v).unwrap();
                }
            }
            let e = b_ev.build();
            if b.matches(schema, &e).unwrap() && !a.matches(schema, &e).unwrap() {
                return false;
            }
        }
        true
    }

    #[test]
    fn covers_basic_directions() {
        let s = schema();
        let wide = profile(
            &s,
            vec![Predicate::ge(2), Predicate::DontCare, Predicate::DontCare],
        );
        let narrow = profile(
            &s,
            vec![Predicate::ge(5), Predicate::DontCare, Predicate::DontCare],
        );
        assert!(covers(&s, &wide, &narrow).unwrap());
        assert!(!covers(&s, &narrow, &wide).unwrap());
        assert!(covers(&s, &wide, &wide).unwrap());
        // Specified over don't-care never covers: the missing-attribute
        // event matches the don't-care profile only.
        let dc = profile(
            &s,
            vec![
                Predicate::DontCare,
                Predicate::DontCare,
                Predicate::DontCare,
            ],
        );
        assert!(covers(&s, &dc, &wide).unwrap());
        assert!(!covers(&s, &wide, &dc).unwrap());
    }

    #[test]
    fn covers_extra_attribute_is_stronger() {
        let s = schema();
        let a = profile(
            &s,
            vec![Predicate::ge(2), Predicate::DontCare, Predicate::DontCare],
        );
        let b = profile(
            &s,
            vec![Predicate::ge(2), Predicate::le(3), Predicate::DontCare],
        );
        assert!(covers(&s, &a, &b).unwrap());
        assert!(!covers(&s, &b, &a).unwrap());
    }

    #[test]
    fn covers_unsatisfiable_is_vacuous() {
        let s = schema();
        let unsat = profile(
            &s,
            vec![
                Predicate::In(vec![]),
                Predicate::DontCare,
                Predicate::DontCare,
            ],
        );
        let any = profile(
            &s,
            vec![Predicate::eq(3), Predicate::DontCare, Predicate::DontCare],
        );
        assert!(covers(&s, &any, &unsat).unwrap());
        assert!(!covers(&s, &unsat, &any).unwrap());
    }

    #[test]
    fn covers_agrees_with_brute_force_oracle() {
        // Deterministic sweep over a predicate menu covering don't-care,
        // points, ranges, sets and complements on all three domain
        // kinds; the oracle enumerates every (partial) event.
        let s = schema();
        let xs = [
            Predicate::DontCare,
            Predicate::eq(3),
            Predicate::ge(2),
            Predicate::ge(5),
            Predicate::between(2, 7),
            Predicate::in_set([1i64, 3, 5]),
            Predicate::ne(3),
        ];
        let ys = [Predicate::DontCare, Predicate::le(2), Predicate::eq(1)];
        let ks = [
            Predicate::DontCare,
            Predicate::eq("a"),
            Predicate::in_set(["a", "b"]),
        ];
        let mut profiles = Vec::new();
        for x in &xs {
            for y in &ys {
                for k in &ks {
                    profiles.push(profile(&s, vec![x.clone(), y.clone(), k.clone()]));
                }
            }
        }
        let mut checked = 0;
        for a in &profiles {
            for b in &profiles {
                let got = covers(&s, a, b).unwrap();
                let want = implies(&s, a, b);
                assert_eq!(got, want, "covers({}, {})", a.display(&s), b.display(&s));
                checked += 1;
            }
        }
        assert!(checked >= 63 * 63);
    }

    #[test]
    fn bulk_build_finds_duplicates_and_single_attr_weakenings() {
        let s = schema();
        let mut ps = ProfileSet::new(&s);
        // 0: the general representative.
        ps.insert_with(|b| b.predicate("x", Predicate::ge(2)))
            .unwrap();
        // 1: exact duplicate.
        ps.insert_with(|b| b.predicate("x", Predicate::ge(2)))
            .unwrap();
        // 2: strictly narrower on x.
        ps.insert_with(|b| b.predicate("x", Predicate::ge(7)))
            .unwrap();
        // 3: extra attribute specified.
        ps.insert_with(|b| {
            b.predicate("x", Predicate::ge(2))?
                .predicate("y", Predicate::le(1))
        })
        .unwrap();
        // 4: unrelated representative.
        ps.insert_with(|b| b.predicate("kind", Predicate::eq("b")))
            .unwrap();
        let cover =
            CoverSet::build_bulk(&s, ps.iter().map(|p| (p.id().index() as u32, p))).unwrap();
        assert_eq!(cover.rep_slots(), &[0, 4]);
        assert_eq!(cover.covered_count(), 3);
        let (rep, residual) = cover.cover_of(1).unwrap();
        assert_eq!((rep, residual.len()), (0, 0), "duplicate: free delivery");
        let (rep, residual) = cover.cover_of(2).unwrap();
        assert_eq!(rep, 0);
        assert_eq!(residual.len(), 1);
        assert_eq!(residual[0].attr, AttrId::new(0));
        let (rep, residual) = cover.cover_of(3).unwrap();
        assert_eq!(rep, 0);
        assert_eq!(residual[0].attr, AttrId::new(1));
        assert_eq!(cover.compiled_index_of(0), Some(0));
        assert_eq!(cover.compiled_index_of(4), Some(1));
        assert_eq!(cover.compiled_index_of(2), None);
    }

    #[test]
    fn bulk_build_is_order_independent_for_detected_classes() {
        let s = schema();
        let wide = profile(
            &s,
            vec![Predicate::ge(2), Predicate::DontCare, Predicate::DontCare],
        );
        let narrow = profile(
            &s,
            vec![Predicate::ge(7), Predicate::DontCare, Predicate::DontCare],
        );
        // Narrow first: the general-first sort must still make `wide`
        // the representative.
        let cover = CoverSet::build_bulk(&s, [(5u32, &narrow), (9u32, &wide)]).unwrap();
        assert_eq!(cover.rep_slots(), &[9]);
        assert_eq!(cover.cover_of(5).unwrap().0, 9);
    }

    #[test]
    fn probe_finds_duplicates_and_children() {
        let s = schema();
        let mut ps = ProfileSet::new(&s);
        ps.insert_with(|b| b.predicate("x", Predicate::ge(5)))
            .unwrap();
        let cover =
            CoverSet::build_bulk(&s, ps.iter().map(|p| (p.id().index() as u32, p))).unwrap();
        // Covered probe.
        let narrower = profile(
            &s,
            vec![Predicate::ge(8), Predicate::DontCare, Predicate::DontCare],
        );
        match cover.probe(&narrower).unwrap() {
            CoverOutcome::Covered { rep, residual } => {
                assert_eq!(rep, 0);
                assert_eq!(residual.len(), 1);
            }
            CoverOutcome::Rep => panic!("expected cover"),
        }
        // Duplicate probe.
        let dup = profile(
            &s,
            vec![Predicate::ge(5), Predicate::DontCare, Predicate::DontCare],
        );
        assert_eq!(
            cover.probe(&dup).unwrap(),
            CoverOutcome::Covered {
                rep: 0,
                residual: vec![]
            }
        );
        // Uncovered probe leaves the set unchanged.
        let other = profile(
            &s,
            vec![Predicate::DontCare, Predicate::eq(1), Predicate::DontCare],
        );
        assert_eq!(cover.probe(&other).unwrap(), CoverOutcome::Rep);
        // A weaker profile is no child of the rep.
        let weaker = profile(
            &s,
            vec![Predicate::ge(2), Predicate::DontCare, Predicate::DontCare],
        );
        assert_eq!(cover.probe(&weaker).unwrap(), CoverOutcome::Rep);
    }

    #[test]
    fn from_parts_replays_expansion_map_verbatim() {
        let s = schema();
        let rep = profile(
            &s,
            vec![Predicate::ge(2), Predicate::DontCare, Predicate::DontCare],
        );
        let residual = vec![Residual {
            attr: AttrId::new(0),
            allowed: rep
                .predicate(AttrId::new(0))
                .to_intervals(s.attribute(AttrId::new(0)).domain())
                .unwrap(),
        }];
        let cover =
            CoverSet::from_parts(&s, [(3u32, &rep)], [(7u32, 3u32, residual.clone())]).unwrap();
        assert_eq!(cover.rep_slots(), &[3]);
        assert_eq!(cover.cover_of(7), Some((3, residual.as_slice())));
        // Probing still works against the replayed index.
        let dup = rep.clone();
        assert!(matches!(
            cover.probe(&dup).unwrap(),
            CoverOutcome::Covered { rep: 3, .. }
        ));
        // Unknown representative is rejected.
        assert!(CoverSet::from_parts(&s, [(3u32, &rep)], [(7u32, 9u32, vec![])]).is_err());
    }

    #[test]
    fn covered_probes_match_reference_covers() {
        // Whatever the detection classes find must agree with the exact
        // relation — a detected cover is always a true cover.
        let s = schema();
        let mut ps = ProfileSet::new(&s);
        ps.insert_with(|b| b.predicate("x", Predicate::between(2, 8)))
            .unwrap();
        ps.insert_with(|b| {
            b.predicate("x", Predicate::between(2, 8))?
                .predicate("kind", Predicate::in_set(["a", "b"]))
        })
        .unwrap();
        ps.insert_with(|b| b.predicate("y", Predicate::le(3)))
            .unwrap();
        let cover =
            CoverSet::build_bulk(&s, ps.iter().map(|p| (p.id().index() as u32, p))).unwrap();
        for (child, rep, _) in cover.children_sorted() {
            let child_p = ps.get(ProfileId::new(child)).unwrap();
            let rep_p = ps.get(ProfileId::new(rep)).unwrap();
            assert!(covers(&s, rep_p, child_p).unwrap());
        }
    }
}
