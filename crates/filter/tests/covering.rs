//! Oracle tests for covering-pruned snapshots: match results must be
//! identical to the uncovered paths — against a plain
//! [`FilterSnapshot::compile`] and against the reference
//! `ProfileSet::matches` — including under randomized
//! subscribe/unsubscribe churn with tombstones, covered overlay
//! entries and periodic compaction (the broker lifecycle, mirrored at
//! the filter layer).

use ens_filter::{CoverPlan, FilterSnapshot, SnapshotBlockScratch, SnapshotScratch, TreeConfig};
use ens_types::{
    AttrId, CoverOutcome, CoverSet, Domain, Event, IndexInterval, IndexedBatch, IndexedEvent,
    IntervalSet, Predicate, Profile, ProfileId, ProfileSet, Residual, Schema,
};
use proptest::prelude::*;
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

/// A random profile; with probability ~1/2 a duplicate or
/// single-attribute narrowing of one in `pool` (coverage-heavy, like a
/// real subscriber population).
fn random_profile(schema: &Schema, rng: &mut StdRng, pool: &[Profile]) -> Profile {
    if !pool.is_empty() && rng.gen_bool(0.5) {
        let root = &pool[rng.gen_range(0..pool.len())];
        let mut preds: Vec<Predicate> = root.predicates().to_vec();
        if rng.gen_bool(0.4) {
            // Exact duplicate.
        } else {
            // Narrow (or newly specify) exactly one attribute.
            match rng.gen_range(0..3) {
                0 => {
                    let lo = rng.gen_range(0..100);
                    let hi = rng.gen_range(lo..100);
                    preds[0] = Predicate::between(lo, hi);
                }
                1 => preds[1] = Predicate::eq(rng.gen_range(0..10)),
                _ => preds[2] = Predicate::eq(["a", "b", "c"][rng.gen_range(0..3)]),
            }
        }
        return Profile::from_predicates(schema, ProfileId::new(0), preds).unwrap();
    }
    let mut preds = vec![Predicate::DontCare; 3];
    if rng.gen_bool(0.7) {
        let lo = rng.gen_range(0..100);
        let hi = rng.gen_range(lo..100);
        preds[0] = Predicate::between(lo, hi);
    }
    if rng.gen_bool(0.3) {
        preds[1] = Predicate::le(rng.gen_range(0..10));
    }
    if rng.gen_bool(0.3) {
        preds[2] = Predicate::in_set(["a", "b", "c"][..rng.gen_range(1..4)].iter().copied());
    }
    if rng.gen_bool(0.02) {
        // Unsatisfiable: must never match and never cause misdelivery.
        preds[0] = Predicate::In(vec![]);
    }
    Profile::from_predicates(schema, ProfileId::new(0), preds).unwrap()
}

/// A covering-pruned compile of `ps`: one bulk containment pass, then
/// only its representatives compiled.
fn covered_compile(ps: &ProfileSet) -> (FilterSnapshot, CoverSet) {
    let slots = ps.iter().map(|p| (p.id().index() as u32, p));
    let cover = CoverSet::build_bulk(ps.schema(), slots).unwrap();
    let snap = FilterSnapshot::compile_with_cover(ps, &cover, &TreeConfig::default()).unwrap();
    (snap, cover)
}

/// `snap` with its overlay packed to `overlay`, each entry delivered
/// through the compiled representative and residual `cover_of` gives
/// it, or matched by the counting index.
fn with_overlay(
    snap: &FilterSnapshot,
    overlay: &ProfileSet,
    cover_of: &[Option<(u32, Vec<Residual>)>],
) -> FilterSnapshot {
    let covers = cover_of
        .iter()
        .map(|c| c.as_ref().map(|(rep, r)| (*rep, r.as_slice())));
    snap.with_overlay_entries(overlay.iter().zip(covers))
        .unwrap()
}

/// `snap` with every base slot `removed` marks tombstoned.
fn tombstoned(snap: FilterSnapshot, removed: &[bool]) -> FilterSnapshot {
    let dead = (0..removed.len()).filter(|&k| removed[k]);
    dead.fold(snap, |snap, k| snap.with_removed(k))
}

fn random_event(schema: &Schema, rng: &mut StdRng) -> Event {
    let mut b = Event::builder(schema);
    if rng.gen_bool(0.9) {
        b = b.value("x", rng.gen_range(0..100)).unwrap();
    }
    if rng.gen_bool(0.8) {
        b = b.value("y", rng.gen_range(0..10)).unwrap();
    }
    if rng.gen_bool(0.8) {
        b = b
            .value("kind", ["a", "b", "c"][rng.gen_range(0..3)])
            .unwrap();
    }
    b.build()
}

#[test]
fn covered_compile_matches_uncovered_compile() {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(41);
    let mut pool: Vec<Profile> = Vec::new();
    let mut ps = ProfileSet::new(&schema);
    for _ in 0..120 {
        let p = random_profile(&schema, &mut rng, &pool);
        pool.push(p.clone());
        ps.insert(p);
    }
    let plain = FilterSnapshot::compile(&ps, &TreeConfig::default()).unwrap();
    let (covered, cover) = covered_compile(&ps);
    assert_eq!(cover.rep_count() + cover.covered_count(), ps.len());
    assert!(
        covered.compiled_len() < ps.len(),
        "a coverage-heavy population must prune: {} reps for {} profiles",
        covered.compiled_len(),
        ps.len()
    );
    assert_eq!(covered.base_len(), ps.len());

    let mut sp = SnapshotScratch::new();
    let mut sc = SnapshotScratch::new();
    let events: Vec<Event> = (0..400).map(|_| random_event(&schema, &mut rng)).collect();
    for e in &events {
        let ie = IndexedEvent::resolve(&schema, e).unwrap();
        for use_dfsa in [false, true] {
            plain.match_into(&ie, &mut sp, use_dfsa);
            covered.match_into(&ie, &mut sc, use_dfsa);
            assert_eq!(sp.matched(), sc.matched(), "use_dfsa = {use_dfsa}");
        }
    }
    // Block path agrees too.
    let mut batch = IndexedBatch::new();
    batch.resolve_into(&schema, events.iter()).unwrap();
    for use_dfsa in [false, true] {
        let mut bp = SnapshotBlockScratch::new();
        let mut bc = SnapshotBlockScratch::new();
        plain.match_block(&batch, &mut bp, use_dfsa);
        covered.match_block(&batch, &mut bc, use_dfsa);
        for i in 0..events.len() {
            assert_eq!(bp.matched_of(i), bc.matched_of(i), "event {i}");
        }
    }
}

#[test]
fn covered_snapshot_round_trips_bytes_exactly() {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(43);
    let mut pool: Vec<Profile> = Vec::new();
    let mut ps = ProfileSet::new(&schema);
    for _ in 0..60 {
        let p = random_profile(&schema, &mut rng, &pool);
        pool.push(p.clone());
        ps.insert(p);
    }
    let (snap, cover) = covered_compile(&ps);
    // Add a covered + an uncovered overlay entry and a tombstone.
    let mut overlay = ProfileSet::new(&schema);
    let mut overlay_cover = Vec::new();
    for _ in 0..8 {
        let p = random_profile(&schema, &mut rng, &pool);
        overlay_cover.push(match cover.probe(&p).unwrap() {
            CoverOutcome::Covered { rep, residual } => {
                Some((cover.compiled_index_of(rep).unwrap(), residual))
            }
            CoverOutcome::Rep => None,
        });
        overlay.insert(p);
    }
    assert!(
        overlay_cover.iter().any(Option::is_some),
        "pool-derived overlay entries should include covered ones"
    );
    let mut removed = vec![false; snap.base_len()];
    removed[3] = true;
    let snap = tombstoned(with_overlay(&snap, &overlay, &overlay_cover), &removed);

    let bytes = snap.to_bytes();
    let back = FilterSnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(back.to_bytes(), bytes, "checkpoint must be byte-stable");
    assert_eq!(back.base_len(), snap.base_len());
    assert_eq!(back.compiled_len(), snap.compiled_len());
    assert_eq!(back.overlay_cover_entries(), snap.overlay_cover_entries());
    let plan: &CoverPlan = back.cover_plan().unwrap();
    assert_eq!(plan.rep_count(), cover.rep_count());
    assert_eq!(plan.covered_count(), cover.covered_count());

    // And it still matches identically.
    let mut sa = SnapshotScratch::new();
    let mut sb = SnapshotScratch::new();
    for _ in 0..200 {
        let e = random_event(&schema, &mut rng);
        let ie = IndexedEvent::resolve(&schema, &e).unwrap();
        snap.match_into(&ie, &mut sa, true);
        back.match_into(&ie, &mut sb, true);
        assert_eq!(sa.matched(), sb.matched());
    }
}

/// Mirror of the broker's shard lifecycle at the filter layer: base
/// population with tombstones, an overlay whose entries are probed
/// against the cover set (covered entries delivered by expansion), and
/// periodic compaction folding everything into a fresh covered
/// compile. After every operation the snapshot must agree with the
/// brute-force oracle over the live profiles.
#[test]
fn covering_churn_agrees_with_profile_set_oracle() {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(47);
    let mut pool: Vec<Profile> = Vec::new();

    // Live state.
    let mut base: Vec<Profile> = (0..40)
        .map(|_| {
            let p = random_profile(&schema, &mut rng, &pool);
            pool.push(p.clone());
            p
        })
        .collect();
    let mut removed = vec![false; base.len()];
    let mut overlay: Vec<Profile> = Vec::new();
    let mut overlay_cover: Vec<Option<(u32, Vec<Residual>)>> = Vec::new();

    let compile = |base: &[Profile]| -> (FilterSnapshot, CoverSet) {
        let mut ps = ProfileSet::new(&schema);
        for p in base {
            ps.insert(p.clone());
        }
        covered_compile(&ps)
    };
    let rebuild_overlay = |snap: &FilterSnapshot,
                           overlay: &[Profile],
                           overlay_cover: &[Option<(u32, Vec<Residual>)>]|
     -> FilterSnapshot {
        let mut ps = ProfileSet::new(&schema);
        for p in overlay {
            ps.insert(p.clone());
        }
        with_overlay(snap, &ps, overlay_cover)
    };

    let (mut snap, mut cover) = compile(&base);
    let mut saw_covered_overlay = false;
    for step in 0..300 {
        match rng.gen_range(0..100) {
            // Subscribe into the overlay, probing the cover set.
            0..=44 => {
                let p = random_profile(&schema, &mut rng, &pool);
                pool.push(p.clone());
                overlay_cover.push(match cover.probe(&p).unwrap() {
                    CoverOutcome::Covered { rep, residual } => {
                        saw_covered_overlay = true;
                        Some((cover.compiled_index_of(rep).unwrap(), residual))
                    }
                    CoverOutcome::Rep => None,
                });
                overlay.push(p);
                snap = rebuild_overlay(&snap, &overlay, &overlay_cover);
            }
            // Unsubscribe a base profile (tombstone) — representatives
            // included: their covered children must keep matching.
            45..=69 => {
                if !base.is_empty() {
                    let k = rng.gen_range(0..base.len());
                    removed[k] = true;
                    snap = snap.with_removed(k);
                }
            }
            // Unsubscribe an overlay profile (physical removal).
            70..=89 => {
                if !overlay.is_empty() {
                    let k = rng.gen_range(0..overlay.len());
                    overlay.remove(k);
                    overlay_cover.remove(k);
                    snap = rebuild_overlay(&snap, &overlay, &overlay_cover);
                }
            }
            // Compact: fold live base + overlay into a fresh covered
            // compile.
            _ => {
                let live: Vec<Profile> = base
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| !removed[*k])
                    .map(|(_, p)| p.clone())
                    .chain(overlay.iter().cloned())
                    .collect();
                base = live;
                removed = vec![false; base.len()];
                overlay.clear();
                overlay_cover.clear();
                let built = compile(&base);
                snap = built.0;
                cover = built.1;
            }
        }

        // Oracle: live base profiles keep their slots, overlay entries
        // follow at base_len + position.
        let mut scratch = SnapshotScratch::new();
        for _ in 0..20 {
            let e = random_event(&schema, &mut rng);
            let mut want: Vec<u32> = Vec::new();
            for (k, p) in base.iter().enumerate() {
                if !removed[k] && p.matches(&schema, &e).unwrap() {
                    want.push(k as u32);
                }
            }
            for (j, p) in overlay.iter().enumerate() {
                if p.matches(&schema, &e).unwrap() {
                    want.push((base.len() + j) as u32);
                }
            }
            let ie = IndexedEvent::resolve(&schema, &e).unwrap();
            for use_dfsa in [false, true] {
                snap.match_into(&ie, &mut scratch, use_dfsa);
                assert_eq!(
                    scratch.matched(),
                    want.as_slice(),
                    "step {step}, use_dfsa = {use_dfsa}"
                );
            }
        }
    }
    assert!(
        saw_covered_overlay,
        "churn must exercise covered overlay entries"
    );
}

/// The profile generator of the committed checkpoint fixture (see
/// [`head_written_checkpoint_loads_and_re_encodes_identically`]):
/// duplicates, range narrowings, multi-interval (`!=`, set) residuals,
/// newly specified attributes and the odd unsatisfiable profile.
fn fixture_profile(schema: &Schema, rng: &mut StdRng, pool: &[Profile]) -> Profile {
    if !pool.is_empty() && rng.gen_bool(0.6) {
        let root = &pool[rng.gen_range(0..pool.len())];
        let mut preds: Vec<Predicate> = root.predicates().to_vec();
        match rng.gen_range(0..5) {
            0 => {}
            1 => {
                let lo = rng.gen_range(0..100);
                let hi = rng.gen_range(lo..100);
                preds[0] = Predicate::between(lo, hi);
            }
            2 => preds[1] = Predicate::ne(rng.gen_range(0..10)),
            3 => preds[1] = Predicate::eq(rng.gen_range(0..10)),
            _ => preds[2] = Predicate::in_set(["a", "c"]),
        }
        return Profile::from_predicates(schema, ProfileId::new(0), preds).unwrap();
    }
    let mut preds = vec![Predicate::DontCare; 3];
    if rng.gen_bool(0.7) {
        let lo = rng.gen_range(0..100);
        let hi = rng.gen_range(lo..100);
        preds[0] = Predicate::between(lo, hi);
    }
    if rng.gen_bool(0.3) {
        preds[1] = Predicate::le(rng.gen_range(0..10));
    }
    if rng.gen_bool(0.05) {
        preds[0] = Predicate::In(vec![]);
    }
    Profile::from_predicates(schema, ProfileId::new(0), preds).unwrap()
}

/// The format version an image declares.
fn version(image: &[u8]) -> u32 {
    u32::from_le_bytes(image[4..8].try_into().unwrap())
}

/// `fixtures/covered_snapshot_pr12.bin` is the checkpoint the commit
/// before the flat expansion index wrote for the population rebuilt
/// here (80 base profiles, 12 overlay entries of which 5 covered,
/// every ninth slot tombstoned), in the version 3 format that also
/// stored the automaton and wrote each leaf's list in place. The old
/// image loads and serves; it re-encodes to exactly what a fresh
/// compile of the same population encodes to, in the current format,
/// which is smaller.
#[test]
fn head_written_checkpoint_loads_and_re_encodes_identically() {
    let fixture: &[u8] = include_bytes!("fixtures/covered_snapshot_pr12.bin");
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(43);
    let mut pool: Vec<Profile> = Vec::new();
    let mut ps = ProfileSet::new(&schema);
    for _ in 0..80 {
        let p = fixture_profile(&schema, &mut rng, &pool);
        pool.push(p.clone());
        ps.insert(p);
    }
    let (snap, cover) = covered_compile(&ps);
    let mut overlay = ProfileSet::new(&schema);
    let mut overlay_cover = Vec::new();
    for _ in 0..12 {
        let p = fixture_profile(&schema, &mut rng, &pool);
        overlay_cover.push(match cover.probe(&p).unwrap() {
            CoverOutcome::Covered { rep, residual } => {
                Some((cover.compiled_index_of(rep).unwrap(), residual))
            }
            CoverOutcome::Rep => None,
        });
        overlay.insert(p);
    }
    let removed: Vec<bool> = (0..snap.base_len()).map(|k| k % 9 == 3).collect();
    let snap = tombstoned(with_overlay(&snap, &overlay, &overlay_cover), &removed);
    let fresh = snap.to_bytes();
    assert_eq!((version(fixture), version(&fresh)), (3, 5));
    assert!(fresh.len() < fixture.len(), "no automaton, each leaf once");

    let old = FilterSnapshot::from_bytes(fixture).unwrap();
    assert_eq!(
        old.to_bytes(),
        fresh,
        "the old image re-encodes as a fresh compile"
    );
    let shape = |s: &FilterSnapshot| (s.dfsa().state_count(), s.dfsa().leaf_count());
    assert_eq!(shape(&old), shape(&snap));
    let plan = old.cover_plan().unwrap();
    assert_eq!((plan.rep_count(), plan.covered_count()), (27, 53));
    assert_eq!(old.overlay_cover_entries(), overlay_cover);
    let mut scratch = SnapshotScratch::new();
    for _ in 0..300 {
        let e = random_event(&schema, &mut rng);
        let mut want: Vec<u32> = Vec::new();
        for p in ps.iter().filter(|p| !removed[p.id().index()]) {
            if p.matches(&schema, &e).unwrap() {
                want.push(p.id().index() as u32);
            }
        }
        for p in overlay.iter().filter(|p| p.matches(&schema, &e).unwrap()) {
            want.push((ps.len() + p.id().index()) as u32);
        }
        let ie = IndexedEvent::resolve(&schema, &e).unwrap();
        let mut ops = Vec::new();
        for use_dfsa in [false, true] {
            old.match_into(&ie, &mut scratch, use_dfsa);
            assert_eq!(scratch.matched(), want.as_slice(), "use_dfsa = {use_dfsa}");
            ops.push(scratch.ops());
        }
        assert_eq!(
            ops[0], ops[1],
            "the decoded automaton counts what its tree counts"
        );
    }
}

/// The domain indices of attribute `j` a profile admits (`None`:
/// don't-care, which also admits a missing attribute).
fn admitted(schema: &Schema, p: &Profile, j: usize) -> Option<Vec<u64>> {
    let attr = AttrId::new(j as u32);
    let pred = p.predicate(attr);
    if pred.is_dont_care() {
        return None;
    }
    let set = pred.to_intervals(schema.attribute(attr).domain()).unwrap();
    Some(
        set.iter()
            .flat_map(|iv| iv.lo()..iv.hi())
            .collect::<Vec<_>>(),
    )
}

/// `rep` narrowed on the attributes in `attrs` (in that order) to a
/// random subset of what it admits there — several intervals, one, or
/// none at all — with the residual list that narrowing amounts to.
fn narrowed(
    schema: &Schema,
    rep: &Profile,
    attrs: &[usize],
    rng: &mut StdRng,
) -> (Profile, Vec<Residual>) {
    let mut preds: Vec<Predicate> = rep.predicates().to_vec();
    let mut residual = Vec::new();
    for &j in attrs {
        let domain = schema.attribute(AttrId::new(j as u32)).domain();
        let admitted = admitted(schema, rep, j).unwrap_or_else(|| (0..domain.size()).collect());
        let keep = match rng.gen_range(0..6) {
            // An empty allowed set: the child can never match.
            0 => 0.0,
            1 => 0.15,
            _ => 0.6,
        };
        let kept: Vec<u64> = admitted
            .into_iter()
            .filter(|_| rng.gen_bool(keep))
            .collect();
        preds[j] = Predicate::In(kept.iter().map(|&i| domain.value_at(i)).collect());
        residual.push(Residual {
            attr: AttrId::new(j as u32),
            allowed: IntervalSet::from_intervals(
                kept.iter().map(|&i| IndexInterval::point(i)).collect(),
            ),
        });
    }
    let child = Profile::from_predicates(schema, ProfileId::new(0), preds).unwrap();
    (child, residual)
}

/// The snapshots [`hand_built`] makes, and what they were made of.
struct HandBuilt {
    base: ProfileSet,
    overlay: ProfileSet,
    overlay_cover: Vec<Option<(u32, Vec<Residual>)>>,
    removed: Vec<bool>,
    /// The hand-built plan compiled, overlay and tombstones on.
    covered: FilterSnapshot,
    /// The same population compiled uncovered.
    plain: FilterSnapshot,
}

/// A covering-pruned snapshot over an expansion plan of every shape the
/// codec admits (see
/// `hand_built_plans_agree_with_uncovered_compile_and_oracle`), with a
/// covered and indexed overlay and base tombstones.
fn hand_built(schema: &Schema, rng: &mut StdRng) -> HandBuilt {
    // Base population: a few representatives, each with children
    // hung under it, shuffled so child slots interleave with
    // representatives' and with each other's.
    let n_reps = rng.gen_range(1..6);
    // (profile, representative it belongs to, residual under it —
    // `None` for the representative itself).
    let mut entries: Vec<(Profile, usize, Option<Vec<Residual>>)> = Vec::new();
    let mut reps: Vec<Profile> = Vec::new();
    for r in 0..n_reps {
        let rep = random_profile(schema, rng, &[]);
        reps.push(rep.clone());
        entries.push((rep, r, None));
    }
    let attr_orders: [&[usize]; 8] = [
        &[],
        &[0],
        &[1],
        &[2],
        &[1, 0],
        &[0, 2],
        &[2, 1, 0],
        &[0, 1, 2],
    ];
    for _ in 0..rng.gen_range(0..40) {
        let r = rng.gen_range(0..n_reps);
        let attrs = attr_orders[rng.gen_range(0..attr_orders.len())];
        let (child, residual) = narrowed(schema, &reps[r], attrs, rng);
        entries.push((child, r, Some(residual)));
    }
    // Narrow bystanders that hardly ever match: they stretch the
    // slot range, so that some cases expand few slots out of many
    // (delivered through the list) and others many out of few
    // (through the bitmap).
    let bystander = |rng: &mut StdRng| {
        let preds = vec![
            Predicate::eq(rng.gen_range(0..100)),
            Predicate::eq(rng.gen_range(0..10)),
            Predicate::eq("a"),
        ];
        Profile::from_predicates(schema, ProfileId::new(0), preds).unwrap()
    };
    let mut n_reps = n_reps;
    for _ in 0..[0, 0, 200, 800][rng.gen_range(0..4)] {
        entries.push((bystander(rng), n_reps, None));
        n_reps += 1;
    }
    for k in (1..entries.len()).rev() {
        entries.swap(k, rng.gen_range(0..=k));
    }
    let mut base = ProfileSet::new(schema);
    for (p, _, _) in &entries {
        base.insert(p.clone());
    }
    let mut slot_of_rep = vec![0u32; n_reps];
    for (k, (_, r, residual)) in entries.iter().enumerate() {
        if residual.is_none() {
            slot_of_rep[*r] = k as u32;
        }
    }
    let cover = CoverSet::from_parts(
        schema,
        slot_of_rep
            .iter()
            .map(|&s| (s, base.get(ProfileId::new(s)).unwrap())),
        entries
            .iter()
            .enumerate()
            .filter_map(|(k, (_, r, residual))| {
                residual
                    .as_ref()
                    .map(|residual| (k as u32, slot_of_rep[*r], residual.clone()))
            }),
    )
    .unwrap();

    // Overlay: covered entries ride the expansion, the rest the
    // counting index.
    let mut overlay = ProfileSet::new(schema);
    let mut overlay_cover: Vec<Option<(u32, Vec<Residual>)>> = Vec::new();
    for _ in 0..[0, 0, 200][rng.gen_range(0..3)] {
        overlay.insert(bystander(rng));
        overlay_cover.push(None);
    }
    for _ in 0..rng.gen_range(0..10) {
        if rng.gen_bool(0.6) {
            let r = rng.gen_range(0..reps.len());
            let attrs = attr_orders[rng.gen_range(0..attr_orders.len())];
            let (child, residual) = narrowed(schema, &reps[r], attrs, rng);
            overlay.insert(child);
            let compiled = cover.compiled_index_of(slot_of_rep[r]).unwrap();
            overlay_cover.push(Some((compiled, residual)));
        } else {
            overlay.insert(random_profile(schema, rng, &[]));
            overlay_cover.push(None);
        }
    }
    let removed: Vec<bool> = (0..base.len()).map(|_| rng.gen_bool(0.25)).collect();

    let config = TreeConfig::default();
    let compiled = FilterSnapshot::compile_with_cover(&base, &cover, &config).unwrap();
    let covered = tombstoned(with_overlay(&compiled, &overlay, &overlay_cover), &removed);
    let plain = FilterSnapshot::compile(&base, &config)
        .unwrap()
        .with_overlay(&overlay)
        .unwrap();
    let plain = tombstoned(plain, &removed);
    HandBuilt {
        base,
        overlay,
        overlay_cover,
        removed,
        covered,
        plain,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Expansion plans of every shape the codec admits, not only the
    /// one-attribute one-interval residuals the bulk containment pass
    /// produces: residuals on several attributes (in any order),
    /// allowed sets of several intervals or of none, exact duplicates,
    /// covered overlay entries, tombstoned representatives with live
    /// children and tombstoned children, events that miss a residual
    /// attribute. Per event, `match_into` and `match_block`, tree and
    /// DFSA, before and after a trip through bytes, all equal the
    /// uncovered compile and the brute-force matcher, strictly
    /// ascending.
    #[test]
    fn hand_built_plans_agree_with_uncovered_compile_and_oracle(seed in 0u64..=u64::MAX) {
        let schema = schema();
        let mut rng = StdRng::seed_from_u64(seed);

        let HandBuilt {
            base,
            overlay,
            overlay_cover,
            removed,
            covered,
            plain,
        } = hand_built(&schema, &mut rng);
        let bytes = covered.to_bytes();
        let reloaded = FilterSnapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(reloaded.to_bytes(), bytes);
        prop_assert_eq!(reloaded.overlay_cover_entries(), overlay_cover.clone());

        let events: Vec<Event> = (0..24).map(|_| random_event(&schema, &mut rng)).collect();
        let mut batch = IndexedBatch::new();
        batch.resolve_into(&schema, events.iter()).unwrap();
        let mut single = SnapshotScratch::new();
        let mut block = SnapshotBlockScratch::new();
        for use_dfsa in [false, true] {
            for (name, snap) in [("covered", &covered), ("reloaded", &reloaded), ("plain", &plain)] {
                snap.match_block(&batch, &mut block, use_dfsa);
                for (i, e) in events.iter().enumerate() {
                    let mut want: Vec<u32> = base
                        .matches(e)
                        .unwrap()
                        .into_iter()
                        .map(|id| id.index() as u32)
                        .filter(|&k| !removed[k as usize])
                        .collect();
                    want.extend(
                        overlay
                            .matches(e)
                            .unwrap()
                            .into_iter()
                            .map(|id| (base.len() + id.index()) as u32),
                    );
                    prop_assert!(want.windows(2).all(|w| w[0] < w[1]));
                    let ie = IndexedEvent::resolve(&schema, e).unwrap();
                    snap.match_into(&ie, &mut single, use_dfsa);
                    prop_assert_eq!(
                        single.matched(), want.as_slice(),
                        "{} match_into, use_dfsa = {}, event {}", name, use_dfsa, i
                    );
                    prop_assert_eq!(
                        block.matched_of(i), want.as_slice(),
                        "{} match_block, use_dfsa = {}, event {}", name, use_dfsa, i
                    );
                }
            }
        }
    }
}

/// Matches `events` block by block, `block` events each, and holds both
/// views of every block to the per-event path: `matched_of` is
/// `match_into`'s row, every run is strictly ascending and names a
/// slot strictly above the run before, and the runs read back by event
/// are the rows again. Op and expansion counts agree too. Returns the
/// most notifications a block held.
fn check_block_views(
    snap: &FilterSnapshot,
    schema: &Schema,
    events: &[Event],
    block: usize,
) -> usize {
    let (mut batch, mut views) = (IndexedBatch::new(), SnapshotBlockScratch::new());
    let mut single = SnapshotScratch::new();
    let mut most = 0;
    for chunk in events.chunks(block) {
        batch.resolve_into(schema, chunk.iter()).unwrap();
        snap.match_block(&batch, &mut views, true);
        let mut rows = vec![Vec::new(); chunk.len()];
        let mut last = None;
        for (g, run) in views.runs() {
            assert!(last < Some(g), "slot {g} after {last:?}");
            last = Some(g);
            assert!(!run.is_empty(), "slot {g} has an empty run");
            assert!(run.windows(2).all(|w| w[0] < w[1]), "slot {g}: {run:?}");
            for &i in run {
                rows[i as usize].push(g);
            }
        }
        let (mut checks, mut delivered, mut notes) = (0, 0, 0);
        for (i, e) in chunk.iter().enumerate() {
            let ie = IndexedEvent::resolve(schema, e).unwrap();
            snap.match_into(&ie, &mut single, true);
            assert_eq!(views.matched_of(i), single.matched(), "row {i}");
            assert_eq!(rows[i], single.matched(), "runs of row {i}");
            assert_eq!(views.ops_of(i), single.ops(), "ops of row {i}");
            checks += single.cover_checks();
            delivered += single.cover_delivered();
            notes += rows[i].len();
        }
        assert_eq!(
            (views.cover_checks(), views.cover_delivered()),
            (checks, delivered)
        );
        most = most.max(notes);
    }
    most
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The block path orders a block once, by transposing it: over the
    /// hand-built plans (residuals on several attributes, of several
    /// intervals, the rarer `MORE` entries among them), a covered and
    /// indexed overlay, base tombstones and — in place — overlay ones,
    /// covered and plain, the runs and rows of every block agree with
    /// `match_into` ([`check_block_views`]), whatever the block size.
    #[test]
    fn block_runs_transpose_to_match_into_rows(
        seed in 0u64..=u64::MAX,
        block in 1usize..40,
    ) {
        let schema = schema();
        let mut rng = StdRng::seed_from_u64(seed);
        let built = hand_built(&schema, &mut rng);
        let mut tombstoned = built.covered.clone();
        for pos in (0..built.overlay.len()).step_by(3) {
            tombstoned = tombstoned.with_removed(built.base.len() + pos);
        }
        let events: Vec<Event> = (0..40).map(|_| random_event(&schema, &mut rng)).collect();
        for snap in [&built.covered, &tombstoned, &built.plain] {
            check_block_views(snap, &schema, &events, block);
        }
    }
}

/// A selective 10,000-slot population — covered, with an overlay and
/// tombstones — matched in 4-event blocks, which touch few of its
/// slots (under one notification in 16 slots), and in 256-event
/// blocks, which hold more notifications than slots. Both agree with
/// `match_into`.
#[test]
fn sparse_and_dense_blocks_transpose_to_match_into_rows() {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(53);
    let mut ps = ProfileSet::new(&schema);
    for k in 0..10_000 {
        let x = rng.gen_range(0..100);
        let preds = vec![
            Predicate::between(x, (x + rng.gen_range(0..2)).min(99)),
            match k % 3 {
                0 => Predicate::DontCare,
                _ => Predicate::eq(rng.gen_range(0..10)),
            },
            Predicate::DontCare,
        ];
        ps.insert(Profile::from_predicates(&schema, ProfileId::new(0), preds).unwrap());
    }
    let (compiled, cover) = covered_compile(&ps);
    assert!(compiled.compiled_len() < ps.len());
    let mut overlay = ProfileSet::new(&schema);
    let mut overlay_cover = Vec::new();
    for p in ps.iter().step_by(97) {
        overlay_cover.push(match cover.probe(p).unwrap() {
            CoverOutcome::Covered { rep, residual } => {
                Some((cover.compiled_index_of(rep).unwrap(), residual))
            }
            CoverOutcome::Rep => None,
        });
        overlay.insert(p.clone());
    }
    let removed: Vec<bool> = (0..ps.len()).map(|k| k % 5 == 0).collect();
    let snap = tombstoned(with_overlay(&compiled, &overlay, &overlay_cover), &removed);
    let slots = snap.base_len() + snap.overlay_len();
    let events: Vec<Event> = (0..512).map(|_| random_event(&schema, &mut rng)).collect();
    let sparse = check_block_views(&snap, &schema, &events, 4);
    assert!(
        sparse * 16 < slots,
        "{sparse} notifications in a 4-event block"
    );
    let dense = check_block_views(&snap, &schema, &events, 256);
    assert!(dense > slots, "{dense} notifications in a 256-event block");
}
