//! Property test: the counting-index overlay ([`OverlayIndex`] inside
//! [`FilterSnapshot`]) agrees with the `NaiveMatcher` oracle — and with
//! a fresh post-compaction [`FilterSnapshot::compile`] — under
//! randomized subscribe/unsubscribe churn, including tombstones and
//! events with missing attributes. The same checks run once over the
//! full environmental and stock scenario populations held entirely in
//! the overlay: there the counting index is the counting baseline of
//! the paper's §2, compared three ways against the naive matcher and
//! the compiled tree and DFSA.
//!
//! The incremental overlay has its own property: random sequences of
//! covered appends, uncovered appends, overlay tombstones and packs,
//! each touching only its own entry, must after every step match
//! exactly what the naive matcher and a fresh compile of the live set
//! match — per event and per block — and a tombstone-free overlay must
//! serialize to the bytes of one built whole.

use std::sync::Once;

use ens_filter::baseline::NaiveMatcher;
use ens_filter::{
    FilterSnapshot, MatchScratch, Matcher, OverlayIndex, SnapshotBlockScratch, SnapshotScratch,
    TreeConfig,
};
use ens_types::{
    CoverOutcome, CoverSet, Domain, Event, IndexedBatch, IndexedEvent, Predicate, Profile,
    ProfileId, ProfileSet, Residual, Schema,
};
use ens_workloads::{scenario, EventGenerator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two attributes: a small domain (jump-table DFSA states) and a large
/// one (binary-search states), like the main DFSA property suite.
const DX: i64 = 24;
const DY: i64 = 5_000;

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, DX - 1))
        .unwrap()
        .attribute("y", Domain::int(0, DY - 1))
        .unwrap()
        .build()
}

fn arb_predicate(hi: i64) -> impl Strategy<Value = Predicate> {
    let v = 0..hi;
    prop_oneof![
        Just(Predicate::DontCare),
        v.clone().prop_map(Predicate::eq),
        v.clone().prop_map(Predicate::le),
        v.clone().prop_map(Predicate::ge),
        v.clone().prop_map(Predicate::ne),
        (v.clone(), v.clone()).prop_map(|(a, b)| Predicate::between(a.min(b), a.max(b))),
        prop::collection::vec(v, 1..4).prop_map(Predicate::in_set),
    ]
}

fn arb_profile() -> impl Strategy<Value = (Predicate, Predicate)> {
    (arb_predicate(DX), arb_predicate(DY))
}

/// One churn step against the live snapshot.
#[derive(Debug, Clone)]
enum ChurnOp {
    /// New subscription: enters the overlay via `with_overlay`.
    Subscribe(Predicate, Predicate),
    /// Remove a compiled (base) profile: tombstone via `with_removed`.
    /// The index is reduced modulo the current base population.
    Tombstone(usize),
    /// Remove a not-yet-compacted overlay profile (the overlay is
    /// rebuilt without it, exactly like the broker's unsubscribe).
    DropOverlay(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<ChurnOp>> {
    prop::collection::vec(
        prop_oneof![
            4 => arb_profile().prop_map(|(px, py)| ChurnOp::Subscribe(px, py)),
            1 => (0usize..16).prop_map(ChurnOp::Tombstone),
            1 => (0usize..16).prop_map(ChurnOp::DropOverlay),
        ],
        1..24,
    )
}

/// Events over both attributes, each value independently missing.
fn arb_events() -> impl Strategy<Value = Vec<(Option<i64>, Option<i64>)>> {
    prop::collection::vec(
        (
            prop::option::weighted(0.8, 0..DX),
            prop::option::weighted(0.8, 0..DY),
        ),
        8..24,
    )
}

fn build_event(schema: &Schema, x: Option<i64>, y: Option<i64>) -> Event {
    let mut b = Event::builder(schema);
    if let Some(x) = x {
        b = b.value("x", x).unwrap();
    }
    if let Some(y) = y {
        b = b.value("y", y).unwrap();
    }
    b.build()
}

fn make_profile(schema: &Schema, px: &Predicate, py: &Predicate) -> Profile {
    Profile::from_predicates(schema, ProfileId::new(0), vec![px.clone(), py.clone()]).unwrap()
}

/// The overlay as the profile set `with_overlay` takes (dense ids in
/// insertion order).
fn overlay_set(schema: &Schema, overlay: &[Profile]) -> ProfileSet {
    let mut ps = ProfileSet::new(schema);
    for p in overlay {
        ps.insert(p.clone());
    }
    ps
}

/// The oracle case: `snap` holds `base_set` compiled (less the
/// `removed` tombstones) plus `overlay`; every event of `built` is
/// matched through it and checked against the oracles.
fn check_against_oracles(
    schema: &Schema,
    base_set: &ProfileSet,
    removed: &[bool],
    overlay: &ProfileSet,
    snap: &FilterSnapshot,
    built: &[Event],
) {
    assert_eq!(snap.overlay_len(), overlay.len());
    assert_eq!(
        snap.live_len(),
        base_set.len() - snap.removed_len() + overlay.len()
    );

    // Oracles: the naive side-matcher over the overlay (what the
    // counting index replaced) and a fresh full compile of the live
    // set (what the next compaction would produce). `live` inserts
    // base-live first, then overlay — the broker's compaction order
    // — so global snapshot ids map positionally onto compiled ids.
    let naive_overlay = NaiveMatcher::new(overlay).unwrap();
    let counting_overlay = OverlayIndex::new(overlay).unwrap();
    let mut live = ProfileSet::new(schema);
    let mut live_of_base = vec![usize::MAX; base_set.len()];
    let mut next = 0usize;
    for (k, p) in base_set.iter().enumerate() {
        if !removed[k] {
            live.insert(p.clone());
            live_of_base[k] = next;
            next += 1;
        }
    }
    for p in overlay.iter() {
        live.insert(p.clone());
    }
    let compacted = FilterSnapshot::compile(&live, &TreeConfig::default()).unwrap();

    let mut s = SnapshotScratch::new();
    let mut s_dfsa = SnapshotScratch::new();
    let mut s_compact = SnapshotScratch::new();
    let mut naive_scratch = MatchScratch::new();
    let mut counting_scratch = MatchScratch::new();
    let mut block = SnapshotBlockScratch::new();
    let mut batch = IndexedBatch::new();
    batch.resolve_into(schema, built.iter()).unwrap();
    snap.match_block(&batch, &mut block, true);
    for (i, e) in built.iter().enumerate() {
        let indexed = IndexedEvent::resolve(schema, e).unwrap();

        // 1. Tree and DFSA dispatch agree.
        snap.match_into(&indexed, &mut s, false);
        snap.match_into(&indexed, &mut s_dfsa, true);
        assert_eq!(s.matched(), s_dfsa.matched());

        // 2. The overlay part equals the naive oracle over the
        //    overlay set, and the counting index standalone.
        let overlay_ids: Vec<u32> = s
            .matched()
            .iter()
            .copied()
            .filter(|g| *g >= snap.base_len() as u32)
            .map(|g| g - snap.base_len() as u32)
            .collect();
        naive_overlay.match_into(&indexed, &mut naive_scratch);
        counting_overlay.match_into(&indexed, &mut counting_scratch);
        let naive_ids: Vec<u32> = naive_scratch
            .profiles()
            .iter()
            .map(|p| p.index() as u32)
            .collect();
        assert_eq!(&overlay_ids, &naive_ids);
        let counting_ids: Vec<u32> = counting_scratch
            .profiles()
            .iter()
            .map(|p| p.index() as u32)
            .collect();
        assert_eq!(&overlay_ids, &counting_ids);

        // 3. Global ids map positionally onto a fresh compile of
        //    the live set (the post-compaction snapshot).
        let live_base = next as u32;
        let mapped: Vec<u32> = s
            .matched()
            .iter()
            .map(|g| {
                if *g < snap.base_len() as u32 {
                    live_of_base[*g as usize] as u32
                } else {
                    live_base + (g - snap.base_len() as u32)
                }
            })
            .collect();
        compacted.match_into(&indexed, &mut s_compact, false);
        assert_eq!(&mapped, &s_compact.matched().to_vec());

        // 4. The ProfileSet oracle agrees with the compacted ids.
        let oracle: Vec<u32> = live
            .matches(e)
            .unwrap()
            .iter()
            .map(|p| p.index() as u32)
            .collect();
        assert_eq!(&mapped, &oracle);

        // 5. The block engine agrees with the per-event path.
        assert_eq!(block.matched_of(i), s.matched());
    }
}

/// A whole scenario population as one more input of the oracle case:
/// nothing compiled, every profile in the overlay.
fn check_scenario(profiles: &ProfileSet, generator: &EventGenerator, seed: u64) {
    let schema = profiles.schema();
    let empty = ProfileSet::new(schema);
    let snap = FilterSnapshot::compile(&empty, &TreeConfig::default())
        .unwrap()
        .with_overlay(profiles)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let built: Vec<Event> = (0..64)
        .map(|k| match k % 4 {
            0 => generator.sample_partial(&mut rng, 0.3),
            _ => generator.sample(&mut rng),
        })
        .collect();
    check_against_oracles(schema, &empty, &[], profiles, &snap, &built);
}

/// Runs the two scenario inputs once per test run, not once per
/// generated case.
static SCENARIOS: Once = Once::new();

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn counting_overlay_agrees_with_naive_oracle_under_churn(
        base in prop::collection::vec(arb_profile(), 0..6),
        ops in arb_ops(),
        events in arb_events(),
    ) {
        SCENARIOS.call_once(|| {
            let mut rng = StdRng::seed_from_u64(1);
            let env = scenario::environmental_profiles(1000, &mut rng).unwrap();
            let model = scenario::environmental_event_model().unwrap();
            check_scenario(&env, &EventGenerator::new(env.schema(), model).unwrap(), 2);
            let stock = scenario::stock_profiles(1000, &mut rng).unwrap();
            let model = scenario::stock_event_model().unwrap();
            check_scenario(&stock, &EventGenerator::new(stock.schema(), model).unwrap(), 3);
        });
        let schema = schema();

        // Writer-side model of the broker's shard state.
        let mut base_set = ProfileSet::new(&schema);
        for (px, py) in &base {
            base_set.insert(make_profile(&schema, px, py));
        }
        let mut removed = vec![false; base_set.len()];
        let mut overlay: Vec<Profile> = Vec::new();

        let mut snap = FilterSnapshot::compile(&base_set, &TreeConfig::default()).unwrap();
        for op in &ops {
            match op {
                ChurnOp::Subscribe(px, py) => {
                    overlay.push(make_profile(&schema, px, py));
                    snap = snap.with_overlay(&overlay_set(&schema, &overlay)).unwrap();
                }
                ChurnOp::Tombstone(k) if !removed.is_empty() => {
                    let slot = *k % removed.len();
                    removed[slot] = true;
                    snap = snap.with_removed(slot);
                }
                ChurnOp::DropOverlay(k) if !overlay.is_empty() => {
                    overlay.remove(*k % overlay.len());
                    snap = snap.with_overlay(&overlay_set(&schema, &overlay)).unwrap();
                }
                _ => {}
            }
        }
        let built: Vec<Event> = events
            .iter()
            .map(|(x, y)| build_event(&schema, *x, *y))
            .collect();
        let overlay = overlay_set(&schema, &overlay);
        check_against_oracles(&schema, &base_set, &removed, &overlay, &snap, &built);
    }

    #[test]
    fn incremental_overlay_agrees_with_oracles_after_every_step(
        base in prop::collection::vec(arb_profile(), 1..6),
        ops in arb_incremental_ops(),
        events in arb_events(),
    ) {
        let schema = schema();
        let mut base_set = ProfileSet::new(&schema);
        for (px, py) in &base {
            base_set.insert(make_profile(&schema, px, py));
        }
        let cover = CoverSet::build_bulk(
            &schema,
            base_set.iter().map(|p| (p.id().index() as u32, p)),
        ).unwrap();
        let compiled =
            FilterSnapshot::compile_with_cover(&base_set, &cover, &TreeConfig::default()).unwrap();
        let built: Vec<Event> = events
            .iter()
            .map(|(x, y)| build_event(&schema, *x, *y))
            .collect();

        // The overlay as the writer keeps it: stable positions, each
        // with its cover and whether it is still live.
        let mut overlay: Vec<Slot> = Vec::new();
        let mut snap = compiled.clone();
        for op in &ops {
            match op {
                Step::Append(px, py) | Step::Child(_, px, py) => {
                    let profile = match op {
                        Step::Child(k, ..) => {
                            narrowed(&schema, base_set.iter().nth(k % base_set.len()).unwrap(), px)
                        }
                        _ => make_profile(&schema, px, py),
                    };
                    let entry = match cover.probe(&profile).unwrap() {
                        CoverOutcome::Covered { rep, residual } => {
                            Some((cover.compiled_index_of(rep).unwrap(), residual))
                        }
                        CoverOutcome::Rep => None,
                    };
                    snap = match &entry {
                        Some((rep, residual)) => snap.with_covered_entry(*rep, residual).unwrap(),
                        None => {
                            let profiles = overlay.iter().map(|s| &s.profile);
                            snap.with_indexed_entry(&profile, profiles).unwrap()
                        }
                    };
                    overlay.push(Slot { profile, cover: entry, live: true });
                }
                Step::Tombstone(k) if !overlay.is_empty() => {
                    let k = k % overlay.len();
                    overlay[k].live = false;
                    snap = snap.with_removed(snap.base_len() + k);
                }
                Step::Pack => {
                    snap = snap.with_overlay_packed(overlay.iter().map(|s| &s.profile)).unwrap();
                    overlay.retain(|s| s.live);
                }
                _ => {}
            }
            check_incremental(&schema, &base_set, &compiled, &overlay, &snap, &built);
        }
    }
}

/// One step of the incremental overlay's property.
#[derive(Debug, Clone)]
enum Step {
    /// A random profile, covered or not as the probe finds it.
    Append(Predicate, Predicate),
    /// Base profile `k` (modulo the base) with its `x` predicate
    /// replaced by the given one where it had none: covered by
    /// construction.
    Child(usize, Predicate, Predicate),
    /// Tombstone overlay position `k` (modulo the overlay).
    Tombstone(usize),
    /// Rebuild the overlay from its live entries.
    Pack,
}

fn arb_incremental_ops() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            3 => arb_profile().prop_map(|(px, py)| Step::Append(px, py)),
            3 => (0usize..8, arb_profile()).prop_map(|(k, (px, py))| Step::Child(k, px, py)),
            3 => (0usize..32).prop_map(Step::Tombstone),
            1 => Just(Step::Pack),
        ],
        1..20,
    )
}

/// An overlay entry of the model.
struct Slot {
    profile: Profile,
    cover: Option<(u32, Vec<Residual>)>,
    live: bool,
}

impl Slot {
    fn entry(&self) -> (&Profile, Option<(u32, &[Residual])>) {
        let cover = self.cover.as_ref();
        (&self.profile, cover.map(|(rep, r)| (*rep, r.as_slice())))
    }
}

/// `p` narrowed on `x` to `px` where it leaves `x` open — otherwise an
/// exact duplicate. Either way some compiled representative covers it.
fn narrowed(schema: &Schema, p: &Profile, px: &Predicate) -> Profile {
    let mut preds = p.predicates().to_vec();
    if preds[0].is_dont_care() {
        preds[0] = px.clone();
    }
    Profile::from_predicates(schema, ProfileId::new(0), preds).unwrap()
}

/// The incremental snapshot `snap` against its oracles: the naive
/// matcher and a fresh compile over the live set (base, then the live
/// overlay entries in position order), per event and per block; and,
/// with no tombstone in the overlay, the bytes of an overlay built
/// whole.
fn check_incremental(
    schema: &Schema,
    base_set: &ProfileSet,
    compiled: &FilterSnapshot,
    overlay: &[Slot],
    snap: &FilterSnapshot,
    built: &[Event],
) {
    let dead = overlay.iter().filter(|s| !s.live).count();
    assert_eq!(snap.overlay_len(), overlay.len());
    assert_eq!(snap.overlay_removed_len(), dead);
    assert_eq!(snap.live_len(), base_set.len() + overlay.len() - dead);

    let mut live = base_set.clone();
    // Global id -> position in `live`.
    let mut rank: Vec<u32> = (0..base_set.len() as u32).collect();
    rank.resize(base_set.len() + overlay.len(), u32::MAX);
    for (k, s) in overlay.iter().enumerate().filter(|(_, s)| s.live) {
        rank[base_set.len() + k] = live.len() as u32;
        live.insert(s.profile.clone());
    }
    let naive = NaiveMatcher::new(&live).unwrap();
    let fresh = FilterSnapshot::compile(&live, &TreeConfig::default()).unwrap();

    let mut batch = IndexedBatch::new();
    batch.resolve_into(schema, built.iter()).unwrap();
    let mut blocks = [SnapshotBlockScratch::new(), SnapshotBlockScratch::new()];
    for (use_dfsa, block) in [false, true].into_iter().zip(&mut blocks) {
        snap.match_block(&batch, block, use_dfsa);
    }
    let (mut s, mut s_fresh, mut s_naive) = (
        SnapshotScratch::new(),
        SnapshotScratch::new(),
        MatchScratch::new(),
    );
    for (i, e) in built.iter().enumerate() {
        let indexed = IndexedEvent::resolve(schema, e).unwrap();
        naive.match_into(&indexed, &mut s_naive);
        let want: Vec<u32> = s_naive
            .profiles()
            .iter()
            .map(|p| p.index() as u32)
            .collect();
        fresh.match_into(&indexed, &mut s_fresh, true);
        assert_eq!(s_fresh.matched(), &want[..], "fresh compile vs naive");
        for (use_dfsa, block) in [false, true].into_iter().zip(&blocks) {
            snap.match_into(&indexed, &mut s, use_dfsa);
            assert_eq!(block.matched_of(i), s.matched(), "block vs per event");
            let mapped: Vec<u32> = s.matched().iter().map(|&g| rank[g as usize]).collect();
            assert_eq!(mapped, want, "event {i}, dfsa {use_dfsa}");
        }
    }

    if dead == 0 {
        let whole = compiled
            .with_overlay_entries(overlay.iter().map(Slot::entry))
            .unwrap();
        let bytes = snap.to_bytes();
        assert_eq!(
            bytes,
            whole.to_bytes(),
            "incremental vs whole-overlay image"
        );
        let reloaded = FilterSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(
            reloaded.overlay_cover_entries(),
            snap.overlay_cover_entries()
        );
    }
}
