//! Serde round-trip properties for [`FilterSnapshot`] persistence.
//!
//! A checkpointed snapshot must deserialize into a matcher that is
//! *observably identical* — same matches, on both the tree and DFSA
//! paths, per event and per block — to the snapshot that was
//! serialized, including its overlay entries and tombstones, and to a
//! fresh `compile` of the same live profiles. Corrupt bytes must be
//! rejected, never half-loaded.

use ens_dist::{Density, DistOverDomain, JointDist};
use ens_filter::{
    Dfsa, Direction, FilterSnapshot, MatchScratch, Matcher, SearchStrategy, SnapshotBlockScratch,
    SnapshotScratch, TreeConfig, ValueOrder,
};
use ens_types::{
    CoverOutcome, CoverSet, Domain, Event, IndexedBatch, IndexedEvent, Predicate, Profile,
    ProfileId, ProfileSet, Schema,
};
use proptest::prelude::*;

const DX: i64 = 24;
const DY: i64 = 5_000;

fn schema2() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, DX - 1))
        .unwrap()
        .attribute("y", Domain::int(0, DY - 1))
        .unwrap()
        .build()
}

fn arb_predicate_for(hi: i64) -> impl Strategy<Value = Predicate> {
    let v = 0..hi;
    prop_oneof![
        Just(Predicate::DontCare),
        v.clone().prop_map(Predicate::eq),
        v.clone().prop_map(Predicate::le),
        v.clone().prop_map(Predicate::ge),
        (v.clone(), v.clone()).prop_map(|(a, b)| Predicate::between(a.min(b), a.max(b))),
        prop::collection::vec(v, 1..4).prop_map(Predicate::in_set),
    ]
}

fn profile_set(schema: &Schema, preds: Vec<(Predicate, Predicate)>) -> ProfileSet {
    let mut ps = ProfileSet::new(schema);
    for (px, py) in preds {
        let profile = Profile::from_predicates(schema, ProfileId::new(0), vec![px, py]).unwrap();
        ps.insert(profile);
    }
    ps
}

fn arb_pred_pairs(max: usize) -> impl Strategy<Value = Vec<(Predicate, Predicate)>> {
    prop::collection::vec((arb_predicate_for(DX), arb_predicate_for(DY)), 1..max)
}

/// Every search strategy: the eight linear orders, then binary,
/// interpolation and hash search.
fn strategy(k: usize) -> SearchStrategy {
    match ValueOrder::ALL.get(k) {
        Some(&order) => SearchStrategy::Linear(order),
        None => [
            SearchStrategy::Binary,
            SearchStrategy::Interpolation,
            SearchStrategy::Hash,
        ][k - ValueOrder::ALL.len()],
    }
}

/// A tree configuration worth persisting: `search`, under an event
/// model if `modelled` or the search needs one, and with `weights`
/// profile weights (the floats of both must survive bit-exactly).
fn config_for(search: SearchStrategy, modelled: bool, weights: Option<Vec<f64>>) -> TreeConfig {
    let dx = DistOverDomain::new(Density::peak(0.3, 0.2, 0.7).unwrap(), DX as u64);
    let dy = DistOverDomain::new(Density::Uniform, DY as u64);
    let model = (modelled || search.needs_event_model())
        .then(|| JointDist::independent(vec![dx, dy]).unwrap());
    TreeConfig {
        search,
        event_model: model,
        profile_weights: weights,
        ..TreeConfig::default()
    }
}

/// Global-id oracle over live base + overlay profiles.
fn oracle(base: &ProfileSet, removed: &[bool], overlay: &ProfileSet, event: &Event) -> Vec<u32> {
    let mut want: Vec<u32> = base
        .matches(event)
        .unwrap()
        .into_iter()
        .map(|p| p.index())
        .filter(|k| !removed.get(*k).copied().unwrap_or(false))
        .map(|k| k as u32)
        .collect();
    want.extend(
        overlay
            .matches(event)
            .unwrap()
            .into_iter()
            .map(|p| base.len() as u32 + p.index() as u32),
    );
    want.sort_unstable();
    want
}

fn sorted(ids: &[u32]) -> Vec<u32> {
    let mut v = ids.to_vec();
    v.sort_unstable();
    v
}

proptest! {
    /// serialize → deserialize → match-agreement: the reloaded snapshot
    /// matches exactly like the original and like a fresh compile of
    /// the same live profiles, on both the tree and DFSA paths, per
    /// event and per block — under every search strategy, covering on
    /// and off, overlay entries (covered ones too) and tombstones
    /// included. The automaton lowered at load is the one the original
    /// compiled, and counts what it counts.
    #[test]
    fn snapshot_round_trip_matches(
        base_preds in arb_pred_pairs(12),
        overlay_preds in arb_pred_pairs(6),
        removed_seed in 0u64..=u64::MAX,
        search in 0usize..ValueOrder::ALL.len() + 3,
        modelled in 0u8..2,
        covered in 0u8..2,
        events in prop::collection::vec(
            (prop::option::of(0..DX), prop::option::of(0..DY)),
            1..12,
        ),
    ) {
        let schema = schema2();
        let base = profile_set(&schema, base_preds);
        let overlay = profile_set(&schema, overlay_preds);
        let removed: Vec<bool> = (0..base.len())
            .map(|k| (removed_seed >> (k % 64)) & 1 == 1)
            .collect();
        let cover = (covered == 1).then(|| {
            CoverSet::build_bulk(&schema, base.iter().map(|p| (p.id().index() as u32, p))).unwrap()
        });
        // Weights are per compiled profile: the uncovered compile's.
        let weights = cover
            .is_none()
            .then(|| (0..base.len()).map(|k| 1.0 + k as f64 * 0.25).collect());
        let config = config_for(strategy(search), modelled == 1, weights);
        let compiled = match &cover {
            Some(cover) => FilterSnapshot::compile_with_cover(&base, cover, &config),
            None => FilterSnapshot::compile(&base, &config),
        };
        let overlay_cover: Vec<_> = overlay
            .iter()
            .map(|p| match cover.as_ref().map(|c| (c, c.probe(p).unwrap())) {
                Some((c, CoverOutcome::Covered { rep, residual })) => {
                    Some((c.compiled_index_of(rep).unwrap(), residual))
                }
                _ => None,
            })
            .collect();
        let covers = overlay_cover
            .iter()
            .map(|c| c.as_ref().map(|(rep, r)| (*rep, r.as_slice())));
        let original = compiled
            .unwrap()
            .with_overlay_entries(overlay.iter().zip(covers))
            .unwrap();
        let dead = (0..removed.len()).filter(|&k| removed[k]);
        let original = dead.fold(original, |snap, k| snap.with_removed(k));

        let bytes = original.to_bytes();
        let reloaded = FilterSnapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(reloaded.base_len(), original.base_len());
        prop_assert_eq!(reloaded.overlay_len(), original.overlay_len());
        prop_assert_eq!(reloaded.removed_len(), original.removed_len());
        prop_assert_eq!(reloaded.live_len(), original.live_len());
        prop_assert_eq!(reloaded.overlay_cover_entries(), overlay_cover);
        let shape = |d: &Dfsa| (d.state_count(), d.leaf_count(), d.jump_state_count());
        prop_assert_eq!(shape(reloaded.dfsa()), shape(original.dfsa()));
        prop_assert_eq!(reloaded.dfsa().edge_count(), original.dfsa().edge_count());

        // Serialization is deterministic: a second trip is identical.
        prop_assert_eq!(&reloaded.to_bytes(), &bytes);

        let events: Vec<Event> = events
            .into_iter()
            .map(|(x, y)| {
                let mut b = Event::builder(&schema);
                if let Some(x) = x {
                    b = b.value("x", x).unwrap();
                }
                if let Some(y) = y {
                    b = b.value("y", y).unwrap();
                }
                b.build()
            })
            .collect();

        let mut scratch = SnapshotScratch::new();
        let mut indexed = IndexedEvent::new();
        for e in &events {
            let want = oracle(&base, &removed, &overlay, e);
            indexed.resolve_into(&schema, e).unwrap();
            let mut ops = Vec::new();
            for use_dfsa in [false, true] {
                original.match_into(&indexed, &mut scratch, use_dfsa);
                prop_assert_eq!(sorted(scratch.matched()), want.clone(), "original dfsa={use_dfsa}");
                ops.push(scratch.ops());
                reloaded.match_into(&indexed, &mut scratch, use_dfsa);
                prop_assert_eq!(sorted(scratch.matched()), want.clone(), "reloaded dfsa={use_dfsa}");
                ops.push(scratch.ops());
            }
            prop_assert!(ops.iter().all(|&n| n == ops[0]), "ops {:?}", ops);
        }

        // Block path, both variants, whole stream at once.
        let mut batch = IndexedBatch::new();
        batch.resolve_into(&schema, events.iter()).unwrap();
        let (mut block, mut before) = (SnapshotBlockScratch::new(), SnapshotBlockScratch::new());
        for use_dfsa in [false, true] {
            reloaded.match_block(&batch, &mut block, use_dfsa);
            original.match_block(&batch, &mut before, use_dfsa);
            for (i, e) in events.iter().enumerate() {
                let want = oracle(&base, &removed, &overlay, e);
                prop_assert_eq!(sorted(block.matched_of(i)), want, "block dfsa={use_dfsa} event {i}");
                prop_assert_eq!(block.ops_of(i), before.ops_of(i), "block dfsa={use_dfsa} event {i}");
            }
        }

        // The tree path still prices its comparisons after a reload
        // (the cost-model semantics survive, not just the matches).
        let fresh = {
            let mut live = ProfileSet::new(&schema);
            for p in base.iter() {
                if !removed[p.id().index()] {
                    live.insert(p.clone());
                }
            }
            for p in overlay.iter() {
                live.insert(p.clone());
            }
            live
        };
        // A fresh compile of the folded live set agrees on pure match
        // *content* (ids differ: the fold renumbers), per event count.
        if !fresh.is_empty() {
            let folded = FilterSnapshot::compile(&fresh, &TreeConfig::default()).unwrap();
            for e in &events {
                let want = oracle(&base, &removed, &overlay, e);
                indexed.resolve_into(&schema, e).unwrap();
                folded.match_into(&indexed, &mut scratch, true);
                prop_assert_eq!(scratch.matched().len(), want.len(), "fresh compile count");
            }
        }
    }

    /// Any single-byte corruption (or truncation) of a serialized
    /// snapshot is rejected with an error — never a panic, never a
    /// silently wrong snapshot.
    #[test]
    fn corrupt_snapshot_bytes_are_rejected(
        preds in arb_pred_pairs(8),
        flip in 0usize..4096,
        cut in 0usize..4096,
    ) {
        let schema = schema2();
        let base = profile_set(&schema, preds);
        let snap = FilterSnapshot::compile(&base, &TreeConfig::default()).unwrap();
        let bytes = snap.to_bytes();

        let mut corrupt = bytes.clone();
        let at = flip % corrupt.len();
        corrupt[at] ^= 0x40;
        prop_assert!(FilterSnapshot::from_bytes(&corrupt).is_err(), "flipped byte {at}");

        let cut = cut % bytes.len();
        prop_assert!(FilterSnapshot::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn empty_base_round_trips() {
    let schema = schema2();
    let empty = ProfileSet::new(&schema);
    let snap = FilterSnapshot::compile(&empty, &TreeConfig::default()).unwrap();
    let reloaded = FilterSnapshot::from_bytes(&snap.to_bytes()).unwrap();
    assert_eq!(reloaded.base_len(), 0);
    let e = Event::builder(&schema).value("x", 3).unwrap().build();
    let indexed = IndexedEvent::resolve(&schema, &e).unwrap();
    let mut scratch = SnapshotScratch::new();
    reloaded.match_into(&indexed, &mut scratch, true);
    assert!(scratch.matched().is_empty());
}

/// The format version an image declares.
fn version(image: &[u8]) -> u32 {
    u32::from_le_bytes(image[4..8].try_into().unwrap())
}

/// Probes `old` — a snapshot loaded from an image an earlier format
/// wrote — and `fresh`, this build's compile of the same population:
/// the same automaton shape, and per event the same matches and ops on
/// both engines, and the same compiled profiles and ops from the
/// automaton alone.
fn assert_loads_as_fresh(old: &FilterSnapshot, fresh: &FilterSnapshot, events: &[IndexedEvent]) {
    let shape = |s: &FilterSnapshot| {
        let d = s.dfsa();
        (d.state_count(), d.leaf_count(), d.jump_state_count())
    };
    assert_eq!(shape(old), shape(fresh));
    assert_eq!(old.dfsa().edge_count(), fresh.dfsa().edge_count());
    let (mut a, mut b) = (SnapshotScratch::new(), SnapshotScratch::new());
    let (mut c, mut d) = (MatchScratch::new(), MatchScratch::new());
    for e in events {
        for use_dfsa in [false, true] {
            old.match_into(e, &mut a, use_dfsa);
            fresh.match_into(e, &mut b, use_dfsa);
            assert_eq!(a.matched(), b.matched(), "use_dfsa = {use_dfsa}");
            assert_eq!(a.ops(), b.ops(), "use_dfsa = {use_dfsa}");
        }
        old.dfsa().match_into(e, &mut c);
        fresh.dfsa().match_into(e, &mut d);
        assert_eq!((c.profiles(), c.ops()), (d.profiles(), d.ops()));
    }
}

/// `fixtures/stock_modelled_snapshot_pr21.bin` is the snapshot the
/// commit before the one-sweep model wrote for the population rebuilt
/// here: 200 stock profiles compiled in event order under the empirical
/// model of 500 observed trades — a model built by integrating a
/// 375-window mixture over the 19,901 price points, and serialized
/// twice, in the configuration and in the marginals section. The model
/// is now filled in one sweep and written once, and the version 3
/// image also stored the automaton and wrote each leaf's list in
/// place: the old image loads, serves as a fresh compile does, and
/// re-encodes to exactly the fresh compile's smaller image.
#[test]
fn parent_written_stock_snapshot_loads_and_re_encodes_identically() {
    use ens_filter::FilterStatistics;
    use ens_workloads::scenario::{stock_event_model, stock_profiles, stock_schema};
    use ens_workloads::EventGenerator;
    use rand::{rngs::StdRng, SeedableRng};

    let fixture: &[u8] = include_bytes!("fixtures/stock_modelled_snapshot_pr21.bin");
    let mut rng = StdRng::seed_from_u64(21);
    let profiles = stock_profiles(200, &mut rng).unwrap();
    let generator = EventGenerator::new(&stock_schema(), stock_event_model().unwrap()).unwrap();
    let mut stats = FilterStatistics::new(&profiles).unwrap();
    for _ in 0..500 {
        stats.record_event(&generator.sample(&mut rng)).unwrap();
    }
    let config = TreeConfig {
        search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
        event_model: Some(stats.empirical_model().unwrap()),
        ..TreeConfig::default()
    };
    let compiled = FilterSnapshot::compile(&profiles, &config).unwrap();
    let fresh = compiled.to_bytes();
    assert_eq!((version(fixture), version(&fresh)), (3, 5));
    assert!(fresh.len() < fixture.len(), "{} bytes", fresh.len());
    let old = FilterSnapshot::from_bytes(fixture).unwrap();
    assert!(
        old.to_bytes() == fresh,
        "the old image re-encodes as a fresh compile"
    );
    assert_eq!(old.tree().config().event_model, config.event_model);
    // The automaton lowered at load counts what the tree counts.
    let (mut by_tree, mut by_dfsa) = (SnapshotScratch::new(), SnapshotScratch::new());
    let mut events = Vec::new();
    for _ in 0..500 {
        let indexed = IndexedEvent::resolve(&stock_schema(), &generator.sample(&mut rng)).unwrap();
        old.match_into(&indexed, &mut by_tree, false);
        old.match_into(&indexed, &mut by_dfsa, true);
        assert_eq!(by_dfsa.matched(), by_tree.matched());
        assert_eq!(by_dfsa.ops(), by_tree.ops());
        events.push(indexed);
    }
    assert_loads_as_fresh(&old, &compiled, &events);
}

/// `fixtures/stock_unread_model_v5.bin` is an image of this format
/// written while a tree still kept every event model it was given and
/// its attribute partitions, for the population rebuilt here: 300 stock
/// profiles, covering on, the default natural-order shape — which reads
/// no model — under the empirical model of 500 observed trades (334 kB
/// of tables). It loads into a tree that holds neither the model nor
/// the partitions, serves 4,096 events as a fresh compile does, and
/// re-encodes to exactly the fresh compile's image, over 5× smaller.
#[test]
fn an_image_with_an_unread_model_loads_without_it() {
    use ens_workloads::scenario::{stock_event_model, stock_profiles, stock_schema};
    use ens_workloads::EventGenerator;
    use rand::{rngs::StdRng, SeedableRng};

    let fixture: &[u8] = include_bytes!("fixtures/stock_unread_model_v5.bin");
    let schema = stock_schema();
    let mut rng = StdRng::seed_from_u64(34);
    let profiles = stock_profiles(300, &mut rng).unwrap();
    let cover =
        CoverSet::build_bulk(&schema, profiles.iter().map(|p| (p.id().index() as u32, p))).unwrap();
    let compiled =
        FilterSnapshot::compile_with_cover(&profiles, &cover, &TreeConfig::default()).unwrap();
    let fresh = compiled.to_bytes();
    assert_eq!((version(fixture), version(&fresh)), (5, 5));
    let old = FilterSnapshot::from_bytes(fixture).unwrap();
    assert_eq!(old.tree().config().event_model, None);
    let again = old.to_bytes();
    assert!(again == fresh, "re-encodes as a fresh compile");
    assert!(
        5 * again.len() <= fixture.len(),
        "{} bytes re-encoded from {}",
        again.len(),
        fixture.len()
    );
    let generator = EventGenerator::new(&schema, stock_event_model().unwrap()).unwrap();
    let events: Vec<IndexedEvent> = (0..4096)
        .map(|_| IndexedEvent::resolve(&schema, &generator.sample(&mut rng)).unwrap())
        .collect();
    assert!(events.iter().any(|e| {
        let mut scratch = SnapshotScratch::new();
        old.match_into(e, &mut scratch, true);
        !scratch.matched().is_empty()
    }));
    assert_loads_as_fresh(&old, &compiled, &events);
}

/// `fixtures/covered_small_snapshot_v4.bin` is the image the version 4
/// format wrote for the population rebuilt here (the small covered
/// image `hostile.rs` sweeps): three base profiles, the second inside
/// the first and tombstoned, and two overlay entries, the first inside
/// the first base profile. It loads, serves as a fresh compile does,
/// and re-encodes to exactly the fresh compile's image.
#[test]
fn a_version_4_image_loads_as_a_fresh_compile() {
    let fixture: &[u8] = include_bytes!("fixtures/covered_small_snapshot_v4.bin");
    let schema = Schema::builder()
        .attribute("x", Domain::int(0, 99))
        .unwrap()
        .build();
    let profiles = |preds: &[Predicate]| {
        let mut set = ProfileSet::new(&schema);
        for p in preds {
            let profile = Profile::from_predicates(&schema, ProfileId::new(0), vec![p.clone()]);
            set.insert(profile.unwrap());
        }
        set
    };
    let base = profiles(&[
        Predicate::between(10, 40),
        Predicate::between(20, 30),
        Predicate::ge(60),
    ]);
    let overlay = profiles(&[Predicate::between(25, 35), Predicate::le(5)]);
    let cover =
        CoverSet::build_bulk(&schema, base.iter().map(|p| (p.id().index() as u32, p))).unwrap();
    let overlay_cover: Vec<_> = overlay
        .iter()
        .map(|p| match cover.probe(p).unwrap() {
            CoverOutcome::Covered { rep, residual } => {
                Some((cover.compiled_index_of(rep).unwrap(), residual))
            }
            CoverOutcome::Rep => None,
        })
        .collect();
    let covers = overlay_cover
        .iter()
        .map(|c| c.as_ref().map(|(rep, r)| (*rep, r.as_slice())));
    let fresh = FilterSnapshot::compile_with_cover(&base, &cover, &TreeConfig::default())
        .unwrap()
        .with_overlay_entries(overlay.iter().zip(covers))
        .unwrap()
        .with_removed(1);
    assert_eq!(version(fixture), 4);
    let old = FilterSnapshot::from_bytes(fixture).unwrap();
    assert!(old.cover_plan().is_some());
    assert_eq!(old.overlay_cover_entries(), overlay_cover);
    assert!(
        old.to_bytes() == fresh.to_bytes(),
        "re-encodes as a fresh compile"
    );
    let events: Vec<IndexedEvent> = (0..=100)
        .map(Some)
        .chain([None])
        .map(|x| IndexedEvent::from_indices(vec![x]))
        .collect();
    assert_loads_as_fresh(&old, &fresh, &events);
}

/// A checkpoint's event model is decoded, not trusted: an image whose
/// model has one prefix sum fewer than its size needs — every copy of
/// it, so that no comparison of copies refuses it first — is refused
/// at load, instead of reaching Eq. 2 as an index past the table. (The
/// tree is compiled in event order: a shape that reads no model keeps
/// none, and its image has no model to cut.)
#[test]
fn a_model_whose_tables_do_not_fit_its_size_is_refused() {
    use ens_filter::persist::crc32;
    use ens_filter::CostModel;

    let schema = Schema::builder()
        .attribute("x", Domain::int(0, 99))
        .unwrap()
        .build();
    let mut profiles = ProfileSet::new(&schema);
    profiles
        .insert_with(|b| b.predicate("x", Predicate::ge(90)))
        .unwrap();
    let x = DistOverDomain::new(Density::falling(), 100);
    let config = TreeConfig {
        search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
        event_model: Some(JointDist::independent(vec![x]).unwrap()),
        ..TreeConfig::default()
    };
    let mut bytes = FilterSnapshot::compile(&profiles, &config)
        .unwrap()
        .to_bytes();
    // The prefix sums in the codec's tagged form: a sequence (tag 7) of
    // 101 floats (tag 5), the first 0.0. Cut to 100, last one dropped.
    let head: Vec<u8> = [&[7][..], &101u32.to_le_bytes(), &[5], &0f64.to_le_bytes()].concat();
    let sites: Vec<usize> = (0..bytes.len() - head.len())
        .filter(|&at| bytes[at..at + head.len()] == head[..])
        .collect();
    assert!(!sites.is_empty());
    for &at in sites.iter().rev() {
        bytes[at + 1..at + 5].copy_from_slice(&100u32.to_le_bytes());
        let last = at + 5 + 100 * 9;
        bytes.drain(last..last + 9);
    }
    let payload = bytes.len() - 4;
    let crc = crc32(&bytes[..payload]);
    bytes[payload..].copy_from_slice(&crc.to_le_bytes());
    match FilterSnapshot::from_bytes(&bytes) {
        Err(refused) => assert!(refused.to_string().contains("do not fit"), "{refused}"),
        Ok(snap) => {
            let model = snap.tree().config().event_model.clone().unwrap();
            let priced = CostModel::new(snap.tree(), &model).and_then(|m| m.evaluate());
            panic!("a model without its last prefix sum was accepted and priced: {priced:?}");
        }
    }
}
