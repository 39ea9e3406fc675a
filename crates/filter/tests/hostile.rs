//! Hostile bytes against [`FilterSnapshot::from_bytes`]: whatever the
//! input, decoding returns — a snapshot or an error — without a panic,
//! and without asking the allocator for more than the input could
//! justify.
//!
//! A single `#[test]`, so that no concurrent test thread disturbs the
//! allocation counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ens_dist::{Density, DistOverDomain, JointDist};
use ens_filter::persist::crc32;
use ens_filter::{
    Direction, FilterSnapshot, SearchStrategy, SnapshotBlockScratch, SnapshotScratch, TreeConfig,
    ValueOrder,
};
use ens_types::{
    CoverOutcome, CoverSet, Domain, IndexedBatch, IndexedEvent, Predicate, Profile, ProfileId,
    ProfileSet, Schema,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct TrackingAlloc;

/// Largest single request and bytes requested in total since the last
/// reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    LARGEST.fetch_max(size, Ordering::Relaxed);
    TOTAL.fetch_add(size, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// A valid checkpoint with every section populated: covering plan
/// (duplicates, one- and multi-interval residuals), counting-index and
/// covered overlay entries, tombstones.
fn valid_snapshot() -> Vec<u8> {
    let schema = Schema::builder()
        .attribute("x", Domain::int(0, 99))
        .unwrap()
        .attribute("y", Domain::int(0, 9))
        .unwrap()
        .build();
    let mut rng = StdRng::seed_from_u64(7);
    let mut pool: Vec<Profile> = Vec::new();
    let profile = |rng: &mut StdRng, pool: &[Profile]| {
        let mut preds = vec![Predicate::DontCare; 2];
        if !pool.is_empty() && rng.gen_bool(0.6) {
            preds = pool[rng.gen_range(0..pool.len())].predicates().to_vec();
            match rng.gen_range(0..3) {
                0 => {}
                1 => preds[1] = Predicate::ne(rng.gen_range(0..10)),
                _ => {
                    let lo = rng.gen_range(0..100);
                    preds[0] = Predicate::between(lo, rng.gen_range(lo..100));
                }
            }
        } else if rng.gen_bool(0.8) {
            let lo = rng.gen_range(0..100);
            preds[0] = Predicate::between(lo, rng.gen_range(lo..100));
        }
        Profile::from_predicates(&schema, ProfileId::new(0), preds).unwrap()
    };
    let mut base = ProfileSet::new(&schema);
    for _ in 0..40 {
        let p = profile(&mut rng, &pool);
        pool.push(p.clone());
        base.insert(p);
    }
    let cover =
        CoverSet::build_bulk(&schema, base.iter().map(|p| (p.id().index() as u32, p))).unwrap();
    let snap = FilterSnapshot::compile_with_cover(&base, &cover, &TreeConfig::default()).unwrap();
    let mut overlay = ProfileSet::new(&schema);
    let mut overlay_cover = Vec::new();
    for _ in 0..8 {
        let p = profile(&mut rng, &pool);
        overlay_cover.push(match cover.probe(&p).unwrap() {
            CoverOutcome::Covered { rep, residual } => {
                Some((cover.compiled_index_of(rep).unwrap(), residual))
            }
            CoverOutcome::Rep => None,
        });
        overlay.insert(p);
    }
    assert!(overlay_cover.iter().any(Option::is_some));
    let covers = overlay_cover
        .iter()
        .map(|c| c.as_ref().map(|(rep, r)| (*rep, r.as_slice())));
    snap.with_overlay_entries(overlay.iter().zip(covers))
        .unwrap()
        .with_removed((0..base.len()).map(|k| k % 5 == 0).collect())
        .to_bytes()
}

/// `fixtures/stock_modelled_snapshot_pr21.bin`, a version 3 image,
/// which carries the event model twice (configuration and marginals
/// section), with one window weight of the price density in the
/// section's copy overwritten and the checksum put right: each copy is
/// a valid distribution, and they differ.
fn snapshot_with_disagreeing_marginals() -> Vec<u8> {
    let mut bytes = include_bytes!("fixtures/stock_modelled_snapshot_pr21.bin").to_vec();
    let old = FilterSnapshot::from_bytes(&bytes).unwrap();
    let model = old.tree().config().event_model.as_ref().unwrap();
    let Density::Mixture(windows) = model.marginals()[1].density() else {
        panic!("the empirical model is a mixture of windows");
    };
    let weight = windows[0].0.to_le_bytes();
    let sites: Vec<usize> = (0..bytes.len() - 8)
        .filter(|&at| bytes[at..at + 8] == weight)
        .collect();
    assert_eq!(sites.len(), 2, "the weight is written twice");
    bytes[sites[1]..sites[1] + 8].copy_from_slice(&0.5f64.to_le_bytes());
    reseal(&mut bytes);
    bytes
}

/// Two one-profile snapshots whose images line up byte for byte but
/// where the profile's range shows, spliced at every byte they differ
/// at. Every accepted splice serves what its tree does, and counts it
/// too.
fn splices_serve_what_their_trees_do() {
    let schema = Schema::builder()
        .attribute("x", Domain::int(0, 99))
        .unwrap()
        .build();
    let image = |lo: i64| {
        let mut profiles = ProfileSet::new(&schema);
        profiles
            .insert_with(|b| b.predicate("x", Predicate::between(lo, lo + 9)))
            .unwrap();
        FilterSnapshot::compile(&profiles, &TreeConfig::default())
            .unwrap()
            .to_bytes()
    };
    let (a, b) = (image(10), image(20));
    assert_eq!(a.len(), b.len(), "the images line up");
    let (mut by_tree, mut by_dfsa) = (SnapshotScratch::new(), SnapshotScratch::new());
    for at in (0..a.len() - 4).filter(|&at| a[at] != b[at]) {
        let mut bytes = [&a[..at], &b[at..]].concat();
        reseal(&mut bytes);
        let Ok(snap) = FilterSnapshot::from_bytes(&bytes) else {
            continue;
        };
        for x in 0..100 {
            let e = IndexedEvent::from_indices(vec![Some(x)]);
            snap.match_into(&e, &mut by_tree, false);
            snap.match_into(&e, &mut by_dfsa, true);
            assert_eq!(
                by_dfsa.matched(),
                by_tree.matched(),
                "splice at {at}, x {x}"
            );
            assert_eq!(by_dfsa.ops(), by_tree.ops(), "splice at {at}, x {x}");
        }
    }
}

/// A small image over one attribute: four base profiles, the second
/// inside the first and tombstoned, the fourth inside the third, and
/// two overlay entries, the first inside the first base profile —
/// compiled with covering on or off. Uncovered, the last leaf list is
/// the one before it plus an id, so one changed byte can repeat an id.
fn small_snapshot(covering: bool) -> Vec<u8> {
    let schema = Schema::builder()
        .attribute("x", Domain::int(0, 99))
        .unwrap()
        .build();
    let profiles = |preds: &[Predicate]| {
        let mut set = ProfileSet::new(&schema);
        for p in preds {
            set.insert(
                Profile::from_predicates(&schema, ProfileId::new(0), vec![p.clone()]).unwrap(),
            );
        }
        set
    };
    let base = profiles(&[
        Predicate::between(10, 40),
        Predicate::between(20, 30),
        Predicate::ge(60),
        Predicate::between(90, 99),
    ]);
    let overlay = profiles(&[Predicate::between(25, 35), Predicate::le(5)]);
    let cover =
        CoverSet::build_bulk(&schema, base.iter().map(|p| (p.id().index() as u32, p))).unwrap();
    let config = TreeConfig::default();
    let snap = if covering {
        FilterSnapshot::compile_with_cover(&base, &cover, &config)
    } else {
        FilterSnapshot::compile(&base, &config)
    };
    let overlay_cover: Vec<_> = overlay
        .iter()
        .map(|p| match cover.probe(p).unwrap() {
            CoverOutcome::Covered { rep, residual } if covering => {
                Some((cover.compiled_index_of(rep).unwrap(), residual))
            }
            _ => None,
        })
        .collect();
    assert_eq!(overlay_cover[0].is_some(), covering);
    let covers = overlay_cover
        .iter()
        .map(|c| c.as_ref().map(|(rep, r)| (*rep, r.as_slice())));
    snap.unwrap()
        .with_overlay_entries(overlay.iter().zip(covers))
        .unwrap()
        .with_removed(vec![false, true, false, false])
        .to_bytes()
}

/// A V1 image: `x` in 0..=9, profiles `x in [0, 1]`, `x in [4, 5]` and
/// `x >= 8`, scanned in ascending event probability under a falling
/// density — so its root's ordering is written out, and a changed byte
/// can land in it.
fn v1_snapshot() -> Vec<u8> {
    let schema = Schema::builder()
        .attribute("x", Domain::int(0, 9))
        .unwrap()
        .build();
    let mut profiles = ProfileSet::new(&schema);
    for p in [
        Predicate::between(0, 1),
        Predicate::between(4, 5),
        Predicate::ge(8),
    ] {
        profiles.insert_with(|b| b.predicate("x", p)).unwrap();
    }
    let config = TreeConfig {
        search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Ascending)),
        event_model: Some(
            JointDist::independent(vec![DistOverDomain::new(Density::falling(), 10)]).unwrap(),
        ),
        ..TreeConfig::default()
    };
    FilterSnapshot::compile(&profiles, &config)
        .unwrap()
        .to_bytes()
}

/// Every single-byte change of `image`, resealed: no decode panics or
/// overspends its budget, and whatever decodes matches only ids below
/// `base_len + overlay_len`, each once and ascending, per event and per
/// block, on both engines. Returns how many changes decoded.
fn sweep_every_byte(image: &[u8]) -> usize {
    let mut accepted = 0;
    let (mut single, mut block) = (SnapshotScratch::new(), SnapshotBlockScratch::new());
    let (mut event, mut batch) = (IndexedEvent::new(), IndexedBatch::new());
    for at in 0..image.len() - 4 {
        for byte in (0..=u8::MAX).filter(|&b| b != image[at]) {
            let mut bytes = image.to_vec();
            bytes[at] = byte;
            reseal(&mut bytes);
            let Some(snap) = decode_within_budget(&bytes) else {
                continue;
            };
            accepted += 1;
            let ids = (snap.base_len() + snap.overlay_len()) as u64;
            // Rows as wide as the decoded schema, the first attribute
            // probed below, inside and above every range, and missing.
            let mut row = vec![IndexedEvent::MISSING; snap.tree().schema().len().max(1)];
            batch.reset(row.len());
            for x in [0, 15, 25, 35, 60, 95, 100, IndexedEvent::MISSING] {
                row[0] = x;
                batch.push_raw(&row);
            }
            for use_dfsa in [false, true] {
                snap.match_block(&batch, &mut block, use_dfsa);
                for i in 0..batch.len() {
                    event.copy_from_raw(batch.row(i));
                    snap.match_into(&event, &mut single, use_dfsa);
                    for emitted in [single.matched(), block.matched_of(i)] {
                        assert!(
                            emitted.iter().all(|&id| u64::from(id) < ids),
                            "byte {at} set to {byte} emits an id outside the snapshot"
                        );
                        assert!(
                            emitted.windows(2).all(|w| w[0] < w[1]),
                            "byte {at} set to {byte} emits ids out of order"
                        );
                    }
                }
            }
        }
    }
    accepted
}

/// Replaces the trailing checksum by the right one, so that a mutated
/// payload gets past it to the decoders.
fn reseal(bytes: &mut Vec<u8>) {
    let payload = bytes.len().saturating_sub(4);
    bytes.truncate(payload);
    let crc = crc32(bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
}

/// Decodes `bytes` and checks the allocator was asked for nothing the
/// input's length does not account for. No single request may exceed
/// 64 bytes per input byte (the widest decoded element per encoded
/// byte, with room to spare): a length field read from the input never
/// sizes an allocation on its own.
fn decode_within_budget(bytes: &[u8]) -> Option<FilterSnapshot> {
    LARGEST.store(0, Ordering::Relaxed);
    TOTAL.store(0, Ordering::Relaxed);
    let decoded = FilterSnapshot::from_bytes(bytes);
    let (largest, total) = (
        LARGEST.load(Ordering::Relaxed),
        TOTAL.load(Ordering::Relaxed),
    );
    let len = bytes.len();
    assert!(
        largest <= 64 * len + 4096,
        "one allocation of {largest} bytes decoding {len} input bytes"
    );
    // Leaf lists are stored as differences from the previous leaf, so
    // the decoded tree may legitimately outgrow its image — but by a
    // factor, never by an amount an attacker picks.
    assert!(
        total <= 4096 * len + (1 << 20),
        "{total} bytes allocated decoding {len} input bytes"
    );
    decoded.ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn from_bytes_never_panics_and_allocates_within_its_input(seed in 0u64..=u64::MAX) {
        let valid = valid_snapshot();
        prop_assert!(decode_within_budget(&valid).is_some());
        // The model is held once, and the section that repeats it must
        // repeat it: refused, not resolved in favour of either copy.
        let torn = FilterSnapshot::from_bytes(&snapshot_with_disagreeing_marginals());
        let refusal = torn.err().map(|e| e.to_string()).unwrap_or_default();
        prop_assert!(refusal.contains("marginals section"), "{refusal:?}");
        splices_serve_what_their_trees_do();
        // Exhaustively, on small images — this build's, the covered one
        // the version 4 format wrote, whose leaves are read in place,
        // and a covered version 5 one written with its partitions and
        // an event model its shape does not read, both decoded and then
        // dropped (`x` in 0..=3; profiles `x <= 1`, `x = 1` inside it
        // and `x >= 2`; the natural order under a falling density), and
        // a V1 one, whose written ordering is swept too: a changed
        // domain bound, leaf id, leaf reference or scan table must not
        // reach `Domain::size` or the dispatch tables, nor a match.
        let v4: &[u8] = include_bytes!("fixtures/covered_small_snapshot_v4.bin");
        let unread: &[u8] = include_bytes!("fixtures/tiny_unread_model_v5.bin");
        let loaded = FilterSnapshot::from_bytes(unread).unwrap();
        prop_assert!(loaded.tree().config().event_model.is_none());
        let images = [
            small_snapshot(false),
            small_snapshot(true),
            v4.to_vec(),
            unread.to_vec(),
            v1_snapshot(),
        ];
        for image in images {
            let decoded = sweep_every_byte(&image);
            prop_assert!(decoded > 0 && decoded < 255 * image.len(), "{decoded} decoded");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut accepted, mut rejected) = (0u32, 0u32);
        for case in 0..6000 {
            let mut bytes = match case % 4 {
                // Arbitrary bytes.
                0 => (0..rng.gen_range(0..256)).map(|_| rng.gen::<u8>()).collect(),
                // A valid image with a few bytes overwritten.
                1 | 2 => {
                    let mut b = valid.clone();
                    for _ in 0..rng.gen_range(1..4) {
                        let at = rng.gen_range(0..b.len() - 4);
                        b[at] = match rng.gen_range(0..4) {
                            0 => 0,
                            1 => 0xFF,
                            2 => b[at].wrapping_add(1),
                            _ => rng.gen(),
                        };
                    }
                    b
                }
                // A valid image cut short, or with bytes spliced in.
                _ => {
                    let mut b = valid.clone();
                    let at = rng.gen_range(0..b.len() - 4);
                    if rng.gen_bool(0.5) {
                        b.truncate(at + 4);
                    } else {
                        let extra: Vec<u8> =
                            (0..rng.gen_range(1..16)).map(|_| rng.gen::<u8>()).collect();
                        b.splice(at..at, extra);
                    }
                    b
                }
            };
            // Resealed, so that the section decoders are reached; one
            // in eight goes as it is and dies on the checksum.
            if case % 8 != 0 {
                reseal(&mut bytes);
            }
            if decode_within_budget(&bytes).is_some() {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        // Both outcomes are reached: a mutation that only touches, say,
        // a profile id in a leaf still decodes, one that breaks
        // structure does not.
        prop_assert!(accepted > 0 && rejected > 1000, "{accepted} accepted, {rejected} rejected");
    }
}
