//! Counting-allocator proof of the zero-allocation fast path: after one
//! warm-up pass, `IndexedEvent::resolve_into` + `Matcher::match_into`
//! perform no heap allocation for any matcher.
//!
//! This file deliberately contains a single `#[test]` so no concurrent
//! test thread can disturb the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ens_filter::baseline::NaiveMatcher;
use ens_filter::{
    BlockScratch, Dfsa, FilterSnapshot, MatchScratch, Matcher, OverlayIndex, SnapshotBlockScratch,
    SnapshotScratch, TreeConfig,
};
use ens_types::{
    CoverOutcome, CoverSet, Domain, Event, IndexedBatch, IndexedEvent, Predicate, Profile,
    ProfileId, ProfileSet, Schema,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A workload covering every DFSA state kind: a categorical attribute
/// (first-byte dispatch resolution), a small integer domain (jump-table
/// states) and a large one (binary-search states with bucket index).
fn workload() -> (Schema, ProfileSet, Vec<Event>) {
    let schema = Schema::builder()
        .attribute(
            "region",
            Domain::categorical(["north", "south", "east", "west"]).unwrap(),
        )
        .unwrap()
        .attribute("level", Domain::int(0, 49))
        .unwrap()
        .attribute("reading", Domain::int(0, 9_999))
        .unwrap()
        .build();
    let regions = ["north", "south", "east", "west"];
    let mut rng = StdRng::seed_from_u64(41);
    let mut ps = ProfileSet::new(&schema);
    for _ in 0..120 {
        ps.insert_with(|mut b| {
            if rng.gen_bool(0.6) {
                b = b.predicate("region", Predicate::eq(regions[rng.gen_range(0..4)]))?;
            }
            if rng.gen_bool(0.6) {
                let a = rng.gen_range(0..50);
                let c = rng.gen_range(0..50);
                b = b.predicate("level", Predicate::between(a.min(c), a.max(c)))?;
            }
            if rng.gen_bool(0.8) {
                let a = rng.gen_range(0..10_000);
                let c = rng.gen_range(0..10_000);
                b = b.predicate("reading", Predicate::between(a.min(c), a.max(c)))?;
            }
            Ok(b)
        })
        .unwrap();
    }
    let events: Vec<Event> = (0..256)
        .map(|_| {
            let mut b = Event::builder(&schema)
                .value("region", regions[rng.gen_range(0..4)])
                .unwrap()
                .value("reading", rng.gen_range(0..10_000))
                .unwrap();
            if rng.gen_bool(0.8) {
                // Some events omit `level` to walk the star edges too.
                b = b.value("level", rng.gen_range(0..50)).unwrap();
            }
            b.build()
        })
        .collect();
    (schema, ps, events)
}

#[test]
fn warm_fast_paths_allocate_nothing() {
    let (schema, ps, events) = workload();
    let dfsa = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
    let naive = NaiveMatcher::new(&ps).unwrap();
    let counting = OverlayIndex::new(&ps).unwrap();

    let matchers: [(&str, &dyn Matcher); 3] =
        [("dfsa", &dfsa), ("naive", &naive), ("counting", &counting)];
    for (name, matcher) in matchers {
        let mut indexed = IndexedEvent::new();
        let mut scratch = MatchScratch::new();
        let mut run = |check: &mut u64| {
            for e in &events {
                indexed.resolve_into(&schema, e).unwrap();
                matcher.match_into(&indexed, &mut scratch);
                *check += scratch.profiles().len() as u64;
            }
        };
        // Warm-up pass: buffers grow to their steady-state capacity.
        let mut warm = 0u64;
        run(&mut warm);
        // Steady state: the hot loop must not touch the heap at all.
        let before = allocations();
        let mut hot = 0u64;
        run(&mut hot);
        let allocated = allocations() - before;
        assert_eq!(
            allocated, 0,
            "{name}: warm match_into loop performed {allocated} heap allocations"
        );
        assert_eq!(warm, hot, "{name}: warm and hot passes disagree");
        assert!(hot > 0, "{name}: workload should produce matches");
    }

    // The batch fast path: block resolution + interleaved match_block
    // must also be allocation-free once the batch and block scratch
    // have grown to their steady-state footprint.
    {
        let dfsa = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
        let mut batch = IndexedBatch::new();
        let mut block = BlockScratch::new();
        let mut run = |check: &mut u64| {
            for chunk in events.chunks(64) {
                batch.resolve_into(&schema, chunk.iter()).unwrap();
                dfsa.match_block(&batch, &mut block);
                for i in 0..block.len() {
                    *check += block.profiles_of(i).len() as u64;
                }
            }
        };
        let mut warm = 0u64;
        run(&mut warm);
        let before = allocations();
        let mut hot = 0u64;
        run(&mut hot);
        let allocated = allocations() - before;
        assert_eq!(
            allocated, 0,
            "warm match_block loop performed {allocated} heap allocations"
        );
        assert_eq!(warm, hot, "block: warm and hot passes disagree");
        assert!(hot > 0, "block: workload should produce matches");
    }

    // A checkpoint-reloaded snapshot is a first-class matcher: after
    // the serde round trip (overlay and tombstones included) and one
    // warm-up pass, its per-event and block paths must match the original allocation-for-
    // allocation: zero.
    {
        let overlay: ProfileSet = {
            let mut ov = ProfileSet::new(&schema);
            for p in ps.iter().take(8) {
                ov.insert(p.clone());
            }
            ov
        };
        let removed: Vec<bool> = (0..ps.len()).map(|k| k % 7 == 0).collect();
        let original = FilterSnapshot::compile(&ps, &TreeConfig::default())
            .unwrap()
            .with_overlay(&overlay)
            .unwrap()
            .with_removed(removed);
        let reloaded = FilterSnapshot::from_bytes(&original.to_bytes()).unwrap();

        for (name, snap) in [("original", &original), ("reloaded", &reloaded)] {
            for use_dfsa in [false, true] {
                let mut indexed = IndexedEvent::new();
                let mut scratch = SnapshotScratch::new();
                let mut run = |check: &mut u64| {
                    for e in &events {
                        indexed.resolve_into(&schema, e).unwrap();
                        snap.match_into(&indexed, &mut scratch, use_dfsa);
                        *check += scratch.matched().len() as u64;
                    }
                };
                let mut warm = 0u64;
                run(&mut warm);
                let before = allocations();
                let mut hot = 0u64;
                run(&mut hot);
                let allocated = allocations() - before;
                assert_eq!(
                    allocated, 0,
                    "{name} snapshot (dfsa={use_dfsa}): warm match_into \
                     loop performed {allocated} heap allocations"
                );
                assert_eq!(warm, hot, "{name} snapshot: passes disagree");
                assert!(hot > 0, "{name} snapshot: workload should match");

                let mut batch = IndexedBatch::new();
                let mut block = SnapshotBlockScratch::new();
                let mut run_block = |check: &mut u64| {
                    for chunk in events.chunks(64) {
                        batch.resolve_into(&schema, chunk.iter()).unwrap();
                        snap.match_block(&batch, &mut block, use_dfsa);
                        for i in 0..chunk.len() {
                            *check += block.matched_of(i).len() as u64;
                        }
                    }
                };
                let mut warm = 0u64;
                run_block(&mut warm);
                let before = allocations();
                let mut hot = 0u64;
                run_block(&mut hot);
                let allocated = allocations() - before;
                assert_eq!(
                    allocated, 0,
                    "{name} snapshot (dfsa={use_dfsa}): warm match_block \
                     loop performed {allocated} heap allocations"
                );
                assert_eq!(warm, hot, "{name} snapshot block: passes disagree");
            }
        }
    }

    // Covering expansion delivers through a scratch bitmap instead of
    // sorting per event: a covered snapshot — exact duplicates, strict
    // children, tombstones (a representative's among them) and covered
    // overlay entries beside index-matched ones — matches without
    // touching the heap either, per event and per block.
    {
        let mut population = ProfileSet::new(&schema);
        let mut rng = StdRng::seed_from_u64(43);
        for p in ps.iter() {
            population.insert(p.clone());
            // A duplicate and a narrowing of every other profile.
            if p.id().index() % 2 == 0 {
                population.insert(p.clone());
                let mut preds = p.predicates().to_vec();
                let a = rng.gen_range(0..10_000);
                let c = rng.gen_range(0..10_000);
                preds[2] = Predicate::between(a.min(c), a.max(c));
                let narrowed = Profile::from_predicates(&schema, ProfileId::new(0), preds);
                population.insert(narrowed.unwrap());
            }
        }
        let cover = CoverSet::build_bulk(
            &schema,
            population.iter().map(|p| (p.id().index() as u32, p)),
        )
        .unwrap();
        let compiled =
            FilterSnapshot::compile_with_cover(&population, &cover, &TreeConfig::default())
                .unwrap();
        let plan = compiled.cover_plan().unwrap();
        assert!(
            plan.covered_count() >= 60,
            "{} covered",
            plan.covered_count()
        );
        let mut overlay = ProfileSet::new(&schema);
        let mut overlay_cover = Vec::new();
        for p in population.iter().step_by(23) {
            overlay_cover.push(match cover.probe(p).unwrap() {
                CoverOutcome::Covered { rep, residual } => {
                    Some((cover.compiled_index_of(rep).unwrap(), residual))
                }
                CoverOutcome::Rep => None,
            });
            overlay.insert(p.clone());
        }
        for p in ps.iter().take(4) {
            let mut preds = p.predicates().to_vec();
            preds[1] = Predicate::between(3, 47);
            let uncovered = Profile::from_predicates(&schema, ProfileId::new(0), preds);
            overlay.insert(uncovered.unwrap());
            overlay_cover.push(None);
        }
        assert!(overlay_cover.iter().any(Option::is_some));
        let removed: Vec<bool> = (0..population.len()).map(|k| k % 7 == 0).collect();
        assert!(plan.rep_slots().iter().any(|&s| removed[s as usize]));
        let covers = overlay_cover
            .iter()
            .map(|c| c.as_ref().map(|(rep, r)| (*rep, r.as_slice())));
        let snap = compiled
            .with_overlay_entries(overlay.iter().zip(covers))
            .unwrap()
            .with_removed(removed.clone());
        // The same overlay entered one entry at a time, every third
        // position then tombstoned in place: the overlay's tombstone
        // bitmap filters the counting index's hits and the expansion
        // without touching the heap either.
        let mut tombstoned = compiled.with_removed(removed);
        let mut indexed: Vec<(u32, &Profile)> = Vec::new();
        for (k, (p, cover)) in overlay.iter().zip(&overlay_cover).enumerate() {
            tombstoned = match cover {
                Some((rep, residual)) => tombstoned.with_covered_entry(*rep, residual).unwrap(),
                None => {
                    let next = tombstoned.with_indexed_entry(p, indexed.iter().copied());
                    indexed.push((k as u32, p));
                    next.unwrap()
                }
            };
        }
        for k in (0..overlay.len()).step_by(3) {
            tombstoned = tombstoned.with_overlay_removed(k);
        }
        assert!(tombstoned.overlay_removed_len() > 0);

        for (name, snap) in [("covered", &snap), ("tombstoned overlay", &tombstoned)] {
            for use_dfsa in [false, true] {
                let mut indexed = IndexedEvent::new();
                let mut scratch = SnapshotScratch::new();
                let mut batch = IndexedBatch::new();
                let mut block = SnapshotBlockScratch::new();
                let mut run = |check: &mut (u64, u64)| {
                    for e in &events {
                        indexed.resolve_into(&schema, e).unwrap();
                        snap.match_into(&indexed, &mut scratch, use_dfsa);
                        check.0 += scratch.matched().len() as u64;
                        check.1 += scratch.cover_delivered();
                    }
                    for chunk in events.chunks(64) {
                        batch.resolve_into(&schema, chunk.iter()).unwrap();
                        snap.match_block(&batch, &mut block, use_dfsa);
                        for i in 0..chunk.len() {
                            check.0 += block.matched_of(i).len() as u64;
                        }
                        check.1 += block.cover_delivered();
                    }
                };
                let mut warm = (0, 0);
                run(&mut warm);
                let before = allocations();
                let mut hot = (0, 0);
                run(&mut hot);
                let allocated = allocations() - before;
                assert_eq!(
                    allocated, 0,
                    "{name} snapshot (dfsa={use_dfsa}): warm match_into + match_block \
                 loops performed {allocated} heap allocations"
                );
                assert_eq!(warm, hot, "{name} snapshot: passes disagree");
                assert!(hot.1 > 0, "{name} snapshot: expansion should deliver");
            }
        }
    }

    // The online statistics of the self-tuning loop ride the publish
    // path, so they must be allocation-free too: histogram updates and
    // the L1 drift evaluation (forced on every event here via
    // `drift_check_every: 1` and an unreachable threshold).
    let policy = ens_filter::RebuildPolicy {
        min_events: 1,
        drift_threshold: 2.1, // L1 tops out at 2.0: never fires
        drift_check_every: 1,
        ..ens_filter::RebuildPolicy::default()
    };
    let mut tracker = ens_filter::DriftTracker::new(&ps, policy).unwrap();
    for e in &events {
        assert!(tracker.observe(e).unwrap().is_none()); // warm-up
    }
    let before = allocations();
    for e in &events {
        assert!(tracker.observe(e).unwrap().is_none());
    }
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "warm DriftTracker::observe performed {allocated} heap allocations"
    );
    assert!(tracker.current_drift().unwrap() > 0.0);
}
