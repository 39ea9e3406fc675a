//! Live-bytes budget of a broker at rest: an event model's per-point
//! tables (16 bytes a domain point) are held once a shard — in the
//! configuration its filter keeps of the compiled tree — not again
//! beside it, and only by a shard whose tree's shape reads them. A
//! shard keeps the automaton and no tree: publishing, pricing a drift
//! trigger and checkpointing raise none. A covering shard keeps its
//! expansion map once, in its filter's plan. A subscription's id and
//! channel are held once, in its dispatch slot.
//!
//! This file deliberately contains a single `#[test]` so no concurrent
//! test thread can disturb the global byte counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ens_filter::{Direction, SearchStrategy, TreeConfig, ValueOrder};
use ens_service::{Broker, BrokerConfig, Decision, DurabilityConfig, FsyncPolicy};
use ens_workloads::scenario::{stock_event_model, stock_profiles, stock_schema};
use ens_workloads::{covered_profiles, CoveredPopulationConfig, EventGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter publishes no
// other data.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Bytes still allocated of what `make` allocated, with its result
/// alive.
fn retained<T>(make: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    let made = make();
    (made, LIVE.load(Ordering::Relaxed).saturating_sub(before))
}

#[test]
fn a_shard_holds_its_model_tables_once() {
    let schema = stock_schema();
    // Point masses and prefix sums of one model over the schema.
    let points: u64 = schema.iter().map(|(_, a)| a.domain().size()).sum();
    let tables = 16 * points as usize;
    assert!(tables > 330_000, "the price attribute has 19,901 points");
    let config = |search| BrokerConfig {
        shards: 2,
        tree: TreeConfig {
            search,
            ..TreeConfig::default()
        },
        ..BrokerConfig::default()
    };
    let event_order = SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending));
    // Few enough subscriptions that a copy of the tables would not hide
    // among them.
    let profiles = stock_profiles(64, &mut StdRng::seed_from_u64(12)).unwrap();
    let loaded = |search| {
        retained(|| {
            let broker = Broker::new(&schema, config(search)).unwrap();
            let subs = broker.subscribe_many(profiles.iter().cloned()).unwrap();
            (broker, subs)
        })
    };

    // In event order, empty: each shard's seed tree is compiled under
    // the uniform model of an empty history. (1,362,118 bytes when the
    // tree kept a second copy of the tables.)
    let (broker, empty) = retained(|| Broker::new(&schema, config(event_order)).unwrap());
    assert!(
        (2 * tables..=760_000).contains(&empty),
        "an empty 2-shard stock broker in event order retains {empty} bytes ({tables} a model)"
    );
    drop(broker);
    let (broker, bytes) = loaded(event_order);
    assert!(
        (2 * tables..3 * tables).contains(&bytes),
        "a loaded 2-shard stock broker in event order retains {bytes} bytes ({tables} a model)"
    );
    drop(broker);

    // In natural order, which reads no model, no shard builds or holds
    // one: 21,694 and 116,490 bytes, where each shard held one at the
    // default shape before, and 136,914 loaded while each kept its tree
    // beside the automaton.
    let natural = SearchStrategy::default();
    let (broker, empty) = retained(|| Broker::new(&schema, config(natural)).unwrap());
    assert!(
        empty < tables / 8,
        "an empty 2-shard stock broker in natural order retains {empty} bytes"
    );
    drop(broker);
    let (broker, bytes) = loaded(natural);
    assert!(
        bytes < 120_000,
        "a loaded 2-shard stock broker in natural order retains {bytes} bytes"
    );
    drop(broker);

    // Serving, answering a drift trigger and checkpointing hold the
    // automata alone, and `dfsa_dispatch` selects nothing: a thousand
    // subscriptions retain the same bytes under either setting
    // (1,807,405 when `false` matched through trees raised beside the
    // automata).
    let profiles = stock_profiles(1000, &mut StdRng::seed_from_u64(13)).unwrap();
    let generator = EventGenerator::new(&schema, stock_event_model().unwrap()).unwrap();
    let mut rng = StdRng::seed_from_u64(14);
    let events: Vec<_> = (0..600).map(|_| generator.sample(&mut rng)).collect();
    let dir = std::env::temp_dir().join(format!("ens-bytes-{}", std::process::id()));
    let run = |search, dfsa_dispatch: bool| {
        let _ = std::fs::remove_dir_all(&dir);
        retained(|| {
            let durability = DurabilityConfig {
                checkpoint_every: 0,
                fsync: FsyncPolicy::Never,
                ..DurabilityConfig::new(&dir)
            };
            let config = BrokerConfig {
                dfsa_dispatch,
                // One queued notification a subscriber: what they
                // retain does not grow with the events.
                notify_capacity: 1,
                ..config(search)
            };
            let opened = Broker::open(&schema, config, durability).unwrap();
            let subs = opened
                .broker
                .subscribe_many(profiles.iter().cloned())
                .unwrap();
            for event in &events {
                opened.broker.publish(event).unwrap();
            }
            assert!(opened.broker.checkpoint().unwrap());
            (opened.broker, subs)
        })
    };
    // In event order the warm-up is priced on both automata and
    // rebuilt: 1,651,650 bytes. (A first run leaves this thread's
    // matching scratch behind.)
    drop(run(event_order, true).0);
    let ((broker, _subs), served) = run(event_order, true);
    let rebuilt = |d: &Decision| matches!(d, Decision::DriftRebuilt { .. });
    assert!(
        broker.decisions().iter().any(rebuilt),
        "a drift trigger was answered with a rebuild"
    );
    drop((broker, _subs));
    let ((broker, _subs), reference) = run(event_order, false);
    drop((broker, _subs));
    assert_eq!(served, reference, "retained with dfsa_dispatch on and off");
    // In natural order a trigger would have no candidate to price —
    // the same tree would come out — so the shards sample nothing and
    // no trigger fires: no warm-up to decline, nothing built.
    let ((broker, _subs), served) = run(natural, true);
    let drift = |d: &Decision| {
        matches!(
            d,
            Decision::DriftDeclined { .. } | Decision::DriftRebuilt { .. }
        )
    };
    assert!(
        !broker.decisions().iter().any(drift),
        "no drift trigger fired: {:?}",
        broker.decisions()
    );
    assert_eq!(broker.metrics().drift_declined, 0);
    drop((broker, _subs));
    let ((broker, _subs), reference) = run(natural, false);
    drop((broker, _subs));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(served, reference, "retained with dfsa_dispatch on and off");
    // The drift statistics keep cut points and counts: 843,230 bytes
    // (1,137,974 while the warm-up recompiled the same tree, 1,507,477
    // while they kept a partition per attribute with every cell's
    // covering-profile list).
    assert!(
        served < 1_250_000,
        "a loaded durable 2-shard stock broker retains {served} bytes"
    );

    // Covering keeps one copy of what it decided: a shard's expansion
    // map (covered subscription -> representative, residual) lives in
    // its snapshot's plan, and the containment index it probes holds
    // the representatives alone. 2,000 subscriptions, nine in ten
    // covered, most of those exact duplicates: 1,048 bytes a
    // subscription, 1,102 while each shard kept the map a second time.
    let duplicate_heavy = CoveredPopulationConfig {
        duplicate_frac: 0.8,
        ..CoveredPopulationConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(15);
    let profiles = covered_profiles(&schema, 2000, &duplicate_heavy, &mut rng).unwrap();
    let ((broker, subs), bytes) = retained(|| {
        let broker = Broker::new(&schema, config(natural)).unwrap();
        let subs = broker.subscribe_many(profiles.iter().cloned()).unwrap();
        (broker, subs)
    });
    let per_sub = bytes / profiles.len();
    assert!(
        per_sub < 1_075,
        "a covering 2-shard broker retains {per_sub} bytes a subscription"
    );
    drop((broker, subs));

    // A subscription's own bytes at rest. Its dispatch slot holds its
    // id and channel, its filter's tombstone bit whether it is live, and
    // the writer its profile and weight alone: 8,000 environmental
    // profiles on one shard with covering off, so every one is compiled,
    // retain 1,215.2 bytes a subscription, 1,239.2 while the writer kept
    // the id, a clone of the channel and its own liveness too (24 bytes
    // a subscription more). Stock profiles would do as well, but compile
    // into 116.6 KB a subscription at that size with covering off.
    let schema = ens_workloads::scenario::environmental_schema();
    let mut rng = StdRng::seed_from_u64(16);
    let profiles = ens_workloads::scenario::environmental_profiles(8000, &mut rng).unwrap();
    let ((broker, subs), bytes) = retained(|| {
        let config = BrokerConfig {
            shards: 1,
            covering: false,
            ..config(natural)
        };
        let broker = Broker::new(&schema, config).unwrap();
        let subs = broker.subscribe_many(profiles.iter().cloned()).unwrap();
        (broker, subs)
    });
    let per_sub = bytes / profiles.len();
    assert!(
        per_sub < 1_227,
        "a compiled 1-shard environmental broker retains {per_sub} bytes a subscription"
    );
    drop((broker, subs));
}
