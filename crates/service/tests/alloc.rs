//! Counting-allocator budget of the publish paths: once warm, a
//! publish allocates its receipts and (on the batch path) a small
//! constant per batch — not per notification, not per event beyond
//! the receipt, and no thread.
//!
//! This file deliberately contains a single `#[test]` so no concurrent
//! test thread can disturb the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ens_service::{Broker, BrokerConfig, PublishReceipt, Subscriber, SubscriptionId};
use ens_types::{Event, ProfileSet, Schema};
use ens_workloads::scenario::{
    environmental_event_model, environmental_profiles, environmental_schema, stock_event_model,
    stock_profiles, stock_schema,
};
use ens_workloads::EventGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter publishes no
// other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const BATCH: usize = 256;

/// What one `publish_batch` on 2 shards may allocate besides receipts:
/// the receipt list, and nothing else — the indexed batch and the
/// snapshot handles live in the thread's batch buffers. A buffer that
/// goes back to being made per batch fails here, and so does a thread
/// spawn per batch (4–6 more).
const PER_BATCH: u64 = 1;

/// Notifications received, and receipts that had somebody to name.
#[derive(Default)]
struct Tally {
    notified: usize,
    receipts: u64,
}

struct Fixture {
    broker: Broker,
    by_id: HashMap<SubscriptionId, Subscriber>,
    events: Vec<Arc<Event>>,
}

impl Fixture {
    fn new(
        schema: &Schema,
        config: BrokerConfig,
        profiles: &ProfileSet,
        events: Vec<Event>,
    ) -> Self {
        let broker = Broker::new(schema, config).unwrap();
        let subs = broker.subscribe_many(profiles.iter().cloned()).unwrap();
        Fixture {
            broker,
            by_id: subs.into_iter().map(|s| (s.id(), s)).collect(),
            events: events.into_iter().map(Arc::new).collect(),
        }
    }

    /// Takes every notification `receipt` announces and adds the
    /// receipt to `tally`.
    fn drain(&self, receipt: &PublishReceipt, tally: &mut Tally) {
        for id in &receipt.matched {
            assert!(self.by_id[id].try_recv().is_some(), "{id} was promised one");
        }
        tally.notified += receipt.matched.len();
        // An empty receipt names nobody and allocates nothing.
        tally.receipts += u64::from(!receipt.matched.is_empty());
    }
}

#[test]
fn warmed_publish_paths_allocate_receipts_only() {
    let mut rng = StdRng::seed_from_u64(12);

    // `publish_shared`, about 90 notifications per event, drained after
    // every event: the receipt's `Vec` and nothing else.
    let schema = environmental_schema();
    let sampler = EventGenerator::new(&schema, environmental_event_model().unwrap()).unwrap();
    let per_event = Fixture::new(
        &schema,
        BrokerConfig::default(),
        &environmental_profiles(1000, &mut rng).unwrap(),
        (0..2048).map(|_| sampler.sample(&mut rng)).collect(),
    );
    let pass = |f: &Fixture| -> Tally {
        let mut tally = Tally::default();
        for event in &f.events {
            let receipt = f.broker.publish_shared(Arc::clone(event)).unwrap();
            f.drain(&receipt, &mut tally);
        }
        tally
    };
    // Warm-up: channel buffers, thread-local match scratch, and the
    // drift detector's first recompiles of this population.
    for _ in 0..3 {
        pass(&per_event);
    }
    let rebuilds = per_event.broker.rebuild_counts();
    let before = allocations();
    let Tally { notified, receipts } = pass(&per_event);
    let spent = allocations() - before;
    assert_eq!(
        per_event.broker.rebuild_counts(),
        rebuilds,
        "a recompile is not steady state"
    );
    let events = per_event.events.len();
    assert!(
        notified > 60 * events,
        "fan-out too low to mean anything: {notified}"
    );
    assert!(
        spent <= receipts,
        "publish_shared: {spent} allocations for {receipts} non-empty receipts \
         ({events} events, {notified} notifications)"
    );

    // `publish_batch`, 256 events on 2 shards: one `Vec` per receipt
    // plus the receipt list. Drift sampling off, as in the
    // `batch_sharded` benchmark workload: with it on, this population
    // recompiles every few hundred events for good.
    let schema = stock_schema();
    let sampler = EventGenerator::new(&schema, stock_event_model().unwrap()).unwrap();
    let batched = Fixture::new(
        &schema,
        BrokerConfig {
            shards: 2,
            // Sampling off: this half is about what the batch path
            // allocates, and the statistics' share of a publish (one
            // `observe` per event, none of it on the heap) is pinned by
            // the per-event half above and by `ens-filter`'s own budget.
            stats_sample: 0,
            ..BrokerConfig::default()
        },
        &stock_profiles(1000, &mut rng).unwrap(),
        (0..BATCH).map(|_| sampler.sample(&mut rng)).collect(),
    );
    for round in 0..4 {
        let before = allocations();
        let receipts = batched.broker.publish_batch(&batched.events).unwrap();
        let spent = allocations() - before;
        let mut tally = Tally::default();
        for receipt in &receipts {
            batched.drain(receipt, &mut tally);
        }
        let Tally { notified, receipts } = tally;
        assert!(
            notified > 10 * BATCH,
            "fan-out too low to mean anything: {notified}"
        );
        // The first rounds grow the channel buffers and the thread's
        // batch scratch.
        assert!(
            round < 3 || spent <= receipts + PER_BATCH,
            "publish_batch: {spent} allocations for {receipts} non-empty receipts \
             ({BATCH} events, {notified} notifications)"
        );
    }
}
