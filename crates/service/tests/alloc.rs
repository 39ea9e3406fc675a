//! Counting-allocator budget of the publish paths: once warm, a
//! publish allocates its receipts and (on the batch path) a small
//! constant per batch — not per notification, not per event beyond
//! the receipt, and no thread — and federated ingress, which builds
//! no receipts, the rows it turns into events.
//!
//! This file deliberately contains a single `#[test]` so no concurrent
//! test thread can disturb the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ens_filter::{Direction, SearchStrategy, TreeConfig, ValueOrder};
use ens_service::federation::link::LinkConfig;
use ens_service::federation::sim::SimNet;
use ens_service::{
    Broker, BrokerConfig, Federation, FederationConfig, PublishReceipt, Subscriber, SubscriptionId,
};
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

/// What a warm federated edge may allocate per row it ingests, all its
/// pumps' work included: the row's `Event` and the `Arc` it is shared
/// through (2), and a share of each message's and each pump's constant
/// (2.43 a row measured below, 42 rows a message). A receipt per row,
/// which nobody reads at ingress, made it 3.85.
const PER_EDGE_ROW: f64 = 2.5;

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
    // every event: the receipt's `Vec` and nothing else. At the default
    // shape, which samples no drift statistics, and in event order (V1),
    // which samples every event.
    let schema = environmental_schema();
    let sampler = EventGenerator::new(&schema, environmental_event_model().unwrap()).unwrap();
    let profiles = environmental_profiles(1000, &mut rng).unwrap();
    let events: Vec<Event> = (0..2048).map(|_| sampler.sample(&mut rng)).collect();
    let v1 = TreeConfig {
        search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
        ..TreeConfig::default()
    };
    for tree in [TreeConfig::default(), v1] {
        let config = BrokerConfig {
            tree,
            ..BrokerConfig::default()
        };
        let per_event = Fixture::new(&schema, config, &profiles, events.clone());
        let pass = |f: &Fixture| -> Tally {
            let mut tally = Tally::default();
            for event in &f.events {
                let receipt = f.broker.publish_shared(Arc::clone(event)).unwrap();
                f.drain(&receipt, &mut tally);
            }
            tally
        };
        // Warm-up: channel buffers, thread-local match scratch, and, in
        // event order, the drift detector's first rebuilds.
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
    }

    // `publish_batch`, 256 events on 2 shards: one `Vec` per receipt
    // plus the receipt list. Drift sampling off, as in the
    // `batch_sharded` benchmark workload.
    let schema = stock_schema();
    let sampler = EventGenerator::new(&schema, stock_event_model().unwrap()).unwrap();
    let batched = Fixture::new(
        &schema,
        BrokerConfig {
            shards: 2,
            // Sampling off: this half is about what the batch path
            // allocates, and the statistics' share of a publish (one
            // `observe` per event, none of it on the heap) is pinned by
            // the event-order per-event pass above and by `ens-filter`'s
            // own budget.
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

    // Federated ingress: batches of 64 published at an origin, matched
    // at the far end of a simulated link against 200 environmental
    // subscriptions. Only the edge's pumps are counted.
    let schema = environmental_schema();
    let sampler = EventGenerator::new(&schema, environmental_event_model().unwrap()).unwrap();
    let net = SimNet::new(3);
    let node = |node| {
        let broker = Arc::new(Broker::new(&schema, BrokerConfig::default()).unwrap());
        let config = FederationConfig {
            node,
            epoch: 1,
            link: LinkConfig {
                heartbeat_ms: 50,
                rto_ms: 40,
                ..LinkConfig::default()
            },
            ..FederationConfig::default()
        };
        Federation::new(broker, config)
    };
    let (origin, edge) = (node(1), node(2));
    origin.add_peer(2, Box::new(net.transport(1, 2)), 0);
    edge.add_peer(1, Box::new(net.transport(2, 1)), 0);
    let subs: Vec<Subscriber> = environmental_profiles(200, &mut rng)
        .unwrap()
        .iter()
        .map(|p| edge.subscribe_profile(p.clone()).unwrap())
        .collect();
    for _ in 0..10 {
        origin.pump(net.now_ms()).unwrap();
        edge.pump(net.now_ms()).unwrap();
        net.advance(10);
    }
    let events: Vec<Arc<Event>> = (0..64)
        .map(|_| Arc::new(sampler.sample(&mut rng)))
        .collect();
    let (mut spent, mut rows) = (0, 0);
    for round in 0..16 {
        let before = edge.metrics().delivered_rows;
        origin.publish_batch(&events).unwrap();
        let mut round_spent = 0;
        while edge.metrics().delivered_rows < origin.metrics().forwarded_rows {
            origin.pump(net.now_ms()).unwrap();
            let before = allocations();
            edge.pump(net.now_ms()).unwrap();
            round_spent += allocations() - before;
            net.advance(10);
        }
        let notified: usize = subs.iter().map(|s| s.drain().len()).sum();
        assert!(notified > 5 * events.len(), "fan-out: {notified}");
        // The first rounds grow the channels and the pump's buffers.
        if round >= 8 {
            spent += round_spent;
            rows += edge.metrics().delivered_rows - before;
        }
    }
    let per_row = spent as f64 / rows as f64;
    assert!(rows >= 8 * 32, "{rows} rows ingested");
    assert!(
        per_row <= PER_EDGE_ROW,
        "federated edge: {spent} allocations for {rows} rows ({per_row:.2} a row)"
    );
}
