//! A compiled unsubscribe costs what it touches: one bit in a copy of
//! the tombstone bitmap, the dispatch table's chunk handles and the one
//! chunk its slot is in — not a copy of the shard. A flat dispatch
//! table alone is 16 B per compiled subscription to copy.
//!
//! This file deliberately contains a single `#[test]` so no concurrent
//! test thread can disturb the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use ens_service::{Broker, BrokerConfig, SubscriptionId};
use ens_types::Event;
use ens_workloads::scenario::{
    environmental_event_model, environmental_profiles, environmental_schema,
};
use ens_workloads::EventGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter publishes no
// other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
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

/// Bytes one compiled unsubscribe may allocate per compiled
/// subscription (the bitmap copy is 1/8 B, the chunk handles 1/2 B)...
const PER_SUB: u64 = 2;
/// ...and on top of that (one 16-slot chunk is 400 B).
const FIXED: u64 = 8 * 1024;

#[test]
fn a_compiled_unsubscribe_copies_no_shard() {
    let schema = environmental_schema();
    let sampler = EventGenerator::new(&schema, environmental_event_model().unwrap()).unwrap();
    let mut rng = StdRng::seed_from_u64(45);
    let events: Vec<Event> = (0..64).map(|_| sampler.sample(&mut rng)).collect();
    for n in [1000, 8000] {
        // One shard, bulk-loaded: every subscription is compiled, at
        // the slot of its place in the load.
        let broker = Broker::new(&schema, BrokerConfig::default()).unwrap();
        let profiles = environmental_profiles(n, &mut rng).unwrap();
        let subs = broker.subscribe_many(profiles.iter().cloned()).unwrap();
        let publish = || -> Vec<Vec<SubscriptionId>> {
            let receipts = events.iter().map(|e| broker.publish(e).unwrap());
            receipts.map(|r| r.matched).collect()
        };
        // A subscription the events reach, and beside it in its
        // dispatch chunk the one to cancel.
        let reached: BTreeSet<_> = publish().into_iter().flatten().collect();
        let k = (0..n).find(|&k| reached.contains(&subs[k].id())).unwrap();
        let (neighbour, victim) = (&subs[k], &subs[k ^ 1]);
        assert!(!neighbour.drain().is_empty());

        let before = BYTES.load(Ordering::Relaxed);
        broker.unsubscribe(victim.id()).unwrap();
        let spent = BYTES.load(Ordering::Relaxed) - before;
        let bound = PER_SUB * n as u64 + FIXED;
        assert!(
            spent <= bound,
            "one compiled unsubscribe among {n} allocated {spent} B (bound {bound} B)"
        );

        assert!(victim.is_disconnected());
        let receipts = publish();
        assert!(receipts.iter().all(|ids| !ids.contains(&victim.id())));
        let named = receipts.iter().filter(|ids| ids.contains(&neighbour.id()));
        let named = named.count();
        assert!(named > 0, "the events reached slot {k} before");
        assert_eq!(neighbour.drain().len(), named);
    }
}
