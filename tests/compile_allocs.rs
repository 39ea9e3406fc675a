//! Counting-allocator bound on the compile pipeline: a compile lowers
//! each profile once and reuses its buffers across the nodes of a
//! depth, so the heap allocations of a bulk load grow with what it
//! keeps, not with the nodes it visits.
//!
//! This file deliberately contains a single `#[test]` so no concurrent
//! test thread can disturb the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ens::filter::{Dfsa, TreeConfig};
use ens::service::{Broker, BrokerConfig};
use ens::types::Profile;
use ens::workloads::scenario::{stock_profiles, stock_schema};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Heap allocations of `Broker::new` + `subscribe_many` for 1000 stock
/// profiles on 2 shards with drift sampling off (the set-up of the e2e
/// `batch_sharded` workload), subscriber channels included: 3,628 when
/// the pipeline first lowered once, 63,069 when every node lowered its
/// profiles again and allocated its own vectors.
const SETUP_ALLOCS_MAX: u64 = 6_000;

/// Heap allocations of `Dfsa::build` per automaton state, on the same
/// population at the default shape (1,872 states): 0.21 when the
/// builder first reused its buffers per level, 90.9 before.
const BUILD_ALLOCS_PER_STATE_MAX: f64 = 1.0;

#[test]
fn a_compile_allocates_per_level_not_per_node() {
    let schema = stock_schema();
    let ps = stock_profiles(1000, &mut StdRng::seed_from_u64(0x0e2e_5eed + 3)).unwrap();
    let profiles: Vec<Profile> = ps.iter().cloned().collect();
    let config = BrokerConfig {
        shards: 2,
        stats_sample: 0,
        ..BrokerConfig::default()
    };

    let before = allocations();
    let broker = Broker::new(&schema, config).unwrap();
    let subscribers = broker.subscribe_many(profiles).unwrap();
    let setup = allocations() - before;
    assert_eq!(subscribers.len(), 1000);

    let before = allocations();
    let dfsa = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
    let per_state = (allocations() - before) as f64 / dfsa.state_count() as f64;

    println!(
        "set-up: {setup} allocations; Dfsa::build: {per_state:.2} per state over {} states",
        dfsa.state_count()
    );
    assert!(
        setup <= SETUP_ALLOCS_MAX,
        "set-up made {setup} heap allocations, more than {SETUP_ALLOCS_MAX}"
    );
    assert!(
        per_state <= BUILD_ALLOCS_PER_STATE_MAX,
        "Dfsa::build made {per_state:.2} heap allocations per state, more than \
         {BUILD_ALLOCS_PER_STATE_MAX}"
    );
}
