//! Counting global allocator: allocation calls and live heap bytes.
//!
//! `mem_bytes_per_sub`, `filter.snapshot.retained_bytes_per_profile`
//! and `service.broker.allocs_per_event` are deltas of these two
//! counters around a call. A global allocator has to live in the final
//! binary, which is why `throughput.rs` has its own copy; nothing is
//! shared with it on purpose (this benchmark uses nothing from the
//! other bench binaries).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

// Statistics only: the counters publish no other data, so `Relaxed`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES_LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter updates touch
// no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES_LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES_LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES_LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        BYTES_LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout` (all
        // allocations of this process go through this type).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        BYTES_LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocator calls (alloc, alloc_zeroed, realloc) so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap bytes currently allocated and not yet freed.
pub fn live_bytes() -> u64 {
    BYTES_LIVE.load(Ordering::Relaxed)
}
