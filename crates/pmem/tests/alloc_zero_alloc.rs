//! Proves the steady-state allocator path of a default (one-shard) pool
//! performs zero heap allocations, with a counting global allocator.
//!
//! After a warm-up that routes the thread to its arena and sizes the
//! arena mirror's bookkeeping, each `alloc`/`free` pair locks the arena
//! mirror plus the one shard holding the arena and runs the redo-protected
//! metadata update through a raw handle over that shard — no per-call
//! buffer of guards, no other allocation.
//!
//! This file intentionally holds a single test: the counter is global, so
//! a concurrently running test in the same binary would pollute the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use clobber_pmem::{PmemPool, PoolOptions};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: delegates every operation to `System` unchanged; the counter is
// a relaxed atomic with no effect on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

#[test]
fn steady_state_alloc_free_is_allocation_free() {
    let pool = PmemPool::create(PoolOptions::crash_sim(4 << 20)).unwrap();
    assert_eq!(pool.shard_count(), 1, "the default pool has one shard");
    assert!(pool.arena_count() > 1, "4 MiB plans side arenas");
    // Warm-up: routes this thread to its arena, fills the free list and
    // sizes every volatile structure the loop touches.
    for _ in 0..16 {
        let a = pool.alloc(64).unwrap();
        pool.free(a).unwrap();
    }
    let start = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..1024 {
        let a = pool.alloc(64).unwrap();
        pool.free(a).unwrap();
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - start;
    assert_eq!(
        delta, 0,
        "steady-state alloc/free performed {delta} heap allocations"
    );
}
