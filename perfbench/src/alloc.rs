//! Counting global allocator. The server runs inside the benchmark
//! process, so its connection, worker and compactor threads allocate
//! through this allocator too. Counting is off unless a traced phase turns
//! it on; when off, each allocation costs one relaxed load more than the
//! system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus allocation counters (process-wide and per
/// thread). `alloc`, `alloc_zeroed` and `realloc` each count as one
/// allocation; `dealloc` is not counted.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MINE: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn note() {
    // Relaxed: the counters are statistics and publish no other data.
    if ENABLED.load(Ordering::Relaxed) {
        TOTAL.fetch_add(1, Ordering::Relaxed);
        // `try_with`: a thread being torn down may have lost its slot.
        let _ = MINE.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only atomics and a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turn counting on or off for every thread.
pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Allocations counted so far, all threads.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocations counted so far on the calling thread.
pub fn on_this_thread() -> u64 {
    MINE.with(|c| c.get())
}
