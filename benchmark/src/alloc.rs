//! A counting allocator: how much the program allocates per operation
//! and how many heap bytes a resident promise costs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps the system allocator with three counters. `Relaxed` is enough:
/// they are statistics read at quiet points, and publish no other data.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, as `GlobalAlloc::realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy)]
pub struct AllocReading {
    /// Allocation calls so far (reallocations count as one).
    pub count: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// Bytes currently allocated and not yet freed.
    pub live: u64,
}

pub fn read() -> AllocReading {
    let bytes = ALLOCATED.load(Ordering::Relaxed);
    AllocReading {
        count: ALLOCS.load(Ordering::Relaxed),
        bytes,
        live: bytes.saturating_sub(FREED.load(Ordering::Relaxed)),
    }
}
