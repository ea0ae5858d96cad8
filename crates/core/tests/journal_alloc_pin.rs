//! Allocation pin: compacting a quantity table makes about as many
//! allocations at 4 096 live promises as at 64. The checkpoint line is
//! written field by field into one string, so its count grows only with
//! that string's doublings; a `String` per field or a `format!` per record
//! makes it grow with the records.
//!
//! Its own test binary, because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use promises_core::{
    ManualClock, PoolSchema, Predicate, PromiseJournal, PromiseManager, PromiseRequestSpec,
};
use promises_rm::ResourceManager;

struct Counting;

thread_local! {
    /// Allocations (fresh or grown) made by this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each block below meets `System`'s requirements exactly when its caller
// meets `GlobalAlloc`'s; the count is a thread-local `Cell` with a const
// initialiser, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations one `compact` makes over a table of `live` one-unit
/// quantity promises.
fn allocations_compacting(live: usize) -> usize {
    let journal = Arc::new(PromiseJournal::new());
    let pm = PromiseManager::new(
        Arc::new(ResourceManager::new()),
        Arc::new(ManualClock::new()),
    )
    .with_journal(Arc::clone(&journal));
    pm.register_pool(PoolSchema::quantity("widgets"));
    pm.seed_quantity("widgets", live as u64).unwrap();
    for i in 0..live {
        let spec = PromiseRequestSpec::new(format!("order-{i}").as_str(), "merchant")
            .predicate(Predicate::qty_at_least("widgets", 1));
        pm.request(spec).unwrap();
    }
    let before = ALLOCS.with(Cell::get);
    let report = pm.compact().unwrap().expect("journalled");
    let made = ALLOCS.with(Cell::get) - before;
    assert_eq!((report.live, journal.len()), (live, 1));
    made
}

#[test]
fn compaction_allocations_do_not_grow_with_the_table() {
    let (few, many) = (allocations_compacting(64), allocations_compacting(4_096));
    assert!(
        many <= few + 8,
        "64 records allocate {few} times, 4 096 records {many}"
    );
}
