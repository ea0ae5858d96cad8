//! Allocation pin: one `assign_slots_seeded` call makes a fixed number of
//! allocations however many slots share a list. The matcher's state is a
//! few vectors sized by the rights and the slots, and a slot's list is
//! lent, never copied; a per-slot copy or a hashed table that grows with
//! the slots makes the two counts differ.
//!
//! Its own test binary, because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use promises_matching::assign_slots_seeded;

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

/// Allocations one call makes with `slots` slots over one shared list of
/// every position in 0..64, every other slot seeded.
fn allocations_with(slots: usize) -> usize {
    let list: Vec<usize> = (0..64).collect();
    let allowed: Vec<&[usize]> = vec![&list; slots];
    let seeds: Vec<Option<usize>> = (0..slots).map(|i| (i % 2 == 0).then_some(i)).collect();
    let before = ALLOCS.with(Cell::get);
    let got = assign_slots_seeded(0..64, &allowed, &seeds).expect("feasible");
    let made = ALLOCS.with(Cell::get) - before;
    assert_eq!(got.len(), slots);
    made
}

#[test]
fn allocations_do_not_grow_with_the_slots() {
    let (few, many) = (allocations_with(8), allocations_with(48));
    assert_eq!(few, many, "8 slots allocate {few} times, 48 slots {many}");
}
