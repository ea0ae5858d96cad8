//! Allocation pins for the §8 transaction every promise operation is: an
//! uncontended operation allocates what it keeps — the record, its
//! journal line, its request-index key and the reply — and little else.
//!
//! Counted on a journalled manager once its pool and lock granules are
//! warm, as the fewest over 16 tries (a map that grows on one try, or the
//! table's debug drift guard, does not count against the path; the guard
//! runs on one length in `len / 256`, so the warm table holds 512
//! records). Parent counts are from the lock manager that cloned each
//! granule's strings per call, with a `format!`ed name per sync point:
//! - a single-pool quantity grant: ≤ 12 (47 then, 10 now: beyond what it
//!   keeps, its footprint and its pool's demand);
//! - its release: ≤ 4 (18 then, 3 now);
//! - `pm_table`'s purchase, an `execute` under `releasing` that updates
//!   the pool's row: ≤ 39, half of the 78 it made then (22 now, 25
//!   while the RM undo log kept a second copy of each written row's key;
//!   most of them the undo entry and the write set).
//!
//! Its own test binary, because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use promises_core::{
    ActionError, Catalog, Environment, ManualClock, PoolSchema, Predicate, PromiseId,
    PromiseJournal, PromiseManager, PromiseRequestSpec,
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

/// Allocations `f` makes on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// A journalled manager with one quantity pool, `widgets`, holding 512
/// promises after 1 024 grants and 512 releases.
fn warm_manager() -> PromiseManager {
    let rm = Arc::new(ResourceManager::new());
    let pm = PromiseManager::new(rm, Arc::new(ManualClock::new()))
        .with_journal(Arc::new(PromiseJournal::new()));
    pm.register_pool(PoolSchema::quantity("widgets"));
    pm.seed_quantity("widgets", 1_000_000).unwrap();
    for i in 0..1_024 {
        let id = grant(&pm, &format!("warm-{i}"));
        if i % 2 == 0 {
            pm.release(id).unwrap();
        }
    }
    pm
}

fn spec(request: &str) -> PromiseRequestSpec {
    PromiseRequestSpec::new(request, "merchant")
        .predicate(Predicate::qty_at_least("widgets", 2))
        .duration_ms(60_000)
}

fn grant(pm: &PromiseManager, request: &str) -> PromiseId {
    let decision = pm.request(spec(request)).unwrap().decision;
    decision.granted_id().expect("stock is plentiful")
}

/// The least a warm operation made over `runs` tries: a table or map
/// that happens to grow on one try does not count against the path.
fn fewest(runs: usize, mut op: impl FnMut(usize) -> usize) -> usize {
    (0..runs).map(&mut op).min().expect("runs > 0")
}

#[test]
fn a_warm_quantity_grant_allocates_what_it_keeps() {
    let pm = warm_manager();
    let made = fewest(16, |i| {
        let spec = spec(&format!("pin-{i}"));
        let (resp, made) = counted(|| pm.request(spec).unwrap());
        assert!(resp.decision.is_granted());
        made
    });
    assert!(made <= 12, "a warm grant allocates {made} times");
}

#[test]
fn a_warm_release_allocates_almost_nothing() {
    let pm = warm_manager();
    let ids: Vec<PromiseId> = (0..16).map(|i| grant(&pm, &format!("pin-{i}"))).collect();
    let made = fewest(16, |i| {
        let id = ids[i];
        let (released, made) = counted(|| pm.release(id));
        released.unwrap();
        made
    });
    assert!(made <= 4, "a warm release allocates {made} times");
}

#[test]
fn a_purchase_under_releasing_allocates_half_what_it_did() {
    let pm = warm_manager();
    let ids: Vec<PromiseId> = (0..16).map(|i| grant(&pm, &format!("pin-{i}"))).collect();
    let made = fewest(16, |i| {
        let env = Environment::none().releasing(ids[i]);
        let (bought, made) = counted(|| {
            pm.execute(&env, |rm, txn| {
                rm.update(txn, Catalog::QTY_TABLE, "widgets", |r| {
                    let on_hand = r.int("qty").unwrap_or(0);
                    r.set("qty", on_hand - 2);
                })
                .map_err(ActionError::from)
            })
        });
        bought.unwrap();
        made
    });
    assert!(made <= 39, "a warm purchase allocates {made} times");
}
