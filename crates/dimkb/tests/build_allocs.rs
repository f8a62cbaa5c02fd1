//! Allocation budget of the standard KB build. A counting global allocator
//! forwards every request to `System` and counts the ones the calling
//! thread makes, so the count is a property of the build alone: no lock,
//! no reset, and other test threads cannot move it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Upper bound on the heap allocations one warm `DimUnitKb::standard()`
/// makes: 24,393 when this bound was set, plus a margin of about 2.5%.
/// Nearly all of them are the records' own strings and lists (23,225 for
/// the 1,786 units, 672 for the 336 kinds); the builder and every index
/// take the remaining ~500.
const MAX_BUILD_ALLOCS: u64 = 25_000;

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed`, `realloc`) this thread made.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // A `const` thread-local of a `Copy` type has no destructor and needs
    // no lazy initialisation, so this never allocates and never fails.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; counting only
// touches a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath; the caller upholds `realloc`'s other conditions.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_of<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = work();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn standard_build_stays_within_its_allocation_budget() {
    // The first build also pays one-time process costs (std's lazy
    // statics); the second is the build alone, and repeats exactly.
    drop(dimkb::DimUnitKb::standard());
    let (allocs, kb) = allocs_of(dimkb::DimUnitKb::standard);
    let (again, _) = allocs_of(dimkb::DimUnitKb::standard);
    assert_eq!(allocs, again, "a warm build's allocation count is deterministic");
    assert!(kb.units().len() > 1_700);
    assert!(allocs <= MAX_BUILD_ALLOCS, "standard() made {allocs} allocations");
}
