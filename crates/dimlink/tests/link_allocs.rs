//! Allocation count of a warm fuzzy link. A counting global allocator
//! forwards every request to `System` and counts the ones the calling
//! thread makes, so other test threads cannot move the count. On a reused
//! `ScratchSpace` the fuzzy scan (mention masks, candidate arena, scoring)
//! makes no allocation; a query's only allocation is the ranked `Vec` it
//! returns, and a query that links nothing returns an empty one.

use dimkb::DimUnitKb;
use dimlink::{LinkerConfig, ScratchSpace, UnitLinker};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// The `/annotate` sentence of the serve benchmark's mix.
const CONTEXT: &str = "Runner 7 covered 12.5 kilometers carrying 30 kg of gear.";

#[test]
fn warm_fuzzy_links_allocate_only_their_result() {
    let linker = UnitLinker::with_config(DimUnitKb::shared(), LinkerConfig::default());
    let mut scratch = ScratchSpace::new();
    // Grow every buffer to these queries' high-water mark.
    for mention in ["covered", "kilometr"] {
        linker.link_with(mention, CONTEXT, &mut scratch);
    }
    // "covered" misses the dictionary and every fuzzy key.
    let (allocs, miss) = allocs_of(|| linker.link_with("covered", CONTEXT, &mut scratch));
    assert!(miss.is_empty());
    assert_eq!(allocs, 0, "a warm fuzzy miss allocates nothing");
    // "kilometr" misses the dictionary and links by the fuzzy scan.
    let (allocs, hit) = allocs_of(|| linker.link_with("kilometr", CONTEXT, &mut scratch));
    assert!(!hit.is_empty() && hit.iter().all(|r| r.mention_sim < 1.0));
    assert_eq!(allocs, 1, "a warm fuzzy hit allocates only its result");
}
