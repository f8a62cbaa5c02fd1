//! Allocation budget of DimPerc's choice training. A counting global
//! allocator forwards every request to `System` and counts the ones the
//! calling thread makes, so the count is a property of the training alone:
//! no lock, no reset, and other test threads cannot move it. The ceiling
//! measures what a pattern lint can only guess at: featurising the items
//! and running the SGD epochs make no allocation per token, per option or
//! per step.

use dim_models::tinylm::choice::ChoiceScorer;
use dimeval::{ChoiceItem, DimEval, DimEvalConfig, TaskKind};
use dimkb::degrade::Policy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Upper bound on the heap allocations one `ChoiceScorer::train` makes over
/// the quick configuration's training items (1,200 items, 4,800 options,
/// 3 epochs): 90 when this bound was set, plus a small margin. They are
/// the featuriser's and the flat id buffer's growth and the SGD's few
/// buffers; a per-option or per-token allocation would add thousands.
const MAX_TRAIN_ALLOCS: u64 = 100;

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

/// The quick configuration's DimPerc training items, as
/// `dim_core::pipeline::build_train_dimeval` builds them (seed 77,
/// 200 items per task), in the order `TinyLm::finetune_dimeval` trains on.
fn quick_training_items() -> Vec<ChoiceItem> {
    let config = DimEvalConfig {
        per_task: 200,
        extraction_items: 100,
        seed: 77 ^ 0x7EA1,
        ..Default::default()
    };
    let (train, _) = DimEval::build(&dimkb::DimUnitKb::shared(), &config, Policy::CLASSIC)
        .expect("the classic policy never exceeds its budget");
    TaskKind::CHOICE.iter().filter_map(|t| train.choice.get(t)).flatten().cloned().collect()
}

#[test]
fn choice_training_stays_within_its_allocation_budget() {
    let items = quick_training_items();
    assert_eq!(items.len(), 1_200);
    let options: usize = items.iter().map(|i| i.options.len()).sum();
    let train = || {
        let mut scorer = ChoiceScorer::naive(77);
        allocs_of(|| scorer.train(&items, 3, 77 ^ 0xF1))
    };
    let (allocs, loss) = train();
    let (again, loss_again) = train();
    assert_eq!(allocs, again, "training's allocation count is deterministic");
    assert_eq!(loss.to_bits(), loss_again.to_bits());
    eprintln!("ChoiceScorer::train made {allocs} allocations for {options} options");
    assert!(allocs <= MAX_TRAIN_ALLOCS, "ChoiceScorer::train made {allocs} allocations");
}
