//! `dim-par`: a zero-dependency scoped-thread work-splitting layer.
//!
//! The framework's hot paths — DimEval task generation, Algorithm 1/2
//! corpus processing, batch unit linking, MWP generation and augmentation —
//! are all embarrassingly parallel over independent items. This crate gives
//! them one shared fan-out primitive built on [`std::thread::scope`]:
//! [`par_map`] / [`par_map_indexed`] / [`par_map_scratch`] run **morsel**
//! scheduling — workers pull small cache-sized index ranges from a shared
//! atomic cursor until the input is drained — and reassemble results **in
//! input order**, so output is position-for-position identical to a
//! sequential map.
//!
//! # Morsel scheduling and scratch
//!
//! Static contiguous chunking (the previous design) assigns each worker
//! `n / workers` items up front; one slow region of the input then idles
//! every other worker (visible as `par.imbalance_pct`). Morsel scheduling
//! self-balances: a worker that drew cheap items simply pulls the next
//! morsel. Which worker runs which morsel is racy, but each item's result
//! is a pure function of `(index, item)` and results are merged by index,
//! so output bytes never depend on the race.
//!
//! [`par_map_scratch`] additionally threads a per-worker scratch value
//! (allocated once per worker via `make_scratch`, reused across every item
//! that worker pulls) through the work function — the hook the dimlink
//! annotate/link hot path uses to reuse candidate arenas, Levenshtein DP
//! rows, and number-scan buffers across sentences instead of reallocating
//! per item. Scratch must act as a pure cache: results must not depend on
//! what previous items left in it.
//!
//! The *effective* worker count is capped at the host's logical CPU count
//! ([`Parallelism::effective_workers`]): for a CPU-bound map, threads
//! beyond the core count cannot add throughput — they only add spawn and
//! context-switch overhead (the "width 4 slower than width 1" regression
//! the bench gate forbids). Requested width above the core count is
//! therefore satisfied with the cores available; outputs are identical at
//! every requested width by construction.
//!
//! # Determinism contract
//!
//! `par_map` guarantees order; it cannot guarantee that the *work function*
//! is deterministic. Callers that need randomness derive an independent RNG
//! seed per item from `(master_seed, index)` (see [`seed_for`]) instead of
//! threading one sequential RNG through the loop — then the output is
//! byte-identical for every thread count, which the workspace's
//! determinism tests enforce at `threads = 1` vs `threads = 4`.
//!
//! # Panics
//!
//! Every item runs inside `catch_unwind`, so one panicking item cannot tear
//! down its siblings mid-morsel. When the map completes, the panic of the
//! **lowest** faulting index is re-raised with its original payload, so a
//! failure is deterministic across thread widths. Callers that must survive
//! a panicking item (the degraded-mode batches) isolate it themselves with
//! `dimkb::degrade::isolate`; this crate has one panic rule.
//!
//! # Sizing
//!
//! [`Parallelism`] is an explicit knob (CI and `--quick` runs pin 1 thread;
//! `Parallelism::available()` uses the machine's logical CPU count).
//! Thread spawn costs ~10–30 µs, so `par_map` falls back to a plain
//! sequential map for 1 thread or tiny inputs — callers never pay for
//! parallelism they can't use.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

// `PAR_WORKER_BUSY` is the per-worker wall time of every spawned chunk
// worker: a wide p50→max spread there is thread imbalance, the first thing
// to check when a parallel path fails to scale. `PAR_IMBALANCE_PCT` makes
// the same signal directly legible per call: `(slowest − fastest) / slowest`
// across one fan-out's workers.
static PAR_CALLS: dim_obs::Counter = dim_obs::Counter::new("par.calls");
static PAR_SEQ_CALLS: dim_obs::Counter = dim_obs::Counter::new("par.seq_calls");
static PAR_ITEMS: dim_obs::Counter = dim_obs::Counter::new("par.items");
static PAR_SEQ_ITEMS: dim_obs::Counter = dim_obs::Counter::new("par.seq_items");
static PAR_WORKERS_SPAWNED: dim_obs::Counter = dim_obs::Counter::new("par.workers_spawned");
static PAR_WORKER_BUSY: dim_obs::Histogram = dim_obs::Histogram::new("par.worker_busy");
static PAR_CHUNK_ITEMS: dim_obs::Histogram =
    dim_obs::Histogram::with_unit("par.chunk_items", "items");
static PAR_IMBALANCE_PCT: dim_obs::Histogram =
    dim_obs::Histogram::with_unit("par.imbalance_pct", "pct");

/// How many worker threads fan-out operations may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker thread count; 1 means run inline on the caller's thread.
    pub threads: usize,
}

impl Parallelism {
    /// Single-threaded execution (the default: deterministic baseline,
    /// what CI and `--quick` runs pin).
    pub const SEQUENTIAL: Parallelism = Parallelism { threads: 1 };

    /// Explicit thread count (clamped to at least 1).
    pub fn new(threads: usize) -> Parallelism {
        Parallelism { threads: threads.max(1) }
    }

    /// One thread per logical CPU.
    pub fn available() -> Parallelism {
        let threads =
            std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
        Parallelism { threads }
    }

    /// The worker count a fan-out over `n` items actually spawns: the
    /// requested width, capped at the host's logical CPU count (extra
    /// threads on a CPU-bound map are pure overhead) and at one worker per
    /// `min_chunk` items (so tiny inputs never pay spawn cost).
    pub fn effective_workers(self, n: usize, min_chunk: usize) -> usize {
        self.threads.min(host_cpus()).min(n / min_chunk.max(1)).max(1)
    }
}

/// The host's logical CPU count, resolved once per process.
fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| {
        std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
    })
}

impl Default for Parallelism {
    fn default() -> Parallelism {
        Parallelism::SEQUENTIAL
    }
}

/// Morsel size and minimum items per spawned worker: workers pull
/// `MIN_CHUNK`-sized index ranges from the shared cursor (small enough to
/// self-balance, large enough to amortize the atomic), and below
/// `2 * MIN_CHUNK` items the sequential path is used outright (spawn
/// overhead would dominate).
const MIN_CHUNK: usize = 8;

/// The morsel size used by the batch entry points (`par_map`,
/// `par_map_scratch`, and friends) — exported so benchmarks and baselines
/// can record the chunking configuration they measured.
pub const MORSEL_SIZE: usize = MIN_CHUNK;

/// A caught item panic's original payload, re-raised unmodified by
/// `resume_unwind`.
type Caught = Box<dyn Any + Send>;

/// Maps `f` over `items`, preserving input order in the output.
///
/// With `par.threads > 1` the slice is split into contiguous chunks, one
/// scoped worker per chunk; results land in their original positions.
/// `f` must be `Sync` (it is shared by reference across workers).
pub fn par_map<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(par, items, |_, item| f(item))
}

/// Like [`par_map`] but `f` also receives the item's index — the hook the
/// determinism contract hangs on: derive per-item seeds from the index,
/// never from shared mutable state.
pub fn par_map_indexed<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    unwrap_or_propagate(par_map_slots(par, items, MIN_CHUNK, f))
}

/// Like [`par_map_indexed`] but for coarse-grained items where each call to
/// `f` dwarfs a thread spawn (a whole benchmark task, a predicate's corpus
/// pass): up to one worker per item, no minimum chunk size.
pub fn par_map_coarse<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    unwrap_or_propagate(par_map_slots(par, items, 1, f))
}

/// If any item panicked, re-raises the panic of the **lowest** faulting
/// index with its original payload — deterministic regardless of which
/// worker hit it first.
fn unwrap_or_propagate<U>(slots: Vec<Result<U, Caught>>) -> Vec<U> {
    let mut out = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot {
            Ok(u) => out.push(u),
            // Slots are in input order, so the first Err has the lowest index.
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    out
}

/// Scratch-less adapter over the morsel core.
fn par_map_slots<T, U, F>(
    par: Parallelism,
    items: &[T],
    min_chunk: usize,
    f: F,
) -> Vec<Result<U, Caught>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    morsel_map_slots(par, items, min_chunk, || (), |i, item, (): &mut ()| f(i, item))
}

/// Like [`par_map`] but with a **per-worker scratch value**: each worker
/// calls `make_scratch` once, then passes `&mut` of that value to `f` for
/// every item it pulls, so buffers allocated for item 0 are reused for
/// item 1000. The scratch type needs no `Send`/`Sync` — it never crosses a
/// thread boundary.
///
/// Determinism: `f` must treat scratch as working memory — the result for
/// `(i, item)` must be independent of what earlier items left in it (clear
/// buffers before use). Item panics re-raise at the lowest faulting index, exactly
/// like [`par_map`].
pub fn par_map_scratch<T, U, S, M, F>(
    par: Parallelism,
    items: &[T],
    make_scratch: M,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    M: Fn() -> S + Sync,
    F: Fn(usize, &T, &mut S) -> U + Sync,
{
    unwrap_or_propagate(morsel_map_slots(par, items, MIN_CHUNK, make_scratch, f))
}

/// Shared morsel-scheduled fan-out core. Workers pull `min_chunk`-sized
/// index ranges ("morsels") from a shared atomic cursor until the input is
/// drained, each carrying a private scratch value; completed runs are merged
/// back **by index**, so output order is independent of the pull race.
///
/// Every item runs inside `catch_unwind`, so one poisoned item can neither
/// tear down its worker's siblings nor poison the scope join.
/// `AssertUnwindSafe` is sound here because a caught panic is re-raised
/// once the map completes, so no caller observes state the unwind left
/// behind.
fn morsel_map_slots<T, U, S, M, F>(
    par: Parallelism,
    items: &[T],
    min_chunk: usize,
    make_scratch: M,
    f: F,
) -> Vec<Result<U, Caught>>
where
    T: Sync,
    U: Send,
    M: Fn() -> S + Sync,
    F: Fn(usize, &T, &mut S) -> U + Sync,
{
    let n = items.len();
    let run_one = |i: usize, item: &T, scratch: &mut S| -> Result<U, Caught> {
        std::panic::catch_unwind(AssertUnwindSafe(|| f(i, item, scratch)))
    };
    let workers = par.effective_workers(n, min_chunk);
    if workers <= 1 {
        PAR_SEQ_CALLS.inc();
        PAR_SEQ_ITEMS.add(n as u64);
        let mut scratch = make_scratch();
        return items.iter().enumerate().map(|(i, item)| run_one(i, item, &mut scratch)).collect();
    }
    morsel_run_parallel(workers, items, min_chunk.max(1), &make_scratch, &run_one)
}

/// The spawned half of [`morsel_map_slots`], parameterized on the final
/// worker count so unit tests can exercise the pull-merge machinery even on
/// hosts whose CPU count would clamp every public call to the inline path.
fn morsel_run_parallel<T, U, S>(
    workers: usize,
    items: &[T],
    morsel: usize,
    make_scratch: &(dyn Fn() -> S + Sync),
    run_one: &(dyn Fn(usize, &T, &mut S) -> Result<U, Caught> + Sync),
) -> Vec<Result<U, Caught>>
where
    T: Sync,
    U: Send,
{
    let n = items.len();
    PAR_CALLS.inc();
    PAR_ITEMS.add(n as u64);
    // Next unclaimed input index. Relaxed suffices: the cursor only
    // allocates disjoint index ranges (fetch_add is atomic at every
    // ordering); all result data flows through the scope join, which
    // provides the happens-before edge.
    let cursor = AtomicUsize::new(0); // lint:allow(relaxed_ordering, cursor only partitions indices; scope join publishes results)
    let mut out: Vec<Option<Result<U, Caught>>> = Vec::with_capacity(n);
    out.resize_with(n, || None);

    // Per-worker busy nanoseconds, returned through the join handles so the
    // imbalance of *this* call can be computed.
    let mut busy_ns: Vec<u64> = Vec::new();
    std::thread::scope(|scope| {
        let run_one = &run_one;
        let make_scratch = &make_scratch;
        let cursor = &cursor;
        let mut handles = Vec::new();
        for _ in 0..workers {
            handles.push(scope.spawn(move || {
                let started = Instant::now();
                let mut scratch = make_scratch();
                // Runs of consecutive results, tagged with their start index.
                let mut runs: Vec<(usize, Vec<Result<U, Caught>>)> = Vec::new();
                let mut pulled = 0u64;
                loop {
                    let start = cursor.fetch_add(morsel, Ordering::Relaxed); // lint:allow(relaxed_ordering, disjoint index allocation; results published by the scope join)
                    if start >= n {
                        break;
                    }
                    let end = (start + morsel).min(n);
                    let mut results = Vec::with_capacity(end - start);
                    for (k, item) in items[start..end].iter().enumerate() { // lint:allow(no_panic, start < n checked above and end = min(start + morsel, n) <= n)
                        results.push(run_one(start + k, item, &mut scratch));
                    }
                    pulled += (end - start) as u64;
                    runs.push((start, results));
                }
                (runs, started.elapsed().as_nanos() as u64, pulled)
            }));
        }
        for h in handles {
            match h.join() {
                Ok((runs, busy, pulled)) => {
                    for (start, results) in runs {
                        for (k, r) in results.into_iter().enumerate() {
                            out[start + k] = Some(r); // lint:allow(no_panic, start + k < end <= n by the worker loop bounds and out.len() == n)
                        }
                    }
                    busy_ns.push(busy);
                    PAR_WORKER_BUSY.record(busy);
                    PAR_CHUNK_ITEMS.record(pulled);
                }
                // Item panics are caught per item above; a panic escaping a
                // worker thread is a fan-out bug, not a data fault.
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    PAR_WORKERS_SPAWNED.add(workers as u64);
    if let (Some(&max), Some(&min)) = (busy_ns.iter().max(), busy_ns.iter().min()) {
        if let Some(pct) = ((max - min) * 100).checked_div(max) {
            PAR_IMBALANCE_PCT.record(pct);
        }
    }

    out.into_iter()
        .map(|slot| slot.unwrap_or_else(|| Err(Box::new("worker failed to fill slot") as Caught)))
        .collect()
}

/// Derives an independent RNG seed for item `index` of a run seeded with
/// `master_seed` (SplitMix64-style finalizer over the pair).
///
/// Every parallelized call site uses this instead of drawing from one
/// sequential RNG, so item i's stream never depends on how items < i were
/// scheduled.
pub fn seed_for(master_seed: u64, index: u64) -> u64 {
    let mut z = master_seed ^ index.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 7] {
            let par = par_map(Parallelism::new(threads), &items, |x| x * x);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn indexed_variant_sees_true_indices() {
        let items = vec!["a"; 257];
        let out = par_map_indexed(Parallelism::new(4), &items, |i, _| i);
        assert_eq!(out, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn coarse_variant_parallelizes_small_inputs() {
        // Below par_map's MIN_CHUNK floor, but coarse mapping still splits.
        let items: Vec<u64> = (0..6).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * 10).collect();
        for threads in [1, 2, 4, 8] {
            let out = par_map_coarse(Parallelism::new(threads), &items, |_, x| x * 10);
            assert_eq!(out, seq, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(Parallelism::new(4), &empty, |x| *x).is_empty());
        let tiny = vec![1u32, 2, 3];
        assert_eq!(par_map(Parallelism::new(4), &tiny, |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn seed_for_separates_streams() {
        let a = seed_for(2024, 0);
        let b = seed_for(2024, 1);
        let c = seed_for(2025, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And is pure: same inputs, same seed.
        assert_eq!(seed_for(2024, 0), a);
    }

    #[test]
    fn panics_propagate() {
        let items: Vec<u32> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(Parallelism::new(4), &items, |x| {
                assert!(*x != 57, "boom");
                *x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn lowest_index_panic_propagates() {
        // Items 30 and 70 both panic; regardless of which worker finishes
        // first, the re-raised payload must be item 30's.
        let items: Vec<u32> = (0..100).collect();
        for threads in [1, 2, 4] {
            let result = std::panic::catch_unwind(|| {
                par_map_indexed(Parallelism::new(threads), &items, |i, _| {
                    if i == 30 || i == 70 {
                        panic!("boom at {i}");
                    }
                    i
                })
            });
            let payload = result.expect_err("must propagate");
            let msg = payload.downcast_ref::<String>().expect("formatted payload");
            assert_eq!(msg, "boom at 30", "threads = {threads}");
        }
    }

    #[test]
    fn parallelism_clamps_to_one() {
        assert_eq!(Parallelism::new(0).threads, 1);
        assert!(Parallelism::available().threads >= 1);
    }

    #[test]
    fn threads_exceeding_items_still_cover_every_item() {
        // More workers than items: the worker count must clamp and the
        // output must stay position-for-position identical.
        for n in [1usize, 2, 3, 7] {
            let items: Vec<u64> = (0..n as u64).collect();
            let seq: Vec<u64> = items.iter().map(|x| x + 100).collect();
            for threads in [n + 1, 2 * n + 3, 64] {
                assert_eq!(
                    par_map(Parallelism::new(threads), &items, |x| x + 100),
                    seq,
                    "n = {n}, threads = {threads}"
                );
                assert_eq!(
                    par_map_coarse(Parallelism::new(threads), &items, |_, x| x + 100),
                    seq,
                    "coarse n = {n}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn min_chunk_boundaries_match_sequential() {
        // Around the 2 * MIN_CHUNK spawn threshold the implementation flips
        // between the inline and the fan-out path; both must agree.
        for n in [
            MIN_CHUNK - 1,
            MIN_CHUNK,
            2 * MIN_CHUNK - 1,
            2 * MIN_CHUNK,
            2 * MIN_CHUNK + 1,
            3 * MIN_CHUNK,
        ] {
            let items: Vec<u64> = (0..n as u64).collect();
            let seq: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
            for threads in 1..=8 {
                assert_eq!(
                    par_map(Parallelism::new(threads), &items, |x| x * 3 + 1),
                    seq,
                    "n = {n}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn empty_input_never_spawns() {
        let empty: Vec<u8> = Vec::new();
        for threads in [1, 4, 8] {
            assert!(par_map_coarse(Parallelism::new(threads), &empty, |_, x| *x).is_empty());
        }
    }

    #[test]
    fn effective_workers_clamps_to_host_and_input() {
        let host = super::host_cpus();
        assert!(host >= 1);
        // Requested width beyond the host CPU count is capped.
        assert!(Parallelism::new(64).effective_workers(1024, 1) <= host);
        // Tiny inputs never spawn more than n / min_chunk workers.
        assert_eq!(Parallelism::new(8).effective_workers(7, 8), 1);
        assert_eq!(Parallelism::new(8).effective_workers(0, 8), 1);
        // Width 1 is always inline.
        assert_eq!(Parallelism::SEQUENTIAL.effective_workers(1_000_000, 1), 1);
    }

    #[test]
    fn scratch_map_matches_sequential_and_reuses_buffers() {
        let items: Vec<u64> = (0..500).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * 7).collect();
        for threads in [1, 2, 4, 7] {
            let out = par_map_scratch(
                Parallelism::new(threads),
                &items,
                Vec::<u64>::new,
                |_, x, buf| {
                    // Pure-cache contract: clear before use, then reuse the
                    // allocation across every item this worker pulls.
                    buf.clear();
                    buf.push(*x);
                    buf[0] * 7
                },
            );
            assert_eq!(out, seq, "threads = {threads}");
        }
    }

    #[test]
    fn scratch_is_per_worker_not_per_item() {
        // Counting make_scratch calls: at most one per effective worker.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let made = AtomicUsize::new(0);
        let items: Vec<u32> = (0..256).collect();
        let par = Parallelism::new(4);
        let out = par_map_scratch(
            par,
            &items,
            || {
                made.fetch_add(1, Ordering::SeqCst);
                0u32
            },
            |_, x, _s| x + 1,
        );
        assert_eq!(out.len(), 256);
        let calls = made.load(Ordering::SeqCst);
        assert!(calls <= par.effective_workers(256, MIN_CHUNK), "made {calls} scratches");
        assert!(calls >= 1);
    }

    #[test]
    fn morsel_parallel_path_merges_by_index() {
        // Drive the spawned path directly: on a single-CPU host every public
        // entry point clamps to inline, which would leave the pull-merge
        // machinery untested.
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [2, 4, 7] {
            for morsel in [1, 3, 8, 64] {
                let slots = morsel_run_parallel(
                    workers,
                    &items,
                    morsel,
                    &Vec::<u64>::new,
                    &|i, x: &u64, buf: &mut Vec<u64>| {
                        buf.clear();
                        buf.push(x * 3 + 1);
                        assert_eq!(items[i], *x, "index/item pairing preserved");
                        Ok(buf[0])
                    },
                );
                let out: Vec<u64> = slots.into_iter().map(|r| r.unwrap()).collect();
                assert_eq!(out, seq, "workers = {workers}, morsel = {morsel}");
            }
        }
    }

    #[test]
    fn morsel_parallel_path_preserves_panic_slots() {
        let items: Vec<u32> = (0..64).collect();
        let slots = morsel_run_parallel(
            4,
            &items,
            8,
            &|| (),
            &|i, x: &u32, _: &mut ()| {
                if i == 17 {
                    return Err(Box::new("boom") as Caught);
                }
                Ok(*x)
            },
        );
        for (i, slot) in slots.iter().enumerate() {
            match slot {
                Ok(v) => assert_eq!(*v, i as u32),
                Err(_) => assert_eq!(i, 17),
            }
        }
        assert_eq!(slots.iter().filter(|s| s.is_err()).count(), 1);
    }
}
