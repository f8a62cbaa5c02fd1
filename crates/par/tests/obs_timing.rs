//! Per-worker observability of the fan-out layer. Lives in its own test
//! binary, with one test function, so no other fan-out runs between the
//! snapshots whose differences it checks.

use dim_par::{par_map, Parallelism};

/// The `(count, sum)` increase of histogram `name` from `before` to `after`.
fn hist_delta(before: &dim_obs::Snapshot, after: &dim_obs::Snapshot, name: &str) -> (u64, u64) {
    let at = |s: &dim_obs::Snapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
    let ((c0, s0), (c1, s1)) = (at(before), at(after));
    (c1 - c0, s1 - s0)
}

#[test]
fn worker_timing_and_sequential_counters() {
    // --- parallel path: per-worker timings, morsel totals, imbalance ----
    // The effective worker count is the requested width clamped to the
    // host's CPU count, so the expectations are computed, not hard-coded.
    let par = Parallelism::new(4);
    let expected_workers = par.effective_workers(64, 8);
    let before = dim_obs::snapshot();
    let items: Vec<u64> = (0..64).collect();
    let out = par_map(par, &items, |x| x + 1);
    assert_eq!(out, (1..=64).collect::<Vec<u64>>());

    let after = dim_obs::snapshot();
    let counter = |name| after.counter_since(&before, name);
    if expected_workers > 1 {
        let workers = expected_workers as u64;
        let busy = hist_delta(&before, &after, "par.worker_busy");
        assert_eq!(busy.0, workers, "one sample per spawned worker");
        assert_eq!(counter("par.items"), 64);
        assert_eq!(counter("par.workers_spawned"), workers);
        assert_eq!(counter("par.calls"), 1);
        let chunk = hist_delta(&before, &after, "par.chunk_items");
        assert_eq!(chunk, (workers, 64), "morsels pulled per worker sum to the item count");
        // One imbalance sample per parallel call, expressed in percent.
        assert_eq!(hist_delta(&before, &after, "par.imbalance_pct").0, 1);
        assert!(after.histogram("par.imbalance_pct").unwrap().max <= 100);
    } else {
        // Single-CPU host: width 4 clamps to the inline path.
        assert_eq!(counter("par.seq_calls"), 1);
        assert_eq!(counter("par.seq_items"), 64);
        assert_eq!(counter("par.calls"), 0);
    }

    // --- sequential path: inline calls tallied separately --------------
    let before = dim_obs::snapshot();
    // threads = 1 and tiny inputs both take the inline path.
    let tiny: Vec<u64> = (0..3).collect();
    par_map(Parallelism::new(4), &tiny, |x| *x);
    let items: Vec<u64> = (0..100).collect();
    par_map(Parallelism::SEQUENTIAL, &items, |x| *x);

    let after = dim_obs::snapshot();
    assert_eq!(after.counter_since(&before, "par.seq_calls"), 2);
    assert_eq!(after.counter_since(&before, "par.seq_items"), 103);
    assert_eq!(after.counter_since(&before, "par.calls"), 0, "no parallel call happened");
}
