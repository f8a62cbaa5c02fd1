//! lint-gate: the deep-lint regression gate (`make lint-gate`).
//!
//! `make lint` already gates *what* `dimlint --deep` finds; this gate pins
//! how long it takes to find it (see EXPERIMENTS.md "Deep-lint gate"): the
//! median full deep run (item parse, call graph, all eight rules over the
//! whole workspace, file pass on one thread) must stay under `BUDGET_NS`.
//! The deep pass runs inside `make verify` on every change; if it creeps
//! from milliseconds toward seconds, the analyses have regressed from
//! single-pass to quadratic somewhere.
//!
//! Methodology matches bench_gate: `WARMUP` untimed runs,
//! `SAMPLES` timed runs, median-of-samples (robust to co-tenant noise).

use dim_lint::{run, LintOptions};
use std::hint::black_box;
use std::time::Instant;

/// Full deep-run budget in nanoseconds (measured ~50 ms on the reference
/// machine; 500 ms leaves 10x headroom for slow CI before failing).
const BUDGET_NS: f64 = 500_000_000.0;
/// Timed samples.
const SAMPLES: usize = 20;
/// Untimed warmup runs.
const WARMUP: usize = 3;

fn median_ns(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

fn main() {
    // The gate runs from the workspace root (`make lint-gate`), like
    // dimlint's own default.
    let mut opts = LintOptions::new(std::path::PathBuf::from("."));
    opts.deep = true;

    for _ in 0..WARMUP {
        black_box(run(&opts).expect("workspace scan"));
    }
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        let report = run(&opts).expect("workspace scan");
        samples.push(start.elapsed().as_nanos() as f64);
        black_box(report);
    }
    let median = median_ns(samples);
    let budget_ok = median < BUDGET_NS;
    println!(
        "lint-gate: deep-run median     {} ({:.1} ms, budget {:.0} ms, {SAMPLES} samples)",
        if budget_ok { "PASS" } else { "FAIL" },
        median / 1_000_000.0,
        BUDGET_NS / 1_000_000.0
    );
    if !budget_ok {
        println!("lint-gate: FAILED");
        std::process::exit(1);
    }
    println!("lint-gate: passed");
}
