//! bench-gate: the thread-width regression gate (`make bench-gate`).
//!
//! Re-times the two batch benchmarks — `annotate_batch` and
//! `algo1_per_100_sentences` — at widths 1 and 4, in-process, and exits
//! nonzero if the width-4 median is slower than the width-1 median beyond
//! a small tolerance. This pins the ROADMAP item 1 invariant ("parallelism
//! must not hurt"): before the morsel scheduler landed, width 4 was ~25%
//! *slower* than width 1 on these workloads.
//!
//! Tolerance: width 4 must satisfy `median4 <= median1 * 1.10`. On hosts
//! with one usable core the scheduler clamps width 4 to the identical
//! sequential path, so the two medians measure the same code and the 10%
//! headroom only absorbs timer noise; on multi-core hosts real speedups are
//! far outside it. See EXPERIMENTS.md "Thread-width regression gate".

use dimeval::algo1;
use dimkb::DimUnitKb;
use dimlink::{Annotator, LinkerConfig, UnitLinker};
use std::hint::black_box;
use std::time::Instant;

/// Allowed ratio of width-4 median over width-1 median.
const TOLERANCE: f64 = 1.10;
/// Timed samples per (bench, width) pair.
const SAMPLES: usize = 20;
/// Untimed warmup runs per (bench, width) pair.
const WARMUP: usize = 3;

fn median_ns(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("bench timings are finite"));
    samples[samples.len() / 2]
}

/// Times one run of `f` in nanoseconds.
fn time_once<F: FnMut()>(f: &mut F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64
}

/// Medians of `SAMPLES` runs each of `f1` (width 1) and `f4` (width 4),
/// after `WARMUP` untimed runs of each. Samples are **interleaved**
/// (1, 4, 1, 4, …) rather than blocked, so slow drift — frequency scaling,
/// co-tenant load, cache temperature — lands on both widths equally instead
/// of biasing whichever ran second.
fn interleaved_medians<F: FnMut(), G: FnMut()>(mut f1: F, mut f4: G) -> (f64, f64) {
    for _ in 0..WARMUP {
        f1();
        f4();
    }
    let mut s1 = Vec::with_capacity(SAMPLES);
    let mut s4 = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        s1.push(time_once(&mut f1));
        s4.push(time_once(&mut f4));
    }
    (median_ns(s1), median_ns(s4))
}

/// One gated benchmark: medians at width 1 and 4, pass/fail against
/// `TOLERANCE`.
struct Gate {
    name: &'static str,
    median1_ns: f64,
    median4_ns: f64,
}

impl Gate {
    fn passed(&self) -> bool {
        self.median4_ns <= self.median1_ns * TOLERANCE
    }
}

fn main() {
    let kb = DimUnitKb::shared();

    // Workload 1: annotate_batch over 120 mixed-script (CJK plus ASCII
    // unit) sentences.
    let texts: Vec<String> = (0..120)
        .map(|i| {
            format!(
                "第{i}组样本：长度为{}米，质量是{}千克，速度达到{} km/h，含水量{}%。",
                i + 2,
                i * 3 + 1,
                (i % 40) + 20,
                (i % 50) + 10,
            )
        })
        .collect();
    let annotator = Annotator::new(UnitLinker::with_config(kb.clone(), LinkerConfig::default()));
    let annotate_run = |threads: usize| {
        black_box(annotator.annotate_batch(&texts, dim_par::Parallelism::new(threads)).len());
    };

    // Workload 2: Algorithm 1 over a 100-sentence generated corpus.
    let corpus = dim_corpus::generate(&kb, &dim_corpus::CorpusConfig { sentences: 100, seed: 1 });
    let mlm = algo1::train_filter(&corpus);
    let algo1_run = |threads: usize| {
        let cfg = algo1::Algo1Config {
            parallelism: dim_par::Parallelism::new(threads),
            ..Default::default()
        };
        black_box(algo1::semi_automated_annotate(&annotator, &mlm, &corpus, cfg).dataset.len());
    };

    let (annotate1, annotate4) = interleaved_medians(|| annotate_run(1), || annotate_run(4));
    let (algo1_m1, algo1_m4) = interleaved_medians(|| algo1_run(1), || algo1_run(4));
    let gates = [
        Gate { name: "annotate_batch", median1_ns: annotate1, median4_ns: annotate4 },
        Gate { name: "algo1_per_100_sentences", median1_ns: algo1_m1, median4_ns: algo1_m4 },
    ];

    println!(
        "bench-gate: width-4 median must be <= width-1 median x {TOLERANCE} ({SAMPLES} samples)"
    );
    let mut failed = false;
    for g in &gates {
        let ratio = g.median4_ns / g.median1_ns;
        let verdict = if g.passed() { "ok" } else { "FAIL" };
        println!(
            "  {:<28} threads1 {:>12.0} ns   threads4 {:>12.0} ns   ratio {ratio:.3}   {verdict}",
            g.name, g.median1_ns, g.median4_ns
        );
        failed |= !g.passed();
    }
    if failed {
        eprintln!("bench-gate: FAILED — thread width 4 regressed against width 1");
        std::process::exit(1);
    }
    println!("bench-gate: passed");
}
