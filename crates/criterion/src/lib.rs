//! Offline drop-in subset of `criterion`.
//!
//! Implements the harness surface the workspace benches use —
//! `Criterion::default().sample_size(n)`, `bench_function`, `Bencher::iter`,
//! `Bencher::iter_batched`, `criterion_group!` (both forms) and
//! `criterion_main!` — with a simple calibrated-sampling measurement loop
//! instead of criterion's full statistical machinery.
//!
//! Results print to stdout, and when the `BENCH_JSON` environment variable
//! names a file, each group merges its `{name: {mean_ns, median_ns, ...}}`
//! entries into that JSON file — this is how `BENCH_baseline.json` is
//! produced (see EXPERIMENTS.md).

use dim_json::Value;
use std::time::Instant;

/// Re-export for parity with the real crate (benches mostly use
/// `std::hint::black_box` directly).
pub use std::hint::black_box;

/// Batch sizing hint for [`Bencher::iter_batched`]; the compat harness
/// treats both the same (one setup per timed call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Inputs are cheap to hold in memory.
    SmallInput,
    /// Inputs are large; keep few alive.
    LargeInput,
}

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id, as passed to `bench_function`.
    pub name: String,
    /// Mean wall-clock time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Median over samples, nanoseconds.
    pub median_ns: f64,
    /// Number of samples taken.
    pub samples: usize,
    /// Iterations per sample.
    pub iters: u64,
    /// Extra metadata recorded verbatim as JSON fields (e.g. thread width,
    /// morsel size) via [`Criterion::bench_function_meta`].
    pub extra: Vec<(&'static str, f64)>,
}

/// The benchmark driver.
pub struct Criterion {
    sample_size: usize,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 30, results: Vec::new() }
    }
}

impl Criterion {
    /// Sets the number of samples per benchmark (builder style).
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(2);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        self.bench_function_meta(name, &[], f)
    }

    /// [`Self::bench_function`] with extra metadata fields (e.g.
    /// `("threads", 4.0)`, `("morsel", 8.0)`) recorded alongside the
    /// timings in the `BENCH_JSON` output, so baseline files are
    /// self-describing about the configuration they measured.
    pub fn bench_function_meta<F>(
        &mut self,
        name: &str,
        extra: &[(&'static str, f64)],
        mut f: F,
    ) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        let mut b =
            Bencher { sample_size: self.sample_size, per_iter_ns: Vec::new(), iters_hint: 1 };
        f(&mut b);
        let mut sorted = b.per_iter_ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (mean, median, iters) = if sorted.is_empty() {
            (0.0, 0.0, 0)
        } else {
            let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
            let median = sorted[sorted.len() / 2];
            (mean, median, b.last_iters())
        };
        println!(
            "bench {name:<40} time: {:>12} /iter  (median {:>12}, {} samples x {} iters)",
            fmt_ns(mean),
            fmt_ns(median),
            sorted.len(),
            iters
        );
        self.results.push(BenchResult {
            name: name.to_string(),
            mean_ns: mean,
            median_ns: median,
            samples: sorted.len(),
            iters,
            extra: extra.to_vec(),
        });
        self
    }

    /// Flushes results: called by `criterion_group!` after its targets run.
    /// Merges into the `BENCH_JSON` file when that env var is set.
    pub fn finish(&mut self) {
        let Ok(path) = std::env::var("BENCH_JSON") else { return };
        if path.is_empty() {
            return;
        }
        let mut entries: Vec<(String, Value)> = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| dim_json::parse_value(&text).ok())
            .and_then(|v| match v {
                Value::Obj(fields) => Some(fields),
                _ => None,
            })
            .unwrap_or_default();
        for r in &self.results {
            // Round the timing stats to 2 decimals at serialization so the
            // committed baseline diffs cleanly (no 16-digit float artifacts).
            let mut fields = vec![
                ("mean_ns".to_string(), Value::Num(round2(r.mean_ns))),
                ("median_ns".to_string(), Value::Num(round2(r.median_ns))),
                ("samples".to_string(), Value::Num(r.samples as f64)),
                ("iters".to_string(), Value::Num(r.iters as f64)),
            ];
            for &(k, v) in &r.extra {
                fields.push((k.to_string(), Value::Num(v)));
            }
            let entry = Value::Obj(fields);
            match entries.iter_mut().find(|(k, _)| *k == r.name) {
                Some(slot) => slot.1 = entry,
                None => entries.push((r.name.clone(), entry)),
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let text = dim_json::to_string_pretty(&Value::Obj(entries));
        if let Err(e) = std::fs::write(&path, text + "\n") {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
}

/// Rounds to 2 decimal places for JSON output.
fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Target wall-clock time per sample.
const TARGET_SAMPLE_NS: f64 = 5_000_000.0;

/// Timing loop handle passed to the closure of `bench_function`.
pub struct Bencher {
    sample_size: usize,
    per_iter_ns: Vec<f64>,
    iters_hint: u64,
}

impl Bencher {
    fn last_iters(&self) -> u64 {
        self.iters_hint
    }
}

impl Bencher {
    /// Times `routine`, called in calibrated batches.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Calibrate: time one call to pick an iteration count per sample.
        let t0 = Instant::now();
        black_box(routine());
        let once_ns = t0.elapsed().as_nanos().max(1) as f64;
        let iters = (TARGET_SAMPLE_NS / once_ns).clamp(1.0, 1_000_000.0) as u64;
        self.iters_hint = iters;
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let total = start.elapsed().as_nanos() as f64;
            self.per_iter_ns.push(total / iters as f64);
        }
    }

    /// Times `routine` over inputs produced by `setup`; setup time is not
    /// counted.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.iters_hint = 1;
        for _ in 0..self.sample_size {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.per_iter_ns.push(start.elapsed().as_nanos() as f64);
        }
    }
}

/// Declares a bench group. Supports both the positional form
/// `criterion_group!(benches, f1, f2)` and the configured form
/// `criterion_group! { name = benches; config = ...; targets = f1, f2 }`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut __criterion: $crate::Criterion = $cfg;
            $( $target(&mut __criterion); )+
            __criterion.finish();
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = <$crate::Criterion as ::std::default::Default>::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // Cargo passes flags like `--bench`; nothing here parses args.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_measures_and_records() {
        let mut c = Criterion::default().sample_size(5);
        c.bench_function("spin", |b| {
            b.iter(|| (0..100u64).sum::<u64>());
        });
        c.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput);
        });
        assert_eq!(c.results.len(), 2);
        assert!(c.results[0].mean_ns > 0.0);
        assert_eq!(c.results[1].samples, 5);
    }
}
