//! `dim-obs`: a structured observability layer whose only dependency is the
//! in-repo `dim-json` string escaper.
//!
//! The workspace's determinism contract says every paper-facing byte is a
//! pure function of the experiment configuration — which leaves no room for
//! timing output on stdout, and no appetite for a metrics dependency. This
//! crate closes the gap with two primitives that live entirely *outside*
//! the results path:
//!
//! * [`Histogram`] — log-bucketed latency (or any `u64`) distribution with
//!   exact count/sum/min/max and bucketed p50/p90/p99. [`Histogram::span`]
//!   returns a scoped [`Span`] guard that records elapsed nanoseconds on
//!   drop, so instrumenting a stage is one line.
//! * [`Counter`] — a monotonic, saturating `u64` (units linked, cache hits,
//!   sentences filtered, items fanned out per worker).
//!
//! The offline pipeline's metrics are `static`s declared at their call site
//! that register themselves in a global registry on first touch. That
//! layer is disabled by default: every record path starts with one relaxed
//! atomic load and returns immediately, so uninstrumented runs pay a
//! branch, not a syscall — and the registry stays empty, which a test pins.
//! A [`Histogram`] owned by a value instead of a `static` (a server's
//! request latencies) records through [`Histogram::observe`], always on and
//! outside the registry, and reports its own [`Histogram::stats`].
//!
//! [`snapshot`] freezes the registry into a [`Snapshot`] that renders as a
//! human table ([`Snapshot::render_table`], intended for stderr so stdout
//! stays byte-identical) or machine-readable JSON ([`Snapshot::to_json`],
//! the `obs_report.json` schema).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ===================== global enable switch =====================

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is recording currently enabled? One relaxed load — the cost every
/// instrumented call site pays when observability is off.
#[inline]
pub fn enabled() -> bool {
    // No data is published under this flag: record paths synchronize via
    // the registry mutex and per-metric atomics, so the gate itself needs
    // no ordering.
    ENABLED.load(Ordering::Relaxed) // lint:allow(relaxed_ordering, pure on/off gate; registry handoff synchronizes via the REGISTRY mutex)
}

/// Turns recording on (idempotent). Metrics register lazily afterwards.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off. Already-registered metrics keep their values.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

// ===================== registry =====================

struct RegistryInner {
    counters: Vec<&'static Counter>,
    histograms: Vec<&'static Histogram>,
}

static REGISTRY: Mutex<RegistryInner> =
    Mutex::new(RegistryInner { counters: Vec::new(), histograms: Vec::new() });

/// Zeroes every registered metric and empties the registry (metrics
/// re-register on their next recorded value). Test isolation helper; the
/// bench binaries never need it because each process reports once.
pub fn reset() {
    let mut r = REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for c in r.counters.drain(..) {
        c.value.store(0, Ordering::SeqCst);
        c.registered.store(false, Ordering::SeqCst);
    }
    for h in r.histograms.drain(..) {
        h.count.store(0, Ordering::SeqCst);
        h.sum.store(0, Ordering::SeqCst);
        h.min.store(u64::MAX, Ordering::SeqCst);
        h.max.store(0, Ordering::SeqCst);
        for b in &h.buckets {
            b.store(0, Ordering::SeqCst);
        }
        h.registered.store(false, Ordering::SeqCst);
    }
}

// ===================== counter =====================

/// A monotonic counter. Additions saturate at `u64::MAX` instead of
/// wrapping, so a runaway increment can never masquerade as a small value.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A counter named `name` (const: declare as `static`).
    pub const fn new(name: &'static str) -> Counter {
        Counter { name, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    /// Adds `n` (saturating). No-op while recording is disabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() || n == 0 {
            return;
        }
        self.register();
        let mut cur = self.value.load(Ordering::Relaxed); // lint:allow(relaxed_ordering, single-cell CAS loop; only the value matters)
        loop {
            let next = cur.saturating_add(n);
            match self.value.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) // lint:allow(relaxed_ordering, single-cell CAS loop; only the value matters)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed) // lint:allow(relaxed_ordering, monotonic value read; no ordering dependency)
    }

    fn register(&'static self) {
        if !self.registered.load(Ordering::Relaxed) // lint:allow(relaxed_ordering, fast-path pre-check; the SeqCst swap below is authoritative)
            && !self.registered.swap(true, Ordering::SeqCst)
        {
            REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner).counters.push(self);
        }
    }
}

// ===================== histogram =====================

/// Values below this are their own exact bucket.
const LINEAR_MAX: u64 = 16;
/// Sub-buckets per power of two above [`LINEAR_MAX`].
const SUB: usize = 16;
/// Powers of two covered above [`LINEAR_MAX`] (2^4 … 2^63).
const OCTAVES: usize = 60;
/// Total bucket count.
const BUCKETS: usize = LINEAR_MAX as usize + OCTAVES * SUB;

/// Bucket index of a value: exact below [`LINEAR_MAX`], then 16 log-spaced
/// sub-buckets per octave (≤ ~3% relative quantization error at the bucket
/// midpoint).
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let log2 = 63 - v.leading_zeros() as usize; // >= 4
    let octave = log2 - 4;
    let sub = ((v >> (log2 - 4)) & 0xF) as usize;
    (LINEAR_MAX as usize + octave * SUB + sub).min(BUCKETS - 1)
}

/// Midpoint of a bucket (exact for the linear range).
fn bucket_mid(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        return idx as u64;
    }
    let octave = (idx - LINEAR_MAX as usize) / SUB;
    let sub = ((idx - LINEAR_MAX as usize) % SUB) as u64;
    let lo = (LINEAR_MAX + sub) << octave;
    lo + (1u64 << octave) / 2
}

/// A fixed-memory log-bucketed distribution. Built for span latencies in
/// nanoseconds, but any `u64` works — set `unit` accordingly.
pub struct Histogram {
    name: &'static str,
    unit: &'static str,
    registered: AtomicBool,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    /// A nanosecond-latency histogram named `name` (const: declare as
    /// `static`).
    pub const fn new(name: &'static str) -> Histogram {
        Histogram::with_unit(name, "ns")
    }

    /// A histogram over an arbitrary unit (e.g. `"pct"`, `"items"`).
    pub const fn with_unit(name: &'static str, unit: &'static str) -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            unit,
            registered: AtomicBool::new(false),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [ZERO; BUCKETS],
        }
    }

    /// Records one value. No-op while recording is disabled.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        if !self.registered.load(Ordering::Relaxed) // lint:allow(relaxed_ordering, fast-path pre-check; the SeqCst swap below is authoritative)
            && !self.registered.swap(true, Ordering::SeqCst)
        {
            REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner).histograms.push(self);
        }
        self.observe(v);
    }

    /// Records one value whatever the enable flag says, without touching
    /// the registry — the record path of a histogram owned by a value, which
    /// the owner renders through [`Histogram::stats`].
    #[inline]
    pub fn observe(&self, v: u64) {
        // Independent stat cells; a snapshot may observe a torn cross-cell
        // view (count updated, sum not yet), which the quantile clamp and
        // the "stats are approximate while recording" contract absorb.
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed); // lint:allow(relaxed_ordering, independent stat cell; torn cross-cell views are in-contract)
        self.count.fetch_add(1, Ordering::Relaxed); // lint:allow(relaxed_ordering, independent stat cell; torn cross-cell views are in-contract)
        self.sum.fetch_add(v, Ordering::Relaxed); // lint:allow(relaxed_ordering, independent stat cell; torn cross-cell views are in-contract)
        self.min.fetch_min(v, Ordering::Relaxed); // lint:allow(relaxed_ordering, independent stat cell; torn cross-cell views are in-contract)
        self.max.fetch_max(v, Ordering::Relaxed); // lint:allow(relaxed_ordering, independent stat cell; torn cross-cell views are in-contract)
    }

    /// Starts a scoped timing span: elapsed nanoseconds are recorded into
    /// this histogram when the returned guard drops. When recording is
    /// disabled the guard is inert and no clock is read.
    #[must_use = "a span records on drop; binding it to _ drops immediately"]
    pub fn span(&'static self) -> Span {
        Span { hist: self, start: if enabled() { Some(Instant::now()) } else { None } } // lint:allow(nondeterministic, span timing is measurement-only; reports render to stderr/obs_report.json, never stdout goldens)
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed) // lint:allow(relaxed_ordering, stat value read; no ordering dependency)
    }

    /// The `q`-quantile (`0.0..=1.0`) from bucket midpoints; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        // Bucket midpoints approximate, so clamp to the exact extremes —
        // a quantile outside [min, max] is never the right answer.
        let lo = self.min.load(Ordering::Relaxed); // lint:allow(relaxed_ordering, stat value read; no ordering dependency)
        let hi = self.max.load(Ordering::Relaxed); // lint:allow(relaxed_ordering, stat value read; no ordering dependency)
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed); // lint:allow(relaxed_ordering, stat value read; no ordering dependency)
            if seen >= rank {
                return bucket_mid(idx).clamp(lo, hi);
            }
        }
        hi
    }

    /// Frozen statistics of this histogram.
    pub fn stats(&self) -> HistogramStats {
        let count = self.count();
        HistogramStats {
            name: self.name.to_string(),
            unit: self.unit,
            count,
            sum: self.sum.load(Ordering::Relaxed), // lint:allow(relaxed_ordering, stat value read; no ordering dependency)
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) }, // lint:allow(relaxed_ordering, stat value read; no ordering dependency)
            max: self.max.load(Ordering::Relaxed), // lint:allow(relaxed_ordering, stat value read; no ordering dependency)
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Scoped timing guard returned by [`Histogram::span`].
pub struct Span {
    hist: &'static Histogram,
    start: Option<Instant>,
}

impl Span {
    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.hist.record(start.elapsed().as_nanos() as u64);
        }
    }
}

// ===================== snapshot + rendering =====================

/// Frozen statistics of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramStats {
    /// Metric name.
    pub name: String,
    /// Unit label (`"ns"` for spans).
    pub unit: &'static str,
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Exact minimum (0 when empty).
    pub min: u64,
    /// Exact maximum.
    pub max: u64,
    /// Bucketed median.
    pub p50: u64,
    /// Bucketed 90th percentile.
    pub p90: u64,
    /// Bucketed 99th percentile.
    pub p99: u64,
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges. The registry holds none; an owner of
    /// last-value readings (a server's queue depth) adds its own.
    pub gauges: Vec<(String, u64)>,
    /// Histogram statistics (timing spans and value distributions).
    pub histograms: Vec<HistogramStats>,
}

/// Freezes the current registry contents.
pub fn snapshot() -> Snapshot {
    let r = REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut counters: Vec<(String, u64)> =
        r.counters.iter().map(|c| (c.name.to_string(), c.get())).collect();
    let mut histograms: Vec<HistogramStats> = r.histograms.iter().map(|h| h.stats()).collect();
    counters.sort();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    Snapshot { counters, gauges: Vec::new(), histograms }
}

impl Snapshot {
    /// Stats for a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramStats> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Value of a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Machine-readable JSON (the `obs_report.json` schema): top-level
    /// `counters`, `gauges` and `histograms` objects keyed by metric name,
    /// keys in sorted order so reports diff cleanly.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            dim_json::write_string(name, &mut out);
            out.push_str(&format!(": {v}"));
        }
        out.push_str(if self.counters.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            dim_json::write_string(name, &mut out);
            out.push_str(&format!(": {v}"));
        }
        out.push_str(if self.gauges.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            dim_json::write_string(&h.name, &mut out);
            out.push_str(&format!(
                ": {{\"unit\": \"{}\", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                h.unit, h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
            ));
        }
        out.push_str(if self.histograms.is_empty() { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }

    /// Human-readable table. Callers print this to **stderr**: stdout is
    /// reserved for byte-identical experiment output.
    pub fn render_table(&self) -> String {
        fn fmt_qty(v: u64, unit: &str) -> String {
            if unit != "ns" {
                return format!("{v} {unit}");
            }
            match v {
                0..=9_999 => format!("{v} ns"),
                10_000..=9_999_999 => format!("{:.1} µs", v as f64 / 1e3),
                10_000_000..=9_999_999_999 => format!("{:.1} ms", v as f64 / 1e6),
                _ => format!("{:.2} s", v as f64 / 1e9),
            }
        }
        let mut out = String::from("== observability report ==\n");
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "{:<28} {:>8} {:>11} {:>11} {:>11} {:>11} {:>11}\n",
                "span/histogram", "count", "p50", "p90", "p99", "max", "total"
            ));
            for h in &self.histograms {
                out.push_str(&format!(
                    "{:<28} {:>8} {:>11} {:>11} {:>11} {:>11} {:>11}\n",
                    h.name,
                    h.count,
                    fmt_qty(h.p50, h.unit),
                    fmt_qty(h.p90, h.unit),
                    fmt_qty(h.p99, h.unit),
                    fmt_qty(h.max, h.unit),
                    fmt_qty(h.sum, h.unit),
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("{:<42} {:>14}\n", "counter", "value"));
            for (name, v) in &self.counters {
                out.push_str(&format!("{name:<42} {v:>14}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!("{:<42} {:>14}\n", "gauge", "value"));
            for (name, v) in &self.gauges {
                out.push_str(&format!("{name:<42} {v:>14}\n"));
            }
        }
        if self.histograms.is_empty() && self.counters.is_empty() && self.gauges.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry and enable flag are process-global; tests that touch
    /// them serialize on this lock (and restore the disabled state).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    struct EnabledGuard;
    impl EnabledGuard {
        fn new() -> EnabledGuard {
            enable();
            EnabledGuard
        }
    }
    impl Drop for EnabledGuard {
        fn drop(&mut self) {
            disable();
        }
    }

    /// Deterministic xorshift so the quantile test needs no RNG dependency.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn quantiles_match_sorted_reference() {
        let _l = TEST_LOCK.lock().unwrap();
        let _e = EnabledGuard::new();
        static H: Histogram = Histogram::new("test.quantiles");
        // A skewed latency-like distribution spanning several octaves.
        let mut state = 0x5DEECE66D;
        let mut values: Vec<u64> = (0..10_000)
            .map(|_| {
                let r = xorshift(&mut state);
                (r % 1000) * ((r >> 32) % 97 + 1) * ((r >> 48) % 11 + 1)
            })
            .collect();
        for &v in &values {
            H.record(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let reference = values[rank - 1];
            let estimate = H.quantile(q);
            // Bucket midpoints bound the quantization error at ~±4% (half a
            // 1/16-octave bucket) plus one count for the tiny linear range.
            let tol = (reference as f64 * 0.04) + 1.0;
            assert!(
                (estimate as f64 - reference as f64).abs() <= tol,
                "q={q}: estimate {estimate} vs reference {reference}"
            );
        }
        assert_eq!(H.count(), 10_000);
        reset();
    }

    #[test]
    fn quantile_is_exact_in_linear_range() {
        let _l = TEST_LOCK.lock().unwrap();
        let _e = EnabledGuard::new();
        static H: Histogram = Histogram::new("test.linear");
        for v in [3u64, 3, 5, 9, 15] {
            H.record(v);
        }
        assert_eq!(H.quantile(0.5), 5);
        assert_eq!(H.quantile(1.0), 15);
        assert_eq!(H.quantile(0.0), 3);
        reset();
    }

    #[test]
    fn bucket_index_and_mid_are_consistent() {
        // Every bucket's midpoint must map back to that bucket, and indices
        // must be monotone in the value.
        let mut last = 0usize;
        for exp in 0..63 {
            for v in [1u64 << exp, (1u64 << exp) + (1u64 << exp) / 3] {
                let idx = bucket_index(v);
                assert!(idx >= last || v < LINEAR_MAX, "monotone: {v}");
                last = last.max(idx);
                assert_eq!(bucket_index(bucket_mid(idx)), idx, "v={v} idx={idx}");
            }
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let _l = TEST_LOCK.lock().unwrap();
        let _e = EnabledGuard::new();
        static C: Counter = Counter::new("test.saturate");
        C.add(u64::MAX - 5);
        C.add(3);
        assert_eq!(C.get(), u64::MAX - 2);
        C.add(100);
        assert_eq!(C.get(), u64::MAX, "must saturate, not wrap");
        C.inc();
        assert_eq!(C.get(), u64::MAX);
        reset();
    }

    #[test]
    fn disabled_registry_records_nothing_and_stays_empty() {
        let _l = TEST_LOCK.lock().unwrap();
        disable();
        static C: Counter = Counter::new("test.disabled.counter");
        static H: Histogram = Histogram::new("test.disabled.hist");
        C.add(7);
        C.inc();
        H.record(1000);
        {
            let span = H.span();
            span.end();
        }
        assert_eq!(C.get(), 0);
        assert_eq!(H.count(), 0);
        let snap = snapshot();
        assert!(snap.counter("test.disabled.counter").is_none());
        assert!(snap.histogram("test.disabled.hist").is_none());
    }

    #[test]
    fn observe_records_without_the_flag_or_the_registry() {
        let _l = TEST_LOCK.lock().unwrap();
        disable();
        let h = Histogram::with_unit("test.owned", "items");
        for v in [4u64, 8, 12] {
            h.observe(v);
        }
        let stats = h.stats();
        assert_eq!((stats.count, stats.sum, stats.min, stats.max, stats.p50), (3, 24, 4, 12, 8));
        assert_eq!((stats.name.as_str(), stats.unit), ("test.owned", "items"));
        assert!(snapshot().histogram("test.owned").is_none(), "an owned histogram never registers");
    }

    #[test]
    fn span_records_elapsed_time_when_enabled() {
        let _l = TEST_LOCK.lock().unwrap();
        let _e = EnabledGuard::new();
        static H: Histogram = Histogram::new("test.span");
        {
            let _span = H.span();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(H.count(), 1);
        let stats = snapshot().histogram("test.span").unwrap().clone();
        assert!(stats.sum >= 2_000_000, "2ms sleep must record ≥2ms, got {}ns", stats.sum);
        assert!(stats.min <= stats.p50 && stats.p50 <= stats.max * 2);
        reset();
    }

    #[test]
    fn snapshot_sorts_and_json_renders() {
        let _l = TEST_LOCK.lock().unwrap();
        let _e = EnabledGuard::new();
        static C2: Counter = Counter::new("test.zz");
        static C1: Counter = Counter::new("test.aa");
        static H: Histogram = Histogram::with_unit("test.pct", "pct");
        C2.add(2);
        C1.add(1);
        H.record(50);
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let (za, aa) = (
            names.iter().position(|n| *n == "test.zz").unwrap(),
            names.iter().position(|n| *n == "test.aa").unwrap(),
        );
        assert!(aa < za, "counters must be name-sorted");
        let json = snap.to_json();
        assert!(json.contains("\"test.aa\": 1"));
        assert!(json.contains("\"test.zz\": 2"));
        assert!(json.contains("\"unit\": \"pct\""));
        let table = snap.render_table();
        assert!(table.contains("test.pct") && table.contains("50 pct"));
        reset();
    }

    #[test]
    fn reset_allows_reregistration() {
        let _l = TEST_LOCK.lock().unwrap();
        let _e = EnabledGuard::new();
        static C: Counter = Counter::new("test.reset");
        C.add(5);
        assert_eq!(snapshot().counter("test.reset"), Some(5));
        reset();
        assert!(snapshot().counter("test.reset").is_none());
        C.add(2);
        assert_eq!(snapshot().counter("test.reset"), Some(2));
        reset();
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let _l = TEST_LOCK.lock().unwrap();
        let _e = EnabledGuard::new();
        static C: Counter = Counter::new("test.concurrent");
        static H: Histogram = Histogram::new("test.concurrent.hist");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..10_000u64 {
                        C.inc();
                        H.record(i);
                    }
                });
            }
        });
        assert_eq!(C.get(), 40_000);
        assert_eq!(H.count(), 40_000);
        reset();
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let _l = TEST_LOCK.lock().unwrap();
        disable();
        reset();
        let snap = snapshot();
        assert!(snap.render_table().contains("(no metrics recorded)"));
        let json = snap.to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }
}
