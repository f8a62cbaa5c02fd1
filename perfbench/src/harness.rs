//! Pure helpers shared by every workload: percentiles, digests, span
//! self-times, the in-memory tracer, `dim-obs` deltas and result output.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Nearest-rank percentile (`q` in `0.0..=1.0`) of an ascending slice;
/// `NaN` when the slice is empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `values` ascending and returns their nearest-rank median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Sorts `values` ascending and returns the mean of their middle half: a
/// quarter of the values (rounded down) is dropped at each end.
pub fn trimmed_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let cut = values.len() / 4;
    let kept = &values[cut..values.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Streaming FNV-1a (64-bit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Feeds bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Feeds a `u64` as little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// FNV-1a of one byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bytes);
    h.0
}

/// Self time of a span `[start, end)`: its length minus the part covered by
/// `children`, each clipped to the span. Where children overlap, the shared
/// interval is subtracted once.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

/// One recorded span: offsets in nanoseconds from the tracer's origin.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// The benchmark's own span recorder. Spans stay in memory and are written
/// out once, when the run ends. A disabled tracer records nothing.
pub struct Tracer {
    origin: Instant,
    pub enabled: bool,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The tracer's clock origin (threads stamp spans against it).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records a finished span and returns its id.
    pub fn record(&mut self, name: &str, start: u64, end: u64, parent: Option<usize>) -> usize {
        if self.enabled {
            self.spans.push(SpanRec {
                name: name.to_string(),
                start,
                end,
                parent,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Opens a span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.record(name, now, now, parent)
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now();
        if let Some(s) = self.spans.get_mut(id).filter(|_| self.enabled) {
            s.end = now;
        }
    }

    /// Self time of span `id` over its recorded children.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start, c.end))
            .collect();
        self_time((s.start, s.end), &children)
    }

    /// Every span with its self time, as a JSON array.
    pub fn to_json(&self) -> String {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(&children)
            .enumerate()
            .map(|(i, (s, kids))| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "  {{\"id\":{i},\"name\":{:?},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}",
                    s.name,
                    s.start,
                    s.end,
                    self_time((s.start, s.end), kids)
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}

/// A frozen `dim-obs` registry, for before/after deltas.
pub struct ObsMark(dim_obs::Snapshot);

impl ObsMark {
    pub fn now() -> ObsMark {
        ObsMark(dim_obs::snapshot())
    }

    fn counter(&self, name: &str) -> u64 {
        self.0.counter(name).unwrap_or(0)
    }

    fn hist(&self, name: &str) -> (u64, u64) {
        self.0.histogram(name).map_or((0, 0), |h| (h.count, h.sum))
    }

    /// Counter increase since `self`.
    pub fn counter_delta(&self, name: &str) -> u64 {
        ObsMark::now()
            .counter(name)
            .saturating_sub(self.counter(name))
    }

    /// `(count, sum)` increase of a histogram since `self`.
    pub fn hist_delta(&self, name: &str) -> (u64, u64) {
        let (c1, s1) = ObsMark::now().hist(name);
        let (c0, s0) = self.hist(name);
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    }

    /// Milliseconds recorded into a span histogram since `self`.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.hist_delta(name).1 as f64 / 1e6
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// CPU seconds this process has run, over all its threads. Unlike the wall
/// clock it does not advance while the process waits for a CPU, whether
/// behind other runnable threads or while the hypervisor runs another guest
/// (the kernel accounts that as steal time).
pub fn cpu_now() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has run.
pub fn thread_cpu_now() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// A CPU set as the kernel's affinity calls take it: room for 1024 CPUs.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}

/// Binds the calling thread, and every thread it starts from now on, to
/// the first CPU it may run on; returns that CPU. A closed loop hands each
/// request from thread to thread: on one CPU the hand-off is a local
/// context switch and the CPU never idles mid-request, while across two
/// the waiting CPU halts and its wake-up time, which a shared host varies
/// widely, lands in every request.
pub fn pin_to_one_cpu() -> Option<usize> {
    let size = std::mem::size_of::<CpuMask>();
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 names the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, &mut mask) } < 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().find(|(_, w)| **w != 0)?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut one: CpuMask = [0; 16];
    one[word] = 1 << bits.trailing_zeros();
    // SAFETY: as above; `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

/// [`pin_to_one_cpu`] for a workload: a run that cannot pin fails.
pub fn pin(out: &mut Outcome) {
    match pin_to_one_cpu() {
        Some(cpu) => println!("check: pinned to cpu {cpu}"),
        None => out.fail("cannot pin the workload to one CPU"),
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A fixed piece of the benchmark's own work: format, hash, count and sort
/// 4096 short strings, the shape of linking, annotation and request
/// handling. Its time tracks how fast the host runs this kind of code at
/// the moment; no program crate is involved, so a program change never
/// moves it.
pub fn kernel(seed: u64) -> u64 {
    use std::collections::HashMap;
    use std::hash::BuildHasherDefault;
    let mut counts: HashMap<String, u32, BuildHasherDefault<std::hash::DefaultHasher>> =
        HashMap::default();
    let mut words = Vec::with_capacity(4096);
    let mut x = seed;
    for _ in 0..4096 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        words.push(format!("u{:x}.{}", (x >> 33) % 3000, (x >> 20) % 7));
    }
    for w in &words {
        *counts.entry(w.clone()).or_default() += 1;
    }
    words.sort_unstable();
    let mut h = Fnv::default();
    for w in &words {
        h.bytes(w.as_bytes());
        h.u64(counts[w] as u64);
    }
    h.0
}

/// CPU seconds one [`kernel`] call takes on the reference host (2 vCPUs)
/// when its CPUs run at their fastest. The gated timings are reported at
/// this speed: see [`ref_scale`].
pub const KERNEL_REF_S: f64 = 1.3e-3;

/// Kernel calls per thread in one calibration.
const CALIBRATION_REPS: usize = 5;

/// One calibration: the kernel's current CPU time at `width` threads.
pub fn calibrate(width: usize) -> f64 {
    kernel_s(width, CALIBRATION_REPS)
}

/// The factor that turns a CPU time measured between two calibrations into
/// reference seconds: the CPU time the same work would take on the
/// reference host at [`KERNEL_REF_S`]. The speed of a shared host's CPUs
/// drifts by up to 2x over minutes, and a CPU clock slows with it; code the
/// benchmark owns slows too, so the ratio of the two holds where the raw
/// time does not.
pub fn ref_scale(before: f64, after: f64) -> f64 {
    2.0 * KERNEL_REF_S / (before + after)
}

/// CPU seconds one [`kernel`] call takes right now: the median of `reps`
/// calls on each of `width` threads at once, averaged over the threads.
/// Width 1 runs on the calling thread, so it measures the vCPU the caller's
/// own work ran on; the two vCPUs of a shared host can differ in speed.
pub fn kernel_s(width: usize, reps: usize) -> f64 {
    let one = move |t: usize| {
        let mut v: Vec<f64> = (0..reps)
            .map(|r| {
                let c0 = thread_cpu_now();
                std::hint::black_box(kernel((t * reps + r) as u64));
                thread_cpu_now() - c0
            })
            .collect();
        median(&mut v)
    };
    if width <= 1 {
        return one(0);
    }
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..width).map(|t| s.spawn(move || one(t))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(f64::NAN))
            .collect()
    });
    per_thread.iter().sum::<f64>() / per_thread.len() as f64
}

/// Calibrates while work runs: a thread that wakes every `period`, times
/// one [`kernel`] call on its own CPU clock and records the result with its
/// wall-clock offset. Started from a thread bound to one CPU, it shares
/// that CPU, so its samples see the speed the work runs at, at the moments
/// it runs; between-call calibrations miss a speed that changes within a
/// call. Work timed on its own thread's CPU clock does not count the
/// sampler's time.
pub struct Sampler {
    origin: Instant,
    samples: Arc<Mutex<Vec<(f64, f64)>>>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    pub fn start(period: std::time::Duration) -> Sampler {
        let origin = Instant::now();
        let samples: Arc<Mutex<Vec<(f64, f64)>>> = Arc::default();
        let stop: Arc<AtomicBool> = Arc::default();
        let (sink, halt) = (Arc::clone(&samples), Arc::clone(&stop));
        let handle = std::thread::spawn(move || {
            let mut seed = 0;
            while !halt.load(Ordering::Acquire) {
                std::thread::sleep(period);
                let c0 = thread_cpu_now();
                std::hint::black_box(kernel(seed));
                let k = thread_cpu_now() - c0;
                let at = origin.elapsed().as_secs_f64();
                if let Ok(mut v) = sink.lock() {
                    v.push((at, k));
                }
                seed += 1;
            }
        });
        Sampler {
            origin,
            samples,
            stop,
            handle: Some(handle),
        }
    }

    /// Seconds since the sampler started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// The kernel CPU times sampled in `[from, to]`.
    pub fn between(&self, from: f64, to: f64) -> Vec<f64> {
        let samples = self.samples.lock().map(|v| v.clone()).unwrap_or_default();
        samples
            .into_iter()
            .filter(|(at, _)| (from..=to).contains(at))
            .map(|(_, k)| k)
            .collect()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Which clock a set of times was read from, and so which metrics it feeds.
#[derive(Clone, Copy)]
pub enum Clock {
    /// Wall clock: `wall_s`, `p50_us`, `p99_us`.
    Wall,
    /// Process CPU clock: `cpu_s`, `op_cpu_us.p50`, `op_cpu_us.p99`.
    Cpu,
}

/// Adds the median time of one unit of work and nearest-rank percentiles
/// of the per-operation times, named for `clock` with `suffix` appended.
/// Every time is in seconds.
pub fn time_metrics(
    out: &mut Outcome,
    clock: Clock,
    suffix: &str,
    mut units: Vec<f64>,
    mut ops: Vec<f64>,
    unit: &str,
    op: &str,
) {
    let (total, p50, p99, what) = match clock {
        Clock::Wall => ("wall_s", "p50_us", "p99_us", "latency"),
        Clock::Cpu => ("cpu_s", "op_cpu_us.p50", "op_cpu_us.p99", "CPU time"),
    };
    let n = units.len();
    out.metric(
        &format!("{total}{suffix}"),
        median(&mut units),
        "s",
        format!("one {unit}, median of {n}"),
    );
    ops.sort_by(f64::total_cmp);
    let samples = format!("per-{op} {what}, {} samples", ops.len());
    out.metric(
        &format!("{p50}{suffix}"),
        percentile(&ops, 0.5) * 1e6,
        "us",
        samples.clone(),
    );
    out.metric(
        &format!("{p99}{suffix}"),
        percentile(&ops, 0.99) * 1e6,
        "us",
        samples,
    );
}

/// One named metric of a result.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was formed, for the human-readable lines.
    pub note: String,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Oracle and check failures, printed before the result line.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Records an oracle failure; the run will exit nonzero.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".into()
                };
                format!("{:?}: {{\"value\": {v}, \"unit\": {:?}}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        // Nine samples: p99 is the maximum, p50 the fifth.
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(percentile(&nine, 0.99), 9.0);
        assert_eq!(percentile(&nine, 0.5), 5.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn trimmed_mean_keeps_the_middle_half() {
        assert_eq!(trimmed_mean(&mut [9.0, 1.0, 2.0, 4.0, 100.0]), 5.0);
        let mut ten = [50.0, 1.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 2.0, 60.0];
        assert_eq!(trimmed_mean(&mut ten), 6.5);
        assert_eq!(trimmed_mean(&mut [3.0, 1.0]), 2.0);
        assert!(trimmed_mean(&mut []).is_nan());
    }

    #[test]
    fn kernel_is_deterministic_and_scales_to_reference_time() {
        assert_eq!(kernel(3), kernel(3));
        assert_ne!(kernel(3), kernel(4));
        assert!(kernel_s(1, 3) > 0.0 && kernel_s(2, 3) > 0.0);
        assert_eq!(ref_scale(KERNEL_REF_S, KERNEL_REF_S), 1.0);
        // A host at half speed doubles the kernel's time: times halve.
        assert_eq!(ref_scale(2.0 * KERNEL_REF_S, 2.0 * KERNEL_REF_S), 0.5);
    }

    #[test]
    fn cpu_clocks_advance_with_work_and_the_sampler_samples() {
        let (p0, t0) = (cpu_now(), thread_cpu_now());
        std::hint::black_box(kernel(1));
        assert!(cpu_now() > p0 && thread_cpu_now() > t0);
        let sampler = Sampler::start(std::time::Duration::from_millis(1));
        std::thread::sleep(std::time::Duration::from_millis(50));
        let samples = sampler.between(0.0, sampler.now());
        drop(sampler);
        assert!(!samples.is_empty() && samples.iter().all(|&k| k > 0.0));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
        let mut h = Fnv::default();
        h.bytes(b"foo");
        h.bytes(b"bar");
        assert_eq!(h.0, fnv1a(b"foobar"), "streaming equals one-shot");
        assert_eq!(
            fnv1a(b"table6"),
            dim_serve::load::fnv1a(b"table6"),
            "same as the server's"
        );
    }

    #[test]
    fn xor_digest_is_order_independent() {
        let a = fnv1a(b"x") ^ fnv1a(b"y") ^ fnv1a(b"z");
        let b = fnv1a(b"z") ^ fnv1a(b"x") ^ fnv1a(b"y");
        assert_eq!(a, b);
    }

    #[test]
    fn self_time_without_children_is_the_span() {
        assert_eq!(self_time((10, 50), &[]), 40);
    }

    #[test]
    fn self_time_counts_overlap_once() {
        // Children [10,30) and [20,40) overlap on [20,30): covered is 30.
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 40)]), 70);
        // A child nested inside another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Identical children count once.
        assert_eq!(self_time((0, 100), &[(0, 50), (0, 50)]), 50);
    }

    #[test]
    fn self_time_clips_children_to_the_span() {
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((10, 20), &[(0, 5), (25, 30)]), 10);
        assert_eq!(self_time((10, 20), &[(0, 100)]), 0);
    }

    #[test]
    fn tracer_self_time_uses_direct_children_only() {
        let mut t = Tracer::new(true);
        let root = t.record("root", 0, 100, None);
        let a = t.record("a", 10, 40, Some(root));
        t.record("b", 30, 60, Some(root));
        t.record("a.inner", 12, 20, Some(a));
        assert_eq!(t.self_ns(root), 50);
        assert_eq!(t.self_ns(a), 22);
        assert!(t.to_json().contains("\"name\":\"a.inner\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None);
        t.close(id);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("wall_s", 1.25, "s", "");
        assert_eq!(
            o.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        o.fail("oracle");
        assert!(o.json_line().starts_with("{\"correct\": false"));
    }
}
