//! The deterministic closed-loop load library behind the `loadgen` and
//! `serve_soak` binaries.
//!
//! Each client is seeded from `dim_par::seed_for(seed, client)` and draws
//! uniformly from its own **client-disjoint** payload pool (a fixed mix of
//! ~50% `/link`, 25% `/annotate`, 15% `/convert`, 7.5% `/solve`, 2.5%
//! `/healthz`), so run N and run N+1 issue the exact same logical requests.
//!
//! Clients are *retrying*: a `503` carrying `Retry-After` (an admission or
//! deadline shed) and any transport error (abrupt close, partial write) is
//! retried with capped exponential backoff and seeded jitter until the
//! request lands. Backoff jitter draws from a **separate** RNG stream than
//! payload selection — retry counts are timing-dependent, and sharing a
//! stream would let them perturb the deterministic request sequence.
//!
//! The report therefore splits three ways:
//! - **deterministic** — logical request count, final-outcome status
//!   classes, an order-independent response checksum: byte-identical
//!   run-to-run for a fixed config, because sheds never reach the app and
//!   every shed is retried to completion.
//! - **load** — attempts, retries, sheds, transport errors: real, recorded,
//!   and machine-varying (how often the server shed depends on timing).
//! - **timing** — latency percentiles over *steady-state keep-alive*
//!   samples only: a seeded warmup per client and every first request on a
//!   fresh connection are excluded (workers pin connections, so a queued
//!   connection's first request absorbs the whole queue wait — a setup
//!   artifact, not service latency) and the excluded counts are reported.

use crate::server::client::Conn;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Salt separating the backoff-jitter RNG stream from payload selection.
const JITTER_STREAM_SALT: u64 = 0x4A17_7E12_BAC0_FF5E;

/// Load-run configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Logical requests per client (retries not counted).
    pub requests_per_client: usize,
    /// Master seed; client `c` derives `dim_par::seed_for(seed, c)`.
    pub seed: u64,
    /// Per-client logical requests excluded from the timing block.
    pub warmup: usize,
    /// Exponential backoff base (first retry sleeps about this long).
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Ceiling applied to server `Retry-After` hints (which are whole
    /// seconds — honoring 1s literally would make soaks crawl).
    pub retry_after_cap_ms: u64,
    /// Attempts per logical request before giving up. Giving up breaks the
    /// deterministic block, so the default is high enough to be "never"
    /// for a live server.
    pub max_attempts: u32,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            clients: 4,
            requests_per_client: 200,
            seed: 7,
            warmup: 8,
            backoff_base_ms: 1,
            backoff_cap_ms: 64,
            retry_after_cap_ms: 25,
            max_attempts: 500,
        }
    }
}

/// One request in a client's pool.
pub struct Payload {
    /// HTTP method.
    pub method: &'static str,
    /// Request target.
    pub target: &'static str,
    /// Request body.
    pub body: String,
}

/// Builds client `c`'s disjoint payload pool: 20 link + 10 annotate +
/// 6 convert + 3 solve + 1 healthz = 40 entries, so a uniform draw gives
/// the fixed mix. Client-disjointness comes from embedding `c` in every
/// body, which keeps cache hits strictly within one client.
pub fn build_pool(c: usize, rng: &mut rand::rngs::StdRng) -> Vec<Payload> {
    const MENTIONS: &[&str] = &["km", "cm", "mm", "kg", "mg", "ms", "mph", "米", "千米", "小时"];
    const CONVERSIONS: &[(&str, &str)] =
        &[("km", "m"), ("m", "cm"), ("cm", "mm"), ("kg", "g"), ("g", "mg"), ("h", "min")];
    let mut pool = Vec::with_capacity(40);
    for _ in 0..20 {
        let mention = MENTIONS[rng.gen_range(0..MENTIONS.len())]; // lint:allow(no_panic, gen_range(0..len) is in bounds for the non-empty const array)
        pool.push(Payload {
            method: "POST",
            target: "/link",
            body: format!(
                "{{\"mention\":{:?},\"context\":\"client {c} measured the distance\"}}",
                mention
            ),
        });
    }
    for _ in 0..10 {
        let v = rng.gen_range(1..500) as f64 / 10.0;
        let w = rng.gen_range(1..90);
        pool.push(Payload {
            method: "POST",
            target: "/annotate",
            body: format!(
                "{{\"text\":\"Runner {c} covered {v} kilometers carrying {w} kg of gear.\"}}"
            ),
        });
    }
    for _ in 0..6 {
        let (from, to) = CONVERSIONS[rng.gen_range(0..CONVERSIONS.len())]; // lint:allow(no_panic, gen_range(0..len) is in bounds for the non-empty const array)
        let v = rng.gen_range(1..1000) as f64 / 4.0 + c as f64 * 1000.0;
        pool.push(Payload {
            method: "POST",
            target: "/convert",
            body: format!("{{\"value\":{v},\"from\":{from:?},\"to\":{to:?}}}"),
        });
    }
    for _ in 0..3 {
        let (a, b, d) = (rng.gen_range(1..50), rng.gen_range(1..50), rng.gen_range(1..9));
        pool.push(Payload {
            method: "POST",
            target: "/solve",
            body: format!("{{\"equation\":\"x=({a}+{b})*{d}\"}}"),
        });
    }
    pool.push(Payload { method: "GET", target: "/healthz", body: String::new() });
    pool
}

/// FNV-1a over bytes (the checksum primitive; XOR-folded across responses
/// so the total is order-independent).
pub use dimkb::intern::fnv1a;

/// What one client observed (merged into [`LoadReport`]).
#[derive(Default)]
struct ClientReport {
    final_by_class: [u64; 3], // 2xx / 4xx / 5xx final outcomes
    checksum: u64,            // XOR of final-body hashes: order-independent
    attempts: u64,
    retries: u64,
    sheds: u64,
    transport_errors: u64,
    gave_up: u64,
    latencies_ns: Vec<u64>,
    excluded_warmup: u64,
    excluded_first_conn: u64,
}

/// The merged outcome of a load run.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Logical requests issued (`clients * requests_per_client`).
    pub logical_requests: u64,
    /// Final outcomes by status class (`[2xx, 4xx, 5xx]`).
    pub final_by_class: [u64; 3],
    /// Order-independent XOR/FNV-1a checksum over final response bodies.
    pub response_checksum: u64,
    /// Wire attempts, including retries.
    pub attempts: u64,
    /// Retried attempts (sheds + transport errors that were retried).
    pub retries: u64,
    /// `503 + Retry-After` sheds observed (admission or deadline).
    pub sheds: u64,
    /// Transport-level failures (refused/abrupt-closed/truncated).
    pub transport_errors: u64,
    /// Logical requests abandoned after `max_attempts` (0 on a healthy run;
    /// nonzero breaks the deterministic block by construction).
    pub gave_up: u64,
    /// Steady-state latency samples, sorted ascending.
    pub latencies_ns: Vec<u64>,
    /// Samples excluded as per-client warmup.
    pub excluded_warmup: u64,
    /// Samples excluded as first-request-on-a-fresh-connection.
    pub excluded_first_conn: u64,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Nearest-rank percentile over the (sorted) steady-state samples.
    pub fn percentile(&self, q: f64) -> u64 {
        percentile(&self.latencies_ns, q)
    }

    /// Renders the deterministic block — the part of the report that must
    /// be byte-identical run-to-run for a fixed config. `cache` is the
    /// caller-measured `(hits, misses, evictions)` delta for the run
    /// (cache counters are process-global, so only the caller knows the
    /// baseline). Retry/shed tallies are deliberately *not* here: how often
    /// the server shed is timing-dependent; that the final outcomes and
    /// bytes match is the invariant.
    pub fn deterministic_json(&self, cache: (u64, u64, u64)) -> String {
        let (hits, misses, evictions) = cache;
        let hit_rate =
            if hits + misses > 0 { hits as f64 / (hits + misses) as f64 } else { 0.0 };
        format!(
            "{{\n    \"requests\": {},\n    \"responses\": {{\"2xx\": {}, \"4xx\": {}, \"5xx\": {}}},\n    \"response_checksum\": \"{:#018x}\",\n    \"cache\": {{\"hits\": {hits}, \"misses\": {misses}, \"evictions\": {evictions}, \"hit_rate\": {hit_rate:.4}}}\n  }}",
            self.logical_requests,
            self.final_by_class[0], // lint:allow(no_panic, constant index into [u64; 3])
            self.final_by_class[1], // lint:allow(no_panic, constant index into [u64; 3])
            self.final_by_class[2], // lint:allow(no_panic, constant index into [u64; 3])
            self.response_checksum,
        )
    }
}

/// Nearest-rank percentile over a sorted slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] // lint:allow(no_panic, rank is clamped to 1..=len and the slice is non-empty, so rank - 1 < len)
}

/// Runs the full client fleet against `addr` and merges the reports.
pub fn run(addr: SocketAddr, config: &LoadConfig) -> LoadReport {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..config.clients)
        .map(|c| {
            let config = config.clone();
            std::thread::spawn(move || run_client(addr, c, &config))
        })
        .collect();
    let mut all = LoadReport::default();
    for h in handles {
        let Ok(rep) = h.join() else {
            // A panicked client thread loses its tally; record the hole.
            all.gave_up += config.requests_per_client as u64;
            continue;
        };
        for i in 0..3 {
            all.final_by_class[i] += rep.final_by_class[i]; // lint:allow(no_panic, i < 3 and both arrays are [u64; 3])
        }
        all.response_checksum ^= rep.checksum;
        all.attempts += rep.attempts;
        all.retries += rep.retries;
        all.sheds += rep.sheds;
        all.transport_errors += rep.transport_errors;
        all.gave_up += rep.gave_up;
        all.latencies_ns.extend(rep.latencies_ns);
        all.excluded_warmup += rep.excluded_warmup;
        all.excluded_first_conn += rep.excluded_first_conn;
    }
    all.logical_requests = (config.clients * config.requests_per_client) as u64;
    all.latencies_ns.sort_unstable();
    all.elapsed = t0.elapsed();
    all
}

/// Capped exponential backoff with seeded jitter, raised to any server
/// `Retry-After` hint (itself capped — the server speaks whole seconds).
fn backoff_ms(
    attempt: u32,
    retry_after: Option<u16>,
    jitter: &mut rand::rngs::StdRng,
    config: &LoadConfig,
) -> u64 {
    let shift = attempt.saturating_sub(1).min(16);
    let exp = config.backoff_base_ms.saturating_mul(1u64 << shift).min(config.backoff_cap_ms);
    let j = jitter.gen_range(0..=config.backoff_base_ms.max(1));
    let mut ms = exp + j;
    if let Some(secs) = retry_after {
        ms = ms.max((secs as u64).saturating_mul(1000).min(config.retry_after_cap_ms));
    }
    ms
}

fn run_client(addr: SocketAddr, c: usize, config: &LoadConfig) -> ClientReport {
    let mut rng =
        rand::rngs::StdRng::seed_from_u64(dim_par::seed_for(config.seed, c as u64));
    let pool = build_pool(c, &mut rng);
    // Jitter draws come from their own stream: retry counts vary run to
    // run, and sharing `rng` would shift every later payload draw.
    let mut jitter = rand::rngs::StdRng::seed_from_u64(dim_par::seed_for(
        config.seed ^ JITTER_STREAM_SALT,
        c as u64,
    ));
    let mut rep = ClientReport::default();
    let mut conn: Option<Conn> = None;
    let mut fresh_conn = true;
    for i in 0..config.requests_per_client {
        let p = &pool[rng.gen_range(0..pool.len())]; // lint:allow(no_panic, build_pool always returns 40 entries; gen_range(0..len) is in bounds)
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            rep.attempts += 1;
            if conn.is_none() {
                match Conn::connect(addr) {
                    Ok(fresh) => {
                        conn = Some(fresh);
                        fresh_conn = true;
                    }
                    Err(_) => {
                        rep.transport_errors += 1;
                        if attempt >= config.max_attempts {
                            rep.gave_up += 1;
                            break;
                        }
                        rep.retries += 1;
                        sleep_ms(backoff_ms(attempt, None, &mut jitter, config));
                        continue;
                    }
                }
            }
            let Some(live) = conn.as_mut() else { break };
            let first = fresh_conn;
            let t0 = Instant::now();
            match live.request(p.method, p.target, &p.body) {
                Ok(resp) => {
                    fresh_conn = false;
                    if resp.close {
                        conn = None;
                    }
                    if resp.status == 503 && resp.retry_after.is_some() {
                        // An overload shed (admission or deadline): retry.
                        rep.sheds += 1;
                        if attempt >= config.max_attempts {
                            rep.gave_up += 1;
                            rep.final_by_class[2] += 1; // lint:allow(no_panic, constant index into [u64; 3])
                            rep.checksum ^= fnv1a(resp.body.as_bytes());
                            break;
                        }
                        rep.retries += 1;
                        sleep_ms(backoff_ms(attempt, resp.retry_after, &mut jitter, config));
                        continue;
                    }
                    // Final outcome: only its own (last-attempt) latency
                    // counts, and only for steady-state keep-alive samples.
                    let ns = t0.elapsed().as_nanos() as u64;
                    if i < config.warmup {
                        rep.excluded_warmup += 1;
                    } else if first {
                        rep.excluded_first_conn += 1;
                    } else {
                        rep.latencies_ns.push(ns);
                    }
                    let class = match resp.status {
                        200..=299 => 0,
                        400..=499 => 1,
                        _ => 2,
                    };
                    rep.final_by_class[class] += 1; // lint:allow(no_panic, class is 0, 1, or 2 from the match above; the array has 3 slots)
                    rep.checksum ^= fnv1a(resp.body.as_bytes());
                    break;
                }
                Err(_) => {
                    // Abrupt close, truncated response, refused reconnect —
                    // drop the connection and retry the same payload.
                    conn = None;
                    rep.transport_errors += 1;
                    if attempt >= config.max_attempts {
                        rep.gave_up += 1;
                        break;
                    }
                    rep.retries += 1;
                    sleep_ms(backoff_ms(attempt, None, &mut jitter, config));
                }
            }
        }
    }
    rep
}

fn sleep_ms(ms: u64) {
    if ms > 0 {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_deterministic_and_client_disjoint() {
        let mut a = rand::rngs::StdRng::seed_from_u64(dim_par::seed_for(7, 0));
        let mut b = rand::rngs::StdRng::seed_from_u64(dim_par::seed_for(7, 0));
        let pa = build_pool(0, &mut a);
        let pb = build_pool(0, &mut b);
        assert_eq!(pa.len(), 40);
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!((x.method, x.target, &x.body), (y.method, y.target, &y.body));
        }
        let mut c1 = rand::rngs::StdRng::seed_from_u64(dim_par::seed_for(7, 1));
        let other = build_pool(1, &mut c1);
        for (x, y) in pa.iter().zip(&other) {
            if x.method == "POST" {
                assert_ne!(x.body, y.body, "pools must be client-disjoint");
            }
        }
    }

    #[test]
    fn backoff_grows_caps_and_honors_retry_after() {
        let config = LoadConfig {
            backoff_base_ms: 2,
            backoff_cap_ms: 16,
            retry_after_cap_ms: 40,
            ..LoadConfig::default()
        };
        let mut j = rand::rngs::StdRng::seed_from_u64(1);
        let early = backoff_ms(1, None, &mut j, &config);
        assert!(early <= 2 + 2, "first retry near the base: {early}");
        let late = backoff_ms(10, None, &mut j, &config);
        assert!((16..=18).contains(&late), "capped: {late}");
        let hinted = backoff_ms(1, Some(1), &mut j, &config);
        assert_eq!(hinted, 40, "Retry-After raised to its capped value");
        let huge_shift = backoff_ms(u32::MAX, None, &mut j, &config);
        assert!(huge_shift <= 18, "shift is clamped, no overflow");
    }

    #[test]
    fn jitter_stream_is_seeded_and_separate() {
        let config = LoadConfig::default();
        let mut j1 = rand::rngs::StdRng::seed_from_u64(dim_par::seed_for(
            config.seed ^ JITTER_STREAM_SALT,
            0,
        ));
        let mut j2 = rand::rngs::StdRng::seed_from_u64(dim_par::seed_for(
            config.seed ^ JITTER_STREAM_SALT,
            0,
        ));
        let a: Vec<u64> = (0..32).map(|i| backoff_ms(i, None, &mut j1, &config)).collect();
        let b: Vec<u64> = (0..32).map(|i| backoff_ms(i, None, &mut j2, &config)).collect();
        assert_eq!(a, b, "jitter must be seeded");
        // And the payload stream is untouched by jitter draws: same pool
        // regardless of how many backoffs happened.
        let mut rng = rand::rngs::StdRng::seed_from_u64(dim_par::seed_for(config.seed, 3));
        let pool_before = build_pool(3, &mut rng);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(dim_par::seed_for(config.seed, 3));
        let pool_after = build_pool(3, &mut rng2);
        assert_eq!(pool_before.len(), pool_after.len());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 0.999), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[42], 0.999), 42);
    }

    #[test]
    fn deterministic_json_is_a_pure_function_of_the_report() {
        let rep = LoadReport {
            logical_requests: 800,
            final_by_class: [798, 2, 0],
            response_checksum: 0xDEAD_BEEF_0000_0001,
            ..LoadReport::default()
        };
        let a = rep.deterministic_json((100, 700, 0));
        let b = rep.deterministic_json((100, 700, 0));
        assert_eq!(a, b);
        assert!(a.contains("\"requests\": 800"), "{a}");
        assert!(a.contains("\"2xx\": 798"), "{a}");
        assert!(a.contains("0xdeadbeef00000001"), "{a}");
        assert!(a.contains("\"hit_rate\": 0.1250"), "{a}");
    }
}
