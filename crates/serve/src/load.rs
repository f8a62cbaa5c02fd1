//! The deterministic closed-loop load library behind the `serve_soak`
//! binary.
//!
//! Each client is seeded from `dim_par::seed_for(SEED, client)` and draws
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
//! The report therefore splits two ways:
//! - **deterministic** — logical request count, final-outcome status
//!   classes, an order-independent response checksum: byte-identical
//!   run-to-run, because sheds never reach the app and every shed is
//!   retried to completion.
//! - **load** — attempts, retries, sheds, transport errors: real, recorded,
//!   and machine-varying (how often the server shed depends on timing).
//!
//! The run has one fixed profile, the soak's: more clients than an
//! overloaded server admits at once, each issuing a fixed request count.

use crate::server::client::Conn;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::time::Duration;

/// Concurrent closed-loop clients.
const CLIENTS: usize = 12;
/// Logical requests per client (retries not counted).
const REQUESTS_PER_CLIENT: usize = 300;
/// Master seed; client `c` derives `dim_par::seed_for(SEED, c)`.
const SEED: u64 = 11;
/// Salt separating the backoff-jitter RNG stream from payload selection.
const JITTER_STREAM_SALT: u64 = 0x4A17_7E12_BAC0_FF5E;
/// Exponential backoff base (first retry sleeps about this long).
const BACKOFF_BASE_MS: u64 = 1;
/// Backoff ceiling.
const BACKOFF_CAP_MS: u64 = 16;
/// Ceiling applied to server `Retry-After` hints (which are whole
/// seconds — honoring 1s literally would make soaks crawl).
const RETRY_AFTER_CAP_MS: u64 = 10;
/// Attempts per logical request before giving up. Giving up breaks the
/// deterministic block, so this is high enough to be "never" for a live
/// server.
const MAX_ATTEMPTS: u32 = 500;

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

/// The outcome of a load run (or of one client, before merging).
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Logical requests issued (`CLIENTS * REQUESTS_PER_CLIENT`).
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
    /// Logical requests abandoned after `MAX_ATTEMPTS` (0 on a healthy
    /// run; nonzero breaks the deterministic block by construction).
    pub gave_up: u64,
}

impl LoadReport {
    /// Renders the deterministic block — the part of the report that must
    /// be byte-identical run-to-run. `cache` is the caller-measured
    /// `(hits, misses, evictions)` delta for the run (cache counters are
    /// process-global, so only the caller knows the baseline). Retry/shed
    /// tallies are deliberately *not* here: how often the server shed is
    /// timing-dependent; that the final outcomes and bytes match is the
    /// invariant.
    pub fn deterministic_json(&self, cache: (u64, u64, u64)) -> String {
        let (hits, misses, evictions) = cache;
        let [ok, client_err, server_err] = self.final_by_class;
        format!(
            "{{\"requests\": {}, \"responses\": {{\"2xx\": {ok}, \"4xx\": {client_err}, \"5xx\": {server_err}}}, \"response_checksum\": \"{:#018x}\", \"cache\": {{\"hits\": {hits}, \"misses\": {misses}, \"evictions\": {evictions}}}}}",
            self.logical_requests, self.response_checksum,
        )
    }

    /// Folds one client's tally into the run's.
    fn merge(&mut self, other: &LoadReport) {
        self.logical_requests += other.logical_requests;
        for (all, one) in self.final_by_class.iter_mut().zip(other.final_by_class) {
            *all += one;
        }
        self.response_checksum ^= other.response_checksum;
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.sheds += other.sheds;
        self.transport_errors += other.transport_errors;
        self.gave_up += other.gave_up;
    }
}

/// Runs the full client fleet against `addr` and merges the reports.
pub fn run(addr: SocketAddr) -> LoadReport {
    let handles: Vec<_> =
        (0..CLIENTS).map(|c| std::thread::spawn(move || run_client(addr, c))).collect();
    let mut all = LoadReport::default();
    for h in handles {
        match h.join() {
            Ok(rep) => all.merge(&rep),
            // A panicked client thread loses its tally; record the hole.
            Err(_) => {
                all.logical_requests += REQUESTS_PER_CLIENT as u64;
                all.gave_up += REQUESTS_PER_CLIENT as u64;
            }
        }
    }
    all
}

/// Capped exponential backoff with seeded jitter, raised to any server
/// `Retry-After` hint (itself capped — the server speaks whole seconds).
fn backoff_ms(attempt: u32, retry_after: Option<u16>, jitter: &mut rand::rngs::StdRng) -> u64 {
    let shift = attempt.saturating_sub(1).min(16);
    let exp = BACKOFF_BASE_MS.saturating_mul(1u64 << shift).min(BACKOFF_CAP_MS);
    let j = jitter.gen_range(0..=BACKOFF_BASE_MS.max(1));
    let mut ms = exp + j;
    if let Some(secs) = retry_after {
        ms = ms.max((secs as u64).saturating_mul(1000).min(RETRY_AFTER_CAP_MS));
    }
    ms
}

fn jitter_rng(c: usize) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(dim_par::seed_for(SEED ^ JITTER_STREAM_SALT, c as u64))
}

fn run_client(addr: SocketAddr, c: usize) -> LoadReport {
    let mut rng = rand::rngs::StdRng::seed_from_u64(dim_par::seed_for(SEED, c as u64));
    let pool = build_pool(c, &mut rng);
    // Jitter draws come from their own stream: retry counts vary run to
    // run, and sharing `rng` would shift every later payload draw.
    let mut jitter = jitter_rng(c);
    let mut rep =
        LoadReport { logical_requests: REQUESTS_PER_CLIENT as u64, ..LoadReport::default() };
    let mut conn: Option<Conn> = None;
    for _ in 0..REQUESTS_PER_CLIENT {
        let p = &pool[rng.gen_range(0..pool.len())]; // lint:allow(no_panic, build_pool always returns 40 entries; gen_range(0..len) is in bounds)
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            rep.attempts += 1;
            if conn.is_none() {
                match Conn::connect(addr) {
                    Ok(fresh) => conn = Some(fresh),
                    Err(_) => {
                        rep.transport_errors += 1;
                        if attempt >= MAX_ATTEMPTS {
                            rep.gave_up += 1;
                            break;
                        }
                        rep.retries += 1;
                        sleep_ms(backoff_ms(attempt, None, &mut jitter));
                        continue;
                    }
                }
            }
            let Some(live) = conn.as_mut() else { break };
            match live.request(p.method, p.target, &p.body) {
                Ok(resp) => {
                    if resp.close {
                        conn = None;
                    }
                    if resp.status == 503 && resp.retry_after.is_some() {
                        // An overload shed (admission or deadline): retry.
                        rep.sheds += 1;
                        if attempt >= MAX_ATTEMPTS {
                            rep.gave_up += 1;
                            rep.final_by_class[2] += 1; // lint:allow(no_panic, constant index into [u64; 3])
                            rep.response_checksum ^= fnv1a(resp.body.as_bytes());
                            break;
                        }
                        rep.retries += 1;
                        sleep_ms(backoff_ms(attempt, resp.retry_after, &mut jitter));
                        continue;
                    }
                    let class = match resp.status {
                        200..=299 => 0,
                        400..=499 => 1,
                        _ => 2,
                    };
                    rep.final_by_class[class] += 1; // lint:allow(no_panic, class is 0, 1, or 2 from the match above; the array has 3 slots)
                    rep.response_checksum ^= fnv1a(resp.body.as_bytes());
                    break;
                }
                Err(_) => {
                    // Abrupt close, truncated response, refused reconnect —
                    // drop the connection and retry the same payload.
                    conn = None;
                    rep.transport_errors += 1;
                    if attempt >= MAX_ATTEMPTS {
                        rep.gave_up += 1;
                        break;
                    }
                    rep.retries += 1;
                    sleep_ms(backoff_ms(attempt, None, &mut jitter));
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
        let mut j = rand::rngs::StdRng::seed_from_u64(1);
        let early = backoff_ms(1, None, &mut j);
        assert!(early <= 2 * BACKOFF_BASE_MS, "first retry near the base: {early}");
        let late = backoff_ms(10, None, &mut j);
        let capped = BACKOFF_CAP_MS..=BACKOFF_CAP_MS + BACKOFF_BASE_MS;
        assert!(capped.contains(&late), "capped: {late}");
        let hinted = backoff_ms(1, Some(1), &mut j);
        assert_eq!(hinted, RETRY_AFTER_CAP_MS, "Retry-After raised to its capped value");
        let huge_shift = backoff_ms(u32::MAX, None, &mut j);
        assert!(huge_shift <= BACKOFF_CAP_MS + BACKOFF_BASE_MS, "shift is clamped, no overflow");
    }

    #[test]
    fn jitter_stream_is_seeded() {
        let (mut j1, mut j2) = (jitter_rng(0), jitter_rng(0));
        let a: Vec<u64> = (0..32).map(|i| backoff_ms(i, None, &mut j1)).collect();
        let b: Vec<u64> = (0..32).map(|i| backoff_ms(i, None, &mut j2)).collect();
        assert_eq!(a, b, "jitter must be seeded");
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
        assert_eq!(
            a,
            "{\"requests\": 800, \"responses\": {\"2xx\": 798, \"4xx\": 2, \"5xx\": 0}, \"response_checksum\": \"0xdeadbeef00000001\", \"cache\": {\"hits\": 100, \"misses\": 700, \"evictions\": 0}}"
        );
    }
}
