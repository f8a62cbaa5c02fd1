//! `serve_miss` and `serve_hot`: an in-process `dim-serve` with
//! `workers = nproc`, driven closed-loop by one keep-alive connection.
//!
//! Both draw from `dim_serve::load::build_pool`'s endpoint mix plus one
//! `/verify` slot. `serve_miss` gives every request a unique body, so the
//! response cache and the link memo never answer; `serve_hot` repeats each
//! client's 40-entry `build_pool` pool and its one `/verify` body, so nearly
//! every request is a cache hit. The oracle replays every request the clients
//! sent through `App::handle` (no socket) and compares the order-independent
//! XOR of FNV-1a response-body digests.

use crate::harness::{self, fnv1a, Clock, ObsMark, Outcome, Tracer};
use crate::layers;
use crate::{nproc, Opts};
use dim_serve::client::Conn;
use dim_serve::http::{self, Parsed};
use dim_serve::load::build_pool;
use dim_serve::{App, AppConfig, ServerConfig};
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Miss,
    Hot,
}

impl Mix {
    /// Requests per second one connection completes on the reference host.
    /// A phase of `s` seconds sends `s` times this many, so a run does the
    /// same work, and holds the same memory, however fast the host runs.
    fn reference_rate(self) -> f64 {
        match self {
            Mix::Miss => 10_000.0,
            Mix::Hot => 15_000.0,
        }
    }
}

/// Closed-loop keep-alive connections. With one, the process's CPU clock
/// advances only for the request in flight, so each request's CPU time,
/// client and server together, can be read around it.
const CONNECTIONS: usize = 1;
/// Requests each connection sends before its timed phase starts.
const WARMUP: u64 = 200;
/// Requests per connection that `cpu_s` and `wall_s` report the time of.
const BLOCK: usize = 1000;
/// Requests in one timed window; the host is calibrated between windows.
const WINDOW_REQUESTS: u64 = 2500;
/// Attempts per request while the server sheds with `Retry-After`.
const MAX_ATTEMPTS: u32 = 50;
/// `/link` payloads linked cold for `dimlink.link_ns.p50`.
const COLD_LINKS: usize = 2000;
/// Problems verified for `verify.problem_us`.
const VERIFY_PROBLEMS: usize = 400;
/// Largest link-memo hit ratio at which linking still counts as cold.
const MAX_MEMO_HIT_RATIO: f64 = 0.01;
/// Smallest cache hit ratio at which the hot mix counts as cache-served.
const MIN_HOT_HIT_RATIO: f64 = 0.9;

/// The server every serve workload (and its set-up probe) starts.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: nproc(),
        ..ServerConfig::default()
    }
}

/// SplitMix64 finaliser: a pure hash for per-request draws.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `build_pool`'s endpoint mix as slots of one uniform draw: 20 `/link`,
/// 10 `/annotate`, 6 `/convert`, 3 `/solve` and 1 `/healthz` (its 40
/// entries), plus one `/verify` slot, the weight `load.rs` gives its rarest
/// endpoint. Both serve workloads draw from these 41 slots, so they differ
/// only in whether a body repeats.
const SLOTS: u64 = 41;
const VERIFY_SLOT: u64 = 40;

/// `build_pool`'s mention and conversion lists.
const MENTIONS: [&str; 10] = [
    "km", "cm", "mm", "kg", "mg", "ms", "mph", "米", "千米", "小时",
];
const CONVERSIONS: [(&str, &str); 6] = [
    ("km", "m"),
    ("m", "cm"),
    ("cm", "mm"),
    ("kg", "g"),
    ("g", "mg"),
    ("h", "min"),
];
const VERIFY_UNITS: [&str; 6] = ["米", "千米", "千克", "km", "kg", "cm"];

type Request = (&'static str, &'static str, String);

/// A unit-consistency check whose first quantity embeds `id`.
fn verify_request(id: u64, r: u64) -> Request {
    let unit = VERIFY_UNITS[((r >> 32) % VERIFY_UNITS.len() as u64) as usize];
    let (a, b) = (1000 * id + r % 999 + 1, (r >> 16) % 999 + 1);
    (
        "POST",
        "/verify",
        format!(
            "{{\"equation\":\"x={a}+{b}\",\"quantities\":[{{\"value\":{a},\"unit\":{unit:?}}},{{\"value\":{b},\"unit\":{unit:?}}}],\"answer_unit\":{unit:?}}}"
        ),
    )
}

/// Slot `slot` of the mix with `build_pool`'s body templates, where `id`
/// takes the place of `build_pool`'s client number. A request-unique `id`
/// makes every body unique.
fn unique_request(slot: u64, id: u64, r: u64) -> Request {
    let pick = |n: usize| (r % n as u64) as usize;
    match slot {
        0..=19 => (
            "POST",
            "/link",
            format!(
                "{{\"mention\":{:?},\"context\":\"client {id} measured the distance\"}}",
                MENTIONS[pick(MENTIONS.len())]
            ),
        ),
        20..=29 => (
            "POST",
            "/annotate",
            format!(
                "{{\"text\":\"Runner {id} covered {} kilometers carrying {} kg of gear.\"}}",
                (r % 499 + 1) as f64 / 10.0,
                (r >> 16) % 89 + 1
            ),
        ),
        30..=35 => {
            let (from, to) = CONVERSIONS[pick(CONVERSIONS.len())];
            let v = ((r >> 16) % 999 + 1) as f64 / 4.0 + id as f64 * 1000.0;
            (
                "POST",
                "/convert",
                format!("{{\"value\":{v},\"from\":{from:?},\"to\":{to:?}}}"),
            )
        }
        36..=38 => (
            "POST",
            "/solve",
            format!(
                "{{\"equation\":\"x=({}+{})*{}\"}}",
                50 * id + r % 49 + 1,
                (r >> 8) % 49 + 1,
                (r >> 16) % 8 + 1
            ),
        ),
        VERIFY_SLOT => verify_request(id, r),
        _ => ("GET", "/healthz", String::new()),
    }
}

/// The workload's requests: a pure function of `(seed, client, index)`.
struct Requests {
    mix: Mix,
    seed: u64,
    clients: u64,
    /// `serve_hot`: each client's `build_pool` plus its `/verify` entry.
    pools: Vec<Vec<Request>>,
}

impl Requests {
    fn new(mix: Mix, seed: u64, clients: usize) -> Requests {
        let pools = match mix {
            Mix::Miss => Vec::new(),
            Mix::Hot => (0..clients)
                .map(|c| {
                    let client_seed = dim_par::seed_for(seed, c as u64);
                    let mut rng = rand::rngs::StdRng::seed_from_u64(client_seed);
                    let mut pool: Vec<Request> = build_pool(c, &mut rng)
                        .into_iter()
                        .map(|p| (p.method, p.target, p.body))
                        .collect();
                    pool.push(verify_request(c as u64, mix64(client_seed)));
                    pool
                })
                .collect(),
        };
        Requests {
            mix,
            seed,
            clients: clients as u64,
            pools,
        }
    }

    fn get(&self, c: usize, i: u64) -> Request {
        let r = mix64(self.seed ^ mix64(((c as u64) << 48) ^ i));
        match self.mix {
            Mix::Hot => self.pools[c][(r % SLOTS) as usize].clone(),
            Mix::Miss => unique_request(r % SLOTS, i * self.clients + c as u64, mix64(r)),
        }
    }
}

/// What one connection observed over one phase.
#[derive(Default)]
struct ClientRun {
    /// Request indices `[first, next)` were sent, warm-up included.
    first: u64,
    next: u64,
    /// Timed requests only, each with the window it ran in: wall latency
    /// and process CPU time.
    lat_ns: Vec<u64>,
    cpu_ns: Vec<u64>,
    lat_window: Vec<usize>,
    spans: Vec<(u64, u64)>,
    /// Seconds timed in each window.
    window_s: Vec<f64>,
    completed: u64,
    failed: u64,
    sheds: u64,
    retries: u64,
    checksum: u64,
}

/// Sends one request to completion, retrying overload sheds. Returns false
/// when the final outcome is a failure.
fn send(addr: SocketAddr, conn: &mut Option<Conn>, req: &Request, run: &mut ClientRun) -> bool {
    for attempt in 1..=MAX_ATTEMPTS {
        if conn.is_none() {
            *conn = Conn::connect(addr).ok();
        }
        let Some(live) = conn.as_mut() else {
            return false;
        };
        match live.request(req.0, req.1, &req.2) {
            Ok(resp) => {
                if resp.close {
                    *conn = None;
                }
                if resp.status == 503 && resp.retry_after.is_some() && attempt < MAX_ATTEMPTS {
                    run.sheds += 1;
                    run.retries += 1;
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                run.checksum ^= fnv1a(resp.body.as_bytes());
                return (200..300).contains(&resp.status);
            }
            Err(_) => {
                *conn = None;
                return false;
            }
        }
    }
    false
}

/// One closed-loop connection: warm-up, then `windows` windows of `window`
/// requests each. Every connection and the phase's own thread meet at the
/// barrier after warm-up and at both ends of every window.
#[allow(clippy::too_many_arguments)]
fn client(
    addr: SocketAddr,
    requests: &Requests,
    c: usize,
    first: u64,
    windows: usize,
    window: u64,
    barrier: &Barrier,
    origin: Instant,
    traced: bool,
) -> ClientRun {
    let mut run = ClientRun {
        first,
        next: first,
        ..ClientRun::default()
    };
    let mut conn = Conn::connect(addr).ok();
    for _ in 0..WARMUP {
        if !send(addr, &mut conn, &requests.get(c, run.next), &mut run) {
            run.failed += 1;
        }
        run.next += 1;
    }
    barrier.wait();
    for w in 0..windows {
        barrier.wait();
        let start = Instant::now();
        let (mut now, mut done) = (start, 0);
        for _ in 0..window {
            let req = requests.get(c, run.next);
            let (t0, c0) = (Instant::now(), harness::cpu_now());
            let ok = send(addr, &mut conn, &req, &mut run);
            now = Instant::now();
            run.cpu_ns.push(((harness::cpu_now() - c0) * 1e9) as u64);
            run.next += 1;
            if ok {
                done += 1;
            } else {
                run.failed += 1;
            }
            run.lat_ns.push((now - t0).as_nanos() as u64);
            run.lat_window.push(w);
            if traced {
                run.spans.push((
                    (t0 - origin).as_nanos() as u64,
                    (now - origin).as_nanos() as u64,
                ));
            }
        }
        run.window_s.push((now - start).as_secs_f64());
        run.completed += done;
        barrier.wait();
    }
    run
}

/// What every connection observed over one phase, and per window the
/// factor that turns its times into reference seconds.
struct Phase {
    runs: Vec<ClientRun>,
    scales: Vec<f64>,
}

/// Runs every connection for one phase of `count` requests each;
/// connection `c` continues from request index `first[c]`. A calibrated
/// phase splits them into windows of about [`WINDOW_REQUESTS`] and
/// calibrates the host before the first window and after each, while every
/// connection waits; an uncalibrated phase is one window at scale 1.
fn phase(
    addr: SocketAddr,
    requests: &Requests,
    first: &[u64],
    count: u64,
    calibrated: bool,
    tracer: &Tracer,
) -> Phase {
    let width = first.len();
    let windows = if calibrated {
        (count / WINDOW_REQUESTS).max(1)
    } else {
        1
    };
    let window = count / windows;
    let windows = windows as usize;
    let barrier = Barrier::new(width + 1);
    let origin = tracer.origin();
    std::thread::scope(|s| {
        let handles: Vec<_> = first
            .iter()
            .enumerate()
            .map(|(c, &i0)| {
                let barrier = &barrier;
                s.spawn(move || {
                    client(
                        addr,
                        requests,
                        c,
                        i0,
                        windows,
                        window,
                        barrier,
                        origin,
                        tracer.enabled,
                    )
                })
            })
            .collect();
        let calibrate = || calibrated.then(|| harness::calibrate(width));
        barrier.wait();
        let mut before = calibrate();
        let mut scales = Vec::with_capacity(windows);
        for _ in 0..windows {
            barrier.wait();
            barrier.wait();
            let after = calibrate();
            scales.push(match (before, after) {
                (Some(b), Some(a)) => harness::ref_scale(b, a),
                _ => 1.0,
            });
            before = after;
        }
        let runs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        Phase { runs, scales }
    })
}

/// Client-side view of a phase.
struct Client {
    req_per_s: f64,
    /// Request latencies, in seconds.
    lat_s: Vec<f64>,
    /// Wall time one connection takes for [`BLOCK`] requests at the
    /// phase's mean rate.
    block_s: f64,
    /// Per-request process CPU time, in seconds.
    cpu_s: Vec<f64>,
    /// Process CPU time of [`BLOCK`] requests per connection at the mean.
    block_cpu_s: f64,
}

/// The phase with its CPU times as measured (`scaled` false) or in
/// reference seconds; wall times are always as measured.
fn summarise(phase: &Phase, scaled: bool) -> Client {
    let k = |w: usize| if scaled { phase.scales[w] } else { 1.0 };
    let per_request = |ns: fn(&ClientRun) -> &[u64], k: &dyn Fn(usize) -> f64| -> Vec<f64> {
        phase
            .runs
            .iter()
            .flat_map(|r| ns(r).iter().zip(&r.lat_window))
            .map(|(&ns, &w)| ns as f64 / 1e9 * k(w))
            .collect()
    };
    let lat_s = per_request(|r| &r.lat_ns, &|_| 1.0);
    let cpu_s = per_request(|r| &r.cpu_ns, &k);
    let req_per_s: f64 = phase
        .runs
        .iter()
        .map(|r| r.completed as f64 / r.window_s.iter().sum::<f64>())
        .sum();
    let connections = phase.runs.len() as f64;
    Client {
        req_per_s,
        lat_s,
        block_s: BLOCK as f64 * connections / req_per_s,
        block_cpu_s: BLOCK as f64 * connections * cpu_s.iter().sum::<f64>() / cpu_s.len() as f64,
        cpu_s,
    }
}

/// Counter deltas of one phase, read from the server's registry.
struct ServerDelta {
    hits: u64,
    misses: u64,
    evictions: u64,
    memo_hits: u64,
    memo_lookups: u64,
    lev_pruned: u64,
    lev_computed: u64,
    batch_items: u64,
    batch_flushes: u64,
}

fn server_delta(cache0: (u64, u64, u64), mark: &ObsMark) -> ServerDelta {
    let (h, m, e) = dim_serve::cache::counters();
    let memo_hits = mark.counter_delta("link.memo_hit");
    ServerDelta {
        hits: h - cache0.0,
        misses: m - cache0.1,
        evictions: e - cache0.2,
        memo_hits,
        memo_lookups: memo_hits + mark.counter_delta("link.memo_miss"),
        lev_pruned: mark.counter_delta("link.lev_pruned"),
        lev_computed: mark.counter_delta("link.lev_computed"),
        batch_items: mark.counter_delta("srv.batch.items"),
        batch_flushes: mark.counter_delta("srv.batch.flushes"),
    }
}

/// Replays every request through `App::handle` on a fresh app: the XOR of
/// response digests, non-2xx count, and per-request parse/handle times.
struct Replay {
    checksum: u64,
    non_2xx: u64,
    parse_ns: Vec<f64>,
    handle_us: Vec<f64>,
}

fn replay(requests: &Requests, ranges: &[(usize, u64, u64)]) -> Replay {
    let app = App::new(AppConfig::default());
    let mut r = Replay {
        checksum: 0,
        non_2xx: 0,
        parse_ns: Vec::new(),
        handle_us: Vec::new(),
    };
    for &(c, from, to) in ranges {
        for i in from..to {
            let (method, target, body) = requests.get(c, i);
            let raw = format!(
                "{method} {target} HTTP/1.1\r\nHost: dimserve\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let t0 = Instant::now();
            let parsed = http::parse(raw.as_bytes());
            r.parse_ns.push(t0.elapsed().as_nanos() as f64);
            let Ok(Parsed::Complete { request, .. }) = parsed else {
                r.non_2xx += 1;
                continue;
            };
            let t0 = Instant::now();
            let resp = app.handle(&request);
            r.handle_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            if !(200..300).contains(&resp.status) {
                r.non_2xx += 1;
            }
            r.checksum ^= fnv1a(resp.body.as_bytes());
        }
    }
    r
}

pub fn run(opts: &Opts, mix: Mix, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let clients = CONNECTIONS;
    let requests = Requests::new(mix, opts.seed, clients);
    // The server's threads inherit the binding.
    harness::pin(&mut out);
    let server = match dim_serve::start(server_config()) {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("cannot start dim-serve: {e}"));
            return out;
        }
    };
    let addr = server.addr();
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let count = ((seconds * mix.reference_rate()) as u64).max(1);

    let (cache0, mark) = (dim_serve::cache::counters(), ObsMark::now());
    let first = vec![0; clients];
    let untraced = phase(addr, &requests, &first, count, true, &Tracer::new(false));
    let delta = server_delta(cache0, &mark);
    let mut runs = vec![untraced];
    let mut traced_delta = None;
    if opts.trace {
        let (cache1, mark1) = (dim_serve::cache::counters(), ObsMark::now());
        let first: Vec<u64> = runs[0].runs.iter().map(|r| r.next).collect();
        let root = tracer.open("serve.pass", None);
        let traced = phase(addr, &requests, &first, count, false, tracer);
        tracer.close(root);
        for r in &traced.runs {
            for &(s, e) in &r.spans {
                tracer.record("request", s, e, Some(root));
            }
        }
        traced_delta = Some(server_delta(cache1, &mark1));
        runs.push(traced);
    }
    let drain = server.shutdown();
    if drain.open_connections != 0 {
        out.fail(format!(
            "{} connections still open after drain",
            drain.open_connections
        ));
    }

    // Oracle: the same requests through the application, without a socket.
    let ranges: Vec<(usize, u64, u64)> = runs
        .iter()
        .flat_map(|p| p.runs.iter().enumerate().map(|(c, r)| (c, r.first, r.next)))
        .collect();
    let expected = replay(&requests, &ranges);
    let all = || runs.iter().flat_map(|p| &p.runs);
    let served = all().fold(0, |x, r| x ^ r.checksum);
    if expected.non_2xx > 0 {
        out.fail(format!(
            "{} replayed requests answered non-2xx",
            expected.non_2xx
        ));
    }
    if served != expected.checksum {
        out.fail(format!(
            "response checksum {served:#018x}, App::handle replay {:#018x}",
            expected.checksum
        ));
    }
    check_cache(&mut out, mix, &delta);
    if let Some(d) = &traced_delta {
        check_cache(&mut out, mix, d);
    }
    out.attempted = all().map(|r| r.next - r.first).sum();
    out.failed = all().map(|r| r.failed).sum();
    if out.failed > 0 {
        out.fail(format!("{} requests failed", out.failed));
    }

    let a = summarise(&runs[0], false);
    out.metric(
        "req_per_s",
        a.req_per_s,
        "1/s",
        format!("{clients} closed-loop connections"),
    );
    let unit = format!("block of {BLOCK} requests per connection");
    let r = summarise(&runs[0], true);
    harness::time_metrics(
        &mut out,
        Clock::Cpu,
        "",
        vec![r.block_cpu_s],
        r.cpu_s,
        &unit,
        "request",
    );
    let (block, cpu) = (vec![a.block_cpu_s], a.cpu_s.clone());
    harness::time_metrics(
        &mut out,
        Clock::Cpu,
        ".measured",
        block,
        cpu,
        &unit,
        "request",
    );
    let (block, lat) = (vec![a.block_s], a.lat_s.clone());
    harness::time_metrics(&mut out, Clock::Wall, "", block, lat, &unit, "request");

    if let (Some(d), Some(traced)) = (traced_delta, runs.get(1)) {
        layers::kb_probes(&mut out, tracer);
        serve_layers(
            &mut out,
            &requests,
            &d,
            &traced.runs,
            &expected,
            &a,
            &summarise(traced, false),
        );
    }
    out
}

/// `serve_miss` must never be answered from the cache or the link memo;
/// `serve_hot` must be.
fn check_cache(out: &mut Outcome, mix: Mix, d: &ServerDelta) {
    match mix {
        Mix::Miss => {
            println!(
                "check: {} cache hits; link memo answered {} of {} lookups",
                d.hits, d.memo_hits, d.memo_lookups
            );
            if d.hits != 0 {
                out.fail(format!("serve_miss saw {} cache hits", d.hits));
            }
            let memo = harness::ratio(d.memo_hits, d.memo_lookups);
            if memo > MAX_MEMO_HIT_RATIO {
                out.fail(format!(
                    "link memo answered {memo:.4} of lookups: linking is not cold"
                ));
            }
        }
        Mix::Hot => {
            let ratio = harness::ratio(d.hits, d.hits + d.misses);
            if ratio < MIN_HOT_HIT_RATIO {
                out.fail(format!("serve_hot cache hit ratio {ratio:.4}"));
            }
        }
    }
}

fn serve_layers(
    out: &mut Outcome,
    requests: &Requests,
    d: &ServerDelta,
    traced: &[ClientRun],
    replay: &Replay,
    untraced: &Client,
    client: &Client,
) {
    let hit_ratio = harness::ratio(d.hits, d.hits + d.misses);
    out.metric(
        "serve.cache_hit_ratio",
        hit_ratio,
        "ratio",
        format!("{} hits", d.hits),
    );
    out.metric(
        "serve.cache_evictions",
        d.evictions as f64,
        "count",
        "traced phase",
    );
    out.metric(
        "serve.batch_mean",
        harness::ratio(d.batch_items, d.batch_flushes),
        "items",
        "srv.batch.items / srv.batch.flushes",
    );
    out.metric(
        "serve.sheds",
        traced.iter().map(|r| r.sheds).sum::<u64>() as f64,
        "count",
        "",
    );
    out.metric(
        "serve.retries",
        traced.iter().map(|r| r.retries).sum::<u64>() as f64,
        "count",
        "",
    );
    out.metric(
        "dimlink.memo_hit_ratio",
        harness::ratio(d.memo_hits, d.memo_lookups),
        "ratio",
        format!("over {} memo lookups", d.memo_lookups),
    );
    out.metric(
        "dimlink.lev_prune_ratio",
        harness::ratio(d.lev_pruned, d.lev_pruned + d.lev_computed),
        "ratio",
        "pruned / (pruned + computed)",
    );
    let mut handle = replay.handle_us.clone();
    let app_p50 = harness::median(&mut handle);
    out.metric(
        "serve.app_handle_us.p50",
        app_p50,
        "us",
        format!(
            "App::handle on the workload's payloads, {} samples",
            handle.len()
        ),
    );
    let mut lat = client.lat_s.clone();
    out.metric(
        "serve.transport_us.p50",
        harness::median(&mut lat) * 1e6 - app_p50,
        "us",
        "client p50 - app p50",
    );
    let mut parse = replay.parse_ns.clone();
    out.metric(
        "serve.http_parse_ns",
        harness::median(&mut parse),
        "ns",
        "http::parse, median",
    );
    out.metric(
        "trace.overhead_frac",
        client.block_cpu_s / untraced.block_cpu_s - 1.0,
        "ratio",
        "traced block CPU / untraced block CPU - 1",
    );

    let kb = dimkb::DimUnitKb::shared();
    let queries: Vec<(String, String)> = (0..)
        .map(|i| requests.get(0, i))
        .take(20 * COLD_LINKS)
        .filter(|(_, target, _)| *target == "/link")
        .filter_map(|(_, _, body)| {
            let v = dim_serve::json::parse(&body).ok()?;
            let mention = dim_serve::json::str_field(&v, "mention").ok()?.to_string();
            let context = dim_serve::json::opt_str_field(&v, "context")
                .ok()??
                .to_string();
            Some((mention, context))
        })
        .take(COLD_LINKS)
        .collect();
    out.metric(
        "dimlink.link_ns.p50",
        layers::cold_link_p50_ns(&kb, &queries),
        "ns",
        format!("{} /link payloads, fresh linker each", queries.len()),
    );

    let seed = requests.seed;
    let n = dim_mwp::generate(
        dim_mwp::Source::Ape210k,
        &dim_mwp::GenConfig {
            count: VERIFY_PROBLEMS,
            seed,
        },
    );
    let problems = dim_mwp::Augmenter::new(&kb, seed).to_qmwp(&n);
    let mut us: Vec<f64> = problems
        .iter()
        .map(|p| {
            let t0 = Instant::now();
            std::hint::black_box(dim_verify::verify_problem(p, &kb));
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.metric(
        "verify.problem_us",
        harness::median(&mut us),
        "us",
        format!("verify_problem over {} Q-MWP problems", problems.len()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets(requests: impl Iterator<Item = Request>) -> Vec<&'static str> {
        let mut t: Vec<&str> = requests.map(|r| r.1).collect();
        t.sort_unstable();
        t
    }

    #[test]
    fn both_mixes_have_build_pools_endpoint_weights() {
        let hot = Requests::new(Mix::Hot, 7, 2);
        let miss = targets((0..SLOTS).map(|slot| unique_request(slot, slot, mix64(slot))));
        assert_eq!(targets(hot.pools[1].iter().cloned()), miss);
        let count = |t: &str| miss.iter().filter(|&&m| m == t).count();
        assert_eq!(
            [
                "/link",
                "/annotate",
                "/convert",
                "/solve",
                "/healthz",
                "/verify"
            ]
            .map(count),
            [20, 10, 6, 3, 1, 1]
        );
    }

    #[test]
    fn miss_bodies_never_repeat() {
        let miss = Requests::new(Mix::Miss, 7, 2);
        let mut seen = std::collections::HashSet::new();
        for c in 0..2 {
            for i in 0..5000 {
                let (_, target, body) = miss.get(c, i);
                if target != "/healthz" {
                    assert!(
                        seen.insert((target, body)),
                        "client {c} request {i} repeats"
                    );
                }
            }
        }
    }
}
