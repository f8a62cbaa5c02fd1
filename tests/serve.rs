//! Integration suite for `dim-serve`, the HTTP serving layer over DimKS.
//!
//! What is pinned here, per DESIGN §10:
//!
//! - the smoke transcript is byte-identical to the committed golden
//!   (`results/quick/serve.txt`) — same regeneration protocol as every
//!   other golden: `UPDATE_GOLDEN=1 cargo test --test serve`;
//! - the raw bytes on the wire — status line, headers and body — are
//!   exactly `Response::render` of what `App::handle` answers;
//! - graceful shutdown drains in-flight and queued requests before the
//!   final report is emitted;
//! - a full connection queue is a deterministic `503` (backpressure),
//!   counted in the drain report;
//! - concurrent keep-alive clients on a cache-off server get exactly the
//!   bodies `App::handle` gives on a fresh app;
//! - chaos rate 0 is byte-identical to a chaos-free server; rate > 0
//!   degrades faulted requests to structured `503`s — reproducibly across
//!   runs — and never kills the process;
//! - a server's fault plan is its own: a clean server running beside a
//!   fully faulted one answers every request normally;
//! - slow-loris trickling exhausts a bounded header-read budget (`408` +
//!   close), half-closes and abrupt disconnects never panic a worker,
//!   connection-level chaos at rate 0 is byte-identical to no plan, and a
//!   chaos partial write sends exactly the first half of the rendered
//!   response before closing;
//! - the sharded LRU reaches identical contents at dim-par widths 1 and 4;
//! - the hand-rolled HTTP parser survives header soup, multi-script UTF-8,
//!   truncation at every byte, and oversize declarations (proptests), and
//!   the `X-Deadline-Ms` budget parser clamps without ever panicking.
//!
//! Fault plans live in each server's config, so these tests share no
//! state and run in parallel.

use dim_serve::deadline::{parse_header_budget, HeaderBudget, MIN_DEADLINE};
use dim_serve::http::{self, Parsed};
use dim_serve::server::client;
use dim_serve::{App, AppConfig, ServerConfig, ShardedLru};
use proptest::prelude::*;
use dim_chaos::{ConnPlan, FaultPlan};
use std::io::{Read as _, Write as _};
use std::time::Duration;

fn test_server(workers: usize, queue: usize) -> dim_serve::ServerHandle {
    chaos_server(workers, queue, FaultPlan::OFF, ConnPlan::OFF)
}

/// A test server injecting `faults` per request and `conn_faults` per
/// connection.
fn chaos_server(
    workers: usize,
    queue: usize,
    faults: FaultPlan,
    conn_faults: ConnPlan,
) -> dim_serve::ServerHandle {
    dim_serve::start(ServerConfig {
        workers,
        queue_capacity: queue,
        conn_faults,
        app: AppConfig { faults, ..AppConfig::default() },
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

// ===================== golden transcript =====================

fn golden_path(rel: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results").join(rel)
}

/// Byte-compares against the committed golden, or rewrites it when
/// `UPDATE_GOLDEN` is set (same protocol as `tests/golden_results.rs`).
fn assert_matches_golden(rel: &str, actual: &str) {
    let path = golden_path(rel);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, actual).expect("write golden");
        eprintln!("golden: rewrote {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); generate it with `UPDATE_GOLDEN=1 cargo test --test serve`",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "serve transcript drifted from {} (expected {} bytes, got {}).\n\
         If intentional, refresh with `UPDATE_GOLDEN=1 cargo test --test serve`.",
        path.display(),
        expected.len(),
        actual.len()
    );
}

#[test]
fn smoke_transcript_matches_golden() {
    let transcript = dim_serve::smoke::transcript(2).expect("run smoke script");
    assert_matches_golden("quick/serve.txt", &transcript);
}

/// The raw request for `method target` with `body`; `close` adds
/// `Connection: close`.
fn raw_request(method: &str, target: &str, body: &str, close: bool) -> String {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!(
        "{method} {target} HTTP/1.1\r\nHost: dimserve\r\n{connection}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// What the server must put on the wire for `raw`: the rendering of
/// `App::handle` on `app`, with `close` set as the server sets it.
fn expected_wire(app: &App, raw: &str) -> String {
    let Ok(Parsed::Complete { request, .. }) = http::parse(raw.as_bytes()) else {
        panic!("request does not parse: {raw:?}");
    };
    let mut response = app.handle(&request);
    response.close |= request.wants_close();
    response.render()
}

/// A raw connection that gives up after 10 s instead of hanging the test.
fn raw_connect(addr: std::net::SocketAddr) -> std::net::TcpStream {
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream
}

/// The smoke script (minus `/metrics`, whose body is the process-wide
/// registry) over one raw keep-alive connection: each response's bytes —
/// status line, every header, body — equal `App::handle(..).render()` on a
/// fresh app. The last request asks to close, so its response carries
/// `Connection: close` and the stream then ends with no stray bytes.
#[test]
fn wire_bytes_equal_rendered_responses() {
    let server = test_server(1, 8);
    let mut stream = raw_connect(server.addr());
    let app = App::new(AppConfig::default());
    let script: Vec<_> =
        dim_serve::smoke::SCRIPT.iter().filter(|(_, target, _)| *target != "/metrics").collect();
    for (i, (method, target, body)) in script.iter().enumerate() {
        let raw = raw_request(method, target, body, i + 1 == script.len());
        stream.write_all(raw.as_bytes()).expect("send request");
        let want = expected_wire(&app, &raw);
        let mut got = vec![0u8; want.len()];
        stream.read_exact(&mut got).expect("read the expected response bytes");
        assert_eq!(String::from_utf8_lossy(&got), want, "{method} {target}");
    }
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("EOF after Connection: close");
    assert!(rest.is_empty(), "bytes after the last response: {:?}", String::from_utf8_lossy(&rest));
    server.shutdown();
}

// ===================== graceful drain =====================

/// An in-flight request — half its bytes on the wire when shutdown begins
/// — is drained, answered, and counted before the report is emitted.
#[test]
fn graceful_shutdown_drains_in_flight_request() {
    let server = test_server(2, 8);
    let addr = server.addr();
    // Park a raw connection mid-request: head sent, body missing.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let body = "{\"equation\":\"x=6*7\"}";
    stream
        .write_all(
            format!("POST /solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len()).as_bytes(),
        )
        .expect("send head");
    // Let a worker adopt the connection and buffer the partial request.
    std::thread::sleep(Duration::from_millis(80));

    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(80));
    // The server is draining; finish the request now.
    stream.write_all(body.as_bytes()).expect("send body");
    let resp = read_raw_response(&mut stream);
    assert!(resp.contains("HTTP/1.1 200"), "in-flight request must complete: {resp}");
    assert!(resp.contains("{\"answer\":42}"), "{resp}");
    assert!(resp.contains("Connection: close"), "drain closes after answering: {resp}");

    let report = shutdown.join().expect("shutdown thread");
    assert!(report.requests >= 1, "drained request must be counted");
    assert!(report.obs_json.contains("\"counters\""));
}

fn read_raw_response(stream: &mut std::net::TcpStream) -> String {
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

// ===================== backpressure =====================

/// With one worker parked on a live connection and a single-slot queue
/// occupied, the next connection gets the deterministic `503` and the
/// queued one is still served once the worker frees up.
#[test]
fn queue_full_is_deterministic_503_and_backlog_still_drains() {
    let server = test_server(1, 1);
    let addr = server.addr();

    // conn1 parks the only worker (keep-alive: worker stays on it).
    let mut conn1 = client::Conn::connect(addr).expect("conn1");
    let warm = conn1.request("GET", "/healthz", "").expect("warm");
    assert_eq!(warm.status, 200);

    // conn2 occupies the single queue slot (no worker free to pop it).
    let mut conn2 = client::Conn::connect(addr).expect("conn2");

    // Give the acceptor time to enqueue conn2 before conn3 arrives.
    std::thread::sleep(Duration::from_millis(50));

    // conn3 must be refused with the fixed backpressure response.
    let rejected = client::request(addr, "GET", "/healthz", "").expect("conn3 read");
    assert_eq!(rejected.status, 503, "{}", rejected.body);
    assert_eq!(rejected.body, "{\"error\":\"queue full\"}");
    assert!(rejected.close);

    // Freeing the worker lets the queued conn2 get served.
    drop(conn1);
    let late = conn2.request("POST", "/solve", "{\"equation\":\"x=1+1\"}").expect("conn2 served");
    assert_eq!(late.status, 200);
    assert_eq!(late.body, "{\"answer\":2}");

    let report = server.shutdown();
    assert_eq!(report.rejected, 1, "exactly one backpressure rejection");
}

// ===================== overload hardening =====================

/// A peer trickling header bytes holds a worker for at most the total
/// header-read budget, then gets a `408` with `Retry-After` and a close —
/// per-byte progress must NOT keep resetting the clock.
#[test]
fn slow_loris_trickle_is_408_and_closed_after_total_budget() {
    let server = dim_serve::start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        header_read_budget: Duration::from_millis(150),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone for writer");
    let started = std::time::Instant::now();
    // Drip one header byte every 20 ms — each write is progress, so only a
    // *total* budget (not an idle timeout) can end this connection.
    let trickler = std::thread::spawn(move || {
        let bytes = b"POST /solve HTTP/1.1\r\nX-Slow: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
        for b in bytes {
            if writer.write_all(std::slice::from_ref(b)).is_err() {
                break; // server gave up on us, as it should
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    });
    let resp = read_raw_response(&mut stream);
    let elapsed = started.elapsed();
    trickler.join().expect("trickler");
    assert!(resp.starts_with("HTTP/1.1 408"), "want 408 for a slow-loris peer: {resp}");
    assert!(resp.contains("Retry-After: 1"), "{resp}");
    assert!(resp.contains("Connection: close"), "{resp}");
    assert!(
        elapsed >= Duration::from_millis(150),
        "cut off before the budget elapsed: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "a trickling peer held a worker far past the budget: {elapsed:?}"
    );

    // The worker that served the attacker is free again.
    let ok = client::request(addr, "GET", "/healthz", "").expect("healthz after loris");
    assert_eq!(ok.status, 200);
    let report = server.shutdown();
    assert_eq!(report.open_connections, 0, "no leaked gate permits");
}

/// A peer that half-closes (shutdown of its write side) after a complete
/// request still receives the full response; the worker sees EOF afterward
/// and moves on without panicking.
#[test]
fn half_close_after_request_still_receives_the_response() {
    let server = test_server(1, 4);
    let addr = server.addr();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let body = "{\"equation\":\"x=6*7\"}";
    stream
        .write_all(
            format!("POST /solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len())
                .as_bytes(),
        )
        .expect("send request");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let resp = read_raw_response(&mut stream);
    assert!(resp.contains("HTTP/1.1 200"), "half-closed peer still gets its answer: {resp}");
    assert!(resp.contains("{\"answer\":42}"), "{resp}");

    // The worker survived EOF; the next connection is served normally.
    let ok = client::request(addr, "GET", "/healthz", "").expect("healthz after half-close");
    assert_eq!(ok.status, 200);
    let report = server.shutdown();
    assert_eq!(report.open_connections, 0);
}

/// Abrupt disconnects — full requests, partial heads, zero bytes — never
/// panic a worker and never leak a connection permit.
#[test]
fn abrupt_disconnects_never_panic_workers_or_leak_permits() {
    let server = test_server(1, 8);
    let addr = server.addr();
    for i in 0..6 {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        match i % 3 {
            0 => {
                // Complete request, then vanish before reading the answer.
                let body = "{\"equation\":\"x=1+1\"}";
                let _ = stream.write_all(
                    format!("POST /solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len())
                        .as_bytes(),
                );
            }
            1 => {
                // Head only — the worker is left waiting on a body.
                let _ = stream.write_all(b"POST /solve HTTP/1.1\r\nContent-Length: 20\r\n\r\n");
            }
            _ => {} // connect and drop without a single byte
        }
        drop(stream);
        // Let the worker adopt (and abandon) the dead connection.
        std::thread::sleep(Duration::from_millis(40));
    }
    let ok = client::request(addr, "GET", "/healthz", "").expect("healthz after disconnects");
    assert_eq!(ok.status, 200);
    let report = server.shutdown();
    assert_eq!(report.open_connections, 0, "a dead peer leaked a gate permit");
    assert_eq!(report.panics_caught, 0, "a disconnect panicked a worker");
}

// ===================== concurrent clients =====================

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 24;
const MENTIONS: [&str; 6] = ["km", "kg", "mph", "米", "°C", "kilowatt hour"];

/// Client `c`'s script: `/link` and `/annotate` interleaved, every body
/// unique across all clients.
fn client_script(c: usize) -> Vec<(&'static str, String)> {
    (0..REQUESTS_PER_CLIENT)
        .map(|i| {
            let mention = MENTIONS[(c + i) % MENTIONS.len()];
            if i % 2 == 0 {
                ("/link", format!("{{\"mention\":\"{mention}\",\"context\":\"client {c} probe {i}\"}}"))
            } else {
                ("/annotate", format!("{{\"text\":\"client {c} step {i}: {} {mention} then {i}.5 kg\"}}", c + i))
            }
        })
        .collect()
}

/// Four keep-alive clients against two workers with the cache off: every
/// request reaches the engine while others are in flight, and each body
/// must equal what `App::handle` answers on a fresh app — a response is a
/// function of its request alone.
#[test]
fn concurrent_clients_get_the_bodies_a_fresh_app_gives() {
    let server = dim_serve::start(ServerConfig {
        workers: 2,
        app: AppConfig { cache_per_shard: 0, ..AppConfig::default() },
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();
    // Every client is connected before any sends, so both workers are busy
    // from the first request on.
    let start = std::sync::Arc::new(std::sync::Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let start = start.clone();
            std::thread::spawn(move || {
                let mut conn = client::Conn::connect(addr).expect("connect");
                start.wait();
                client_script(c)
                    .into_iter()
                    .map(|(target, body)| {
                        let resp = conn.request("POST", target, &body).expect("response");
                        (target, body, resp.status, resp.body)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let served: Vec<_> =
        clients.into_iter().flat_map(|h| h.join().expect("client thread")).collect();
    server.shutdown();

    assert_eq!(served.len(), CLIENTS * REQUESTS_PER_CLIENT);
    let app = App::new(AppConfig::default());
    for (target, body, status, got) in served {
        let raw = format!("POST {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
        let Ok(Parsed::Complete { request, .. }) = http::parse(raw.as_bytes()) else {
            panic!("replay request does not parse: {raw:?}");
        };
        let want = app.handle(&request);
        assert_eq!(status, 200, "{target} {body} -> {got}");
        assert_eq!((status, got), (want.status, want.body), "{target} {body}");
    }
}

// ===================== chaos =====================

fn chaos_script() -> Vec<(String, String)> {
    (0..40)
        .map(|i| match i % 4 {
            0 => ("/link".to_string(), format!("{{\"mention\":\"km\",\"context\":\"probe {i}\"}}")),
            1 => ("/solve".to_string(), format!("{{\"equation\":\"x={i}+1\"}}")),
            2 => ("/convert".to_string(), format!("{{\"value\":{i},\"from\":\"m\",\"to\":\"cm\"}}")),
            _ => ("/annotate".to_string(), format!("{{\"text\":\"box {i} weighs {i} kg\"}}")),
        })
        .collect()
}

/// Runs the chaos script over a fresh server with the given plans,
/// returning per-request `(status, body)` plus the sorted quarantine
/// manifest.
fn run_chaos_script(faults: FaultPlan, conn_faults: ConnPlan) -> (Vec<(u16, String)>, Vec<String>) {
    let server = chaos_server(1, 16, faults, conn_faults);
    let mut conn = client::Conn::connect(server.addr()).expect("connect");
    let mut out = Vec::new();
    for (target, body) in chaos_script() {
        let resp = conn.request("POST", &target, &body).expect("response even under chaos");
        out.push((resp.status, resp.body));
    }
    let mut manifest: Vec<String> =
        server.app().quarantine_entries().iter().map(|q| q.to_string()).collect();
    manifest.sort();
    server.shutdown();
    (out, manifest)
}

#[test]
fn chaos_rate_zero_is_byte_identical_to_no_plan() {
    let (clean, clean_q) = run_chaos_script(FaultPlan::OFF, ConnPlan::OFF);
    let (zero_rate, zero_q) = run_chaos_script(FaultPlan::new(9, 0.0), ConnPlan::OFF);
    assert_eq!(clean, zero_rate, "rate 0 must not change a single byte");
    assert!(clean_q.is_empty() && zero_q.is_empty());
    assert!(clean.iter().all(|(s, _)| *s == 200), "clean script is all 200s");
}

/// `/verify` goes through the same per-request chaos wiring as the other
/// POST routes (its own `srv.request` arm, so the established chaos
/// goldens above are untouched): a rate-0 plan must not change a byte of
/// its responses — consistent, inconsistent, and unresolvable alike.
#[test]
fn verify_chaos_rate_zero_is_byte_identical_to_no_plan() {
    let script: Vec<String> = (0..12)
        .map(|i| match i % 3 {
            0 => format!(
                "{{\"equation\":\"x={i}+50\",\"quantities\":[{{\"value\":{i},\"unit\":\"米\"}},{{\"value\":50,\"unit\":\"米\"}}],\"answer_unit\":\"米\"}}"
            ),
            1 => format!(
                "{{\"equation\":\"x={i}+50\",\"quantities\":[{{\"value\":{i},\"unit\":\"米\"}},{{\"value\":50,\"unit\":\"千克\"}}]}}"
            ),
            _ => format!(
                "{{\"equation\":\"x={i}*2\",\"quantities\":[{{\"value\":{i},\"unit\":\"zorblax\"}},{{\"value\":2}}]}}"
            ),
        })
        .collect();
    let run = |faults| {
        let server = chaos_server(1, 16, faults, ConnPlan::OFF);
        let mut conn = client::Conn::connect(server.addr()).expect("connect");
        let out: Vec<(u16, String)> = script
            .iter()
            .map(|body| {
                let resp = conn.request("POST", "/verify", body).expect("verify response");
                (resp.status, resp.body)
            })
            .collect();
        server.shutdown();
        out
    };
    let clean = run(FaultPlan::OFF);
    let zero_rate = run(FaultPlan::new(9, 0.0));
    assert_eq!(clean, zero_rate, "rate 0 must not change a single /verify byte");
    for (i, (status, body)) in clean.iter().enumerate() {
        match i % 3 {
            0 => {
                assert_eq!(*status, 200, "{body}");
                assert!(body.contains("\"accepted\":true"), "{body}");
            }
            1 => {
                assert_eq!(*status, 200, "{body}");
                assert!(body.contains("\"accepted\":false"), "{body}");
                assert!(body.contains("\"site\":\"+\""), "{body}");
            }
            _ => assert_eq!(*status, 422, "{body}"),
        }
    }
}

#[test]
fn chaos_rate_positive_degrades_structurally_and_reproducibly() {
    let (clean, _) = run_chaos_script(FaultPlan::OFF, ConnPlan::OFF);
    let plan = FaultPlan::new(11, 0.35);
    let (run_a, manifest_a) = run_chaos_script(plan, ConnPlan::OFF);
    let (run_b, manifest_b) = run_chaos_script(plan, ConnPlan::OFF);

    // The process surviving to this line is the "never exits" half of the
    // contract — injected panics were caught per-request.
    assert_eq!(run_a, run_b, "fixed plan + fixed script must reproduce exactly");
    assert_eq!(manifest_a, manifest_b, "quarantine manifest must reproduce");
    assert!(!manifest_a.is_empty(), "rate 0.35 over 40 requests must quarantine some");

    let degraded: Vec<&(u16, String)> = run_a.iter().filter(|(s, _)| *s == 503).collect();
    assert!(!degraded.is_empty(), "some requests must degrade");
    assert!(degraded.len() < run_a.len(), "some requests must survive");
    for (_, body) in &degraded {
        assert!(body.contains("\"degraded\":true"), "structured degraded body: {body}");
    }
    // Un-faulted slots answer exactly like the clean run.
    for ((sa, ba), (sc, bc)) in run_a.iter().zip(clean.iter()) {
        if *sa == 200 {
            assert_eq!((sa, ba), (sc, bc), "surviving responses must match clean bytes");
        }
    }
}

/// Each server injects only its own plan: a clean server running at the
/// same time as one that faults every request answers every request `200`
/// and quarantines nothing, while the faulted server answers `503`.
#[test]
fn a_servers_fault_plan_reaches_only_that_server() {
    let clean = test_server(1, 16);
    let faulted = chaos_server(1, 16, FaultPlan::new(5, 1.0), ConnPlan::OFF);
    let mut clean_conn = client::Conn::connect(clean.addr()).expect("connect clean");
    let mut faulted_conn = client::Conn::connect(faulted.addr()).expect("connect faulted");
    for (target, body) in chaos_script() {
        let bad = faulted_conn.request("POST", &target, &body).expect("faulted response");
        assert_eq!(bad.status, 503, "{target}: {}", bad.body);
        let ok = clean_conn.request("POST", &target, &body).expect("clean response");
        assert_eq!(ok.status, 200, "{target}: {}", ok.body);
    }
    assert!(clean.app().quarantine_entries().is_empty(), "the clean server quarantined nothing");
    assert_eq!(faulted.app().quarantine_entries().len(), chaos_script().len());
    clean.shutdown();
    faulted.shutdown();
}

/// A rate-0 connection plan must be indistinguishable from no plan at all:
/// same response bytes, same quarantine (none), zero realized faults.
#[test]
fn conn_chaos_rate_zero_is_byte_identical_to_no_plan() {
    let (clean, clean_q) = run_chaos_script(FaultPlan::OFF, ConnPlan::OFF);
    let (zero_rate, zero_q) = run_chaos_script(FaultPlan::OFF, ConnPlan::new(13, 0.0));
    assert_eq!(clean, zero_rate, "conn-chaos rate 0 must not change a single byte");
    assert!(clean_q.is_empty() && zero_q.is_empty());
}

/// With every connection abrupt-closed at adoption, clients see clean
/// transport errors (never garbage bytes), and the server neither panics
/// nor leaks permits.
#[test]
fn conn_chaos_abrupt_close_surfaces_as_transport_error() {
    let abrupt = ConnPlan {
        seed: 13,
        rate: 1.0,
        kinds: dim_chaos::ConnFaultKinds::only(dim_chaos::ConnFault::AbruptClose),
    };
    let server = chaos_server(1, 8, FaultPlan::OFF, abrupt);
    let addr = server.addr();
    for _ in 0..3 {
        // The drop may surface as EOF, a reset, or a broken pipe depending
        // on whether our bytes were still unread — any *clean* error is the
        // contract; garbage bytes or a hang are not.
        let err = client::request(addr, "GET", "/healthz", "")
            .expect_err("every connection is dropped at adoption");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected error kind: {err}"
        );
    }
    let report = server.shutdown();
    assert_eq!(report.conn_faults, 3, "exactly the three faulted connections");
    assert_eq!(report.open_connections, 0, "faulted connections released their permits");
}

/// With every connection partial-written, a `/solve` request receives
/// exactly the first half of its response's full rendering, then EOF; the
/// fault is counted once and the connection's permit is released.
#[test]
fn conn_chaos_partial_write_sends_the_first_half_then_eof() {
    let partial = ConnPlan {
        seed: 13,
        rate: 1.0,
        kinds: dim_chaos::ConnFaultKinds::only(dim_chaos::ConnFault::PartialWrite),
    };
    let server = chaos_server(1, 8, FaultPlan::OFF, partial);
    let mut stream = raw_connect(server.addr());
    let raw = raw_request("POST", "/solve", "{\"equation\":\"x=6*7\"}", false);
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut got = Vec::new();
    stream.read_to_end(&mut got).expect("half a response, then EOF");
    let full = expected_wire(&App::new(AppConfig::default()), &raw);
    assert!(full.contains("{\"answer\":42}"), "{full}");
    assert_eq!(String::from_utf8_lossy(&got), full[..full.len() / 2]);
    let report = server.shutdown();
    assert_eq!(report.conn_faults, 1, "exactly the one faulted connection");
    assert_eq!(report.open_connections, 0, "the faulted connection released its permit");
}

// ===================== sharded LRU under dim-par =====================

/// Applies each shard's operation subsequence as one dim-par task: the
/// per-shard order is fixed, so the final contents must be identical at
/// any width.
fn fill_cache(par: dim_par::Parallelism) -> ShardedLru {
    let cache = ShardedLru::new(4, 8);
    let keys: Vec<String> = (0..200).map(|i| format!("key-{i}")).collect();
    let mut by_shard: Vec<Vec<&String>> = vec![Vec::new(); cache.shard_count()];
    for key in &keys {
        by_shard[cache.shard_of(key)].push(key);
    }
    dim_par::par_map(par, &by_shard, |group| {
        for (i, key) in group.iter().enumerate() {
            cache.insert(key, format!("value-of-{key}"));
            if i % 3 == 0 {
                // Promotions shuffle the LRU order deterministically.
                let _ = cache.get(key);
            }
        }
    });
    cache
}

#[test]
fn lru_contents_identical_across_par_widths() {
    let sequential = fill_cache(dim_par::Parallelism::new(1));
    let wide = fill_cache(dim_par::Parallelism::new(4));
    assert_eq!(sequential.len(), wide.len());
    for shard in 0..sequential.shard_count() {
        assert_eq!(
            sequential.shard_keys(shard),
            wide.shard_keys(shard),
            "shard {shard} diverged between widths 1 and 4"
        );
    }
    // Capacity is enforced per shard.
    for shard in 0..sequential.shard_count() {
        assert!(sequential.shard_keys(shard).len() <= sequential.per_shard_capacity());
    }
}

// ===================== HTTP parser proptests =====================

fn render_request(target: &str, headers: &[(String, String)], body: &str) -> Vec<u8> {
    let mut raw = format!("POST {target} HTTP/1.1\r\n").into_bytes();
    for (name, value) in headers {
        raw.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    raw.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
    raw.extend_from_slice(body.as_bytes());
    raw
}

proptest! {
    /// Header soup + multi-script UTF-8 bodies: any well-formed frame
    /// parses back to its exact body bytes; header names survive as
    /// lowercase.
    #[test]
    fn parser_roundtrips_header_soup_and_utf8_bodies(
        headers in prop::collection::vec(("[a-z]{1,10}", "\\PC{0,24}"), 0..6),
        body in "\\PC{0,200}",
    ) {
        let raw = render_request("/link", &headers, &body);
        match http::parse(&raw) {
            Ok(Parsed::Complete { request, consumed }) => {
                prop_assert_eq!(consumed, raw.len());
                prop_assert_eq!(request.body.as_slice(), body.as_bytes());
                for (name, _) in &request.headers {
                    let lowered = name.to_ascii_lowercase();
                    prop_assert_eq!(&lowered, name);
                }
            }
            other => prop_assert!(false, "well-formed request failed: {:?}", other),
        }
    }

    /// Truncation at every byte is either `Partial` (a valid prefix) —
    /// never an error, never a panic — and feeding the remainder completes.
    #[test]
    fn parser_handles_truncation_at_any_byte(
        body in "\\PC{0,80}",
        cut_permille in 0usize..1000,
    ) {
        let raw = render_request("/annotate", &[], &body);
        let cut = cut_permille * raw.len() / 1000;
        match http::parse(&raw[..cut]) {
            Ok(Parsed::Partial) => {
                // Completing the frame must now parse cleanly.
                match http::parse(&raw) {
                    Ok(Parsed::Complete { consumed, .. }) => prop_assert_eq!(consumed, raw.len()),
                    other => prop_assert!(false, "full frame failed: {:?}", other),
                }
            }
            Ok(Parsed::Complete { .. }) => prop_assert!(cut == raw.len() || body.is_empty()),
            Err(e) => prop_assert!(false, "prefix of a valid request errored: {:?}", e),
        }
    }

    /// Oversize declarations — bodies past the 64 KiB `dimkb::degrade`
    /// record guard — are a clean `413` before any body byte is buffered,
    /// and garbage declarations are a clean `400`.
    #[test]
    fn parser_rejects_oversize_and_garbage_lengths_cleanly(
        over in 1usize..1_000_000,
        garbage in "[a-z]{1,8}",
    ) {
        let declared = http::MAX_BODY_BYTES + over;
        let raw = format!("POST /solve HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n");
        match http::parse(raw.as_bytes()) {
            Err(e) => prop_assert_eq!(e.status(), 413),
            other => prop_assert!(false, "oversize accepted: {:?}", other),
        }
        let raw = format!("POST /solve HTTP/1.1\r\nContent-Length: {garbage}\r\n\r\n");
        match http::parse(raw.as_bytes()) {
            Err(e) => prop_assert!(e.status() == 400),
            other => prop_assert!(false, "garbage length accepted: {:?}", other),
        }
    }

    /// Arbitrary byte soup (not even HTTP) never panics the parser: every
    /// outcome is `Partial`, `Complete`, or a typed `4xx`/`5xx`.
    #[test]
    fn parser_never_panics_on_byte_soup(bytes in prop::collection::vec(0u8..=255u8, 0..300)) {
        match http::parse(&bytes) {
            Ok(_) => {}
            Err(e) => {
                let s = e.status();
                prop_assert!((400..=599).contains(&s), "status {s} out of range");
            }
        }
    }

    /// Every numeric `X-Deadline-Ms` value (with arbitrary surrounding
    /// whitespace) parses to a budget clamped into `[MIN_DEADLINE, max]` —
    /// never `Invalid`, never out of range, never a panic.
    #[test]
    fn deadline_budget_clamps_every_numeric_header(
        ms in 0u64..u64::MAX / 2,
        pad_left in "[ ]{0,3}",
        pad_right in "[ ]{0,3}",
        max_ms in 1u64..600_000,
    ) {
        let max = Duration::from_millis(max_ms);
        let raw = format!("{pad_left}{ms}{pad_right}");
        match parse_header_budget(Some(&raw), max) {
            HeaderBudget::Requested(d) => {
                prop_assert!(d >= MIN_DEADLINE, "below floor: {d:?}");
                prop_assert!(d <= max, "above ceiling: {d:?} > {max:?}");
                let clamped = Duration::from_millis(ms).clamp(MIN_DEADLINE, max);
                prop_assert_eq!(d, clamped);
            }
            other => prop_assert!(false, "numeric value {raw:?} parsed as {other:?}"),
        }
    }

    /// Any header value that is not a plain non-negative integer is
    /// `Invalid` (a deterministic `400` upstream), and an absent header is
    /// always `Default` — no input string can panic the parser.
    #[test]
    fn deadline_budget_rejects_non_numeric_headers(value in "\\PC{0,24}") {
        let max = Duration::from_secs(30);
        let expected_numeric = value.trim().parse::<u64>().is_ok();
        match parse_header_budget(Some(&value), max) {
            HeaderBudget::Requested(_) => prop_assert!(expected_numeric, "{value:?}"),
            HeaderBudget::Invalid => prop_assert!(!expected_numeric, "{value:?}"),
            HeaderBudget::Default => prop_assert!(false, "present header parsed as Default"),
        }
        prop_assert_eq!(parse_header_budget(None, max), HeaderBudget::Default);
    }
}
