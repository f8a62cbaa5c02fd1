//! The server runtime: TCP acceptor, bounded connection queue (the one
//! admission bound), fixed worker pool, per-request deadlines, panic
//! isolation, and graceful drain.
//!
//! Threading shape (fixed at startup, no growth under load):
//!
//! ```text
//! acceptor ──▶ Bounded<ConnTask> ──▶ worker 0..N ──▶ App::handle
//!                (capacity Q)  │            │
//!                              │            ├── deadline expired ⇒ 503 shed
//!                              │            └── catch_unwind ⇒ degraded 503
//!                              └ queue full ⇒ 503 + Retry-After
//! ```
//!
//! The queue bound is the one admission limit. A worker owns a connection
//! until it closes, so open connections never exceed Q + N, plus the one
//! in the acceptor's hand.
//!
//! Overload never blocks and never hangs: every shed is a fixed-byte `503`
//! carrying `Retry-After`, and every shed path is counted. Each connection
//! task carries a [`LiveGuard`](crate::metrics::LiveGuard) in the
//! `srv.conn.open` count, which drops on any exit (including panic unwind
//! and chaos-injected aborts). Requests carry a [`Deadline`] from the
//! accept instant — one that expires while queued is shed at dispatch
//! instead of burning a worker on an answer the client has given up on.
//!
//! Every shed, fault and hand-off is counted in the app's
//! [`ServerMetrics`](crate::metrics::ServerMetrics), so each server reports
//! only its own traffic.
//!
//! Graceful shutdown follows the queue's own drain order: stop accepting,
//! close the queue (workers finish the backlog), join everything, then emit
//! the final [`DrainReport`] with the metrics snapshot.

use crate::app::{App, AppConfig};
use crate::deadline::{parse_header_budget, Deadline, HeaderBudget};
use crate::http::{self, Parsed, Response};
use crate::metrics::{LiveGuard, ServerMetrics};
use crate::queue::{Bounded, PushError};
use dim_chaos::{ConnFault, ConnPlan};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Chaos site for connection-level faults (one decision per accepted
/// connection, keyed by the acceptor's connection sequence number).
pub const SITE_CONN: &str = "srv.conn";

/// The fixed shed body for a request whose deadline expired before dispatch.
pub const DEADLINE_SHED_BODY: &str = "{\"error\":\"deadline exceeded\",\"shed\":true}";

/// `Retry-After` seconds on every overload shed (the smallest expressible
/// backoff; the soak client treats it as a floor, not a sleep mandate).
const RETRY_AFTER_SECS: u16 = 1;

/// Ceiling for client-requested budgets: `X-Deadline-Ms` is clamped into
/// `[1ms, MAX_DEADLINE]`.
pub const MAX_DEADLINE: Duration = Duration::from_secs(30);

/// Socket read timeout of a served connection: how often an idle worker
/// checks for shutdown and for the idle timeout.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Connection queue capacity: the one admission bound. With `workers`
    /// it caps open connections at `queue_capacity + workers`.
    pub queue_capacity: usize,
    /// Default per-request deadline budget when the client sends no
    /// `X-Deadline-Ms`.
    pub default_deadline: Duration,
    /// Total wall-clock budget for reading one request head + body; a peer
    /// trickling bytes slower than this is answered `408` and closed
    /// (slow-loris hardening — per-byte progress resets the idle clock but
    /// not this one).
    pub header_read_budget: Duration,
    /// How long an open connection may sit idle, with no request bytes
    /// arriving, before the server closes it.
    pub idle_timeout: Duration,
    /// Connection faults injected at adoption, one decision per accepted
    /// connection (off by default).
    pub conn_faults: ConnPlan,
    /// Application configuration.
    pub app: AppConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 32,
            default_deadline: Duration::from_secs(5),
            header_read_budget: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(10),
            conn_faults: ConnPlan::OFF,
            app: AppConfig::default(),
        }
    }
}

/// One accepted connection traveling from the acceptor to a worker. Its
/// guard rides along so `srv.conn.open` counts it until the task drops,
/// whatever "done" turns out to mean.
struct ConnTask {
    stream: TcpStream,
    open: LiveGuard,
    accepted: Instant,
    seq: u64,
}

/// What the server did over its lifetime, emitted by a graceful shutdown.
#[derive(Debug)]
pub struct DrainReport {
    /// Requests routed through the app (including degraded ones).
    pub requests: u64,
    /// Queued connections a worker took up (after the drain, every queued
    /// one).
    pub connections: u64,
    /// Connections refused at admission (full queue).
    pub rejected: u64,
    /// Requests shed because their deadline expired before dispatch.
    pub deadline_shed: u64,
    /// Connection-level chaos faults realized on this server.
    pub conn_faults: u64,
    /// Request panics this server's workers caught (injected or not).
    pub panics_caught: u64,
    /// `srv.conn.open` after the drain: connections still counted open,
    /// always zero unless a connection task leaked.
    pub open_connections: usize,
    /// Quarantined (chaos-degraded) requests.
    pub degraded: usize,
    /// The final metrics snapshot ([`App::metrics_snapshot`]), rendered as
    /// JSON.
    pub obs_json: String,
}

/// A running server; dropping it without [`ServerHandle::shutdown`] aborts
/// the threads with the process.
pub struct ServerHandle {
    local_addr: SocketAddr,
    app: Arc<App>,
    queue: Arc<Bounded<ConnTask>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Per-connection serving parameters (the subset of [`ServerConfig`] each
/// worker needs, copied once at startup).
#[derive(Clone, Copy)]
struct ConnParams {
    idle_timeout: Duration,
    default_deadline: Duration,
    header_read_budget: Duration,
    conn_faults: ConnPlan,
}

/// Binds, spawns the acceptor and worker pool, and returns the handle.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let app = Arc::new(App::new(config.app.clone()));
    let queue = Arc::new(Bounded::new(config.queue_capacity));
    let stop = Arc::new(AtomicBool::new(false));

    let acceptor = {
        let app = app.clone();
        let queue = queue.clone();
        let stop = stop.clone();
        std::thread::spawn(move || accept_loop(&listener, app.metrics(), &queue, &stop))
    };

    let params = ConnParams {
        idle_timeout: config.idle_timeout,
        default_deadline: config.default_deadline,
        header_read_budget: config.header_read_budget,
        conn_faults: config.conn_faults,
    };
    let workers = (0..config.workers.max(1))
        .map(|_| {
            let app = app.clone();
            let queue = queue.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let m = app.metrics();
                while let Some(task) = queue.pop() {
                    // Counted before any of its requests is read, so a
                    // `/metrics` answer always counts its own connection.
                    m.connections.inc();
                    serve_connection(&app, task, &stop, params);
                }
            })
        })
        .collect();

    Ok(ServerHandle {
        local_addr,
        app,
        queue,
        stop,
        acceptor: Some(acceptor),
        workers,
    })
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The application (test/report hook).
    pub fn app(&self) -> &Arc<App> {
        &self.app
    }

    /// Graceful shutdown: stop accepting, drain queued connections and
    /// in-flight requests, join all threads, emit the final report.
    pub fn shutdown(mut self) -> DrainReport {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking `accept` with a wake-up dial.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // New pushes now fail; workers drain the backlog, then see `None`.
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let m = self.app.metrics();
        DrainReport {
            requests: m.requests.get(),
            connections: m.connections.get(),
            rejected: m.rejected.get(),
            deadline_shed: m.deadline_shed.get(),
            conn_faults: m.conn_fault_stall.get()
                + m.conn_fault_partial_write.get()
                + m.conn_fault_abrupt_close.get(),
            panics_caught: m.panics_caught.get(),
            open_connections: m.conn_open.get(),
            degraded: self.app.quarantine_entries().len(),
            obs_json: self.app.metrics_snapshot().to_json(),
        }
    }
}

/// Accepts until the stop flag is raised, shedding at a full queue.
fn accept_loop(
    listener: &TcpListener,
    m: &ServerMetrics,
    queue: &Bounded<ConnTask>,
    stop: &AtomicBool,
) {
    let mut seq = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            // The wake-up dial (or a late client); refuse politely.
            reject(m, stream, "shutting down", None);
            break;
        }
        m.queue_depth.set(queue.len());
        let task = ConnTask { stream, open: m.conn_open.guard(), accepted: Instant::now(), seq };
        seq += 1;
        // The queue closes only after this loop has returned, so a refusal
        // here is a full queue.
        if let Err(PushError::Full(task) | PushError::Closed(task)) = queue.push(task) {
            m.rejected.inc();
            m.queue_full.inc();
            reject(m, task.stream, "queue full", Some(RETRY_AFTER_SECS));
        }
    }
}

/// The deterministic admission refusal: fixed bytes, connection closed.
///
/// The close is graceful on purpose: the peer's request bytes are still
/// unread in our receive buffer, and closing a socket with unread data
/// sends an RST that may discard the in-flight `503` before the client
/// reads it. So: respond, FIN our side, then drain the peer's bytes
/// (bounded by a short timeout) until it closes.
fn reject(m: &ServerMetrics, mut stream: TcpStream, why: &str, retry_after: Option<u16>) {
    let mut body = String::from("{\"error\":");
    dim_json::write_string(why, &mut body);
    body.push('}');
    let mut resp = Response::json(503, body);
    resp.close = true;
    resp.retry_after = retry_after;
    if ResponseWriter::new(m).send(&mut stream, &resp).is_err() {
        return;
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 1024];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// The deterministic shed for a request whose deadline expired before
/// dispatch. Keep-alive: the worker already owns the connection, so the
/// client's immediate retry is the cheapest possible next request.
fn deadline_shed_response() -> Response {
    Response::json(503, DEADLINE_SHED_BODY.to_string()).with_retry_after(RETRY_AFTER_SECS)
}

/// Serves one connection's keep-alive request loop until the peer closes,
/// an error forces a close, a budget runs out, or shutdown.
fn serve_connection(app: &App, task: ConnTask, stop: &AtomicBool, params: ConnParams) {
    // `_open` is held for the connection's whole lifetime.
    let ConnTask { mut stream, open: _open, accepted, seq } = task;
    let m = app.metrics();
    let mut out = ResponseWriter::new(m);
    if let Some(fault) = params.conn_faults.decide(SITE_CONN, seq) {
        match fault {
            ConnFault::AbruptClose => {
                // The peer's view: connection accepted, then dropped with
                // no bytes — the client must survive an unexpected EOF.
                m.conn_fault_abrupt_close.inc();
                return;
            }
            ConnFault::Stall => {
                m.conn_fault_stall.inc();
                let ms = params.conn_faults.stall_ms(SITE_CONN, seq);
                std::thread::sleep(Duration::from_millis(ms));
            }
            ConnFault::PartialWrite => {
                m.conn_fault_partial_write.inc();
                out.truncate_next = true;
            }
        }
    }
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // When request bytes last arrived (or the worker took the connection).
    let mut last_bytes = Instant::now();
    let mut first_request = true;
    // When the bytes of the currently-incomplete request started arriving;
    // `None` while the connection is idle between requests.
    let mut head_started: Option<Instant> = None;
    loop {
        // Parse-first so pipelined requests drain without extra reads.
        match http::parse(&buf) {
            Ok(Parsed::Complete { request, consumed }) => {
                buf.drain(..consumed);
                // The budget clock starts when the request's bytes started
                // waiting: the accept instant for a connection's first
                // request (queue time counts), the head-arrival instant
                // after that.
                let started = if first_request {
                    accepted
                } else {
                    head_started.unwrap_or_else(Instant::now)
                };
                head_started = if buf.is_empty() { None } else { Some(Instant::now()) };
                let budget = match parse_header_budget(
                    request.header("x-deadline-ms"),
                    MAX_DEADLINE,
                ) {
                    HeaderBudget::Default => params.default_deadline,
                    HeaderBudget::Requested(d) => d,
                    HeaderBudget::Invalid => {
                        first_request = false;
                        let resp = Response::json(
                            400,
                            "{\"error\":\"invalid x-deadline-ms header\"}".to_string(),
                        );
                        if out.send(&mut stream, &resp).is_err() {
                            return;
                        }
                        continue;
                    }
                };
                let deadline = Deadline::after(started, budget);
                let mut response = if deadline.expired() {
                    m.deadline_shed.inc();
                    if first_request {
                        // Expired before a worker ever saw the connection:
                        // the time went to the admission queue.
                        m.deadline_shed_queue.inc();
                    }
                    deadline_shed_response()
                } else {
                    match catch_unwind(AssertUnwindSafe(|| app.handle(&request))) {
                        Ok(response) => response,
                        Err(payload) => {
                            m.panics_caught.inc();
                            app.degraded_response(panic_message(payload))
                        }
                    }
                };
                first_request = false;
                let draining = stop.load(Ordering::SeqCst);
                if request.wants_close() || draining {
                    response.close = true;
                }
                if out.send(&mut stream, &response).is_err() || response.close {
                    return;
                }
                continue;
            }
            Ok(Parsed::Partial) => {}
            Err(e) => {
                let resp = Response::from_error(&e);
                let _ = out.send(&mut stream, &resp);
                return;
            }
        }
        // Slow-loris guard: per-byte progress resets the idle clock below,
        // but the *total* time spent trickling one request head/body is
        // bounded — a peer can hold a worker for at most this budget.
        if head_started.is_some_and(|t| t.elapsed() >= params.header_read_budget) {
            m.header_timeouts.inc();
            let resp = Response::json(
                408,
                "{\"error\":\"request header read budget exceeded\"}".to_string(),
            )
            .with_retry_after(RETRY_AFTER_SECS);
            let mut closing = resp;
            closing.close = true;
            let _ = out.send(&mut stream, &closing);
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                last_bytes = Instant::now();
                if buf.is_empty() {
                    head_started = Some(last_bytes);
                }
                buf.extend_from_slice(&chunk[..n]); // lint:allow(no_panic, read() returns n <= chunk.len())
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // In-flight requests (partial bytes buffered) get drained
                // even during shutdown; idle connections close.
                if stop.load(Ordering::SeqCst) && buf.is_empty() {
                    return;
                }
                if last_bytes.elapsed() >= params.idle_timeout {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// A connection's response writer: one wire buffer reused for every
/// response on the connection, plus a pending chaos partial write.
struct ResponseWriter<'m> {
    wire: String,
    truncate_next: bool,
    metrics: &'m ServerMetrics,
}

impl<'m> ResponseWriter<'m> {
    fn new(metrics: &'m ServerMetrics) -> ResponseWriter<'m> {
        ResponseWriter { wire: String::new(), truncate_next: false, metrics }
    }

    /// Renders `response` into the reused buffer and sends it with one
    /// `write_all`. The socket has `TCP_NODELAY` set, so writing the head
    /// piece by piece would cost a `write(2)` and a segment per piece. A
    /// pending chaos partial write sends only the first half of the same
    /// bytes, then reports failure so the connection closes. Every failed
    /// write moves the `srv.write_failed` counter — a peer that vanished
    /// mid-response is routine under overload, never a panic.
    fn send(&mut self, stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
        response.render_into(&mut self.wire);
        let wire = self.wire.as_bytes();
        let result = if std::mem::take(&mut self.truncate_next) {
            let _ = stream.write_all(&wire[..wire.len() / 2]); // lint:allow(no_panic, len / 2 <= len)
            Err(std::io::Error::new(ErrorKind::WriteZero, "chaos partial write"))
        } else {
            stream.write_all(wire)
        };
        if result.is_err() {
            self.metrics.write_failed.inc();
        }
        result
    }
}

/// Renders a caught panic payload (string payloads pass through, anything
/// else gets a fixed tag — the bytes stay deterministic for seeded chaos).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A minimal blocking HTTP/1.1 client for tests, the smoke transcript, and
/// the load generator — keep-alive capable, `Content-Length` bodies only
/// (which is all the server emits).
pub mod client {
    use super::*;

    /// One client connection.
    pub struct Conn {
        stream: TcpStream,
        buf: Vec<u8>,
    }

    /// A parsed response: status, body, and backoff hints.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ClientResponse {
        /// HTTP status code.
        pub status: u16,
        /// Response body bytes as UTF-8.
        pub body: String,
        /// Whether the server asked to close the connection.
        pub close: bool,
        /// Parsed `Retry-After` seconds, if the server sent one.
        pub retry_after: Option<u16>,
    }

    impl Conn {
        /// Connects to `addr`.
        pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(Conn { stream, buf: Vec::new() })
        }

        /// Sends one request and reads the full response.
        pub fn request(
            &mut self,
            method: &str,
            target: &str,
            body: &str,
        ) -> std::io::Result<ClientResponse> {
            self.request_with_headers(method, target, body, &[])
        }

        /// Sends one request with extra headers and reads the full response.
        pub fn request_with_headers(
            &mut self,
            method: &str,
            target: &str,
            body: &str,
            extra_headers: &[(&str, &str)],
        ) -> std::io::Result<ClientResponse> {
            let mut head = format!("{method} {target} HTTP/1.1\r\nHost: dimserve\r\n");
            for (name, value) in extra_headers {
                head.push_str(&format!("{name}: {value}\r\n"));
            }
            head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
            self.stream.write_all(head.as_bytes())?;
            self.stream.write_all(body.as_bytes())?;
            self.read_response()
        }

        /// The raw stream — the hook tests use to write partial requests,
        /// trickle bytes, or half-close.
        pub fn stream(&mut self) -> &mut TcpStream {
            &mut self.stream
        }

        /// Reads one full response; pairs with raw writes via
        /// [`Conn::stream`].
        pub fn read_one(&mut self) -> std::io::Result<ClientResponse> {
            self.read_response()
        }

        fn read_response(&mut self) -> std::io::Result<ClientResponse> {
            let mut chunk = [0u8; 4096];
            loop {
                if let Some(resp) = parse_response(&mut self.buf)? {
                    return Ok(resp);
                }
                let n = self.stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "connection closed mid-response",
                    ));
                }
                self.buf.extend_from_slice(&chunk[..n]); // lint:allow(no_panic, read() returns n <= chunk.len())
            }
        }
    }

    /// One-shot request on a fresh connection.
    pub fn request(
        addr: SocketAddr,
        method: &str,
        target: &str,
        body: &str,
    ) -> std::io::Result<ClientResponse> {
        Conn::connect(addr)?.request(method, target, body)
    }

    /// Parses a buffered response if complete, consuming its bytes.
    fn parse_response(buf: &mut Vec<u8>) -> std::io::Result<Option<ClientResponse>> {
        let Some(head_end) = find_head_end(buf) else {
            return Ok(None);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).into_owned(); // lint:allow(no_panic, head_end is a windows(4) position, so head_end + 4 <= buf.len())
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_response("missing status code"))?;
        let mut content_length = 0usize;
        let mut close = false;
        let mut retry_after = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else { continue };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                content_length =
                    value.parse().map_err(|_| bad_response("bad content-length"))?;
            } else if name == "connection" {
                close = value.eq_ignore_ascii_case("close");
            } else if name == "retry-after" {
                retry_after = value.parse().ok();
            }
        }
        let total = head_end + 4 + content_length;
        if buf.len() < total {
            return Ok(None);
        }
        let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned(); // lint:allow(no_panic, the length check above guarantees buf.len() >= total >= head_end + 4)
        buf.drain(..total);
        Ok(Some(ClientResponse { status, body, close, retry_after }))
    }

    fn find_head_end(buf: &[u8]) -> Option<usize> {
        buf.windows(4).position(|w| w == b"\r\n\r\n")
    }

    fn bad_response(why: &str) -> std::io::Error {
        std::io::Error::new(ErrorKind::InvalidData, why)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_server(workers: usize, queue: usize) -> ServerHandle {
        start(ServerConfig {
            workers,
            queue_capacity: queue,
            ..ServerConfig::default()
        })
        .expect("bind ephemeral")
    }

    #[test]
    fn end_to_end_roundtrip_over_tcp() {
        let server = tiny_server(2, 8);
        let addr = server.addr();
        let ok = client::request(addr, "GET", "/healthz", "").expect("healthz");
        assert_eq!((ok.status, ok.body.as_str()), (200, "{\"status\":\"ok\"}"));
        let link = client::request(addr, "POST", "/link", "{\"mention\":\"km\"}").expect("link");
        assert_eq!(link.status, 200);
        assert!(link.body.contains("KiloM"), "{}", link.body);
        let report = server.shutdown();
        assert!(report.requests >= 1);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.open_connections, 0, "no leaked connection");
    }

    #[test]
    fn keep_alive_serves_many_requests_per_connection() {
        let server = tiny_server(1, 8);
        let mut conn = client::Conn::connect(server.addr()).expect("connect");
        for i in 0..5 {
            let body = format!("{{\"equation\":\"x=2*{i}\"}}");
            let resp = conn.request("POST", "/solve", &body).expect("solve");
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, format!("{{\"answer\":{}}}", 2 * i));
        }
        server.shutdown();
    }

    #[test]
    fn malformed_request_line_gets_400_and_close() {
        let server = tiny_server(1, 4);
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(b"NONSENSE\r\n\r\n").expect("write");
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        server.shutdown();
    }

    #[test]
    fn shutdown_reports_and_refuses_late_clients() {
        let server = tiny_server(1, 4);
        let addr = server.addr();
        client::request(addr, "GET", "/healthz", "").expect("warm");
        let report = server.shutdown();
        assert!(report.requests >= 1);
        assert!(report.obs_json.contains("\"counters\""));
        // The listener is gone (or refuses) after shutdown.
        assert!(client::request(addr, "GET", "/healthz", "").is_err());
    }

    #[test]
    fn expired_header_deadline_is_shed_keep_alive_with_retry_after() {
        let server = tiny_server(1, 8);
        let mut conn = client::Conn::connect(server.addr()).expect("connect");
        // Warm the connection so the next request's budget clock starts at
        // head arrival (not at accept, where queue time also counts).
        let warm = conn.request("GET", "/healthz", "").expect("warm");
        assert_eq!(warm.status, 200);
        // A 1ms budget consumed by a deliberate pause between the head
        // hitting the server and... no — the server computes the deadline
        // from head arrival, so force expiry with the smallest budget and a
        // stalled body: send the head, wait out the budget, then the body.
        let head = "POST /solve HTTP/1.1\r\nHost: x\r\nX-Deadline-Ms: 1\r\nContent-Length: 24\r\n\r\n";
        conn.stream().write_all(head.as_bytes()).expect("head");
        std::thread::sleep(Duration::from_millis(30));
        conn.stream().write_all(b"{\"equation\":\"x=21*2\"}   ").expect("body");
        let resp = conn.read_one().expect("shed response");
        assert_eq!(resp.status, 503);
        assert_eq!(resp.body, DEADLINE_SHED_BODY);
        assert_eq!(resp.retry_after, Some(1));
        assert!(!resp.close, "deadline sheds keep the connection alive");
        // The same connection immediately serves the retry.
        let retry = conn.request("POST", "/solve", "{\"equation\":\"x=21*2\"}").expect("retry");
        assert_eq!((retry.status, retry.body.as_str()), (200, "{\"answer\":42}"));
        let report = server.shutdown();
        assert_eq!(report.deadline_shed, 1);
    }

    #[test]
    fn idle_keep_alive_connection_closes_after_idle_timeout() {
        let server = start(ServerConfig {
            workers: 1,
            idle_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        })
        .expect("bind ephemeral");
        let mut conn = client::Conn::connect(server.addr()).expect("connect");
        assert_eq!(conn.request("GET", "/healthz", "").expect("healthz").status, 200);
        let idle_from = Instant::now();
        let mut rest = Vec::new();
        conn.stream().read_to_end(&mut rest).expect("server closes the idle connection");
        assert!(rest.is_empty(), "no bytes after the response");
        // Idle time counts from the request's bytes, a little before the
        // response arrived here.
        assert!(idle_from.elapsed() >= Duration::from_millis(50), "closed too early");
        let report = server.shutdown();
        assert_eq!(report.open_connections, 0);
    }

    #[test]
    fn invalid_deadline_header_is_400_without_closing() {
        let server = tiny_server(1, 8);
        let mut conn = client::Conn::connect(server.addr()).expect("connect");
        let bad = conn
            .request_with_headers("GET", "/healthz", "", &[("X-Deadline-Ms", "soon")])
            .expect("response");
        assert_eq!(bad.status, 400);
        assert!(bad.body.contains("invalid x-deadline-ms"), "{}", bad.body);
        let ok = conn.request("GET", "/healthz", "").expect("still serving");
        assert_eq!(ok.status, 200);
        server.shutdown();
    }
}
