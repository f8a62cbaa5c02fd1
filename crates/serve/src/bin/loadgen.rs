//! `loadgen` — deterministic closed-loop load generator for `dim-serve`.
//!
//! ```text
//! cargo run --release --bin loadgen -- [--clients N] [--requests N]
//!     [--seed S] [--workers N] [--queue N] [--max-conns N]
//!     [--deadline-ms N] [--cache-per-shard N] [--warmup N]
//!     [--retry-after-cap-ms N] [--out PATH] [--soak]
//! ```
//!
//! Starts an in-process server on an ephemeral port and drives it with the
//! seeded retrying clients from `dim_serve::load` (capped exponential
//! backoff, seeded jitter, `Retry-After` honored). `--soak` switches to the
//! overload profile: more clients than the admission layer will admit at
//! once, a tight default deadline, and ≥100k logical requests — the
//! configuration committed as `BENCH_serve.json`.
//!
//! The report separates the **deterministic** block (final outcomes +
//! response checksum + cache counts — byte-identical run-to-run), the
//! **load** block (attempts/retries/sheds — real but timing-dependent),
//! and the **timing** block (latency percentiles over steady-state
//! keep-alive samples, warmup and first-on-connection excluded).

use dim_serve::load::{LoadConfig, LoadReport};
use dim_serve::{cache, AppConfig, ServerConfig};
use std::fmt::Write as _;
use std::time::Duration;

fn flag(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn parse_flag<T: std::str::FromStr>(name: &str, default: T) -> T {
    flag(name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    let soak = has_flag("--soak");
    // The soak profile: more clients than the gate admits, more admitted
    // connections than workers, a deadline tight enough that queued
    // connections shed, and ≥100k requests. Sized for a small machine —
    // on one core, piling on threads measures the kernel scheduler, not
    // the server (raise --clients/--workers on bigger hardware).
    let (d_clients, d_requests, d_workers, d_queue, d_conns, d_deadline) =
        if soak { (3, 33_600, 1, 2, 2, 200) } else { (4, 200, 2, 64, 256, 5000) };
    let clients: usize = parse_flag("--clients", d_clients);
    let requests: usize = parse_flag("--requests", d_requests);
    let seed: u64 = parse_flag("--seed", 7);
    let workers: usize = parse_flag("--workers", d_workers);
    let queue: usize = parse_flag("--queue", d_queue);
    let max_conns: usize = parse_flag("--max-conns", d_conns);
    let deadline_ms: u64 = parse_flag("--deadline-ms", d_deadline);
    let cache_per_shard: usize = parse_flag("--cache-per-shard", 1024);
    let warmup: usize = parse_flag("--warmup", 16);
    let retry_after_cap_ms: u64 = parse_flag("--retry-after-cap-ms", 25);
    let out = flag("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());

    let server = match dim_serve::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: queue,
        max_connections: max_conns,
        default_deadline: Duration::from_millis(deadline_ms),
        idle_timeout: Duration::from_secs(60),
        app: AppConfig { cache_per_shard, ..AppConfig::default() },
        ..ServerConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("loadgen: bind failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.addr();
    eprintln!(
        "loadgen: {clients} clients x {requests} requests against {addr} \
         (workers={workers} queue={queue} max-conns={max_conns} deadline={deadline_ms}ms)"
    );

    let cache_before = cache::counters();
    let config = LoadConfig {
        clients,
        requests_per_client: requests,
        seed,
        warmup,
        retry_after_cap_ms,
        ..LoadConfig::default()
    };
    let all: LoadReport = dim_serve::load::run(addr, &config);
    let cache_after = cache::counters();
    let cache_delta = (
        cache_after.0 - cache_before.0,
        cache_after.1 - cache_before.1,
        cache_after.2 - cache_before.2,
    );
    let report = server.shutdown();

    let samples = all.latencies_ns.len() as u64;
    let throughput = all.logical_requests as f64 / all.elapsed.as_secs_f64();

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"config\": {{\"clients\": {clients}, \"requests_per_client\": {requests}, \"seed\": {seed}, \"workers\": {workers}, \"queue\": {queue}, \"max_connections\": {max_conns}, \"deadline_ms\": {deadline_ms}, \"cache_per_shard\": {cache_per_shard}, \"warmup\": {warmup}, \"soak\": {soak}}},"
    );
    let _ = writeln!(json, "  \"deterministic\": {},", all.deterministic_json(cache_delta));
    let _ = writeln!(json, "  \"load\": {{");
    let _ = writeln!(
        json,
        "    \"attempts\": {}, \"retries\": {}, \"sheds\": {}, \"transport_errors\": {}, \"gave_up\": {},",
        all.attempts, all.retries, all.sheds, all.transport_errors, all.gave_up
    );
    let _ = writeln!(
        json,
        "    \"server\": {{\"rejected\": {}, \"deadline_shed\": {}, \"conn_faults\": {}, \"degraded\": {}, \"open_connections_after_drain\": {}}}",
        report.rejected,
        report.deadline_shed,
        report.conn_faults,
        report.degraded,
        report.open_connections
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"timing\": {{");
    let _ = writeln!(json, "    \"elapsed_ms\": {},", all.elapsed.as_millis());
    let _ = writeln!(json, "    \"throughput_rps\": {throughput:.1},");
    let _ = writeln!(
        json,
        "    \"samples\": {samples}, \"excluded\": {{\"warmup\": {}, \"first_on_connection\": {}}},",
        all.excluded_warmup, all.excluded_first_conn
    );
    let _ = writeln!(
        json,
        "    \"latency_ns\": {{\"p50\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}}}",
        all.percentile(0.50),
        all.percentile(0.99),
        all.percentile(0.999),
        all.latencies_ns.last().copied().unwrap_or(0)
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("loadgen: writing {out} failed: {e}");
        std::process::exit(1);
    }
    // stderr gets the human summary; the JSON file is the artifact.
    eprintln!(
        "loadgen: {} logical requests ({} attempts, {} sheds, {} retries, {} gave up) in {:.2}s ({throughput:.0} req/s), p999 {}ns over {samples} samples, checksum {:#018x} -> {out}",
        all.logical_requests,
        all.attempts,
        all.sheds,
        all.retries,
        all.gave_up,
        all.elapsed.as_secs_f64(),
        all.percentile(0.999),
        all.response_checksum
    );
    if all.gave_up > 0 {
        eprintln!("loadgen: WARNING: {} requests gave up — deterministic block is broken", all.gave_up);
        std::process::exit(2);
    }
}
