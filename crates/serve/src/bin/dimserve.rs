//! `dimserve` — the DimKS HTTP server.
//!
//! ```text
//! cargo run --release --bin dimserve -- [--port N] [--workers N]
//!     [--queue N] [--max-conns N] [--deadline-ms N]
//!     [--max-deadline-ms N] [--header-budget-ms N]
//!     [--chaos-seed S] [--chaos-rate R] [--conn-chaos-rate R]
//!     [--obs-out PATH]
//! ```
//!
//! Serves `POST /link|/annotate|/convert|/solve|/verify` and
//! `GET /healthz|/metrics` until stdin reaches EOF (`Ctrl-D`, or the parent
//! closing the pipe — `std` has no portable signal handling), then drains
//! gracefully and writes the final obs report.
//!
//! The server counts its own `srv.*` metrics whatever the process does;
//! this binary also turns the process-wide `dim-obs` registry on, so
//! `/metrics` and the `--obs-out` report carry the engine's metrics
//! (`link.*`, …) next to the server's.

use dim_serve::{AppConfig, ServerConfig};
use std::io::Read;
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

fn parse_flag<T: std::str::FromStr>(name: &str, default: T) -> T {
    flag(name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    dim_obs::enable();
    let port: u16 = parse_flag("--port", 8080);
    let workers: usize = parse_flag("--workers", 2);
    let queue: usize = parse_flag("--queue", 64);
    let max_conns: usize = parse_flag("--max-conns", 256);
    let deadline_ms: u64 = parse_flag("--deadline-ms", 5000);
    let max_deadline_ms: u64 = parse_flag("--max-deadline-ms", 30_000);
    let header_budget_ms: u64 = parse_flag("--header-budget-ms", 2000);
    let chaos_seed: u64 = parse_flag("--chaos-seed", 7);
    let chaos_rate: f64 = parse_flag("--chaos-rate", 0.0);
    let conn_chaos_rate: f64 = parse_flag("--conn-chaos-rate", 0.0);
    let obs_out = flag("--obs-out").unwrap_or_else(|| "obs_report.json".to_string());

    if chaos_rate > 0.0 {
        eprintln!("chaos: seed={chaos_seed} rate={chaos_rate}");
    }
    if conn_chaos_rate > 0.0 {
        eprintln!("conn-chaos: seed={chaos_seed} rate={conn_chaos_rate}");
    }

    let config = ServerConfig {
        addr: format!("127.0.0.1:{port}"),
        workers,
        queue_capacity: queue,
        max_connections: max_conns,
        default_deadline: Duration::from_millis(deadline_ms),
        max_deadline: Duration::from_millis(max_deadline_ms),
        header_read_budget: Duration::from_millis(header_budget_ms),
        idle_timeout: Duration::from_secs(60),
        conn_faults: dim_chaos::ConnPlan::new(chaos_seed, conn_chaos_rate),
        app: AppConfig {
            faults: dim_chaos::FaultPlan::new(chaos_seed, chaos_rate),
            ..AppConfig::default()
        },
    };
    let server = match dim_serve::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dimserve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("dimserve listening on {}", server.addr());
    println!("(EOF on stdin triggers graceful drain)");

    // Block until the controlling terminal/pipe hangs up.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);

    let report = server.shutdown();
    if let Err(e) = std::fs::write(&obs_out, &report.obs_json) {
        eprintln!("dimserve: writing {obs_out} failed: {e}");
    }
    println!(
        "drained: requests={} connections={} rejected={} deadline_shed={} degraded={} open={} (obs -> {obs_out})",
        report.requests,
        report.connections,
        report.rejected,
        report.deadline_shed,
        report.degraded,
        report.open_connections
    );
}
