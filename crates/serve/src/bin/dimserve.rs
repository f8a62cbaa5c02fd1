//! `dimserve` — the DimKS HTTP server.
//!
//! ```text
//! cargo run --release --bin dimserve -- [--port N] [--workers N]
//!     [--queue N] [--deadline-ms N] [--header-budget-ms N]
//!     [--chaos-seed S] [--chaos-rate R] [--conn-chaos-rate R]
//!     [--obs-out PATH]
//! ```
//!
//! Serves `POST /link|/annotate|/convert|/solve|/verify` and
//! `GET /healthz|/metrics` until stdin reaches EOF (`Ctrl-D`, or the parent
//! closing the pipe — `std` has no portable signal handling), then drains
//! gracefully and writes the final obs report. An argument that is not one
//! of these flags, a flag given without a value, or one with a value that
//! does not parse prints the usage and exits with status 2. `--queue` plus
//! `--workers` caps the open connections.
//!
//! The server counts its own `srv.*` metrics whatever the process does;
//! this binary also turns the process-wide `dim-obs` registry on, so
//! `/metrics` and the `--obs-out` report carry the engine's metrics
//! (`link.*`, …) next to the server's.

use dim_serve::{AppConfig, ServerConfig};
use std::io::Read;
use std::str::FromStr;
use std::time::Duration;

const USAGE: &str = "usage: dimserve [--port N] [--workers N] [--queue N] [--deadline-ms N] \
                     [--header-budget-ms N] [--chaos-seed S] [--chaos-rate R] \
                     [--conn-chaos-rate R] [--obs-out PATH]";

/// The value that follows `name` in `args`, parsed, or `default` when
/// there is none. A value that does not parse as `T` is an error: falling
/// back to the default would run a server the operator did not ask for
/// (`--port 80800` binding 8080). [`parse_args`] rejects a flag with no
/// value.
fn parse_flag<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == name).and_then(|at| args.get(at + 1)) {
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse `{v}`")),
        None => Ok(default),
    }
}

/// The server configuration and obs report path that `args` ask for.
fn parse_args(args: &[String]) -> Result<(ServerConfig, String), String> {
    let chaos_seed: u64 = parse_flag(args, "--chaos-seed", 7)?;
    let config = ServerConfig {
        addr: format!("127.0.0.1:{}", parse_flag::<u16>(args, "--port", 8080)?),
        workers: parse_flag(args, "--workers", 2)?,
        queue_capacity: parse_flag(args, "--queue", 64)?,
        default_deadline: Duration::from_millis(parse_flag(args, "--deadline-ms", 5000)?),
        header_read_budget: Duration::from_millis(parse_flag(args, "--header-budget-ms", 2000)?),
        idle_timeout: Duration::from_secs(60),
        conn_faults: dim_chaos::ConnPlan::new(
            chaos_seed,
            parse_flag(args, "--conn-chaos-rate", 0.0)?,
        ),
        app: AppConfig {
            faults: dim_chaos::FaultPlan::new(chaos_seed, parse_flag(args, "--chaos-rate", 0.0)?),
            ..AppConfig::default()
        },
    };
    let obs_out = parse_flag(args, "--obs-out", "obs_report.json".to_string())?;
    // Every argument must be a flag the usage names, then its value: a
    // misspelt flag would otherwise run the default server (`--prot 9000`
    // on 8080).
    let mut rest = args.iter().skip(1);
    while let Some(flag) = rest.next() {
        if !flag.starts_with("--") || !USAGE.split(['[', ' ']).any(|w| w == flag) {
            return Err(format!("{flag}: unknown flag"));
        }
        if rest.next().is_none() {
            return Err(format!("{flag} needs a value"));
        }
    }
    Ok((config, obs_out))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (config, obs_out) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("dimserve: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    dim_obs::enable();
    if config.app.faults.rate > 0.0 {
        eprintln!("chaos: seed={} rate={}", config.app.faults.seed, config.app.faults.rate);
    }
    if config.conn_faults.rate > 0.0 {
        eprintln!("conn-chaos: seed={} rate={}", config.conn_faults.seed, config.conn_faults.rate);
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        std::iter::once("dimserve").chain(list.iter().copied()).map(String::from).collect()
    }

    #[test]
    fn absent_flags_take_their_defaults() {
        let (config, obs_out) = parse_args(&args(&[])).unwrap();
        assert_eq!(config.addr, "127.0.0.1:8080");
        assert_eq!((config.workers, config.queue_capacity), (2, 64));
        assert_eq!(config.default_deadline, Duration::from_millis(5000));
        assert!(!config.app.faults.is_active() && !config.conn_faults.is_active());
        assert_eq!(obs_out, "obs_report.json");
    }

    #[test]
    fn well_formed_values_are_used() {
        let (config, obs_out) = parse_args(&args(&[
            "--port", "9001", "--workers", "3", "--deadline-ms", "250",
            "--chaos-seed", "5", "--chaos-rate", "0.25", "--obs-out", "o.json",
        ]))
        .unwrap();
        assert_eq!(config.addr, "127.0.0.1:9001");
        assert_eq!(config.workers, 3);
        assert_eq!(config.default_deadline, Duration::from_millis(250));
        assert_eq!((config.app.faults.seed, config.app.faults.rate), (5, 0.25));
        assert_eq!(config.conn_faults.seed, 5);
        assert_eq!(obs_out, "o.json");
    }

    #[test]
    fn malformed_or_missing_values_are_errors() {
        for bad in [
            &["--port", "80800"][..],
            &["--workers", "two"],
            &["--deadline-ms", "-1"],
            &["--chaos-rate", "often"],
            &["--queue"],
            &["--port", "--workers", "2"],
            &["--prot", "9000"],
            &["--max-conns", "6"],
            &["--max-deadline-ms", "30000"],
        ] {
            let err = parse_args(&args(bad)).err();
            assert!(err.as_deref().is_some_and(|e| e.starts_with(bad[0])), "{bad:?}: {err:?}");
        }
    }
}
