//! The serve smoke transcript: a fixed request script against an in-process
//! server on an ephemeral port, rendered to a byte-stable transcript that
//! `make serve-smoke` compares against `results/quick/serve.txt`.
//!
//! Determinism contract: every line is a pure function of the request
//! script and the engine — no ports, timestamps, latencies, or metric
//! values (the `/metrics` probe records only its status). The same
//! transcript must come out at any worker count and dim-par width.

use crate::server::{client, start, ServerConfig};
use std::fmt::Write as _;

/// The fixed request script (method, target, body).
pub const SCRIPT: &[(&str, &str, &str)] = &[
    ("GET", "/healthz", ""),
    (
        "POST",
        "/annotate",
        "{\"text\":\"LeBron James's height is 2.06 meters and Stephen Curry's height is 188 cm.\"}",
    ),
    ("POST", "/link", "{\"mention\":\"km\",\"context\":\"the road is long\"}"),
    ("POST", "/link", "{\"mention\":\"米\",\"context\":\"身高\"}"),
    ("POST", "/convert", "{\"value\":2.5,\"from\":\"km\",\"to\":\"m\"}"),
    ("POST", "/convert", "{\"value\":1,\"from\":\"m\",\"to\":\"s\"}"),
    ("POST", "/solve", "{\"equation\":\"x=150*20%/5%-150\"}"),
    ("POST", "/solve", "{\"equation\":\"x=((3+5)*2-6)/2\"}"),
    (
        "POST",
        "/verify",
        "{\"equation\":\"x=100+50\",\"quantities\":[{\"value\":100,\"unit\":\"米\"},{\"value\":50,\"unit\":\"米\"}],\"answer_unit\":\"米\"}",
    ),
    (
        "POST",
        "/verify",
        "{\"equation\":\"x=100+50\",\"quantities\":[{\"value\":100,\"unit\":\"米\"},{\"value\":50,\"unit\":\"千克\"}]}",
    ),
    (
        "POST",
        "/verify",
        "{\"equation\":\"x=3*2\",\"quantities\":[{\"value\":3,\"unit\":\"zorblax\"},{\"value\":2}]}",
    ),
    ("POST", "/link", "{\"mention\":\"km\",\"context\":\"the road is long\"}"),
    ("POST", "/nowhere", "{}"),
    ("POST", "/link", "{not json"),
    ("GET", "/metrics", ""),
];

/// Runs [`SCRIPT`] against a fresh in-process server and renders the
/// transcript. `workers` exercises the pool without changing a byte.
pub fn transcript(workers: usize) -> std::io::Result<String> {
    let server = start(ServerConfig { workers, ..ServerConfig::default() })?;
    let addr = server.addr();
    let mut out = String::new();
    let _ = writeln!(out, "# dim-serve smoke transcript");
    let mut conn = client::Conn::connect(addr)?;
    for (method, target, body) in SCRIPT {
        let resp = conn.request(method, target, body)?;
        let _ = writeln!(out, "### {method} {target}");
        if !body.is_empty() {
            let _ = writeln!(out, "> {body}");
        }
        if *target == "/metrics" {
            // The body carries latencies and the process-wide cache
            // counts; only the status is stable.
            let _ = writeln!(out, "< {}", resp.status);
        } else {
            let _ = writeln!(out, "< {} {}", resp.status, resp.body);
        }
        if resp.close {
            conn = client::Conn::connect(addr)?;
        }
    }
    // Cache contents are part of the contract: one entry per distinct
    // successful POST body; the repeated /link was served from the LRU.
    let cache_entries = server.app().cache().len();
    let report = server.shutdown();
    let _ = writeln!(out, "### drain");
    let _ = writeln!(
        out,
        "requests={} rejected={} degraded={} cache_entries={cache_entries}",
        report.requests, report.rejected, report.degraded
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcript_is_identical_across_worker_counts() {
        let one = transcript(1).expect("workers=1");
        let four = transcript(4).expect("workers=4");
        assert_eq!(one, four, "worker count changed transcript bytes");
        assert!(one.contains("### drain"));
    }
}
