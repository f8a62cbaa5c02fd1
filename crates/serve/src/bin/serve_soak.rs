//! `serve_soak` — the deterministic overload/chaos soak gate behind
//! `make serve-soak` (wired into `make verify`).
//!
//! Four runs against fresh in-process servers, each overload-inducing
//! (clients > admission limit, tight deadlines) so the shed paths actually
//! fire, asserting the overload-resilience contract:
//!
//! 1. **clean** — retries drive every logical request to a final `2xx`;
//!    zero give-ups; zero caught panics; zero leaked connection permits;
//!    and the deterministic block (final outcomes, response checksum,
//!    cache counts) equals [`PINNED`], so a change to any served byte
//!    fails the gate.
//! 2. **clean again** — the deterministic block is byte-identical to run 1.
//! 3. **conn-chaos rate 0** — a server configured with a zero-rate
//!    connection fault plan behaves as one with none: byte-identical to
//!    run 1.
//! 4. **conn-chaos rate 0.12** (stall + partial-write + abrupt-close) —
//!    faults fire, clients retry through them, and the server still ends
//!    with every logical request `2xx`, no panics, no leaks. (Cache counts
//!    are *not* compared here: a retried request that was already processed
//!    once hits the cache, so chaos legitimately shifts hit/miss tallies.)
//!
//! Exit status 0 only if every assertion holds; any violation prints the
//! offending run and exits 1.
//!
//! After an intended change to the served bytes or the cache policy, run
//! `make serve-soak`, check that the clean runs still agree with each
//! other, and copy the block it prints for `clean-1` into [`PINNED`].

use dim_chaos::ConnPlan;
use dim_serve::load::{run, LoadReport};
use dim_serve::{cache, AppConfig, ServerConfig};
use std::time::Duration;

/// The clean run's deterministic block: 3600 logical requests, all `2xx`,
/// the XOR of their body hashes, and the cache counts they produce.
const PINNED: &str = "{\"requests\": 3600, \"responses\": {\"2xx\": 3600, \"4xx\": 0, \"5xx\": 0}, \"response_checksum\": \"0x495c9608e87c655c\", \"cache\": {\"hits\": 3192, \"misses\": 333, \"evictions\": 0}}";

struct SoakOutcome {
    report: LoadReport,
    deterministic: String,
    panics_caught: u64,
    open_connections: usize,
}

fn one_run(label: &str, conn_faults: ConnPlan) -> SoakOutcome {
    let server = dim_serve::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 4,
        max_connections: 6,
        default_deadline: Duration::from_millis(100),
        idle_timeout: Duration::from_secs(60),
        conn_faults,
        app: AppConfig {
            cache_per_shard: 1024,
            ..AppConfig::default()
        },
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("serve_soak: bind failed: {e}");
        std::process::exit(1);
    });
    let addr = server.addr();
    let cache_before = cache::counters();
    let report = run(addr);
    let cache_after = cache::counters();
    let drain = server.shutdown();
    let cache_delta = (
        cache_after.0 - cache_before.0,
        cache_after.1 - cache_before.1,
        cache_after.2 - cache_before.2,
    );
    let deterministic = report.deterministic_json(cache_delta);
    eprintln!(
        "serve_soak[{label}]: {} logical, {} attempts, {} sheds, {} transport errors, \
         {} server sheds ({} deadline), {} conn faults, {} gave up",
        report.logical_requests,
        report.attempts,
        report.sheds,
        report.transport_errors,
        drain.rejected,
        drain.deadline_shed,
        drain.conn_faults,
        report.gave_up
    );
    SoakOutcome {
        report,
        deterministic,
        panics_caught: drain.panics_caught,
        open_connections: drain.open_connections,
    }
}

fn assert_healthy(label: &str, outcome: &SoakOutcome, failures: &mut u32) {
    let rep = &outcome.report;
    let total = rep.logical_requests;
    if rep.final_by_class != [total, 0, 0] {
        eprintln!(
            "serve_soak[{label}] FAIL: final outcomes {:?}, want [{total}, 0, 0]",
            rep.final_by_class
        );
        *failures += 1;
    }
    if rep.gave_up != 0 {
        eprintln!("serve_soak[{label}] FAIL: {} requests gave up", rep.gave_up);
        *failures += 1;
    }
    if outcome.panics_caught != 0 {
        eprintln!("serve_soak[{label}] FAIL: {} panics caught", outcome.panics_caught);
        *failures += 1;
    }
    if outcome.open_connections != 0 {
        eprintln!(
            "serve_soak[{label}] FAIL: {} leaked connection permits",
            outcome.open_connections
        );
        *failures += 1;
    }
}

fn main() {
    let mut failures = 0u32;

    let clean1 = one_run("clean-1", ConnPlan::OFF);
    assert_healthy("clean-1", &clean1, &mut failures);
    if clean1.deterministic != PINNED {
        eprintln!(
            "serve_soak FAIL: the clean deterministic block is not the pinned one\n--- pinned\n{PINNED}\n--- clean-1\n{}",
            clean1.deterministic
        );
        failures += 1;
    }

    let clean2 = one_run("clean-2", ConnPlan::OFF);
    assert_healthy("clean-2", &clean2, &mut failures);
    if clean1.deterministic != clean2.deterministic {
        eprintln!(
            "serve_soak FAIL: deterministic blocks differ across identical runs\n--- run 1\n{}\n--- run 2\n{}",
            clean1.deterministic, clean2.deterministic
        );
        failures += 1;
    }

    // Rate 0 must be byte-identical to no plan at all.
    let rate0 = one_run("conn-chaos-rate-0", ConnPlan::new(11, 0.0));
    assert_healthy("conn-chaos-rate-0", &rate0, &mut failures);
    if rate0.deterministic != clean1.deterministic {
        eprintln!(
            "serve_soak FAIL: conn-chaos rate 0 changed the deterministic block\n--- clean\n{}\n--- rate 0\n{}",
            clean1.deterministic, rate0.deterministic
        );
        failures += 1;
    }

    // Positive rate: faults fire, clients retry through them, nothing
    // panics or leaks, and every logical request still resolves 2xx.
    let chaos = one_run("conn-chaos-rate-0.12", ConnPlan::new(11, 0.12));
    assert_healthy("conn-chaos-rate-0.12", &chaos, &mut failures);
    if chaos.report.response_checksum != clean1.report.response_checksum {
        eprintln!(
            "serve_soak FAIL: chaos changed final response bytes ({:#018x} vs {:#018x})",
            chaos.report.response_checksum, clean1.report.response_checksum
        );
        failures += 1;
    }

    if failures > 0 {
        eprintln!("serve_soak: {failures} failure(s)");
        std::process::exit(1);
    }
    eprintln!("serve_soak: OK (deterministic block pinned and stable, chaos survived, zero panics/leaks)");
}
