//! verify-gate: the dimensional-verification regression gate
//! (`make verify-gate`).
//!
//! Pins two acceptance invariants of `dim-verify` + `dimeval::perturb`
//! on the numbers (see EXPERIMENTS.md "Perturbation methodology"):
//!
//! 1. **Repair never hurts** — `after >= before` on every evaluation set
//!    (gold equations always verify, so rejection can only promote).
//! 2. **Detection** — every mutation class applies to at least one
//!    problem and is detected at a nonzero rate on every Q-set.
//!
//! The rendered tables are byte-pinned at thread widths 1 and 4 by
//! `tests/golden_results.rs`; refresh those goldens after an intentional
//! change with `UPDATE_GOLDEN=1 cargo test --test golden_results`.

use dim_core::experiments::{build_mwp_eval, quick_config};
use dim_verify::{repair_row, DEFAULT_NOISE};
use dimeval::detection_rates;

fn main() {
    let mut failed = false;

    // Both gates re-run the underlying experiments through the data API,
    // so the assertions hold on the numbers, not the rendering.
    let cfg = quick_config();
    let par = cfg.pipeline.parallelism;
    let kb = dimkb::DimUnitKb::shared();
    let sets = build_mwp_eval(&cfg);

    let mut repair_ok = true;
    for (name, problems) in sets.iter() {
        let row = repair_row(name, problems, &kb, cfg.seed, DEFAULT_NOISE, par);
        if row.after < row.before {
            eprintln!("verify-gate: {name}: after {} < before {}", row.after, row.before);
            repair_ok = false;
        }
    }
    println!(
        "verify-gate: repair never hurts      {}",
        if repair_ok { "PASS" } else { "FAIL" }
    );
    failed |= !repair_ok;

    let mut detect_ok = true;
    for (name, problems) in sets.iter() {
        if !name.starts_with("Q-") {
            continue;
        }
        for row in detection_rates(problems, &kb, cfg.seed, par) {
            if row.n == 0 || row.detected == 0 {
                eprintln!(
                    "verify-gate: {name}/{}: n={} detected={}",
                    row.class.name(),
                    row.n,
                    row.detected
                );
                detect_ok = false;
            }
        }
    }
    println!(
        "verify-gate: nonzero detection       {}",
        if detect_ok { "PASS" } else { "FAIL" }
    );
    failed |= !detect_ok;

    if failed {
        println!("verify-gate: FAILED");
        std::process::exit(1);
    }
    println!("verify-gate: all gates passed");
}
