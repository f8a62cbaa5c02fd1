//! `dimlint` — the workspace invariant linter (see DESIGN.md §11, §16).
//!
//! ```text
//! dimlint [--root DIR] [--deep] [--rule NAME[,NAME...]]... [--json FILE]
//!         [--list-rules]
//! ```
//!
//! Human diagnostics (`file:line: [rule] message`) go to stdout; `--json`
//! additionally writes the machine-readable v2 report. `--deep` adds the
//! workspace-level analyses (panic-reachability, lock-order); naming a
//! deep rule with `--rule` also enables it.
//! Exit codes: 0 clean (warnings allowed), 1 error-severity
//! violations found, 2 usage or I/O error.

use dim_lint::{run, LintOptions, RuleId};
use std::process::ExitCode;

const USAGE: &str = "usage: dimlint [--root DIR] [--deep] [--rule NAME[,NAME...]]... \
                     [--json FILE] [--list-rules]";

fn main() -> ExitCode {
    let mut opts = LintOptions::new(".");
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => opts.root = v.into(),
                None => return usage("--root needs a directory"),
            },
            "--deep" => opts.deep = true,
            "--rule" => match args.next().as_deref().map(RuleId::parse_list) {
                Some(Some(rs)) => opts.rules.extend(rs),
                Some(None) => return usage("unknown rule (try --list-rules)"),
                None => return usage("--rule needs a rule name or comma-separated list"),
            },
            "--json" => match args.next() {
                Some(v) => json_path = Some(v),
                None => return usage("--json needs an output file"),
            },
            "--list-rules" => {
                for r in RuleId::ALL {
                    println!(
                        "{:<18} {} suppression: {}",
                        r.name(),
                        if r.is_deep() { "(deep)" } else { "      " },
                        r.allow_key()
                            .map(|k| format!("lint:allow({k}, reason)"))
                            .unwrap_or_else(|| "none (never justifiable)".to_string())
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dimlint: error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.render_json()) {
            eprintln!("dimlint: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    print!("{}", report.render_human());
    if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("dimlint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
