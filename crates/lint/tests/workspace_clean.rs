//! The self-test that gives `make lint` its teeth: the workspace itself
//! must be clean under every rule — including the deep (call-graph) rules,
//! which run here exactly as `dimlint --deep` runs them in `make verify`.
//! A violation introduced anywhere in the scanned tree fails this test
//! with a file:line diagnostic.

use dim_lint::{run, LintOptions, Severity};

#[test]
fn the_workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut opts = LintOptions::new(root);
    opts.deep = true;
    let report = run(&opts).expect("lint run");
    assert!(
        report.files_scanned > 100,
        "scan set collapsed to {} files — walk is broken",
        report.files_scanned
    );
    assert!(
        !report.has_errors(),
        "workspace has lint violations:\n{}",
        report.render_human()
    );
    let warns: Vec<_> =
        report.diagnostics.iter().filter(|d| d.severity == Severity::Warn).collect();
    assert!(
        warns.is_empty(),
        "workspace has unjustified lint warnings (add lint:allow with a reason):\n{}",
        report.render_human()
    );
}
