//! `dim-lint`: the workspace lint engine enforcing the repository's
//! determinism, no-panic, concurrency, and zero-dep invariants. It depends
//! on one in-repo crate: `dim-json`'s string escaper for the JSON report.
//!
//! The reproduction's core claim — DimEval/DimPerc outputs are
//! byte-identical across runs and thread widths — has been broken twice by
//! the same bug class (unordered hash-collection iteration feeding output),
//! and PR 5's textual rules caught a real Release/Relaxed pairing bug in
//! chaos. This crate mechanizes the invariants instead of re-fixing
//! violations:
//!
//! | rule | depth | what it enforces |
//! |------|-------|------------------|
//! | `no-panic-hotpath`   | file | no `unwrap`/`expect`/panicking macros/direct indexing in degraded-mode hot paths |
//! | `determinism`        | file | no hash-collection iteration, clocks, or env reads in output-producing paths |
//! | `thread-discipline`  | file | raw `thread::spawn` only inside `crates/par` and `crates/serve` |
//! | `relaxed-ordering`   | file | every `Ordering::Relaxed` carries a written justification |
//! | `zero-dep`           | file | every `Cargo.toml` dependency resolves to a vendored in-repo path |
//! | `hot-alloc`          | file | no `.clone()`/`.to_string()`/`String::from`/`format!` in the annotate/link, serve, verify, choice-featuriser and SGD hot paths |
//! | `panic-reachability` | deep | nothing a hot-path fn *calls* can panic (call-graph closure, witness chains) |
//! | `lock-order`         | deep | no lock-order cycles across the workspace; no locks held over blocking calls |
//! | `atomic-pairing`     | deep | every `Release` store pairs with an `Acquire`-capable load on the same atomic, and vice versa |
//!
//! The `file` rules run per file over the token stream; the `deep` rules
//! ([`deep`], enabled by `--deep` or by naming them with `--rule`) build a
//! cross-crate symbol table and approximate call graph ([`items`],
//! [`graph`]) first and reason over the whole workspace.
//!
//! Matching is string- and comment-aware: a hand-rolled lexer
//! ([`lexer`]) tokenizes each file, so `".unwrap()"` inside a string
//! literal, a raw string, or a nested block comment never fires a rule —
//! the failure mode of the awk scan this engine replaces. `#[cfg(test)]`
//! regions are exempt, and individual sites can be justified with
//! `// lint:allow(<key>, <reason>)` ([`source`]); the reason is mandatory.
//!
//! See DESIGN.md §11 for the per-file rule catalog and §16 for the deep
//! analysis model and the v2 report schema.

pub mod deep;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod source;
pub mod walk;

pub use report::{Diagnostic, LintReport, Severity, WitnessStep};

use source::SourceFile;
use std::path::Path;

/// The rule catalog, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleId {
    /// No panicking constructs in degraded-mode hot paths.
    NoPanicHotpath,
    /// No nondeterminism in output/golden-producing paths.
    Determinism,
    /// Raw `thread::spawn` confined to `crates/par` and `crates/serve`.
    ThreadDiscipline,
    /// `Ordering::Relaxed` requires a justification.
    RelaxedOrdering,
    /// All dependencies are vendored path dependencies.
    ZeroDep,
    /// No per-item allocation in the annotate/link hot paths.
    HotAlloc,
    /// No panic reachable through the call graph from a hot-path fn.
    PanicReachability,
    /// No lock-order cycles; no locks held across blocking calls.
    LockOrder,
    /// `Release` stores and `Acquire` loads pair up per atomic path.
    AtomicPairing,
}

impl RuleId {
    /// Every rule, in catalog order.
    pub const ALL: [RuleId; 9] = [
        RuleId::NoPanicHotpath,
        RuleId::Determinism,
        RuleId::ThreadDiscipline,
        RuleId::RelaxedOrdering,
        RuleId::ZeroDep,
        RuleId::HotAlloc,
        RuleId::PanicReachability,
        RuleId::LockOrder,
        RuleId::AtomicPairing,
    ];

    /// The per-file rules — what a default (non-`--deep`) run executes.
    pub const SHALLOW: [RuleId; 6] = [
        RuleId::NoPanicHotpath,
        RuleId::Determinism,
        RuleId::ThreadDiscipline,
        RuleId::RelaxedOrdering,
        RuleId::ZeroDep,
        RuleId::HotAlloc,
    ];

    /// The workspace-level rules `--deep` adds.
    pub const DEEP: [RuleId; 3] =
        [RuleId::PanicReachability, RuleId::LockOrder, RuleId::AtomicPairing];

    /// Does this rule need the workspace call graph?
    pub fn is_deep(self) -> bool {
        matches!(
            self,
            RuleId::PanicReachability | RuleId::LockOrder | RuleId::AtomicPairing
        )
    }

    /// CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NoPanicHotpath => "no-panic-hotpath",
            RuleId::Determinism => "determinism",
            RuleId::ThreadDiscipline => "thread-discipline",
            RuleId::RelaxedOrdering => "relaxed-ordering",
            RuleId::ZeroDep => "zero-dep",
            RuleId::HotAlloc => "hot-alloc",
            RuleId::PanicReachability => "panic-reachability",
            RuleId::LockOrder => "lock-order",
            RuleId::AtomicPairing => "atomic-pairing",
        }
    }

    /// The `lint:allow(<key>, …)` suppression key (`zero-dep` has none:
    /// a registry dependency is never justifiable offline).
    pub fn allow_key(self) -> Option<&'static str> {
        match self {
            RuleId::NoPanicHotpath => Some("no_panic"),
            RuleId::Determinism => Some("nondeterministic"),
            RuleId::ThreadDiscipline => Some("thread_spawn"),
            RuleId::RelaxedOrdering => Some("relaxed_ordering"),
            RuleId::ZeroDep => None,
            RuleId::HotAlloc => Some("hot_alloc"),
            RuleId::PanicReachability => Some("panic_reachable"),
            RuleId::LockOrder => Some("lock_order"),
            RuleId::AtomicPairing => Some("atomic_pairing"),
        }
    }

    /// Parses a CLI rule name (hyphen/underscore agnostic).
    pub fn parse(name: &str) -> Option<RuleId> {
        let n = source::normalize_key(name);
        RuleId::ALL.into_iter().find(|r| source::normalize_key(r.name()) == n)
    }

    /// Parses a comma-separated rule list (`lock-order,atomic-pairing`).
    /// A single name still parses — the list form is a superset. `None` if
    /// any element is unknown or the list is empty.
    pub fn parse_list(names: &str) -> Option<Vec<RuleId>> {
        let parsed: Option<Vec<RuleId>> = names
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(RuleId::parse)
            .collect();
        parsed.filter(|v| !v.is_empty())
    }

    /// Does this rule cover the file at workspace-relative `rel_path`?
    ///
    /// Scope is path-based because the invariants are architectural:
    /// hot paths are the crates the serving/degraded pipeline runs through;
    /// output paths are the crates whose bytes reach goldens.
    pub fn applies_to(self, rel_path: &str) -> bool {
        match self {
            RuleId::NoPanicHotpath => {
                rel_path.starts_with("crates/dimlink/src/")
                    || rel_path.starts_with("crates/par/src/")
                    || rel_path.starts_with("crates/serve/src/")
                    || rel_path.starts_with("crates/chaos/src/")
                    || rel_path == "crates/core/src/pipeline.rs"
                    || rel_path == "crates/dimkb/src/degrade.rs"
                    // The verification checker runs on every /verify
                    // request and inside the solver's repair loop — it
                    // must reject, never die, on malformed ASTs.
                    || rel_path.starts_with("crates/verify/src/")
            }
            RuleId::Determinism => {
                rel_path.starts_with("crates/dimeval/src/")
                    || rel_path.starts_with("crates/mwp/src/")
                    || rel_path == "crates/bench/src/render.rs"
                    || rel_path == "crates/obs/src/lib.rs"
            }
            RuleId::ThreadDiscipline => {
                rel_path.ends_with(".rs")
                    && !rel_path.starts_with("crates/par/")
                    && !rel_path.starts_with("crates/serve/")
            }
            RuleId::RelaxedOrdering => rel_path.ends_with(".rs"),
            RuleId::ZeroDep => rel_path.ends_with("Cargo.toml"),
            RuleId::HotAlloc => {
                // The annotate/link hot paths. `reference.rs` is the retired
                // String-based linker kept as a differential-testing oracle —
                // allocating is its documented job.
                ((rel_path.starts_with("crates/dimlink/src/")
                    || rel_path.starts_with("crates/par/src/"))
                    && rel_path != "crates/dimlink/src/reference.rs")
                    // Deadline checks run once per parsed request — the
                    // overload fast path must shed without allocating.
                    || rel_path == "crates/serve/src/deadline.rs"
                    // Every request moves the server's metrics, and every
                    // accepted connection takes an open-connection guard.
                    || rel_path == "crates/serve/src/metrics.rs"
                    // The two checker layers run per beam candidate per
                    // problem inside the repair search.
                    || rel_path.starts_with("crates/verify/src/")
                    // The choice featuriser runs per option per training;
                    // its `format!` reference featurisers are test-only.
                    || rel_path == "crates/models/src/tinylm/features.rs"
                    || rel_path == "crates/models/src/tinylm/choice.rs"
                    // The SGD kernel runs per option per epoch.
                    || rel_path == "crates/models/src/tinylm/linear.rs"
            }
            // Reachability roots are the no-panic hot paths, minus binary
            // entry points (binaries may die loudly on startup errors —
            // config parsing, bind failures — before serving begins).
            RuleId::PanicReachability => {
                RuleId::NoPanicHotpath.applies_to(rel_path) && !rel_path.contains("/bin/")
            }
            // The lock and atomic analyses scope themselves by *content*
            // (where locks/atomics live), not by path.
            RuleId::LockOrder | RuleId::AtomicPairing => rel_path.ends_with(".rs"),
        }
    }
}

/// Options for one lint run.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Workspace root to scan.
    pub root: std::path::PathBuf,
    /// Rules to run; empty means the default set ([`RuleId::SHALLOW`], or
    /// [`RuleId::ALL`] when `deep` is set). Naming a deep rule explicitly
    /// runs it regardless of `deep`.
    pub rules: Vec<RuleId>,
    /// Run the workspace-level analyses too.
    pub deep: bool,
}

impl LintOptions {
    /// Default options rooted at `root`: shallow rules.
    pub fn new(root: impl Into<std::path::PathBuf>) -> LintOptions {
        LintOptions { root: root.into(), rules: Vec::new(), deep: false }
    }
}

/// Runs the selected rules over the workspace at `opts.root`.
pub fn run(opts: &LintOptions) -> Result<LintReport, String> {
    let rules: Vec<RuleId> = if opts.rules.is_empty() {
        if opts.deep { RuleId::ALL.to_vec() } else { RuleId::SHALLOW.to_vec() }
    } else {
        opts.rules.clone()
    };
    let deep_rules: Vec<RuleId> = rules.iter().copied().filter(|r| r.is_deep()).collect();
    let files = walk::discover(&opts.root)
        .map_err(|e| format!("cannot scan {}: {e}", opts.root.display()))?;
    let mut report = LintReport {
        rules: rules.iter().map(|r| r.name()).collect(),
        deep: !deep_rules.is_empty(),
        ..LintReport::default()
    };
    let run_rust = rules.iter().any(|r| *r != RuleId::ZeroDep);
    if run_rust {
        // The file pass: read, lex, item-parse, per-file rules.
        let mut parsed_files = Vec::with_capacity(files.rust.len());
        for rel in &files.rust {
            let text = read(&opts.root, rel)?;
            let parsed = graph::ParsedFile::parse(rel, &text);
            report.files_scanned += 1;
            report.diagnostics.extend(check_parsed(&parsed.source, &rules, false));
            parsed_files.push(parsed);
        }
        if !deep_rules.is_empty() {
            deep::analyze(&parsed_files, &deep_rules, &mut report.diagnostics);
        }
    }
    if rules.contains(&RuleId::ZeroDep) {
        for rel in &files.manifests {
            let text = read(&opts.root, rel)?;
            report.files_scanned += 1;
            report.diagnostics.extend(manifest::check_manifest(rel, &text, Some(&opts.root)));
        }
    }
    report.sort();
    Ok(report)
}

/// Runs the token-level rules on one Rust source. With `ignore_scope` the
/// path-based scoping is bypassed — the fixture tests use this to exercise
/// rules on files that live outside their production scope.
pub fn check_rust_source(
    rel_path: &str,
    text: &str,
    rules: &[RuleId],
    ignore_scope: bool,
) -> Vec<Diagnostic> {
    let file = SourceFile::parse(rel_path, text);
    check_parsed(&file, rules, ignore_scope)
}

/// Runs the deep (workspace-level) rules over an in-memory source set —
/// the fixture tests' entry point. Paths choose rule scope exactly as on
/// disk, so a fixture placed at `crates/serve/src/…` counts as hot.
pub fn check_deep_sources(sources: &[(&str, &str)], rules: &[RuleId]) -> Vec<Diagnostic> {
    let parsed: Vec<graph::ParsedFile> =
        sources.iter().map(|(p, s)| graph::ParsedFile::parse(p, s)).collect();
    let mut out = Vec::new();
    deep::analyze(&parsed, rules, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// The per-file rule dispatch over an already-parsed source.
fn check_parsed(file: &SourceFile, rules: &[RuleId], ignore_scope: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rule in rules {
        if !ignore_scope && !rule.applies_to(&file.rel_path) {
            continue;
        }
        match rule {
            RuleId::NoPanicHotpath => rules::no_panic_hotpath(file, &mut out),
            RuleId::Determinism => rules::determinism(file, &mut out),
            RuleId::ThreadDiscipline => rules::thread_discipline(file, &mut out),
            RuleId::RelaxedOrdering => rules::relaxed_ordering(file, &mut out),
            // zero-dep runs on manifests; the deep rules run on the whole
            // workspace after the file pass.
            RuleId::ZeroDep
            | RuleId::PanicReachability
            | RuleId::LockOrder
            | RuleId::AtomicPairing => {}
            RuleId::HotAlloc => rules::hot_alloc(file, &mut out),
        }
    }
    out
}

fn read(root: &Path, rel: &str) -> Result<String, String> {
    std::fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip_through_parse() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.name()), Some(r));
        }
        assert_eq!(RuleId::parse("no_panic_hotpath"), Some(RuleId::NoPanicHotpath));
        assert_eq!(RuleId::parse("nope"), None);
    }

    #[test]
    fn rule_lists_parse_comma_separated() {
        assert_eq!(
            RuleId::parse_list("lock-order,atomic-pairing"),
            Some(vec![RuleId::LockOrder, RuleId::AtomicPairing])
        );
        assert_eq!(
            RuleId::parse_list(" determinism , zero_dep "),
            Some(vec![RuleId::Determinism, RuleId::ZeroDep])
        );
        assert_eq!(RuleId::parse_list("hot-alloc"), Some(vec![RuleId::HotAlloc]), "single name");
        assert_eq!(RuleId::parse_list("lock-order,nope"), None, "unknown member fails the list");
        assert_eq!(RuleId::parse_list(""), None);
        assert_eq!(RuleId::parse_list(","), None);
    }

    #[test]
    fn shallow_and_deep_partition_the_catalog() {
        assert_eq!(RuleId::SHALLOW.len() + RuleId::DEEP.len(), RuleId::ALL.len());
        for r in RuleId::SHALLOW {
            assert!(!r.is_deep());
        }
        for r in RuleId::DEEP {
            assert!(r.is_deep());
            assert!(r.allow_key().is_some(), "deep rules are site-justifiable");
        }
    }

    #[test]
    fn scopes_cover_the_intended_paths() {
        let np = RuleId::NoPanicHotpath;
        assert!(np.applies_to("crates/dimlink/src/linker.rs"));
        assert!(np.applies_to("crates/serve/src/bin/dimserve.rs"));
        assert!(np.applies_to("crates/core/src/pipeline.rs"));
        assert!(np.applies_to("crates/verify/src/check.rs"), "the checker serves /verify requests");
        assert!(np.applies_to("crates/verify/src/solution.rs"), "the repair search is request-path");
        assert!(!np.applies_to("crates/dimkb/src/kb.rs"), "KB construction may panic on bad curated data");
        assert!(!np.applies_to("crates/core/src/experiments.rs"));
        assert!(!np.applies_to("crates/obs/src/lib.rs"));

        let det = RuleId::Determinism;
        assert!(det.applies_to("crates/dimeval/src/benchmark.rs"));
        assert!(det.applies_to("crates/dimeval/src/perturb.rs"), "mutation picks must be seeded");
        assert!(det.applies_to("crates/bench/src/render.rs"));
        assert!(!det.applies_to("crates/bench/src/lib.rs"), "CLI arg parsing may read env");

        let th = RuleId::ThreadDiscipline;
        assert!(!th.applies_to("crates/par/src/lib.rs"));
        assert!(!th.applies_to("crates/serve/src/server.rs"));
        assert!(th.applies_to("crates/corpus/src/generate.rs"));

        assert!(RuleId::ZeroDep.applies_to("crates/obs/Cargo.toml"));
        assert!(!RuleId::ZeroDep.applies_to("crates/obs/src/lib.rs"));

        let ha = RuleId::HotAlloc;
        assert!(ha.applies_to("crates/dimlink/src/linker.rs"));
        assert!(ha.applies_to("crates/dimlink/src/annotate.rs"));
        assert!(ha.applies_to("crates/par/src/lib.rs"));
        assert!(ha.applies_to("crates/serve/src/deadline.rs"), "budget checks are per-request");
        assert!(ha.applies_to("crates/serve/src/metrics.rs"), "metric increments are per-request");
        assert!(ha.applies_to("crates/verify/src/scale.rs"), "scale sets run per beam candidate");
        assert!(ha.applies_to("crates/models/src/tinylm/features.rs"), "featurising is per option");
        assert!(ha.applies_to("crates/models/src/tinylm/choice.rs"), "training featurises every item");
        assert!(ha.applies_to("crates/models/src/tinylm/linear.rs"), "SGD steps per option per epoch");
        assert!(!ha.applies_to("crates/models/src/tinylm/eqgen.rs"), "the MWP decoder is out of scope");
        assert!(!ha.applies_to("crates/serve/src/load.rs"), "the load client may allocate");
        assert!(!ha.applies_to("crates/dimlink/src/reference.rs"), "the oracle may allocate");
        assert!(!ha.applies_to("crates/dimkb/src/kb.rs"), "KB construction is cold");
        assert!(!ha.applies_to("crates/dimlink/tests/proptests.rs"), "tests are out of scope");

        let pr = RuleId::PanicReachability;
        assert!(pr.applies_to("crates/dimlink/src/linker.rs"));
        assert!(pr.applies_to("crates/core/src/pipeline.rs"));
        assert!(!pr.applies_to("crates/serve/src/bin/dimserve.rs"), "binaries may die on startup");
        assert!(!pr.applies_to("crates/dimkb/src/kb.rs"));
        assert!(RuleId::LockOrder.applies_to("crates/obs/src/lib.rs"));
        assert!(RuleId::AtomicPairing.applies_to("crates/chaos/src/lib.rs"));
    }
}
