//! Fixture-driven rule tests: each file under `fixtures/` concentrates one
//! rule's violation classes next to the decoys that must not fire. The
//! fixtures are fed through `check_rust_source` with scope ignored (they
//! live outside every production scope on purpose) and are excluded from
//! real runs by `walk`, which this file also pins.

use dim_lint::{check_rust_source, manifest, walk, RuleId};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn check(name: &str, rule: RuleId) -> Vec<dim_lint::Diagnostic> {
    check_rust_source(&format!("fixtures/{name}"), &fixture(name), &[rule], true)
}

#[test]
fn no_panic_fixture_finds_every_violation_class() {
    let d = check("no_panic.rs", RuleId::NoPanicHotpath);
    assert_eq!(d.len(), 5, "unwrap, expect, panic!, unreachable!, indexing: {d:?}");
    assert!(d.iter().all(|x| x.rule == "no-panic-hotpath"));
    // The decoys (strings, raw strings, comments, slice patterns, test code)
    // contribute nothing: all five hits are in `hot_path`.
    assert!(d.iter().all(|x| (6..=14).contains(&x.line)), "{d:?}");
}

#[test]
fn determinism_fixture_finds_every_violation_class() {
    let d = check("determinism.rs", RuleId::Determinism);
    assert_eq!(d.len(), 5, "field iter, for-in, Instant, SystemTime, env::var: {d:?}");
    let messages: Vec<&str> = d.iter().map(|x| x.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("by_task")), "{messages:?}");
    assert!(messages.iter().any(|m| m.contains("seen")), "{messages:?}");
    assert!(messages.iter().any(|m| m.contains("Instant::now")), "{messages:?}");
    assert!(messages.iter().any(|m| m.contains("SystemTime")), "{messages:?}");
    assert!(messages.iter().any(|m| m.contains("env::var")), "{messages:?}");
}

#[test]
fn thread_discipline_fixture_flags_spawn_not_scope() {
    let d = check("thread_discipline.rs", RuleId::ThreadDiscipline);
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].message.contains("thread::spawn"));
}

#[test]
fn relaxed_ordering_fixture_requires_justification() {
    let d = check("relaxed_ordering.rs", RuleId::RelaxedOrdering);
    assert_eq!(d.len(), 1, "only the unjustified load: {d:?}");
}

/// The bug class an old chaos switch had: a release store of `ENABLED`
/// that the hot path read `Relaxed`. Both unjustified `Relaxed` sites of
/// that shape must keep failing.
#[test]
fn chaos_enabled_regression_fails_relaxed_ordering() {
    let d = check("chaos_enabled.rs", RuleId::RelaxedOrdering);
    let lines: Vec<u32> = d.iter().map(|x| x.line).collect();
    assert_eq!(lines, [13, 18], "the SEED store and the ENABLED load: {d:?}");
}

#[test]
fn zero_dep_fixture_flags_registry_git_and_version_deps() {
    let d = manifest::check_manifest("fixtures/zero_dep.toml", &fixture("zero_dep.toml"), None);
    assert_eq!(d.len(), 4, "serde_json, rayon, remote, criterion: {d:?}");
    assert!(d.iter().all(|x| x.rule == "zero-dep"));
}

#[test]
fn hot_alloc_fixture_finds_every_violation_class() {
    let d = check("hot_alloc.rs", RuleId::HotAlloc);
    assert_eq!(d.len(), 4, ".clone(), .to_string(), String::from, format!: {d:?}");
    assert!(d.iter().all(|x| x.rule == "hot-alloc"));
    // Decoys (strings, comments, method references, path-prefixed macros,
    // the suppressed site, test code) contribute nothing: all four hits are
    // in `hot_path`.
    assert!(d.iter().all(|x| (6..=9).contains(&x.line)), "{d:?}");
}

#[test]
fn seeded_clone_in_a_link_path_fails_scoped_lint() {
    // The acceptance scenario: if a per-item `.clone()` creeps back into the
    // linker, the scoped check (no ignore_scope) must fire.
    let src = "fn link(m: &str) -> String { m.clone() }";
    let scoped = check_rust_source("crates/dimlink/src/linker.rs", src, &[RuleId::HotAlloc], false);
    assert_eq!(scoped.len(), 1, "{scoped:?}");
    // The same source in the reference oracle (or outside dimlink/par) is not checked.
    let oracle = check_rust_source("crates/dimlink/src/reference.rs", src, &[RuleId::HotAlloc], false);
    assert!(oracle.is_empty());
}

#[test]
fn seeded_hash_iteration_in_a_render_path_fails_scoped_lint() {
    // The acceptance scenario: if someone adds a HashMap iteration to a
    // golden-producing file, the scoped check (no ignore_scope) must fire.
    let src = "fn render(m: HashMap<String, u32>) { for (k, v) in m.iter() { println!(\"{k}{v}\"); } }";
    let scoped = check_rust_source("crates/bench/src/render.rs", src, &[RuleId::Determinism], false);
    assert_eq!(scoped.len(), 1, "{scoped:?}");
    // The same source outside the determinism scope is not checked.
    let unscoped = check_rust_source("crates/bench/src/lib.rs", src, &[RuleId::Determinism], false);
    assert!(unscoped.is_empty());
}

#[test]
fn seeded_registry_dep_fails_manifest_check() {
    let toml = "[dependencies]\nserde = \"1.0\"\n";
    let d = manifest::check_manifest("crates/obs/Cargo.toml", toml, None);
    assert_eq!(d.len(), 1, "{d:?}");
}

#[test]
fn walk_never_scans_fixtures_or_test_trees() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = walk::discover(&root).expect("workspace scan");
    assert!(
        !files.rust.is_empty() && !files.manifests.is_empty(),
        "scan must see the workspace"
    );
    for f in files.rust.iter().chain(&files.manifests) {
        assert!(!f.contains("fixtures/"), "fixture leaked into scan set: {f}");
        assert!(!f.contains("/tests/"), "test tree leaked into scan set: {f}");
    }
}
