//! Fixture-driven tests for the two workspace-level analyses, plus
//! property tests that the item parser / call-graph layer underneath them
//! is total on arbitrary input. Each fixture under `fixtures/deep/`
//! concentrates one rule's violation classes next to the decoys that must
//! not fire; the files are fed through `check_deep_sources` under virtual
//! workspace paths so the path-scoped rules engage.

use dim_lint::{check_deep_sources, Diagnostic, RuleId, Severity};
use proptest::prelude::*;

fn fixture(name: &str) -> String {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/deep").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn errors(d: &[Diagnostic]) -> Vec<&Diagnostic> {
    d.iter().filter(|x| x.severity == Severity::Error).collect()
}

fn warns(d: &[Diagnostic]) -> Vec<&Diagnostic> {
    d.iter().filter(|x| x.severity == Severity::Warn).collect()
}

#[test]
fn panic_reachability_fixture_flags_the_chain_and_only_the_chain() {
    let hot = fixture("panic_hot.rs");
    let helper = fixture("panic_helper.rs");
    let d = check_deep_sources(
        &[("crates/serve/src/fixture_hot.rs", &hot), ("crates/serve/src/helper.rs", &helper)],
        &[RuleId::PanicReachability],
    );
    // Exactly the three functions on the chain: `handle`, `route`,
    // `classify`. The decoys — `safe`, the justified edge, the external
    // call, test code — contribute nothing.
    assert_eq!(d.len(), 3, "{d:?}");
    assert!(d.iter().all(|x| x.rule == "panic-reachability" && x.severity == Severity::Error));
    let handle = d
        .iter()
        .find(|x| x.message.contains("`handle`"))
        .unwrap_or_else(|| panic!("no finding for handle: {d:?}"));
    assert!(handle.message.contains("3 frame(s) deep"), "{}", handle.message);
    assert!(handle.message.contains("`depth`"), "the seed is named: {}", handle.message);
}

#[test]
fn panic_reachability_witness_walks_to_the_panic_site() {
    let hot = fixture("panic_hot.rs");
    let helper = fixture("panic_helper.rs");
    let d = check_deep_sources(
        &[("crates/serve/src/fixture_hot.rs", &hot), ("crates/serve/src/helper.rs", &helper)],
        &[RuleId::PanicReachability],
    );
    for x in &d {
        assert!(!x.witness.is_empty(), "every finding carries a witness: {x:?}");
        let last = x.witness.last().unwrap();
        assert!(last.func.contains("depth"), "chains end at the panicking fn: {x:?}");
        assert_eq!(last.path, "crates/serve/src/helper.rs");
    }
    let handle = d.iter().find(|x| x.message.contains("`handle`")).unwrap();
    let funcs: Vec<&str> = handle.witness.iter().map(|s| s.func.as_str()).collect();
    assert_eq!(funcs, ["route", "classify", "depth"], "{:?}", handle.witness);
}

#[test]
fn lock_order_fixture_reports_the_seeded_cycle_with_its_path() {
    let src = fixture("lock_cycle.rs");
    let d = check_deep_sources(&[("crates/fixt/src/locks.rs", &src)], &[RuleId::LockOrder]);
    let errs = errors(&d);
    assert_eq!(errs.len(), 1, "one cycle between a and b: {d:?}");
    let e = errs[0];
    assert_eq!(e.rule, "lock-order");
    assert!(e.message.contains("potential deadlock"), "{}", e.message);
    assert!(e.message.contains("`Pair::ab`"), "first edge attributed: {}", e.message);
    assert_eq!(e.cycle, ["fixt::a", "fixt::b", "fixt::a"], "{e:?}");
    // The consistently-ordered pair (c -> d, direct and via `take_d`) and
    // the dropped-guard sequence stay silent; the socket read under `a`
    // is advisory only.
    let ws = warns(&d);
    assert_eq!(ws.len(), 1, "{d:?}");
    assert!(ws[0].message.contains("blocking `read_exact`"), "{}", ws[0].message);
    assert!(ws[0].message.contains("`fixt::a`"), "{}", ws[0].message);
}

#[test]
fn deep_rules_compose_over_one_source_set() {
    let hot = fixture("panic_hot.rs");
    let helper = fixture("panic_helper.rs");
    let locks = fixture("lock_cycle.rs");
    let sources: Vec<(&str, &str)> = vec![
        ("crates/serve/src/fixture_hot.rs", &hot),
        ("crates/serve/src/helper.rs", &helper),
        ("crates/fixt/src/locks.rs", &locks),
    ];
    let d = check_deep_sources(&sources, &RuleId::DEEP);
    // Same totals as the per-rule runs: the analyses don't interfere.
    assert_eq!(errors(&d).len(), 3 + 1, "{d:?}");
    assert_eq!(warns(&d).len(), 1, "{d:?}");
}

/// Building blocks for item-shaped token soup.
const SOUP_PARTS: &[&str] = &[
    "fn ", "impl ", "use ", "mod ", "self", "Self", "for ", "where ", "::", "<", ">", "{", "}",
    "(", ")", ";", ",", ".", "lock()", "unwrap()", "Ordering::Release", "#[cfg(test)]",
    "r#\"x\"#", "'a", "a", "bb", "ccc", " ", "\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The item parser and call-graph builder under the deep rules are
    /// total: arbitrary printable garbage parses, builds, and analyzes
    /// without panicking, and every diagnostic keeps a valid line.
    #[test]
    fn deep_analysis_is_total_on_arbitrary_input(s in "\\PC{0,160}") {
        let d = check_deep_sources(&[("crates/serve/src/soup.rs", &s)], &RuleId::DEEP);
        for x in &d {
            prop_assert!(x.line >= 1);
        }
    }

    /// Same, on soup biased toward item syntax — half-open fn headers,
    /// stray impl/use/generics tokens, test attributes, raw strings —
    /// across two files so cross-file resolution runs too.
    #[test]
    fn deep_analysis_is_total_on_item_shaped_soup(
        ix in prop::collection::vec(0usize..SOUP_PARTS.len(), 0..80)
    ) {
        let src: String = ix.iter().map(|&i| SOUP_PARTS[i]).collect();
        let (a, b) = src.split_at(src.len() / 2); // all parts are ASCII
        let d = check_deep_sources(
            &[("crates/serve/src/a.rs", a), ("crates/serve/src/b.rs", b)],
            &RuleId::DEEP,
        );
        for x in &d {
            prop_assert!(x.line >= 1);
        }
    }
}
