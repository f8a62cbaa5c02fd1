//! **panic-reachability**: transitively closes panic sites over the call
//! graph so a hot-path function is flagged when anything it *calls* can
//! panic, not just when it contains the panic inline.
//!
//! Panic sites are `.unwrap()` / `.expect(…)` and the
//! `panic!`/`unreachable!`/`todo!`/`unimplemented!` macros. Indexing is
//! deliberately *not* an interprocedural site: it is idiomatic in cold
//! code with locally-checked bounds, and treating every `v[i]` in the
//! workspace as a panic source would drown the signal (the intraprocedural
//! `no-panic-hotpath` rule still bans indexing inside hot files, where the
//! discipline is absolute). A site justified with
//! `lint:allow(no_panic, …)` is treated as total — the justification says
//! why it cannot fire, so propagating it would re-litigate the comment.
//!
//! Roots are the functions in `no-panic-hotpath` scope, minus `src/bin/`
//! entry points (binaries may die loudly on startup errors). Each finding
//! carries a minimal call-chain witness to the panic site; minimality
//! (fewest frames, then lowest call site) makes the report deterministic.

use crate::graph::{Graph, ParsedFile};
use crate::items::{ident_at, punct_at};
use crate::report::{Diagnostic, Severity, WitnessStep};
use crate::RuleId;
use std::collections::BTreeSet;

/// One function's own (non-test, non-justified) panic site.
struct Site {
    line: u32,
    what: &'static str,
}

/// Runs the rule, appending findings.
pub(crate) fn check(files: &[ParsedFile], g: &Graph, out: &mut Vec<Diagnostic>) {
    let n = g.nodes.len();
    let sites: Vec<Option<Site>> = (0..n).map(|i| own_panic_site(files, g, i)).collect();

    // Fewest-frames distance to a panic site: 1 for a function with its own
    // site, 1 + min over callees otherwise. Plain relaxation to the unique
    // fixpoint, so the result is iteration-order independent.
    const INF: u32 = u32::MAX;
    let mut dist: Vec<u32> = sites.iter().map(|s| if s.is_some() { 1 } else { INF }).collect();
    loop {
        let mut changed = false;
        for u in 0..n {
            if sites[u].is_some() {
                continue;
            }
            let best = g.edges[u]
                .iter()
                .filter(|e| dist[e.callee] != INF)
                .map(|e| dist[e.callee].saturating_add(1))
                .min()
                .unwrap_or(INF);
            if best < dist[u] {
                dist[u] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for u in 0..n {
        let file = &files[g.nodes[u].file];
        let def = g.def(files, u);
        if def.in_test || !RuleId::PanicReachability.applies_to(&file.source.rel_path) {
            continue;
        }
        let mut seen: BTreeSet<(u32, usize)> = BTreeSet::new();
        for e in &g.edges[u] {
            if dist[e.callee] == INF
                || !seen.insert((e.line, e.callee))
                || file.source.in_test_code(e.line)
                || file.source.suppressed("panic_reachable", e.line)
            {
                continue;
            }
            let witness = reconstruct(files, g, &sites, &dist, e.callee);
            let terminal = terminal_node(g, &dist, e.callee);
            let what = sites[terminal].as_ref().map(|s| s.what).unwrap_or("a panic");
            out.push(Diagnostic {
                path: file.source.rel_path.clone(),
                line: e.line,
                rule: RuleId::PanicReachability.name(),
                message: format!(
                    "hot-path fn `{}` calls `{}`, which can reach {what} in `{}` \
                     ({} frame(s) deep) — make the callee total or justify with \
                     lint:allow(panic_reachable, reason)",
                    g.display_name(files, u),
                    g.display_name(files, e.callee),
                    g.display_name(files, terminal),
                    dist[e.callee],
                ),
                severity: Severity::Error,
                witness,
                cycle: Vec::new(),
            });
        }
    }
}

/// The node whose own panic site ends the witness chain starting at
/// `start` — walks the same deterministic steps as [`reconstruct`].
fn terminal_node(g: &Graph, dist: &[u32], start: usize) -> usize {
    let mut v = start;
    for _ in 0..g.nodes.len() {
        if dist[v] == 1 {
            return v;
        }
        match next_step(g, dist, v) {
            Some(e) => v = e,
            None => return v,
        }
    }
    v
}

/// The deterministic next hop from `v` toward the panic: the edge whose
/// callee sits exactly one frame closer, lowest call site first.
fn next_step(g: &Graph, dist: &[u32], v: usize) -> Option<usize> {
    g.edges[v]
        .iter()
        .filter(|e| dist[e.callee] != u32::MAX && dist[e.callee] + 1 == dist[v])
        .min_by_key(|e| (e.line, e.token, e.callee))
        .map(|e| e.callee)
}

/// Builds the witness chain from `start` down to the panic site. Each step
/// names a function and the line where it hands off (its call into the
/// next frame); the final step carries the panic site itself.
fn reconstruct(
    files: &[ParsedFile],
    g: &Graph,
    sites: &[Option<Site>],
    dist: &[u32],
    start: usize,
) -> Vec<WitnessStep> {
    let mut steps = Vec::new();
    let mut v = start;
    for _ in 0..g.nodes.len() {
        let path = files[g.nodes[v].file].source.rel_path.clone();
        if dist[v] == 1 {
            if let Some(site) = &sites[v] {
                steps.push(WitnessStep { func: g.display_name(files, v), path, line: site.line });
            }
            break;
        }
        let Some(next) = g.edges[v]
            .iter()
            .filter(|e| dist[e.callee] != u32::MAX && dist[e.callee] + 1 == dist[v])
            .min_by_key(|e| (e.line, e.token, e.callee))
        else {
            break;
        };
        steps.push(WitnessStep { func: g.display_name(files, v), path, line: next.line });
        v = next.callee;
    }
    steps
}

/// Scans one function's body (excluding nested fns) for its first panic
/// site that is neither test code nor `lint:allow(no_panic)`-justified.
fn own_panic_site(files: &[ParsedFile], g: &Graph, idx: usize) -> Option<Site> {
    let node = g.nodes[idx];
    let file = &files[node.file];
    let def = &file.items.fns[node.fn_idx];
    if def.in_test {
        return None;
    }
    let (lo, hi) = def.body?;
    let nested = g.nested_ranges(files, idx);
    let t = &file.source.tokens;
    let mut i = lo;
    while i <= hi && i < t.len() {
        if nested.iter().any(|&(a, b)| i >= a && i <= b) {
            i += 1;
            continue;
        }
        let what = match ident_at(t, i) {
            Some(m @ ("unwrap" | "expect"))
                if punct_at(t, i.wrapping_sub(1), '.') && punct_at(t, i + 1, '(') =>
            {
                // `self.expect(…)` where the impl defines its own `expect`
                // (the `dim-json` parser does) is a plain method
                // call, not `Option::expect` — the call graph carries it.
                let is_own_method = super::receiver_ident(t, i) == Some("self")
                    && def.impl_type.is_some()
                    && file
                        .items
                        .fns
                        .iter()
                        .any(|f2| f2.name == m && f2.impl_type == def.impl_type);
                if is_own_method {
                    None
                } else {
                    Some(if m == "unwrap" { "`.unwrap()`" } else { "`.expect()`" })
                }
            }
            Some("panic") if punct_at(t, i + 1, '!') => Some("`panic!`"),
            Some("unreachable") if punct_at(t, i + 1, '!') => Some("`unreachable!`"),
            Some("todo") if punct_at(t, i + 1, '!') => Some("`todo!`"),
            Some("unimplemented") if punct_at(t, i + 1, '!') => Some("`unimplemented!`"),
            _ => None,
        };
        if let Some(what) = what {
            let line = t[i].line;
            if !file.source.in_test_code(line) && !file.source.suppressed("no_panic", line) {
                return Some(Site { line, what });
            }
        }
        i += 1;
    }
    None
}
