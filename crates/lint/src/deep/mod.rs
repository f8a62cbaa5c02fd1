//! The deep (workspace-level) rules: analyses that need the cross-file
//! symbol table and call graph ([`crate::graph`]) rather than one file's
//! token stream. Dispatched by [`analyze`]; see DESIGN.md §16.

pub mod lock_order;
pub mod panic_reach;

use crate::graph::{Graph, ParsedFile};
use crate::items::punct_at;
use crate::lexer::{TokKind, Token};
use crate::report::Diagnostic;
use crate::RuleId;

/// Runs the selected deep rules over the parsed workspace. Non-deep rule
/// ids are ignored — the caller filters, this just double-checks.
pub fn analyze(files: &[ParsedFile], rules: &[RuleId], out: &mut Vec<Diagnostic>) {
    let deep: Vec<RuleId> = rules.iter().copied().filter(|r| r.is_deep()).collect();
    if deep.is_empty() {
        return;
    }
    let graph = Graph::build(files);
    if deep.contains(&RuleId::PanicReachability) {
        panic_reach::check(files, &graph, out);
    }
    if deep.contains(&RuleId::LockOrder) {
        lock_order::check(files, &graph, out);
    }
}

/// The receiver identifier of a method call whose method name is the ident
/// at token `i` (`self.state.lock()` at `lock` ⇒ `state`;
/// `self.shards[i].lock()` ⇒ `shards`; `registry().lock()` ⇒ `registry`).
/// Walks backward over one balanced `[…]`/`(…)` group at most — enough for
/// every shape in this workspace — and `None` for anything else.
pub(crate) fn receiver_ident(t: &[Token], i: usize) -> Option<&str> {
    if i < 2 || !punct_at(t, i - 1, '.') {
        return None;
    }
    let mut j = i - 2;
    for _ in 0..2 {
        match &t[j].kind {
            TokKind::Ident(name) => return Some(name.as_str()),
            TokKind::Punct(close @ (']' | ')')) => {
                let open = if *close == ']' { '[' } else { '(' };
                let mut depth = 0usize;
                let lo = j.saturating_sub(128);
                loop {
                    match &t[j].kind {
                        TokKind::Punct(c) if *c == *close => depth += 1,
                        TokKind::Punct(c) if *c == open => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == lo {
                        return None;
                    }
                    j -= 1;
                }
                // `j` is the opener; the receiver base is just before it.
                j = j.checked_sub(1)?;
            }
            _ => return None,
        }
    }
    None
}

/// Is the ident at `i` a method call (`.name(`)?
pub(crate) fn is_method_call(t: &[Token], i: usize) -> bool {
    i >= 1 && punct_at(t, i - 1, '.') && crate::graph::call_paren(t, i).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn toks(src: &str) -> Vec<Token> {
        SourceFile::parse("x.rs", src).tokens
    }

    fn recv_of(src: &str, method: &str) -> Option<String> {
        let t = toks(src);
        let i = (0..t.len())
            .find(|&i| matches!(&t[i].kind, TokKind::Ident(n) if n == method))
            .unwrap();
        receiver_ident(&t, i).map(String::from)
    }

    #[test]
    fn receiver_shapes() {
        assert_eq!(recv_of("self.state.lock()", "lock").as_deref(), Some("state"));
        assert_eq!(recv_of("REGISTRY.lock()", "lock").as_deref(), Some("REGISTRY"));
        assert_eq!(recv_of("self.shards[i].lock()", "lock").as_deref(), Some("shards"));
        assert_eq!(recv_of("registry().lock()", "lock").as_deref(), Some("registry"));
        assert_eq!(recv_of("self.lock()", "lock").as_deref(), Some("self"));
        assert_eq!(recv_of("lock()", "lock"), None, "bare call has no receiver");
    }
}
