//! Diagnostics and their two renderings: human `file:line` lines and the
//! `lint_report.json` v2 schema (hand-rolled JSON — this crate depends
//! only on the vendored `dim-par` fan-out, nothing serialized).
//!
//! Schema v2 (see DESIGN.md §16): every violation carries a `severity`;
//! panic-reachability findings carry a `witness` call chain; lock-order
//! cycle findings carry the `cycle` lock path. v1 consumers that only read
//! `path`/`line`/`rule`/`message` keep working — the new fields are
//! additive.

/// How hard a diagnostic gates. `Error` fails the run (exit code 1);
/// `Warn` is advisory output from an over-approximate analysis (the
/// lock-order blocking-call heuristic) and does not affect the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Severity {
    /// Gates `make lint` / `make verify`.
    #[default]
    Error,
    /// Advisory; printed but not failing.
    Warn,
}

impl Severity {
    /// Schema/report name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

/// One step of a panic-reachability call-chain witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessStep {
    /// Function display name (`Type::name` or `name`).
    pub func: String,
    /// Workspace-relative file the step lives in.
    pub path: String,
    /// 1-based line (the call site, or the panic site for the last step).
    pub line: u32,
}

/// One rule violation at one source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (`no-panic-hotpath`, …).
    pub rule: &'static str,
    /// Human explanation, including the fix direction.
    pub message: String,
    /// Gate or advisory.
    pub severity: Severity,
    /// Call chain from the flagged call down to the panic site
    /// (panic-reachability findings only; empty otherwise).
    pub witness: Vec<WitnessStep>,
    /// The lock cycle, first lock repeated at the end
    /// (lock-order cycle findings only; empty otherwise).
    pub cycle: Vec<String>,
}

impl Diagnostic {
    /// A plain error diagnostic with no deep-analysis payload.
    pub fn new(path: String, line: u32, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            path,
            line,
            rule,
            message,
            severity: Severity::Error,
            witness: Vec::new(),
            cycle: Vec::new(),
        }
    }
}

/// The result of one lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Rule names that ran, in catalog order.
    pub rules: Vec<&'static str>,
    /// Whether the deep (workspace-level) analyses ran.
    pub deep: bool,
    /// Files scanned (Rust sources + manifests).
    pub files_scanned: usize,
    /// Violations sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Canonical ordering so output is byte-stable run-to-run (and across
    /// thread widths: the parallel file pass feeds this sort).
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
        });
    }

    /// Any gating (error-severity) diagnostics?
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// `file:line: [rule] message` per violation plus a summary line.
    /// Witness chains and cycle paths render as indented continuation
    /// lines under their diagnostic.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let sev = match d.severity {
                Severity::Error => "",
                Severity::Warn => "warning: ",
            };
            out.push_str(&format!("{}:{}: [{}] {sev}{}\n", d.path, d.line, d.rule, d.message));
            for (i, w) in d.witness.iter().enumerate() {
                let marker = if i + 1 == d.witness.len() { "panics at" } else { "calls" };
                out.push_str(&format!("    {} `{}` ({}:{})\n", marker, w.func, w.path, w.line));
            }
            if !d.cycle.is_empty() {
                out.push_str(&format!("    cycle: {}\n", d.cycle.join(" -> ")));
            }
        }
        let warns = self.diagnostics.iter().filter(|d| d.severity == Severity::Warn).count();
        let errors = self.diagnostics.len() - warns;
        if self.diagnostics.is_empty() {
            out.push_str(&format!(
                "dimlint: clean — {} files, rules: {}\n",
                self.files_scanned,
                self.rules.join(", ")
            ));
        } else {
            out.push_str(&format!(
                "dimlint: {errors} violation(s), {warns} warning(s) in {} files scanned\n",
                self.files_scanned
            ));
        }
        out
    }

    /// The `lint_report.json` v2 schema: run metadata plus a violations
    /// array with severity and deep-analysis payloads.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema_version\": 2,\n");
        out.push_str("  \"rules\": [");
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            dim_json::write_string(r, &mut out);
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"deep\": {},\n", self.deep));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        let errors = self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count();
        out.push_str(&format!("  \"violation_count\": {errors},\n"));
        out.push_str(&format!(
            "  \"warning_count\": {},\n",
            self.diagnostics.len() - errors
        ));
        out.push_str("  \"violations\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"path\": ");
            dim_json::write_string(&d.path, &mut out);
            out.push_str(&format!(", \"line\": {}, \"rule\": ", d.line));
            dim_json::write_string(d.rule, &mut out);
            out.push_str(", \"severity\": ");
            dim_json::write_string(d.severity.name(), &mut out);
            out.push_str(", \"message\": ");
            dim_json::write_string(&d.message, &mut out);
            if !d.witness.is_empty() {
                out.push_str(", \"witness\": [");
                for (j, w) in d.witness.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str("{\"fn\": ");
                    dim_json::write_string(&w.func, &mut out);
                    out.push_str(", \"path\": ");
                    dim_json::write_string(&w.path, &mut out);
                    out.push_str(&format!(", \"line\": {}}}", w.line));
                }
                out.push(']');
            }
            if !d.cycle.is_empty() {
                out.push_str(", \"cycle\": [");
                for (j, l) in d.cycle.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    dim_json::write_string(l, &mut out);
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push_str(if self.diagnostics.is_empty() { "]\n" } else { "\n  ]\n" });
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> LintReport {
        LintReport {
            rules: vec!["no-panic-hotpath"],
            deep: false,
            files_scanned: 2,
            diagnostics: vec![Diagnostic::new(
                "crates/x/src/lib.rs".into(),
                7,
                "no-panic-hotpath",
                "`.unwrap()` with \"quotes\"".into(),
            )],
        }
    }

    #[test]
    fn human_rendering_has_location_prefix() {
        let r = report().render_human();
        assert!(r.starts_with("crates/x/src/lib.rs:7: [no-panic-hotpath]"));
        assert!(r.contains("1 violation(s)"));
    }

    #[test]
    fn json_escapes_quotes_and_versions_the_schema() {
        let j = report().render_json();
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("\"violation_count\": 1"));
        assert!(j.contains("\"warning_count\": 0"));
        assert!(j.contains("\"schema_version\": 2"));
        assert!(j.contains("\"severity\": \"error\""));
    }

    #[test]
    fn witness_and_cycle_render_in_both_formats() {
        let mut r = report();
        r.diagnostics[0].rule = "panic-reachability";
        r.diagnostics[0].witness = vec![
            WitnessStep { func: "helper".into(), path: "crates/y/src/lib.rs".into(), line: 3 },
            WitnessStep { func: "deep".into(), path: "crates/y/src/lib.rs".into(), line: 9 },
        ];
        r.diagnostics.push(Diagnostic {
            cycle: vec!["serve::a".into(), "serve::b".into(), "serve::a".into()],
            severity: Severity::Warn,
            ..Diagnostic::new("z.rs".into(), 1, "lock-order", "cycle".into())
        });
        r.sort();
        let h = r.render_human();
        assert!(h.contains("calls `helper` (crates/y/src/lib.rs:3)"), "{h}");
        assert!(h.contains("panics at `deep` (crates/y/src/lib.rs:9)"), "{h}");
        assert!(h.contains("cycle: serve::a -> serve::b -> serve::a"), "{h}");
        assert!(h.contains("1 violation(s), 1 warning(s)"), "{h}");
        let j = r.render_json();
        assert!(j.contains("\"witness\": [{\"fn\": \"helper\""), "{j}");
        assert!(j.contains("\"cycle\": [\"serve::a\", \"serve::b\", \"serve::a\"]"), "{j}");
        assert!(j.contains("\"severity\": \"warn\""), "{j}");
        assert!(r.has_errors());
    }

    #[test]
    fn sort_orders_by_path_line_rule() {
        let mut r = LintReport::default();
        r.diagnostics.push(Diagnostic::new("b.rs".into(), 1, "x", String::new()));
        r.diagnostics.push(Diagnostic::new("a.rs".into(), 9, "x", String::new()));
        r.diagnostics.push(Diagnostic::new("a.rs".into(), 2, "x", String::new()));
        r.sort();
        assert_eq!(r.diagnostics[0].path, "a.rs");
        assert_eq!(r.diagnostics[0].line, 2);
        assert_eq!(r.diagnostics[2].path, "b.rs");
    }
}
