//! Degraded-mode execution vocabulary: the [`RecordError`] taxonomy, the
//! [`ErrorBudget`] contract, the [`Policy`] a batch runs under, and the
//! quarantine bookkeeping shared by every `try_*` batch entry point in the
//! workspace.
//!
//! # The degradation contract
//!
//! A `try_*` batch entry point processes every input record independently.
//! A record that fails — a KB error, a parse failure, an oversized input, a
//! caught panic, or an injected fault from the policy's
//! [`dim_chaos::FaultPlan`] — is **skipped and recorded** as a
//! [`QuarantineEntry`]; every other record's output is byte-identical to a
//! fault-free run. After the batch, the failure fraction is checked against
//! the policy's [`ErrorBudget`]: exceeding it returns a typed
//! [`BudgetExceeded`] abort, never a panic.
//!
//! # One implementation per operation
//!
//! The `try_*` form is the only implementation of each batch operation.
//! The classic entry point is [`complete`] over it under
//! [`Policy::CLASSIC`]: no faults, a budget that never aborts, and any
//! skipped record — only a panicking item can be skipped with no faults —
//! re-raised as a panic. The plan is a value passed down the call, so a
//! chaos run in one thread cannot reach a classic call in another.

use crate::error::KbError;
use dim_chaos::{FaultKind, FaultPlan};
use dim_par::ItemPanic;
use std::fmt;

/// Per-record size cap enforced by the degraded-mode entry points. Real
/// corpus sentences and MWP statements are a few hundred bytes; anything
/// beyond this is a malformed or adversarial record.
pub const MAX_RECORD_BYTES: usize = 64 * 1024;

/// Why one record was skipped by a degraded-mode batch entry point.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    /// A knowledge-base query or conversion failed.
    Kb(KbError),
    /// A unit expression could not be parsed.
    ExprParse(String),
    /// Unit linking failed for a mention.
    Link(String),
    /// The record contained a decoy token (`LPUI-1T`, `v2.5`, …) whose
    /// embedded number must not be treated as a quantity.
    Decoy(String),
    /// Problem generation failed for this record.
    Gen(String),
    /// The record exceeds [`MAX_RECORD_BYTES`].
    Oversized {
        /// Observed record size.
        bytes: usize,
        /// The cap that was exceeded.
        cap: usize,
    },
    /// The record's work item panicked (caught by `dim_par`'s isolation).
    Panicked(String),
}

impl RecordError {
    /// Stable kebab-case tag, used in quarantine manifests.
    pub fn kind(&self) -> &'static str {
        match self {
            RecordError::Kb(_) => "kb",
            RecordError::ExprParse(_) => "expr-parse",
            RecordError::Link(_) => "link",
            RecordError::Decoy(_) => "decoy",
            RecordError::Gen(_) => "gen",
            RecordError::Oversized { .. } => "oversized",
            RecordError::Panicked(_) => "panicked",
        }
    }
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Kb(e) => write!(f, "kb: {e}"),
            RecordError::ExprParse(s) => write!(f, "expr-parse: {s}"),
            RecordError::Link(s) => write!(f, "link: {s}"),
            RecordError::Decoy(s) => write!(f, "decoy: skipped record with decoy token {s:?}"),
            RecordError::Gen(s) => write!(f, "gen: {s}"),
            RecordError::Oversized { bytes, cap } => {
                write!(f, "oversized: record is {bytes} bytes (cap {cap})")
            }
            RecordError::Panicked(s) => write!(f, "panicked: {s}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<KbError> for RecordError {
    fn from(e: KbError) -> RecordError {
        match e {
            KbError::ExprParse(s) => RecordError::ExprParse(s),
            other => RecordError::Kb(other),
        }
    }
}

/// The failure fraction a degraded batch may absorb before aborting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBudget {
    /// Maximum tolerated `failed / total` ratio in `[0, 1]`. A batch whose
    /// failure fraction strictly exceeds this aborts with [`BudgetExceeded`].
    pub max_error_rate: f64,
}

impl ErrorBudget {
    /// A budget tolerating `max_error_rate` failures.
    pub fn new(max_error_rate: f64) -> ErrorBudget {
        ErrorBudget { max_error_rate: max_error_rate.clamp(0.0, 1.0) }
    }
}

/// What a degraded batch runs under: the fault plan its sites consult and
/// the error budget it enforces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    /// Faults to inject, one decision per record.
    pub plan: FaultPlan,
    /// The failure fraction the batch may absorb before aborting.
    pub budget: ErrorBudget,
}

impl Policy {
    /// The classic entry points' policy: no faults, and a budget that
    /// never aborts, so [`complete`] sees every skipped record.
    pub const CLASSIC: Policy =
        Policy { plan: FaultPlan::OFF, budget: ErrorBudget { max_error_rate: 1.0 } };
}

/// Typed abort raised when a batch's failure fraction exceeds its
/// [`ErrorBudget`] — the degraded-mode replacement for a panic.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetExceeded {
    /// The site whose batch blew the budget.
    pub site: String,
    /// Failed record count.
    pub failed: usize,
    /// Total record count.
    pub total: usize,
    /// The budget that was exceeded.
    pub max_error_rate: f64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error budget exceeded at {}: {}/{} records failed (max_error_rate {})",
            self.site, self.failed, self.total, self.max_error_rate
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// One quarantined record: where, which index, and why.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct QuarantineEntry {
    /// The batch site that skipped the record (e.g. `"mwp.gen.math23k"`).
    pub site: String,
    /// The record's input index within the batch.
    pub index: usize,
    /// Rendered [`RecordError`].
    pub error: String,
}

impl fmt::Display for QuarantineEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.site, self.index, self.error)
    }
}

/// The outcome of a degraded batch: positional results (`None` where a
/// record was quarantined, so un-faulted items can be compared slot-for-slot
/// against a clean run) plus the quarantine log.
#[derive(Debug, Clone, PartialEq)]
pub struct Degraded<U> {
    /// Slot `i` holds record `i`'s output, or `None` if it was quarantined.
    pub items: Vec<Option<U>>,
    /// One entry per quarantined record, in index order.
    pub quarantine: Vec<QuarantineEntry>,
}

impl<U> Degraded<U> {
    /// The surviving outputs, in input order.
    pub fn ok_items(self) -> Vec<U> {
        self.items.into_iter().flatten().collect()
    }

    /// Number of surviving records.
    pub fn ok_count(&self) -> usize {
        self.items.iter().filter(|s| s.is_some()).count()
    }

    /// Number of quarantined records.
    pub fn failed_count(&self) -> usize {
        self.quarantine.len()
    }
}

/// Folds per-record outcomes into a [`Degraded`] batch, enforcing `budget`.
///
/// The budget check runs once at batch end: `failed / total` strictly above
/// `max_error_rate` aborts. (An empty batch never aborts.)
pub fn collect_degraded<U>(
    site: &str,
    slots: impl IntoIterator<Item = Result<U, RecordError>>,
    budget: ErrorBudget,
) -> Result<Degraded<U>, BudgetExceeded> {
    let mut items = Vec::new();
    let mut quarantine = Vec::new();
    for (index, slot) in slots.into_iter().enumerate() {
        match slot {
            Ok(u) => items.push(Some(u)),
            Err(e) => {
                items.push(None);
                quarantine.push(QuarantineEntry {
                    site: site.to_string(),
                    index,
                    error: e.to_string(),
                });
            }
        }
    }
    let (failed, total) = (quarantine.len(), items.len());
    if total > 0 && failed as f64 > budget.max_error_rate * total as f64 {
        return Err(BudgetExceeded {
            site: site.to_string(),
            failed,
            total,
            max_error_rate: budget.max_error_rate,
        });
    }
    Ok(Degraded { items, quarantine })
}

/// Folds one panic-isolated slot (see `dim_par::try_par_map_indexed`)
/// into a record outcome: a caught panic becomes [`RecordError::Panicked`].
pub fn isolated<U>(slot: Result<Result<U, RecordError>, ItemPanic>) -> Result<U, RecordError> {
    slot.unwrap_or_else(|p| Err(RecordError::Panicked(p.message)))
}

/// [`collect_degraded`] over panic-isolated slots.
pub fn collect_isolated<U>(
    site: &str,
    slots: Vec<Result<Result<U, RecordError>, ItemPanic>>,
    budget: ErrorBudget,
) -> Result<Degraded<U>, BudgetExceeded> {
    collect_degraded(site, slots.into_iter().map(isolated), budget)
}

/// A degraded run's result that [`complete`] can settle: an output plus
/// the records skipped to produce it.
pub trait Outcome {
    /// The output with the quarantine log split off.
    type Output;
    /// Splits into the output and the quarantine log, in stage order.
    fn split(self) -> (Self::Output, Vec<QuarantineEntry>);
}

impl<U> Outcome for Degraded<U> {
    type Output = Vec<U>;
    fn split(self) -> (Vec<U>, Vec<QuarantineEntry>) {
        let quarantine = self.quarantine;
        (self.items.into_iter().flatten().collect(), quarantine)
    }
}

impl<T> Outcome for (T, Vec<QuarantineEntry>) {
    type Output = T;
    fn split(self) -> (T, Vec<QuarantineEntry>) {
        self
    }
}

/// A stage whose only output is its side effect (training a model).
impl Outcome for Vec<QuarantineEntry> {
    type Output = ();
    fn split(self) -> ((), Vec<QuarantineEntry>) {
        ((), self)
    }
}

/// Classic semantics over a `try_*` run under [`Policy::CLASSIC`]: the
/// output, or a panic re-raising the first skipped record — the lowest
/// index of the earliest batch, so the failure is the same at every
/// thread width.
pub fn complete<O: Outcome>(outcome: Result<O, BudgetExceeded>) -> O::Output {
    let (output, quarantine) = match outcome {
        Ok(o) => o.split(),
        // lint:allow(no_panic, classic semantics: the classic entry points re-raise what their try_* form recorded)
        Err(e) => panic!("{e}"),
    };
    if let Some(first) = quarantine.first() {
        // lint:allow(no_panic, classic semantics: the classic entry points re-raise what their try_* form recorded)
        panic!("{first}");
    }
    output
}

/// Renders a deterministic quarantine manifest: entries sorted by
/// `(site, index)`, one `site[index]: error` line each.
pub fn manifest(entries: &[QuarantineEntry]) -> String {
    if entries.is_empty() {
        return "(no records quarantined)\n".to_string();
    }
    let mut sorted: Vec<&QuarantineEntry> = entries.iter().collect();
    sorted.sort();
    let mut out = String::new();
    for e in sorted {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

/// Enforces the degraded-mode record size cap.
pub fn guard_len(bytes: usize) -> Result<(), RecordError> {
    if bytes > MAX_RECORD_BYTES {
        return Err(RecordError::Oversized { bytes, cap: MAX_RECORD_BYTES });
    }
    Ok(())
}

/// The per-record chaos hook every `try_*` site calls once with its
/// policy's plan. With an inactive plan it returns at once. When a fault
/// fires it is realized *honestly*:
///
/// * `Panic` — panics (caught by `dim_par`'s per-item isolation);
/// * `MalformedExpr` — runs the real `dimkb::expr` parser on
///   [`dim_chaos::MALFORMED_EXPR`], returning the genuine parse error;
/// * `CorruptKb` — evaluates the nonexistent [`dim_chaos::CORRUPT_UNIT`]
///   code, returning the genuine `UnknownUnit` error;
/// * `Oversize` — fails the real [`guard_len`] size check.
pub fn inject(plan: FaultPlan, site: &str, index: usize) -> Result<(), RecordError> {
    let Some(kind) = plan.decide(site, index as u64) else {
        return Ok(());
    };
    match kind {
        FaultKind::Panic => {
            dim_chaos::silence_injected_panic_reports();
            // lint:allow(no_panic, deliberate chaos fault realization; every caller sits behind dim-par per-item isolation or the serve worker catch_unwind)
            panic!("{} at {site}[{index}]", dim_chaos::INJECTED_PANIC_PREFIX)
        }
        FaultKind::MalformedExpr => {
            match crate::expr::eval(&crate::DimUnitKb::shared(), dim_chaos::MALFORMED_EXPR) {
                Err(e) => Err(RecordError::from(e)),
                Ok(_) => Ok(()), // unreachable: MALFORMED_EXPR never parses
            }
        }
        FaultKind::CorruptKb => {
            match crate::expr::eval(&crate::DimUnitKb::shared(), dim_chaos::CORRUPT_UNIT) {
                Err(e) => Err(RecordError::Kb(e)),
                Ok(_) => Ok(()), // unreachable: the code exists in no KB
            }
        }
        FaultKind::Oversize => guard_len(MAX_RECORD_BYTES + 1 + index),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_within_budget_preserves_positions() {
        let slots = vec![
            Ok(10),
            Err(RecordError::Gen("nope".into())),
            Ok(30),
            Err(RecordError::Oversized { bytes: 70_000, cap: MAX_RECORD_BYTES }),
            Ok(50),
        ];
        let d = collect_degraded("t.site", slots, ErrorBudget::new(0.5)).expect("within budget");
        assert_eq!(d.items, vec![Some(10), None, Some(30), None, Some(50)]);
        assert_eq!(d.ok_count(), 3);
        assert_eq!(d.failed_count(), 2);
        assert_eq!(d.quarantine[0].index, 1);
        assert_eq!(d.quarantine[1].index, 3);
        assert_eq!(d.clone().ok_items(), vec![10, 30, 50]);
        let m = manifest(&d.quarantine);
        assert!(m.starts_with("t.site[1]: gen: nope\n"), "manifest = {m}");
        assert!(m.contains("t.site[3]: oversized: record is 70000 bytes"));
    }

    #[test]
    fn budget_exceeded_is_typed() {
        let slots: Vec<Result<u32, RecordError>> =
            (0..10).map(|i| if i < 4 { Err(RecordError::Gen("x".into())) } else { Ok(i) }).collect();
        let err = collect_degraded("t.site", slots, ErrorBudget::new(0.3)).expect_err("4/10 > 0.3");
        assert_eq!(err.site, "t.site");
        assert_eq!(err.failed, 4);
        assert_eq!(err.total, 10);
        assert!(err.to_string().contains("4/10"));
    }

    #[test]
    fn strict_budget_rejects_any_failure_and_empty_batch_passes() {
        let ok: Vec<Result<u32, RecordError>> = vec![Ok(1), Ok(2)];
        assert!(collect_degraded("s", ok, ErrorBudget::new(0.0)).is_ok());
        let one_bad = vec![Ok(1), Err(RecordError::Gen("x".into()))];
        assert!(collect_degraded("s", one_bad, ErrorBudget::new(0.0)).is_err());
        let empty: Vec<Result<u32, RecordError>> = vec![];
        assert!(collect_degraded("s", empty, ErrorBudget::new(0.0)).is_ok());
    }

    #[test]
    fn manifest_is_sorted_and_stable() {
        let entries = vec![
            QuarantineEntry { site: "b".into(), index: 2, error: "e".into() },
            QuarantineEntry { site: "a".into(), index: 9, error: "e".into() },
            QuarantineEntry { site: "a".into(), index: 1, error: "e".into() },
        ];
        assert_eq!(manifest(&entries), "a[1]: e\na[9]: e\nb[2]: e\n");
        assert_eq!(manifest(&[]), "(no records quarantined)\n");
    }

    #[test]
    fn guard_len_enforces_cap() {
        assert!(guard_len(100).is_ok());
        assert!(guard_len(MAX_RECORD_BYTES).is_ok());
        let err = guard_len(MAX_RECORD_BYTES + 1).expect_err("over cap");
        assert_eq!(err.kind(), "oversized");
    }

    #[test]
    fn inject_is_noop_under_the_off_plan() {
        for i in 0..100 {
            assert_eq!(inject(FaultPlan::OFF, "degrade.test", i), Ok(()));
        }
    }

    #[test]
    fn inject_realizes_the_plans_faults() {
        let plan = FaultPlan {
            seed: 3,
            rate: 1.0,
            kinds: dim_chaos::FaultKinds::only(FaultKind::Oversize),
        };
        let err = inject(plan, "degrade.test", 0).expect_err("rate 1.0 always fires");
        assert_eq!(err.kind(), "oversized");
    }

    #[test]
    fn complete_returns_a_clean_run_and_reraises_the_first_skip() {
        let clean: Vec<Result<u32, RecordError>> = vec![Ok(1), Ok(2)];
        let d = collect_degraded("s", clean, Policy::CLASSIC.budget);
        assert_eq!(complete(d), vec![1, 2]);
        let slots: Vec<Result<Result<u32, RecordError>, ItemPanic>> = vec![
            Ok(Ok(1)),
            Err(ItemPanic { index: 1, message: "boom".into() }),
            Ok(Err(RecordError::Gen("later".into()))),
        ];
        let d = collect_isolated("s", slots, Policy::CLASSIC.budget);
        let payload = std::panic::catch_unwind(|| complete(d)).expect_err("a skip re-raises");
        let message = payload.downcast_ref::<String>().expect("formatted payload");
        assert_eq!(message, "s[1]: panicked: boom");
    }

    #[test]
    fn kb_error_conversion_separates_expr_parse() {
        let e: RecordError = KbError::ExprParse("bad".into()).into();
        assert_eq!(e.kind(), "expr-parse");
        let e: RecordError = KbError::UnknownUnit("frob".into()).into();
        assert_eq!(e.kind(), "kb");
    }

    #[test]
    fn chaos_payloads_fail_the_real_parser() {
        let kb = crate::DimUnitKb::shared();
        assert!(crate::expr::eval(&kb, dim_chaos::MALFORMED_EXPR).is_err());
        assert!(matches!(
            crate::expr::eval(&kb, dim_chaos::CORRUPT_UNIT),
            Err(KbError::UnknownUnit(_))
        ));
    }
}
