//! Quantity-oriented data augmentation (§V-B2, Table V).
//!
//! Two directions × two substitution methods:
//!
//! * **Context-based** — rewrite a quantity in the problem *context*;
//!   the answer must stay unchanged, so dimension substitution rescales the
//!   written value (150千克 → 150000克) and records the inverse conversion
//!   in the gold equation.
//! * **Question-based** — rewrite the unit the *question* asks in; the
//!   answer changes (450千克 → 0.45吨), so the gold equation gains a final
//!   conversion step.
//!
//! * **Format substitution** keeps the unit and swaps its surface form
//!   (千克 → kg).
//! * **Dimension substitution** swaps in a different unit of the same
//!   dimension (千克 → 克 / 吨).

use crate::equation::{Node, Op};
use crate::problem::MwpProblem;
use dimkb::degrade::{self, BudgetExceeded, Degraded, Policy, QuarantineEntry};
use dimkb::{DimUnitKb, Unit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// Observability (no-ops unless `dim_obs::enable()` was called). Attempts
// vs augmented measures the augmentation success rate at each η.
static QMWP_SPAN: dim_obs::Histogram = dim_obs::Histogram::new("mwp.qmwp");
static AUGMENT_SPAN: dim_obs::Histogram = dim_obs::Histogram::new("mwp.augment");
static AUGMENT_ATTEMPTS: dim_obs::Counter = dim_obs::Counter::new("mwp.augment_attempts");
static AUGMENTED: dim_obs::Counter = dim_obs::Counter::new("mwp.augmented");

/// Chaos/quarantine site for Q-MWP conversion (indexed by problem).
const SITE_QMWP: &str = "mwp.qmwp";
/// Chaos/quarantine site for dataset augmentation (indexed by attempt).
const SITE_AUGMENT: &str = "mwp.augment";

/// The four augmentation methods of Table V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AugmentMethod {
    /// Context-based unit format substitution.
    ContextFormat,
    /// Context-based substitution of a unit with the same dimension.
    ContextDimension,
    /// Question-based unit format substitution.
    QuestionFormat,
    /// Question-based substitution of a unit with the same dimension.
    QuestionDimension,
}

impl AugmentMethod {
    /// All four methods.
    pub const ALL: [AugmentMethod; 4] = [
        AugmentMethod::ContextFormat,
        AugmentMethod::ContextDimension,
        AugmentMethod::QuestionFormat,
        AugmentMethod::QuestionDimension,
    ];
}

/// The augmenter: a KB plus RNG.
pub struct Augmenter<'a> {
    kb: &'a DimUnitKb,
    rng: StdRng,
    /// The seed this augmenter was created with; the batch entry points
    /// derive independent per-item streams from it (see [`dim_par::seed_for`])
    /// so their output does not depend on thread count.
    seed: u64,
}

impl<'a> Augmenter<'a> {
    /// Creates an augmenter.
    pub fn new(kb: &'a DimUnitKb, seed: u64) -> Self {
        Augmenter { kb, rng: StdRng::seed_from_u64(seed), seed }
    }

    /// Applies one method to a problem; `None` when the method does not
    /// apply (no eligible quantity, no alternative unit, …).
    pub fn augment(&mut self, p: &MwpProblem, method: AugmentMethod) -> Option<MwpProblem> {
        match method {
            AugmentMethod::ContextFormat => self.context_format(p),
            AugmentMethod::ContextDimension => self.context_dimension(p),
            AugmentMethod::QuestionFormat => self.question_format(p),
            AugmentMethod::QuestionDimension => self.question_dimension(p),
        }
    }

    /// Context quantities eligible for substitution: linked to a real unit,
    /// not percent, not a bare count, surface actually a form of the unit.
    fn eligible_context(&self, p: &MwpProblem) -> Vec<usize> {
        let in_question = p.question_quantities();
        (0..p.quantities.len())
            .filter(|i| !in_question.contains(i))
            .filter(|&i| {
                let q = &p.quantities[i];
                if q.is_percent || q.surface.is_empty() {
                    return false;
                }
                let Some(code) = &q.unit_code else { return false };
                let Some(unit) = self.kb.unit_by_code(code) else { return false };
                unit.surface_forms().any(|f| f == q.surface)
            })
            .collect()
    }

    fn alt_format(&mut self, unit: &Unit, current: &str) -> Option<String> {
        let mut forms: Vec<&str> = unit.surface_forms().filter(|f| *f != current).collect();
        if forms.is_empty() {
            return None;
        }
        let pick = self.rng.gen_range(0..forms.len());
        Some(forms.swap_remove(pick).to_string())
    }

    fn alt_unit(&mut self, unit: &Unit, value: f64) -> Option<(&'a Unit, f64)> {
        let candidates: Vec<&Unit> = self
            .kb
            .units_with_dim(unit.dim)
            .iter()
            .map(|&id| self.kb.unit(id))
            .filter(|u| {
                u.code != unit.code
                    && !u.conversion.is_affine()
                    && u.frequency > 0.3
                    && !u.label_zh.is_empty()
                    // A same-scale unit (公斤 vs 千克) is a format change,
                    // not a dimension substitution requiring conversion.
                    && (u.conversion.factor / unit.conversion.factor - 1.0).abs() > 1e-12
            })
            .filter(|u| {
                let v = value * unit.conversion.factor / u.conversion.factor;
                (1e-3..1e7).contains(&v.abs())
            })
            .collect();
        if candidates.is_empty() {
            return None;
        }
        // Prefer power-of-ten (or otherwise short) rescalings so values
        // stay readable, like the paper's 150千克 → 150000克.
        let nice: Vec<&&Unit> = candidates
            .iter()
            .filter(|u| {
                let v = value * unit.conversion.factor / u.conversion.factor;
                (v * 1e4).round() / 1e4 == v
            })
            .collect();
        let chosen: &Unit = if nice.is_empty() {
            candidates[self.rng.gen_range(0..candidates.len())]
        } else {
            nice[self.rng.gen_range(0..nice.len())]
        };
        let new_value = value * unit.conversion.factor / chosen.conversion.factor;
        Some((chosen, new_value))
    }

    fn context_format(&mut self, p: &MwpProblem) -> Option<MwpProblem> {
        let eligible = self.eligible_context(p);
        if eligible.is_empty() {
            return None;
        }
        let i = eligible[self.rng.gen_range(0..eligible.len())];
        let q = &p.quantities[i];
        let unit = self.kb.unit_by_code(q.unit_code.as_ref()?)?;
        let new_surface = self.alt_format(unit, &q.surface)?;
        let mut out = p.clone();
        out.quantities[i].surface = new_surface;
        Some(out)
    }

    fn context_dimension(&mut self, p: &MwpProblem) -> Option<MwpProblem> {
        let eligible = self.eligible_context(p);
        if eligible.is_empty() {
            return None;
        }
        let i = eligible[self.rng.gen_range(0..eligible.len())];
        let q = &p.quantities[i];
        let unit = self.kb.unit_by_code(q.unit_code.as_ref()?)?;
        let (new_unit, new_value) = self.alt_unit(unit, q.value)?;
        // The conversion restoring the original scale: written value in the
        // new unit × (f_new / f_old) = original written value.
        let ratio = new_unit.conversion.factor / unit.conversion.factor;
        let mut out = p.clone();
        out.quantities[i].value = new_value;
        out.quantities[i].unit_code = Some(new_unit.code.clone());
        out.quantities[i].surface = new_unit.label_zh.clone();
        out.equation = out.equation.map_q(&mut |j| {
            if j == i {
                wrap_conversion(Node::Q(j), ratio)
            } else {
                Node::Q(j)
            }
        });
        out.conversions.push((i, ratio));
        Some(out)
    }

    fn question_format(&mut self, p: &MwpProblem) -> Option<MwpProblem> {
        let code = p.answer_unit_code.as_ref()?;
        let unit = self.kb.unit_by_code(code)?;
        if !unit.surface_forms().any(|f| f == p.answer_unit_surface) {
            return None;
        }
        let new_surface = self.alt_format(unit, &p.answer_unit_surface)?;
        let mut out = p.clone();
        out.answer_unit_surface = new_surface;
        Some(out)
    }

    fn question_dimension(&mut self, p: &MwpProblem) -> Option<MwpProblem> {
        let code = p.answer_unit_code.as_ref()?;
        let unit = self.kb.unit_by_code(code)?;
        if unit.conversion.is_affine() {
            return None;
        }
        if !unit.surface_forms().any(|f| f == p.answer_unit_surface) {
            return None;
        }
        let answer = p.answer();
        let (new_unit, _) = self.alt_unit(unit, answer)?;
        // answer' = answer × f_old / f_new.
        let ratio = unit.conversion.factor / new_unit.conversion.factor;
        let mut out = p.clone();
        out.answer_unit_code = Some(new_unit.code.clone());
        out.answer_unit_surface = new_unit.label_zh.clone();
        out.equation = wrap_conversion(out.equation, ratio);
        out.answer_conversion *= ratio;
        Some(out)
    }

    /// One problem's Q-MWP derivation: one or two dimension substitutions
    /// (falling back to format substitution), drawing from `self.rng`.
    fn qmwp_one(&mut self, p: &MwpProblem) -> MwpProblem {
        let mut cur = p.clone();
        let first = if self.rng.gen_bool(0.75) {
            AugmentMethod::ContextDimension
        } else {
            AugmentMethod::QuestionDimension
        };
        if let Some(next) = self.augment(&cur, first) {
            cur = next;
        } else if let Some(next) = self.augment(&cur, AugmentMethod::ContextFormat) {
            cur = next;
        }
        // A second pass diversifies further half the time.
        if self.rng.gen_bool(0.5) {
            let second = if self.rng.gen_bool(0.5) {
                AugmentMethod::QuestionDimension
            } else {
                AugmentMethod::ContextDimension
            };
            if let Some(next) = self.augment(&cur, second) {
                cur = next;
            }
        }
        if let Some(next) = self.augment(&cur, AugmentMethod::QuestionFormat) {
            if self.rng.gen_bool(0.3) {
                cur = next;
            }
        }
        cur
    }

    /// Builds a Q-MWP dataset: each problem receives one or two dimension
    /// substitutions (falling back to format substitution), diversifying
    /// units and adding conversion steps — the Table VI profile.
    pub fn to_qmwp(&mut self, problems: &[MwpProblem]) -> Vec<MwpProblem> {
        self.to_qmwp_with(problems, dim_par::Parallelism::SEQUENTIAL)
    }

    /// Like [`Self::to_qmwp`], fanning the per-problem work out across
    /// `par`. Each problem gets its own RNG stream from `(seed, index)`,
    /// so output is byte-identical for every thread count — the morsel
    /// scheduler in `dim_par` only decides *where* an index runs (and
    /// clamps the worker count to the host's usable cores), never which
    /// seed it gets.
    pub fn to_qmwp_with(
        &mut self,
        problems: &[MwpProblem],
        par: dim_par::Parallelism,
    ) -> Vec<MwpProblem> {
        degrade::complete(self.try_to_qmwp_with(problems, par, Policy::CLASSIC))
    }

    /// Degraded-mode [`Self::to_qmwp_with`]: per-problem panic isolation and
    /// fault injection; a faulted problem is quarantined (its slot is
    /// `None`) under the policy's budget. With no faults, slot `i` equals
    /// the classic output's element `i` exactly.
    pub fn try_to_qmwp_with(
        &mut self,
        problems: &[MwpProblem],
        par: dim_par::Parallelism,
        policy: Policy,
    ) -> Result<Degraded<MwpProblem>, BudgetExceeded> {
        let _span = QMWP_SPAN.span();
        let (kb, seed) = (self.kb, self.seed);
        let slots = dim_par::try_par_map_indexed(par, problems, |i, p| {
            degrade::inject(policy.plan, SITE_QMWP, i)?;
            Ok(Augmenter::new(kb, dim_par::seed_for(seed ^ 0x51, i as u64)).qmwp_one(p))
        });
        degrade::collect_isolated(SITE_QMWP, slots, policy.budget)
    }

    /// Training-set augmentation at rate η: appends ~η·N augmented variants
    /// (random method per pick) to the originals (§VI-G, Fig. 6).
    pub fn augment_dataset(&mut self, problems: &[MwpProblem], eta: f64) -> Vec<MwpProblem> {
        self.augment_dataset_with(problems, eta, dim_par::Parallelism::SEQUENTIAL)
    }

    /// Like [`Self::augment_dataset`] with a parallel fan-out. Augmentation
    /// attempts are numbered; attempt `k` derives its own RNG stream from
    /// `(seed, k)` and picks its own problem and method, and the first
    /// `extra` successes in attempt order are kept — waves of attempts run
    /// in parallel but the kept set is thread-count invariant.
    pub fn augment_dataset_with(
        &mut self,
        problems: &[MwpProblem],
        eta: f64,
        par: dim_par::Parallelism,
    ) -> Vec<MwpProblem> {
        degrade::complete(self.try_augment_dataset_with(problems, eta, par, Policy::CLASSIC))
    }

    /// Degraded-mode [`Self::augment_dataset_with`]: each attempt runs in
    /// panic isolation, faulted attempts are recorded (by attempt number)
    /// and skipped, and later attempts backfill toward the η target — so
    /// unlike the positional `try_*` batches, the *set* of appended variants
    /// can differ from a fault-free run when faults fire (with no faults it
    /// is identical). The budget is checked over attempts at the end.
    pub fn try_augment_dataset_with(
        &mut self,
        problems: &[MwpProblem],
        eta: f64,
        par: dim_par::Parallelism,
        policy: Policy,
    ) -> Result<(Vec<MwpProblem>, Vec<QuarantineEntry>), BudgetExceeded> {
        let _span = AUGMENT_SPAN.span();
        let mut out = problems.to_vec();
        let extra = (problems.len() as f64 * eta).round() as usize;
        if extra == 0 || problems.is_empty() {
            return Ok((out, Vec::new()));
        }
        let (kb, seed) = (self.kb, self.seed);
        let guard_limit = extra * 20 + 100;
        let mut produced = 0usize;
        let mut attempt = 0usize;
        let mut quarantine = Vec::new();
        while produced < extra && attempt < guard_limit {
            // Most attempts succeed, so a wave sized to the deficit (with a
            // floor to amortize fan-out) rarely needs a second round.
            let wave = (extra - produced).max(32).min(guard_limit - attempt);
            let ks: Vec<u64> = (attempt..attempt + wave).map(|k| k as u64).collect();
            let results = dim_par::try_par_map_indexed(par, &ks, |_, &k| {
                degrade::inject(policy.plan, SITE_AUGMENT, k as usize)?;
                Ok(attempt_one(kb, seed, problems, k))
            });
            for (j, slot) in results.into_iter().enumerate() {
                match degrade::isolated(slot) {
                    Ok(Some(aug)) => {
                        if produced < extra {
                            out.push(aug);
                            produced += 1;
                        }
                    }
                    Ok(None) => {}
                    Err(e) => quarantine.push(QuarantineEntry {
                        site: SITE_AUGMENT.to_string(),
                        index: attempt + j,
                        error: e.to_string(),
                    }),
                }
            }
            attempt += wave;
        }
        AUGMENT_ATTEMPTS.add(attempt as u64);
        AUGMENTED.add(produced as u64);
        let failed = quarantine.len();
        if attempt > 0 && failed as f64 > policy.budget.max_error_rate * attempt as f64 {
            return Err(BudgetExceeded {
                site: SITE_AUGMENT.to_string(),
                failed,
                total: attempt,
                max_error_rate: policy.budget.max_error_rate,
            });
        }
        Ok((out, quarantine))
    }
}

/// One numbered augmentation attempt: attempt `k` derives its own RNG
/// stream from `(seed, k)`, picks its own problem and method, and succeeds
/// or not.
fn attempt_one(
    kb: &DimUnitKb,
    seed: u64,
    problems: &[MwpProblem],
    k: u64,
) -> Option<MwpProblem> {
    let mut a = Augmenter::new(kb, dim_par::seed_for(seed ^ 0x0A, k));
    let p = &problems[a.rng.gen_range(0..problems.len())];
    let method = AugmentMethod::ALL[a.rng.gen_range(0..AugmentMethod::ALL.len())];
    a.augment(p, method)
}

/// Wraps `node` so it evaluates to `node × ratio`, rendered as `/k` when
/// the ratio is a reciprocal of a clean factor (the conventional gold form
/// `x=…/1000` rather than `x=…*0.001`).
fn wrap_conversion(node: Node, ratio: f64) -> Node {
    if ratio == 1.0 {
        return node;
    }
    let recip = 1.0 / ratio;
    if recip > 1.0 && (recip.round() - recip).abs() < 1e-9 {
        Node::bin(Op::Div, node, Node::Const(recip.round()))
    } else {
        Node::bin(Op::Mul, node, Node::Const(ratio))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use crate::problem::Source;
    use dimkb::DimUnitKb;

    fn problems() -> Vec<MwpProblem> {
        generate(Source::Math23k, &GenConfig { count: 60, seed: 33 })
    }

    #[test]
    fn context_dimension_preserves_answer() {
        let kb = DimUnitKb::shared();
        let mut aug = Augmenter::new(&kb, 1);
        let mut applied = 0;
        for p in problems() {
            if let Some(a) = aug.augment(&p, AugmentMethod::ContextDimension) {
                applied += 1;
                let (orig, new) = (p.answer(), a.answer());
                assert!(
                    (orig - new).abs() < 1e-6 * orig.abs().max(1.0),
                    "answer changed {orig} -> {new}\n  {} | {}\n  {} | {}",
                    p.text(),
                    p.equation_text(),
                    a.text(),
                    a.equation_text()
                );
                assert_ne!(p.text(), a.text(), "text must actually change");
                assert!(a.op_count() > p.op_count(), "conversion adds operations");
            }
        }
        assert!(applied > 30, "method should usually apply, got {applied}");
    }

    #[test]
    fn context_format_keeps_answer_and_equation() {
        let kb = DimUnitKb::shared();
        let mut aug = Augmenter::new(&kb, 2);
        let mut applied = 0;
        for p in problems() {
            if let Some(a) = aug.augment(&p, AugmentMethod::ContextFormat) {
                applied += 1;
                assert_eq!(p.equation_text(), a.equation_text());
                assert_eq!(p.answer(), a.answer());
                assert_ne!(p.text(), a.text());
            }
        }
        assert!(applied > 30);
    }

    #[test]
    fn question_dimension_rescales_answer() {
        let kb = DimUnitKb::shared();
        let mut aug = Augmenter::new(&kb, 3);
        let mut applied = 0;
        for p in problems() {
            if let Some(a) = aug.augment(&p, AugmentMethod::QuestionDimension) {
                applied += 1;
                let old_unit = kb.unit_by_code(p.answer_unit_code.as_ref().unwrap()).unwrap();
                let new_unit = kb.unit_by_code(a.answer_unit_code.as_ref().unwrap()).unwrap();
                let expect = p.answer() * old_unit.conversion.factor / new_unit.conversion.factor;
                assert!(
                    (a.answer() - expect).abs() < 1e-6 * expect.abs().max(1e-12),
                    "answer {} != expected {expect}",
                    a.answer()
                );
                assert_ne!(p.answer_unit_surface, a.answer_unit_surface);
            }
        }
        assert!(applied > 10, "got {applied}");
    }

    #[test]
    fn table_v_style_example() {
        // Reproduce the Table V question-dimension case: 千克 → 吨 divides
        // the answer by 1000.
        let kb = DimUnitKb::shared();
        let base = problems().into_iter().find(|p| p.answer_unit_surface == "千克").unwrap();
        let mut found = false;
        for seed in 0..40 {
            let mut aug = Augmenter::new(&kb, seed);
            if let Some(a) = aug.augment(&base, AugmentMethod::QuestionDimension) {
                if a.answer_unit_surface == "吨" {
                    assert!((a.answer() - base.answer() / 1000.0).abs() < 1e-9);
                    assert!(a.equation_text().contains("/1000"), "{}", a.equation_text());
                    found = true;
                    break;
                }
            }
        }
        assert!(found, "千克→吨 substitution should be reachable");
    }

    #[test]
    fn qmwp_diversifies_units() {
        let kb = DimUnitKb::shared();
        let ps = problems();
        let mut aug = Augmenter::new(&kb, 5);
        let qs = aug.to_qmwp(&ps);
        let distinct = |set: &[MwpProblem]| {
            let mut all: Vec<String> = set
                .iter()
                .flat_map(|p| p.unit_surfaces().into_iter().map(String::from).collect::<Vec<_>>())
                .collect();
            all.sort();
            all.dedup();
            all.len()
        };
        assert!(
            distinct(&qs) > distinct(&ps),
            "Q-MWP must have more unit diversity: {} vs {}",
            distinct(&qs),
            distinct(&ps)
        );
        let ops = |set: &[MwpProblem]| {
            set.iter().map(MwpProblem::op_count).sum::<usize>() as f64 / set.len() as f64
        };
        assert!(ops(&qs) > ops(&ps), "Q-MWP needs more computation steps");
    }

    #[test]
    fn augment_dataset_rate_controls_size() {
        let kb = DimUnitKb::shared();
        let ps = problems();
        let mut aug = Augmenter::new(&kb, 6);
        let half = aug.augment_dataset(&ps, 0.5);
        assert_eq!(half.len(), ps.len() + ps.len() / 2);
        let zero = aug.augment_dataset(&ps, 0.0);
        assert_eq!(zero.len(), ps.len());
    }

    #[test]
    fn batch_augmentation_is_thread_count_invariant() {
        let kb = DimUnitKb::shared();
        let ps = problems();
        let seq_qmwp = Augmenter::new(&kb, 5).to_qmwp(&ps);
        let seq_data = Augmenter::new(&kb, 6).augment_dataset(&ps, 0.5);
        for threads in [2, 4] {
            let par = dim_par::Parallelism::new(threads);
            assert_eq!(Augmenter::new(&kb, 5).to_qmwp_with(&ps, par), seq_qmwp);
            assert_eq!(Augmenter::new(&kb, 6).augment_dataset_with(&ps, 0.5, par), seq_data);
        }
    }

    #[test]
    fn augmented_equations_still_calculate() {
        let kb = DimUnitKb::shared();
        let ps = problems();
        let mut aug = Augmenter::new(&kb, 7);
        for p in aug.to_qmwp(&ps) {
            let via = crate::equation::calculate(&p.equation_text()).unwrap();
            assert!(
                (via - p.answer()).abs() < 1e-6 * p.answer().abs().max(1.0),
                "{} -> {via} vs {}",
                p.equation_text(),
                p.answer()
            );
        }
    }
}
