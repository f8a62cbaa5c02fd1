//! Knowledge-gap solvers standing in for the paper's baseline LLMs.
//!
//! A [`SimulatedLlm`] attempts every DimEval and MWP task *mechanically*
//! through its sampled [`KnowledgeView`]: it answers a comparable-analysis
//! item by actually comparing the dimension vectors it believes it knows,
//! converts units with the (possibly slipped) factors it believes, and
//! builds MWP answers step by step with a per-operation comprehension
//! gate. Accuracy therefore *emerges* from what the model knows, and the
//! characteristic behaviours the paper reports — abstention depressing F1,
//! order-of-magnitude conversion slips, collapse on Q-MWP — fall out of
//! the mechanism.

use crate::knowledge::KnowledgeView;
use crate::profile::CapabilityProfile;
use dimeval::{ChoiceItem, DimEvalSolver, ExtractedQuantity, ItemMeta, NUM_OPTIONS};
use dimkb::{DimUnitKb, UnitId};
use dimlink::{Annotator, LinkerConfig, UnitLinker};
use dim_mwp::{MwpProblem, MwpSolver, Prediction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A simulated baseline LLM.
pub struct SimulatedLlm {
    profile: CapabilityProfile,
    kb: Arc<DimUnitKb>,
    view: KnowledgeView,
    annotator: Annotator,
    rng: StdRng,
}

impl SimulatedLlm {
    /// Builds a simulated model from a profile (deterministic per seed).
    pub fn new(kb: Arc<DimUnitKb>, profile: CapabilityProfile, seed: u64) -> Self {
        let view = KnowledgeView::sample(&kb, &profile, seed);
        let annotator =
            Annotator::new(UnitLinker::with_config(kb.clone(), LinkerConfig::default()));
        SimulatedLlm { profile, kb, view, annotator, rng: StdRng::seed_from_u64(seed ^ 0xABCD) }
    }

    /// The profile driving this model.
    pub fn profile(&self) -> &CapabilityProfile {
        &self.profile
    }

    /// The knowledge view (for diagnostics and the tool wrapper).
    pub fn view(&self) -> &KnowledgeView {
        &self.view
    }

    /// The true SI factor of a unit (exposed for the tool wrapper, which
    /// answers through the engine rather than the degraded view).
    pub fn kb_unit_factor(&self, id: UnitId) -> f64 {
        self.kb.unit(id).conversion.factor
    }

    /// Solves an MWP under an explicit tool outcome (used by the wrapper).
    pub fn solve_with_tool(&mut self, problem: &MwpProblem, tool: ToolEffect) -> Prediction {
        solve_mwp(problem, &self.profile, &self.view, &self.kb, &mut self.rng, tool)
    }

    /// Uncertain fallback: abstain per the profile, else guess uniformly
    /// among the remaining plausible options.
    fn fallback(&mut self, plausible: &[usize]) -> Option<usize> {
        if self.rng.gen_bool(self.profile.abstention) {
            return None;
        }
        if plausible.is_empty() {
            return Some(self.rng.gen_range(0..NUM_OPTIONS));
        }
        Some(plausible[self.rng.gen_range(0..plausible.len())])
    }

    fn answer_kind_match(&mut self, item: &ChoiceItem, options: &[UnitId]) -> Option<usize> {
        // `item.answer` is used as the oracle for "is this the unit whose
        // kind matches" — the simulation shortcut for kind lookup.
        // The model checks each candidate's kind association it knows; a
        // candidate whose kind it knows is either confirmed or excluded.
        let mut plausible = Vec::new();
        for (i, &u) in options.iter().enumerate() {
            let k = self.view.unit(u);
            if k.known && k.kind {
                if i == item.answer {
                    return Some(i); // correctly recognizes the association
                }
                // Known kind that doesn't match the asked kind: excluded.
            } else {
                plausible.push(i);
            }
        }
        self.fallback(&plausible)
    }

    fn answer_comparable(
        &mut self,
        _item: &ChoiceItem,
        reference: UnitId,
        options: &[UnitId],
    ) -> Option<usize> {
        let ref_k = self.view.unit(reference);
        if !ref_k.dimension {
            let all: Vec<usize> = (0..options.len()).collect();
            return self.fallback(&all);
        }
        let mut plausible = Vec::new();
        for (i, &u) in options.iter().enumerate() {
            let k = self.view.unit(u);
            if k.dimension {
                if self.kb.unit(u).dim == self.kb.unit(reference).dim {
                    return Some(i);
                }
            } else {
                plausible.push(i);
            }
        }
        self.fallback(&plausible)
    }

    fn answer_dim_prediction(&mut self, item: &ChoiceItem, options: &[UnitId]) -> Option<usize> {
        // The model must infer the masked kind from context (kind knowledge
        // of the gold unit) and know the candidates' dimensions.
        let gold_unit = options[item.answer];
        let k = self.view.unit(gold_unit);
        if k.known && k.kind && k.dimension {
            return Some(item.answer);
        }
        // Partial elimination: exclude candidates whose dimension it knows
        // to be absurd for the context half the time.
        let mut plausible: Vec<usize> = Vec::new();
        for (i, &u) in options.iter().enumerate() {
            let ku = self.view.unit(u);
            if ku.dimension && i != item.answer && self.rng.gen_bool(0.5) {
                continue;
            }
            plausible.push(i);
        }
        self.fallback(&plausible)
    }

    fn answer_dim_arithmetic(
        &mut self,
        item: &ChoiceItem,
        expr: &[(UnitId, i8)],
        options: &[UnitId],
    ) -> Option<usize> {
        // Needs the dimension of every operand, the dimension of the gold
        // option, and a successful symbolic combination per step.
        let operands_known = expr.iter().all(|(u, _)| self.view.unit(*u).dimension);
        let gold_known = self.view.unit(options[item.answer]).dimension;
        let steps = expr.len() as i32;
        let combine_ok = self.rng.gen_bool(self.profile.arithmetic.powi(steps).max(1e-9));
        if operands_known && gold_known && combine_ok {
            return Some(item.answer);
        }
        let all: Vec<usize> = (0..options.len()).collect();
        self.fallback(&all)
    }

    fn answer_magnitude(&mut self, _item: &ChoiceItem, options: &[UnitId]) -> Option<usize> {
        // Compare believed SI factors. Two error sources: slipped factors
        // (order-of-magnitude errors) and fuzzy ordering of *close*
        // magnitudes — LLMs reliably rank km above mm but fumble km vs
        // mile. The fuzz is log-scale noise shrinking with arithmetic
        // skill.
        let fuzz = (1.0 - self.profile.arithmetic) * 1.1;
        let mut best: Option<(usize, f64)> = None;
        let mut any_unknown = false;
        for (i, &u) in options.iter().enumerate() {
            let k = self.view.unit(u);
            if !k.known {
                any_unknown = true;
                continue;
            }
            let noise = 10f64.powf(self.rng.gen_range(-fuzz..=fuzz));
            let believed = self.kb.unit(u).conversion.factor * k.factor_ratio * noise;
            if best.is_none_or(|(_, b)| believed > b) {
                best = Some((i, believed));
            }
        }
        match best {
            Some((i, _)) if !any_unknown => Some(i),
            Some((i, _)) => {
                // Unknown candidates remain: answer from what it knows, or
                // abstain per the profile.
                if self.rng.gen_bool(self.profile.abstention) {
                    None
                } else {
                    Some(i)
                }
            }
            None => self.fallback(&[]),
        }
    }

    fn answer_conversion(
        &mut self,
        _item: &ChoiceItem,
        from: UnitId,
        to: UnitId,
        factors: &[f64],
    ) -> Option<usize> {
        let (kf, kt) = (self.view.unit(from), self.view.unit(to));
        if !kf.known || !kt.known {
            let all: Vec<usize> = (0..factors.len()).collect();
            return self.fallback(&all);
        }
        let true_beta = self.kb.conversion_factor(from, to).ok()?;
        let believed = self.view.believed_factor(true_beta, from, to);
        // Choose the option closest in log-space to the believed factor.
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, &f) in factors.iter().enumerate() {
            if f <= 0.0 || believed <= 0.0 {
                continue;
            }
            let d = (f.ln() - believed.ln()).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        Some(best)
    }
}

impl DimEvalSolver for SimulatedLlm {
    fn name(&self) -> String {
        self.profile.name.to_string()
    }

    fn answer(&mut self, item: &ChoiceItem) -> Option<usize> {
        match &item.meta {
            ItemMeta::KindMatch { options, .. } => {
                let options = options.clone();
                self.answer_kind_match(item, &options)
            }
            ItemMeta::Comparable { reference, options } => {
                let (r, o) = (*reference, options.clone());
                self.answer_comparable(item, r, &o)
            }
            ItemMeta::DimPrediction { options, .. } => {
                let o = options.clone();
                self.answer_dim_prediction(item, &o)
            }
            ItemMeta::DimArithmetic { expr, options } => {
                let (e, o) = (expr.clone(), options.clone());
                self.answer_dim_arithmetic(item, &e, &o)
            }
            ItemMeta::Magnitude { options } => {
                let o = options.clone();
                self.answer_magnitude(item, &o)
            }
            ItemMeta::Conversion { from, to, factors } => {
                let (f, t, fs) = (*from, *to, factors.clone());
                self.answer_conversion(item, f, t, &fs)
            }
        }
    }

    fn extract(&mut self, text: &str) -> Vec<ExtractedQuantity> {
        if self.profile.extraction == 0.0 {
            return Vec::new(); // no support for the task's language
        }
        // The model spots a quantity when its span-identification fires AND
        // it recognizes the unit; unknown units are silently skipped (the
        // paper's "models disregard units they don't understand").
        let mut out = Vec::new();
        for m in self.annotator.annotate(text) {
            let unit_known = self.view.unit(m.best_unit()).known;
            let spotted = self.rng.gen_bool(self.profile.extraction.clamp(0.0, 1.0));
            if unit_known && spotted {
                out.push(ExtractedQuantity { value: m.value, unit_surface: m.unit_surface });
            } else if !unit_known && self.rng.gen_bool(0.15) {
                // Occasionally extracts the value with a garbled unit.
                out.push(ExtractedQuantity {
                    value: m.value,
                    unit_surface: m.unit_surface.chars().take(1).collect(),
                });
            }
        }
        out
    }
}

impl MwpSolver for SimulatedLlm {
    fn name(&self) -> String {
        self.profile.name.to_string()
    }

    fn solve(&mut self, problem: &MwpProblem) -> Prediction {
        solve_mwp(problem, &self.profile, &self.view, &self.kb, &mut self.rng, ToolEffect::NotUsed)
    }
}

/// The outcome of attempting to use an external tool on one problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToolEffect {
    /// No tool available / not invoked.
    NotUsed,
    /// Tool invoked and interfaced correctly: arithmetic burden drops and
    /// conversions are exact.
    Success,
    /// Tool invoked but the interface mangled the exchange: the model is
    /// left *more* confused than without the tool.
    Confusion,
}

/// The shared MWP mechanism (also used by the tool-augmented wrapper).
///
/// 1. *Skeleton*: the model translates text into the right equation shape
///    with per-operation probability `comprehension` (conversion steps are
///    not part of the base skeleton).
/// 2. *Conversions*: each unit-conversion step succeeds only if the model
///    knows the unit exactly; an unknown unit means the conversion is
///    silently skipped, a slipped factor scales the answer wrongly.
/// 3. With a tool (`tool_ok`), the arithmetic burden drops (one fewer
///    effective step) and conversions are delegated to the tool.
pub fn solve_mwp(
    problem: &MwpProblem,
    profile: &CapabilityProfile,
    view: &KnowledgeView,
    kb: &DimUnitKb,
    rng: &mut StdRng,
    tool: ToolEffect,
) -> Prediction {
    let total_ops = problem.op_count();
    let conv_ops = problem.conversions.len()
        + usize::from((problem.answer_conversion - 1.0).abs() > 1e-12);
    let base_ops = total_ops.saturating_sub(conv_ops) as i32;
    let effective_ops = match tool {
        ToolEffect::Success => (base_ops - 1).max(0),
        ToolEffect::NotUsed => base_ops,
        // A failed tool exchange costs comprehension instead of saving it.
        ToolEffect::Confusion => base_ops + 1,
    };
    let tool_ok = tool == ToolEffect::Success;
    let p_skeleton = profile.comprehension.powi(1 + effective_ops).clamp(1e-9, 1.0);
    if !rng.gen_bool(p_skeleton) {
        // Wrong structure: produce a plausible-but-wrong answer.
        let gold = problem.answer();
        let noise = [0.5, 2.0, 1.5, 0.1][rng.gen_range(0..4usize)];
        return Prediction::Answer(gold * noise + 1.0);
    }
    let mut answer = problem.answer();
    let resolve = |code: &Option<String>| -> Option<UnitId> {
        code.as_ref().and_then(|c| kb.unit_by_code(c)).map(|u| u.id)
    };
    // Even a known conversion must be *noticed and applied* mid-solution —
    // the step LLMs routinely fumble (Fig. 1). A working tool takes over
    // the arithmetic but the model must still hand it the right units.
    let apply_p = if tool_ok {
        0.55 + 0.45 * profile.tool_use
    } else {
        0.45 + 0.55 * profile.arithmetic
    };
    for (qi, ratio) in &problem.conversions {
        let Some(uid) = resolve(&problem.quantities[*qi].unit_code) else { continue };
        let k = view.unit(uid);
        if !k.known {
            // Doesn't recognize the unit: treats the written value as if it
            // were in the expected unit, i.e. skips the conversion.
            answer /= ratio;
        } else if !rng.gen_bool(apply_p.clamp(0.0, 1.0)) {
            // Knows the unit but fails to carry out the normalization step.
            answer /= ratio;
        } else if k.factor_ratio != 1.0 && !tool_ok {
            answer *= k.factor_ratio;
        }
    }
    if (problem.answer_conversion - 1.0).abs() > 1e-12 {
        let Some(uid) = resolve(&problem.answer_unit_code) else {
            return Prediction::Answer(answer);
        };
        let k = view.unit(uid);
        // Unknown unit and fumbled application look the same from outside:
        // the conversion silently doesn't happen.
        if !k.known || !rng.gen_bool(apply_p.clamp(0.0, 1.0)) {
            answer /= problem.answer_conversion;
        } else if k.factor_ratio != 1.0 && !tool_ok {
            answer *= k.factor_ratio;
        }
    }
    Prediction::Answer(answer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{BERTGEN, CHATGLM2_6B, GPT35_TURBO, GPT4};
    use dim_mwp::{accuracy, generate, Augmenter, GenConfig, Source};
    use dimeval::{evaluate, DimEval, DimEvalConfig, TaskKind};
    use dimkb::degrade::{self, Policy};

    fn bench() -> DimEval {
        let config = DimEvalConfig { per_task: 30, extraction_items: 30, ..Default::default() };
        degrade::complete(DimEval::build(&DimUnitKb::shared(), &config, Policy::CLASSIC))
    }

    #[test]
    fn gpt4_beats_chatglm_on_dimeval() {
        let kb = DimUnitKb::shared();
        let e = bench();
        let mut strong = SimulatedLlm::new(kb.clone(), GPT4, 1);
        let mut weak = SimulatedLlm::new(kb, CHATGLM2_6B, 1);
        let rs = evaluate(&mut strong, &e);
        let rw = evaluate(&mut weak, &e);
        let mean = |r: &dimeval::EvalReport| {
            r.choice.values().map(|s| s.precision()).sum::<f64>() / r.choice.len() as f64
        };
        assert!(
            mean(&rs) > mean(&rw) + 0.08,
            "GPT-4 {} vs ChatGLM {}",
            mean(&rs),
            mean(&rw)
        );
    }

    #[test]
    fn dimension_arithmetic_is_hardest_for_llms() {
        // Table VII shape: dimension arithmetic precision collapses
        // relative to extraction-adjacent tasks.
        let kb = DimUnitKb::shared();
        let e = bench();
        let mut m = SimulatedLlm::new(kb, GPT4, 2);
        let r = evaluate(&mut m, &e);
        let arith = r.choice[&TaskKind::DimensionArithmetic].precision();
        let kind = r.choice[&TaskKind::QuantityKindMatch].precision();
        assert!(arith < kind, "arith {arith} should trail kind-match {kind}");
    }

    #[test]
    fn abstention_separates_f1_from_precision() {
        let kb = DimUnitKb::shared();
        let e = bench();
        let mut m = SimulatedLlm::new(kb, GPT35_TURBO, 3);
        let r = evaluate(&mut m, &e);
        let p: f64 = r.choice.values().map(|s| s.precision()).sum::<f64>() / 6.0;
        let f: f64 = r.choice.values().map(|s| s.f1()).sum::<f64>() / 6.0;
        assert!(f < p, "abstention must depress F1: P={p} F1={f}");
    }

    #[test]
    fn q_mwp_collapses_for_all_baselines() {
        let kb = DimUnitKb::shared();
        let n = generate(Source::Math23k, &GenConfig { count: 150, seed: 11 });
        let q = Augmenter::new(&kb, 11).to_qmwp(&n);
        for (profile, seed) in [(GPT4, 5u64), (GPT35_TURBO, 6), (BERTGEN, 7)] {
            let mut m = SimulatedLlm::new(kb.clone(), profile, seed);
            let acc_n = accuracy(&mut m, &n);
            let mut m = SimulatedLlm::new(kb.clone(), profile, seed);
            let acc_q = accuracy(&mut m, &q);
            assert!(
                acc_q < acc_n,
                "{}: Q-MWP {acc_q} must trail N-MWP {acc_n}",
                profile.name
            );
        }
    }

    #[test]
    fn bertgen_collapse_is_catastrophic() {
        // Table IX: BertGen 73.78 → 14.22. The supervised N-MWP model has
        // no unit knowledge, so the relative drop exceeds GPT-4's.
        let kb = DimUnitKb::shared();
        let n = generate(Source::Math23k, &GenConfig { count: 150, seed: 13 });
        let q = Augmenter::new(&kb, 13).to_qmwp(&n);
        let drop = |p: CapabilityProfile, seed| {
            let mut a = SimulatedLlm::new(kb.clone(), p, seed);
            let n_acc = accuracy(&mut a, &n);
            let mut b = SimulatedLlm::new(kb.clone(), p, seed);
            let q_acc = accuracy(&mut b, &q);
            q_acc / n_acc.max(1e-9)
        };
        assert!(drop(BERTGEN, 1) < drop(GPT4, 1), "BertGen must lose relatively more");
    }

    #[test]
    fn extraction_returns_plausible_quantities() {
        // Extraction is stochastic per mention, so aggregate over seeds
        // instead of betting on a single RNG stream.
        let kb = DimUnitKb::shared();
        let out: Vec<_> = (0..5)
            .flat_map(|seed| {
                let mut m = SimulatedLlm::new(kb.clone(), GPT4, seed);
                m.extract("LeBron James's height is 2.06 meters and his weight is 113 kg.")
            })
            .collect();
        assert!(!out.is_empty());
        for q in &out {
            assert!(q.value > 0.0);
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let kb = DimUnitKb::shared();
        let e = bench();
        let r1 = evaluate(&mut SimulatedLlm::new(kb.clone(), GPT4, 42), &e);
        let r2 = evaluate(&mut SimulatedLlm::new(kb, GPT4, 42), &e);
        for task in TaskKind::CHOICE {
            assert_eq!(r1.choice[&task].correct, r2.choice[&task].correct);
        }
    }
}
