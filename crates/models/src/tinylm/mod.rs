//! TinyLM: the trainable model suite standing in for LLaMA-7B fine-tuning.
//!
//! The paper continually fine-tunes LLaMA-7B — A800 GPUs and weights are
//! gated, and Rust fine-tuning tooling for 7B models is immature. TinyLM
//! replaces the transformer with three *genuinely trainable* components
//! whose learning dynamics carry the experiments:
//!
//! * a [`choice::ChoiceScorer`] (softmax linear model) for the six choice
//!   tasks;
//! * an [`extract::ExtractionModel`] (logistic candidate classifier) for
//!   quantity extraction;
//! * an [`eqgen::EquationGenerator`] (template memory + unit normalizer +
//!   noisy decoder) for math word problems.
//!
//! `TinyLm::llama_ift(seed)` is the instruction-tuned-but-task-naive base
//! model; [`TinyLm::finetune_dimeval`] turns it into **DimPerc**; and
//! [`TinyLm::finetune_mwp`] runs the §V-B4 Seq2Seq training with
//! checkpoint callbacks for the Fig. 6/7 curves.

pub mod choice;
pub mod eqgen;
pub mod extract;
pub mod features;
pub mod linear;

use crate::tinylm::choice::ChoiceScorer;
use crate::tinylm::eqgen::EquationGenerator;
use crate::tinylm::extract::ExtractionModel;
use dimeval::{ChoiceItem, DimEval, DimEvalSolver, ExtractedQuantity, ItemMeta, TaskKind};
use dimkb::DimUnitKb;
use dim_mwp::{EqTokenization, MwpProblem, MwpSolver, Prediction};
use dimkb::{DimVec, UnitId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;


/// The trainable model.
#[derive(Clone)]
pub struct TinyLm {
    /// Display name ("LLaMA_IFT" until DimEval fine-tuning, then "DimPerc").
    pub display_name: String,
    /// The multiple-choice scorer.
    pub choice: ChoiceScorer,
    /// The extraction model.
    pub extractor: ExtractionModel,
    /// The equation generator.
    pub eqgen: EquationGenerator,
    /// Equation tokenization strategy for MWP decoding.
    pub tokenization: EqTokenization,
    /// Conversion factors memorized during DimEval fine-tuning, applied at
    /// inference on conversion items (the infused dimensional knowledge).
    conversion_memory: HashMap<(UnitId, UnitId), f64>,
    /// Dimension vectors the CoT rationales explicitly stated during
    /// fine-tuning ("dim(newton) = LMT⁻²").
    dim_memory: HashMap<UnitId, DimVec>,
    /// Kind → dimension facts stated by kind-match / dimension-prediction
    /// rationales.
    kind_dim_memory: HashMap<dimkb::KindId, DimVec>,
    /// SI factors stated by magnitude-comparison rationales ("1 km = 1e3 SI").
    factor_memory: HashMap<UnitId, f64>,
}

impl TinyLm {
    /// The base model: instruction-tuned on generic data, naive on
    /// dimension-perception tasks (the paper's LLaMA_IFT).
    pub fn llama_ift(seed: u64) -> Self {
        TinyLm {
            display_name: "LLaMa_IFT".to_string(),
            choice: ChoiceScorer::naive(seed),
            extractor: ExtractionModel::naive(seed),
            eqgen: EquationGenerator::new(),
            tokenization: EqTokenization::Regular,
            conversion_memory: HashMap::new(),
            dim_memory: HashMap::new(),
            kind_dim_memory: HashMap::new(),
            factor_memory: HashMap::new(),
        }
    }

    /// Continual fine-tuning on DimEval (§IV-D): trains the choice scorer
    /// on every choice task, the extractor on the Algorithm-1 dataset, and
    /// seeds the equation generator's unit knowledge from the conversion
    /// items — producing DimPerc.
    pub fn finetune_dimeval(&mut self, kb: &DimUnitKb, train: &DimEval, epochs: usize, seed: u64) {
        // Iterate tasks in canonical order: the SGD stream must not depend
        // on HashMap iteration order or training becomes run-to-run noise.
        let choice_in_order = || {
            TaskKind::CHOICE.iter().filter_map(|t| train.choice.get(t))
        };
        self.choice.train(choice_in_order().flatten(), epochs, seed);
        self.extractor.train(&train.extraction, epochs, seed ^ 1);
        // Knowledge infusion: the CoT rationales of the training items
        // state facts verbatim — conversion factors, dimension vectors,
        // kind-dimension associations, SI magnitudes. A fine-tuned model
        // recalls trained facts; the memory tables below implement that
        // recall (the statistical scorer handles everything unseen).
        for items in choice_in_order() {
            for item in items {
                match &item.meta {
                    ItemMeta::Conversion { from, to, factors } => {
                        let beta = factors[item.answer];
                        let (f, t) = (kb.unit(*from), kb.unit(*to));
                        self.eqgen.seed_conversion(&f.code, &t.code, beta);
                        self.conversion_memory.insert((*from, *to), beta);
                        if beta != 0.0 {
                            self.conversion_memory.insert((*to, *from), 1.0 / beta);
                        }
                        // The rationale states both units' SI factors
                        // ("1 km = 1e3 SI"), anchoring them for *composed*
                        // conversions between any two anchored units.
                        self.factor_memory.insert(*from, f.conversion.factor);
                        self.factor_memory.insert(*to, t.conversion.factor);
                        for u in [f, t] {
                            self.eqgen.seed_surface(&u.label_zh, &u.code);
                            self.eqgen.seed_surface(&u.symbol, &u.code);
                        }
                    }
                    ItemMeta::KindMatch { kind, options } => {
                        let gold = options[item.answer];
                        let dim = kb.unit(gold).dim;
                        self.kind_dim_memory.insert(*kind, dim);
                        self.dim_memory.insert(gold, dim);
                        self.seed_surfaces(kb, options);
                    }
                    ItemMeta::Comparable { reference, options } => {
                        // The rationale states dim(reference) and dim(gold).
                        let dim = kb.unit(*reference).dim;
                        self.dim_memory.insert(*reference, dim);
                        self.dim_memory.insert(options[item.answer], dim);
                        self.seed_surfaces(kb, options);
                    }
                    ItemMeta::DimPrediction { gold_kind, options } => {
                        let dim = kb.kind(*gold_kind).dim;
                        self.kind_dim_memory.insert(*gold_kind, dim);
                        self.dim_memory.insert(options[item.answer], dim);
                        self.seed_surfaces(kb, options);
                    }
                    ItemMeta::DimArithmetic { expr, options } => {
                        // The rationale lists every operand's dimension.
                        for (u, _) in expr {
                            self.dim_memory.insert(*u, kb.unit(*u).dim);
                        }
                        self.dim_memory
                            .insert(options[item.answer], kb.unit(options[item.answer]).dim);
                        self.seed_surfaces(kb, options);
                    }
                    ItemMeta::Magnitude { options } => {
                        // The rationale lists every option's SI factor.
                        for &u in options {
                            self.factor_memory.insert(u, kb.unit(u).conversion.factor);
                        }
                        self.seed_surfaces(kb, options);
                    }
                }
            }
        }
        // The CoT targets are structured sequences; training on them
        // matures the decoder before any MWP fine-tuning (the source of
        // DimPerc's early-training advantage in Fig. 7).
        let total_items: usize = train.choice.values().map(Vec::len).sum::<usize>() * epochs;
        self.eqgen.pretrain_decoder(total_items);
        self.display_name = "DimPerc".to_string();
    }

    fn seed_surfaces(&mut self, kb: &DimUnitKb, options: &[UnitId]) {
        for &id in options {
            let u = kb.unit(id);
            self.eqgen.seed_surface(&u.label_zh, &u.code);
            self.eqgen.seed_surface(&u.symbol, &u.code);
        }
    }

    /// Supervised Seq2Seq fine-tuning on MWPs (§V-B4). Consumes the
    /// problems in order; `checkpoint_every > 0` invokes the callback with
    /// `(steps_so_far, &self)` for training curves.
    pub fn finetune_mwp(
        &mut self,
        problems: &[MwpProblem],
        checkpoint_every: usize,
        mut callback: impl FnMut(usize, &TinyLm),
    ) {
        for (i, p) in problems.iter().enumerate() {
            self.eqgen.train_one(p);
            if checkpoint_every > 0 && (i + 1) % checkpoint_every == 0 {
                callback(i + 1, self);
            }
        }
    }

    /// Lightweight knowledge expansion — the paper's future-work direction
    /// (§VIII: "finetuning for each database expansion is costly and
    /// inefficient. Future work can focus on dimension perception methods
    /// that facilitate lightweight expansion"). Registers one newly added
    /// KB unit into the model's fact memories and vocabulary without any
    /// re-fine-tuning.
    pub fn learn_unit(&mut self, kb: &DimUnitKb, id: UnitId) {
        let u = kb.unit(id);
        self.dim_memory.insert(id, u.dim);
        self.kind_dim_memory.entry(u.kind).or_insert(u.dim);
        if !u.conversion.is_affine() {
            self.factor_memory.insert(id, u.conversion.factor);
        }
        self.eqgen.seed_surface(&u.label_zh, &u.code);
        self.eqgen.seed_surface(&u.symbol, &u.code);
        self.eqgen.seed_surface(&u.label_en, &u.code);
    }

    /// Immutable MWP solve with a problem-derived seed (usable inside
    /// checkpoint callbacks).
    pub fn solve_frozen(&self, problem: &MwpProblem, seed: u64) -> Prediction {
        let mut rng = StdRng::seed_from_u64(seed ^ problem.id);
        self.eqgen.solve(&problem.text(), self.tokenization, &mut rng)
    }
}

impl DimEvalSolver for TinyLm {
    fn name(&self) -> String {
        self.display_name.clone()
    }

    fn answer(&mut self, item: &ChoiceItem) -> Option<usize> {
        // Memorized facts override the statistical scorer, the way a
        // fine-tuned model recalls facts it was trained on; anything the
        // memory cannot settle falls through to the scorer.
        match &item.meta {
            ItemMeta::Conversion { from, to, factors } => {
                // Composed recall: both units anchored to SI → β = f/t.
                let beta = self
                    .conversion_memory
                    .get(&(*from, *to))
                    .copied()
                    .or_else(|| match (self.factor_memory.get(from), self.factor_memory.get(to)) {
                        (Some(f), Some(t)) if *t != 0.0 => Some(f / t),
                        _ => None,
                    });
                if let Some(beta) = beta {
                    let mut best = None;
                    let mut best_d = f64::INFINITY;
                    for (i, &f) in factors.iter().enumerate() {
                        if f > 0.0 && beta > 0.0 {
                            let d = (f.ln() - beta.ln()).abs();
                            if d < best_d {
                                best_d = d;
                                best = Some(i);
                            }
                        }
                    }
                    if best.is_some() {
                        return best;
                    }
                }
            }
            ItemMeta::Comparable { reference, options } => {
                if let Some(ref_dim) = self.dim_memory.get(reference) {
                    for (i, u) in options.iter().enumerate() {
                        if self.dim_memory.get(u) == Some(ref_dim) {
                            return Some(i);
                        }
                    }
                }
            }
            ItemMeta::KindMatch { kind, options } => {
                if let Some(dim) = self.kind_dim_memory.get(kind) {
                    let hits: Vec<usize> = options
                        .iter()
                        .enumerate()
                        .filter(|(_, u)| self.dim_memory.get(u) == Some(dim))
                        .map(|(i, _)| i)
                        .collect();
                    if hits.len() == 1 {
                        return Some(hits[0]);
                    }
                }
            }
            ItemMeta::DimPrediction { gold_kind, options } => {
                if let Some(dim) = self.kind_dim_memory.get(gold_kind) {
                    let hits: Vec<usize> = options
                        .iter()
                        .enumerate()
                        .filter(|(_, u)| self.dim_memory.get(u) == Some(dim))
                        .map(|(i, _)| i)
                        .collect();
                    if hits.len() == 1 {
                        return Some(hits[0]);
                    }
                }
            }
            ItemMeta::DimArithmetic { expr, options } => {
                let operand_dims: Option<Vec<DimVec>> =
                    expr.iter().map(|(u, _)| self.dim_memory.get(u).copied()).collect();
                if let Some(dims) = operand_dims {
                    // DimPerc was trained on dimension arithmetic: it can
                    // combine known dimension vectors symbolically.
                    let mut acc = DimVec::DIMENSIONLESS;
                    for (dim, (_, exp)) in dims.iter().zip(expr) {
                        acc = acc * dim.powi(*exp);
                    }
                    let hits: Vec<usize> = options
                        .iter()
                        .enumerate()
                        .filter(|(_, u)| self.dim_memory.get(u) == Some(&acc))
                        .map(|(i, _)| i)
                        .collect();
                    if hits.len() == 1 {
                        return Some(hits[0]);
                    }
                }
            }
            ItemMeta::Magnitude { options } => {
                let factors: Option<Vec<f64>> =
                    options.iter().map(|u| self.factor_memory.get(u).copied()).collect();
                if let Some(fs) = factors {
                    return fs
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                        .map(|(i, _)| i);
                }
            }
        }
        self.choice.answer(item)
    }

    fn extract(&mut self, text: &str) -> Vec<ExtractedQuantity> {
        self.extractor.extract(text)
    }
}

impl MwpSolver for TinyLm {
    fn name(&self) -> String {
        self.display_name.clone()
    }

    fn solve(&mut self, problem: &MwpProblem) -> Prediction {
        self.solve_frozen(problem, 0x5EED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimeval::{evaluate, Category, DimEvalConfig};
    use dimkb::DimUnitKb;

    fn bench(seed: u64, per_task: usize) -> DimEval {
        let kb = DimUnitKb::shared();
        DimEval::build(
            &kb,
            &DimEvalConfig {
                per_task,
                extraction_items: per_task.min(120),
                seed,
                ..Default::default()
            },
        )
    }

    #[test]
    fn dimperc_beats_llama_ift_on_every_category() {
        // The Table VIII experiment in miniature.
        let kb = DimUnitKb::shared();
        let train = bench(1, 500);
        let eval = bench(2, 30);
        let mut base = TinyLm::llama_ift(3);
        let mut dimperc = TinyLm::llama_ift(3);
        dimperc.finetune_dimeval(&kb, &train, 6, 4);
        let rb = evaluate(&mut base, &eval);
        let rd = evaluate(&mut dimperc, &eval);
        for cat in Category::ALL {
            let (pb, _) = rb.category(cat);
            let (pd, _) = rd.category(cat);
            assert!(pd > pb, "{}: DimPerc {pd} must beat LLaMA_IFT {pb}", cat.name());
        }
        assert_eq!(rd.model, "DimPerc");
    }

    #[test]
    fn finetuning_reaches_useful_precision() {
        let kb = DimUnitKb::shared();
        let train = bench(5, 500);
        let eval = bench(6, 30);
        let mut m = TinyLm::llama_ift(7);
        m.finetune_dimeval(&kb, &train, 8, 8);
        let r = evaluate(&mut m, &eval);
        let (p, _) = r.category(Category::DimensionPerception);
        assert!(p > 0.5, "dimension-perception precision {p}");
    }

    #[test]
    fn lightweight_expansion_teaches_new_units_without_refinetuning() {
        // The §VIII future-work feature: an untrained-on unit pair fails a
        // conversion item; after learn_unit both ways, the model recalls
        // the composed factor without any gradient steps.
        use dimeval::{ChoiceItem, ItemMeta, TaskKind};
        let kb = DimUnitKb::shared();
        let from = kb.unit_by_code("GILL-PER-HR").unwrap().id;
        let to = kb.unit_by_code("M3-PER-SEC").unwrap().id;
        let beta = kb.conversion_factor(from, to).unwrap();
        let factors = vec![beta, beta * 10.0, beta / 100.0, beta * 1000.0];
        let item = ChoiceItem {
            task: TaskKind::UnitConversion,
            question: "obscure conversion".into(),
            options: factors.iter().map(|f| format!("{f:e}")).collect(),
            answer: 0,
            rationale: String::new(),
            meta: ItemMeta::Conversion { from, to, factors },
        };
        let mut m = TinyLm::llama_ift(1);
        m.display_name = "DimPerc".into();
        // Without the units learned, the naive scorer decides (and with a
        // margin below threshold it abstains) — recall is impossible.
        let before = m.answer(&item);
        m.learn_unit(&kb, from);
        m.learn_unit(&kb, to);
        assert_eq!(m.answer(&item), Some(0), "after expansion the factor is composed");
        // `before` may have been a lucky guess; the invariant is that the
        // expanded model is *deterministically* right.
        let _ = before;
    }

    #[test]
    fn mwp_finetuning_produces_checkpoints() {
        let problems = dim_mwp::generate(
            dim_mwp::Source::Math23k,
            &dim_mwp::GenConfig { count: 100, seed: 9 },
        );
        let mut m = TinyLm::llama_ift(10);
        let mut steps = Vec::new();
        m.finetune_mwp(&problems, 25, |s, _| steps.push(s));
        assert_eq!(steps, vec![25, 50, 75, 100]);
        assert_eq!(m.eqgen.examples(), 100);
    }
}
