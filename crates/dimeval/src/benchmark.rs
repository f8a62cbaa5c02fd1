//! DimEval assembly and evaluation.
//!
//! [`DimEval::build`] orchestrates the full §IV-C construction: corpus
//! generation + Algorithm 1 for quantity extraction, knowledge-graph
//! synthesis + Algorithm 2 (+ verbalization) for dimension prediction, and
//! heuristic rule-based generation for the remaining five tasks.

use crate::algo1::{self, Algo1Config};
use crate::algo2::{self, Algo2Config};
use crate::gen::Generator;
use crate::metrics::{ChoiceScore, ExtractionScore};
use crate::task::{Category, ChoiceItem, DimEvalSolver, ExtractionItem, TaskKind};
use dim_kgraph::{SynthConfig, SynthKg};
use dimkb::degrade::{self, BudgetExceeded, Policy, QuarantineEntry};
use dimkb::DimUnitKb;
use dimlink::{Annotator, LinkerConfig, UnitLinker};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

static BUILD_SPAN: dim_obs::Histogram = dim_obs::Histogram::new("dimeval.build");
static BUILD_ITEMS: dim_obs::Counter = dim_obs::Counter::new("dimeval.items");
static EVAL_SPAN: dim_obs::Histogram = dim_obs::Histogram::new("eval.evaluate");
static EVAL_ITEMS: dim_obs::Counter = dim_obs::Counter::new("eval.items");

/// Configuration for benchmark construction.
#[derive(Debug, Clone, Copy)]
pub struct DimEvalConfig {
    /// Items per choice task.
    pub per_task: usize,
    /// Extraction items.
    pub extraction_items: usize,
    /// Fraction of dimension-prediction items drawn from bootstrapped
    /// triples (the rest come from kind templates).
    pub bootstrap_fraction: f64,
    /// RNG seed.
    pub seed: u64,
    /// Fan-out for construction: Algorithm 1's per-sentence pass,
    /// Algorithm 2's ratio/regrowth passes, and per-task item generation.
    /// Every thread count yields a byte-identical benchmark.
    pub parallelism: dim_par::Parallelism,
}

impl Default for DimEvalConfig {
    fn default() -> Self {
        // 45 items per task matches the paper's evaluation granularity
        // (scores are multiples of 1/45 in Table VII).
        DimEvalConfig {
            per_task: 45,
            extraction_items: 45,
            bootstrap_fraction: 0.5,
            seed: 2024,
            parallelism: dim_par::Parallelism::SEQUENTIAL,
        }
    }
}

/// The assembled benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct DimEval {
    /// Items per choice task.
    pub choice: HashMap<TaskKind, Vec<ChoiceItem>>,
    /// Extraction items.
    pub extraction: Vec<ExtractionItem>,
}

impl DimEval {
    /// Builds the benchmark from scratch against a knowledge base, under
    /// `policy`.
    ///
    /// Construction fans out across `config.parallelism`; each choice task
    /// derives its own RNG stream from `(seed, task index)`, so the result
    /// is byte-identical for every thread count.
    ///
    /// Each choice task runs in panic isolation with fault injection at
    /// site `"dimeval.task"`. A quarantined task yields an *empty* item
    /// list — a degraded but usable benchmark — plus a manifest entry; the
    /// failure fraction over the six tasks is checked against the policy's
    /// budget.
    pub fn build(
        kb: &Arc<DimUnitKb>,
        config: &DimEvalConfig,
        policy: Policy,
    ) -> Result<(Self, Vec<QuarantineEntry>), BudgetExceeded> {
        const SITE_TASK: &str = "dimeval.task";
        let _span = BUILD_SPAN.span();
        // --- extraction via Algorithm 1 --------------------------------
        let corpus = dim_corpus::generate(
            kb,
            &dim_corpus::CorpusConfig {
                sentences: (config.extraction_items * 3).max(200),
                seed: config.seed ^ 0x11,
            },
        );
        let annotator =
            Annotator::new(UnitLinker::with_config(kb.clone(), LinkerConfig::default()));
        let mlm = algo1::train_filter(&corpus);
        let out1 = algo1::semi_automated_annotate(
            &annotator,
            &mlm,
            &corpus,
            Algo1Config { parallelism: config.parallelism, ..Default::default() },
        );
        let mut extraction = out1.dataset;
        extraction.truncate(config.extraction_items);

        // --- dimension prediction via Algorithm 2 ----------------------
        let kg = dim_kgraph::synthesize(
            kb,
            &SynthConfig { entities_per_type: 40, seed: config.seed ^ 0x22 },
        );
        let out2 = algo2::bootstrap_retrieve(
            &kg,
            &annotator,
            Algo2Config { parallelism: config.parallelism, ..Default::default() },
        );
        let slots =
            dim_par::par_map_coarse(config.parallelism, &TaskKind::CHOICE, |task_index, &task| {
                degrade::isolate(|| {
                    degrade::inject(policy.plan, SITE_TASK, task_index)?;
                    Ok(Self::build_task_items(kb, config, &kg, &out2, task_index, task))
                })
            });
        let d = degrade::collect_degraded(SITE_TASK, slots, policy.budget)?;
        let choice: HashMap<TaskKind, Vec<ChoiceItem>> = TaskKind::CHOICE
            .into_iter()
            .zip(d.items.into_iter().map(Option::unwrap_or_default))
            .collect();
        let eval = DimEval { choice, extraction };
        BUILD_ITEMS.add(eval.len() as u64);
        Ok((eval, d.quarantine))
    }

    /// Builds one choice task's items from its own `(seed, task index)` RNG
    /// streams.
    fn build_task_items(
        kb: &Arc<DimUnitKb>,
        config: &DimEvalConfig,
        kg: &SynthKg,
        out2: &algo2::Algo2Output,
        task_index: usize,
        task: TaskKind,
    ) -> Vec<ChoiceItem> {
        let mut generator =
            Generator::new(kb, dim_par::seed_for(config.seed ^ 0x33, task_index as u64));
        if task == TaskKind::DimensionPrediction {
            let mut rng =
                StdRng::seed_from_u64(dim_par::seed_for(config.seed, task_index as u64));
            let n_boot = (config.per_task as f64 * config.bootstrap_fraction).round() as usize;
            let mut items = Vec::with_capacity(config.per_task);
            let mut tries = 0;
            while items.len() < n_boot
                && tries < out2.triplets.len() * 2
                && !out2.triplets.is_empty()
            {
                tries += 1;
                let tid = out2.triplets[rng.gen_range(0..out2.triplets.len())];
                let Some(gold) = kg.gold.get(&tid) else { continue };
                let Some(kind) = kb.kind_by_name(&gold.kind) else { continue };
                let (_, masked) = algo2::verbalize(kg, tid);
                if let Some(item) = generator.dim_prediction_from_masked(&masked, kind.id) {
                    items.push(item);
                }
            }
            let remaining = config.per_task - items.len();
            items.extend(generator.generate(task, remaining));
            items
        } else {
            generator.generate(task, config.per_task)
        }
    }

    /// Total number of items. Canonical task order, not map layout order —
    /// the sum is order-insensitive today, but the iteration discipline is
    /// lint-enforced so a future fold can't silently become layout-ordered.
    pub fn len(&self) -> usize {
        self.extraction.len()
            + TaskKind::CHOICE
                .iter()
                .filter_map(|t| self.choice.get(t))
                .map(Vec::len)
                .sum::<usize>()
    }

    /// True when the benchmark is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-model evaluation report over the benchmark.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Model name.
    pub model: String,
    /// Extraction QE/VE/UE scores.
    pub extraction: ExtractionScore,
    /// Per-task choice scores.
    pub choice: HashMap<TaskKind, ChoiceScore>,
}

impl EvalReport {
    /// Category-aggregated `(precision, f1)` — the Table VIII format.
    /// Choice tasks contribute their precision/F1; extraction contributes
    /// the mean of its QE/VE/UE F1s to Basic Perception.
    pub fn category(&self, cat: Category) -> (f64, f64) {
        let mut ps = Vec::new();
        let mut fs = Vec::new();
        // Canonical task order: float accumulation must not depend on
        // HashMap layout.
        for task in TaskKind::CHOICE {
            let Some(score) = self.choice.get(&task) else { continue };
            if task.category() == cat {
                ps.push(score.precision());
                fs.push(score.f1());
            }
        }
        if cat == Category::BasicPerception {
            let e = &self.extraction;
            ps.push((e.qe.precision() + e.ve.precision() + e.ue.precision()) / 3.0);
            fs.push((e.qe.f1() + e.ve.f1() + e.ue.f1()) / 3.0);
        }
        let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
        (mean(&ps), mean(&fs))
    }
}

/// Evaluates a solver over the benchmark.
pub fn evaluate(solver: &mut dyn DimEvalSolver, eval: &DimEval) -> EvalReport {
    let _span = EVAL_SPAN.span();
    EVAL_ITEMS.add(eval.len() as u64);
    let mut extraction = ExtractionScore::default();
    for item in &eval.extraction {
        let pred = solver.extract(&item.text);
        extraction.push(&item.gold, &pred);
    }
    let mut choice = HashMap::new();
    // Canonical task order: the solver's RNG state advances across items,
    // so iteration order must not depend on HashMap layout.
    for task in TaskKind::CHOICE {
        let Some(items) = eval.choice.get(&task) else { continue };
        let mut score = ChoiceScore::default();
        for item in items {
            score.push(item.answer, solver.answer(item));
        }
        choice.insert(task, score);
    }
    EvalReport { model: solver.name(), extraction, choice }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ExtractedQuantity;

    fn build(config: &DimEvalConfig) -> DimEval {
        degrade::complete(DimEval::build(&DimUnitKb::shared(), config, Policy::CLASSIC))
    }

    fn eval() -> DimEval {
        build(&DimEvalConfig { per_task: 12, extraction_items: 12, ..Default::default() })
    }

    /// A perfect oracle (answers from item metadata).
    struct Oracle;

    impl DimEvalSolver for Oracle {
        fn name(&self) -> String {
            "oracle".into()
        }

        fn answer(&mut self, item: &ChoiceItem) -> Option<usize> {
            Some(item.answer)
        }

        fn extract(&mut self, _text: &str) -> Vec<ExtractedQuantity> {
            Vec::new()
        }
    }

    /// A solver that always abstains.
    struct Mute;

    impl DimEvalSolver for Mute {
        fn name(&self) -> String {
            "mute".into()
        }

        fn answer(&mut self, _item: &ChoiceItem) -> Option<usize> {
            None
        }

        fn extract(&mut self, _text: &str) -> Vec<ExtractedQuantity> {
            Vec::new()
        }
    }

    #[test]
    fn build_produces_all_tasks() {
        let e = eval();
        assert_eq!(e.choice.len(), 6);
        for (task, items) in &e.choice {
            assert_eq!(items.len(), 12, "{task:?}");
        }
        assert_eq!(e.extraction.len(), 12);
        assert!(!e.is_empty());
    }

    #[test]
    fn oracle_scores_perfectly_on_choice() {
        let e = eval();
        let report = evaluate(&mut Oracle, &e);
        for (task, score) in &report.choice {
            assert_eq!(score.precision(), 1.0, "{task:?}");
            assert_eq!(score.f1(), 1.0, "{task:?}");
        }
    }

    #[test]
    fn mute_scores_zero() {
        let e = eval();
        let report = evaluate(&mut Mute, &e);
        for score in report.choice.values() {
            assert_eq!(score.precision(), 0.0);
            assert_eq!(score.f1(), 0.0);
        }
    }

    #[test]
    fn category_aggregation_covers_all() {
        let e = eval();
        let report = evaluate(&mut Oracle, &e);
        for cat in Category::ALL {
            let (p, f) = report.category(cat);
            assert!((0.0..=1.0).contains(&p));
            assert!((0.0..=1.0).contains(&f));
        }
        // Oracle is perfect on dimension/scale categories (choice only).
        let (p, _) = report.category(Category::DimensionPerception);
        assert_eq!(p, 1.0);
    }

    #[test]
    fn dimension_prediction_mixes_bootstrap_and_templates() {
        let e = eval();
        let items = &e.choice[&TaskKind::DimensionPrediction];
        let masked_external =
            items.iter().filter(|i| i.question.contains("的") && i.question.contains("[MASK]")).count();
        assert!(masked_external > 0, "bootstrapped masked sentences expected");
    }

    #[test]
    fn build_is_deterministic() {
        let cfg = DimEvalConfig { per_task: 6, extraction_items: 6, ..Default::default() };
        let a = build(&cfg);
        let b = build(&cfg);
        assert_eq!(a.choice[&TaskKind::UnitConversion], b.choice[&TaskKind::UnitConversion]);
        assert_eq!(a.extraction.len(), b.extraction.len());
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let base = DimEvalConfig { per_task: 6, extraction_items: 6, ..Default::default() };
        let seq = build(&base);
        let par = build(&DimEvalConfig { parallelism: dim_par::Parallelism::new(4), ..base });
        assert_eq!(seq, par, "parallel build must be identical");
    }
}
