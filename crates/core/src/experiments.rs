//! Canonical experiment runners — one function per table/figure of the
//! paper's evaluation. The `dim-bench` binaries print these results next
//! to the paper's reported numbers; `EXPERIMENTS.md` records the
//! comparison.

use crate::pipeline::{self, PipelineConfig};
use dim_models::profile;
use dim_models::tinylm::TinyLm;
use dim_models::{SimulatedLlm, ToolAugmented, WolframEngine};
use dim_mwp::{
    accuracy, dataset_stats, Augmenter, DatasetStats, EqTokenization, GenConfig, MwpProblem,
    MwpSolver, Source,
};
use dimeval::{evaluate, Category, DimEval, DimEvalConfig, DimEvalSolver, TaskKind};
use dimkb::degrade::{self, Policy};
use dimkb::stats::{statistics, top_kinds, top_units};
use dimkb::{DimUnitKb, UnitId};
use std::collections::HashSet;
use std::sync::Arc;

// Observability: one span per experiment runner, so `obs_report.json`
// breaks a full suite run down by table/figure.
static EXP_TABLE4: dim_obs::Histogram = dim_obs::Histogram::new("exp.table4");
static EXP_TABLE6: dim_obs::Histogram = dim_obs::Histogram::new("exp.table6");
static EXP_TABLE7: dim_obs::Histogram = dim_obs::Histogram::new("exp.table7");
static EXP_TABLE8: dim_obs::Histogram = dim_obs::Histogram::new("exp.table8");
static EXP_TABLE9: dim_obs::Histogram = dim_obs::Histogram::new("exp.table9");
static EXP_FIG6: dim_obs::Histogram = dim_obs::Histogram::new("exp.fig6");
static EXP_FIG7: dim_obs::Histogram = dim_obs::Histogram::new("exp.fig7");

/// Shared experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Evaluation items per DimEval task (45, matching the paper's grain).
    pub eval_per_task: usize,
    /// Problems per MWP evaluation set (225, Table VI).
    pub mwp_eval: usize,
    /// Evaluation seed (distinct from all training seeds).
    pub seed: u64,
    /// Pipeline (training) configuration. Its `parallelism` is also the
    /// fan-out for evaluation-set construction; results are identical for
    /// every thread count.
    pub pipeline: PipelineConfig,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            eval_per_task: 45,
            mwp_eval: 225,
            seed: 20_24,
            pipeline: PipelineConfig::default(),
        }
    }
}

/// A quick configuration for tests (smaller datasets, fewer epochs).
/// Pins one thread everywhere: CI smoke runs must exercise the reference
/// sequential paths.
pub fn quick_config() -> ExperimentConfig {
    ExperimentConfig {
        eval_per_task: 20,
        mwp_eval: 80,
        seed: 20_24,
        pipeline: PipelineConfig {
            train_per_task: 200,
            epochs: 3,
            // 17 problem templates per style need coverage even in the
            // smoke configuration.
            mwp_train: 500,
            parallelism: dim_par::Parallelism::SEQUENTIAL,
            ..Default::default()
        },
    }
}

// ===================== Table IV =====================

/// One Table IV row.
#[derive(Debug, Clone, PartialEq)]
pub struct KbRow {
    /// Resource name.
    pub name: String,
    /// `# Units`.
    pub units: usize,
    /// `# Quantity Kind`.
    pub kinds: usize,
    /// `# Dim. Vector` (0 when the resource has no dimension feature).
    pub dims: usize,
    /// Language column.
    pub lang: &'static str,
    /// Frequency-feature column.
    pub freq: bool,
}

/// The 16 quantity kinds of the UoM probing set.
const UOM_KINDS: [&str; 16] = [
    "Length", "Mass", "Time", "Temperature", "Volume", "Area", "Velocity", "Force", "Pressure",
    "Energy", "Power", "Frequency", "ElectricCurrent", "Voltage", "Information", "PlaneAngle",
];

/// A UoM-style subset: the most frequent English units of 16 kinds, capped
/// at 76 units (the UoM paper's statistics).
pub fn uom_subset(kb: &DimUnitKb) -> DimUnitKb {
    let mut keep: HashSet<UnitId> = HashSet::new();
    for kind_name in UOM_KINDS {
        let Some(kind) = kb.kind_by_name(kind_name) else { continue };
        let mut ids: Vec<UnitId> = kb.units_of_kind(kind.id).to_vec();
        ids.sort_by(|a, b| {
            kb.unit(*b)
                .frequency
                .partial_cmp(&kb.unit(*a).frequency)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for id in ids.into_iter().filter(|&id| !kb.unit(id).code.ends_with("-ZH")).take(5) {
            keep.insert(id);
        }
    }
    let mut keep: Vec<UnitId> = keep.into_iter().collect();
    keep.sort_by(|a, b| {
        kb.unit(*b)
            .frequency
            .partial_cmp(&kb.unit(*a).frequency)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    keep.truncate(76);
    let keep: HashSet<UnitId> = keep.into_iter().collect();
    kb.subset(|u| keep.contains(&u.id))
}

/// Runs the Table IV comparison.
pub fn table4() -> Vec<KbRow> {
    let _span = EXP_TABLE4.span();
    let kb = DimUnitKb::shared();
    let uom = uom_subset(&kb);
    let uom_stats = statistics(&uom);
    let engine = WolframEngine::new(kb.clone());
    let wolfram_stats = statistics(engine.kb());
    let full = statistics(&kb);
    vec![
        KbRow {
            name: "UoM".into(),
            units: uom_stats.units,
            kinds: uom_stats.quantity_kinds,
            dims: 0, // UoM stores no dimension feature
            lang: "En",
            freq: false,
        },
        KbRow {
            name: "WolframAlpha".into(),
            units: wolfram_stats.units,
            kinds: wolfram_stats.quantity_kinds,
            dims: wolfram_stats.dim_vectors,
            lang: "En",
            freq: false,
        },
        KbRow {
            name: "DimUnitKB".into(),
            units: full.units,
            kinds: full.quantity_kinds,
            dims: full.dim_vectors,
            lang: full.languages,
            freq: full.has_frequency,
        },
    ]
}

// ===================== Fig. 3 / Fig. 4 =====================

/// The `k` most popular units: `(english label, frequency)`.
pub fn fig3(k: usize) -> Vec<(String, f64)> {
    let kb = DimUnitKb::shared();
    top_units(&kb, k)
        .into_iter()
        .map(|(id, f)| (kb.unit(id).label_en.clone(), f))
        .collect()
}

/// One Fig. 4 row: a quantity kind, its frequency, and its top-5 units.
#[derive(Debug, Clone)]
pub struct KindRow {
    /// Kind name.
    pub kind: String,
    /// Kind frequency (mean of top-5 unit frequencies).
    pub freq: f64,
    /// Top-5 units `(label, frequency)`.
    pub units: Vec<(String, f64)>,
}

/// The `k` most frequent quantity kinds with their top-5 units.
pub fn fig4(k: usize) -> Vec<KindRow> {
    let kb = DimUnitKb::shared();
    top_kinds(&kb, k)
        .into_iter()
        .map(|(kid, freq, units)| KindRow {
            kind: kb.kind(kid).name_en.clone(),
            freq,
            units: units
                .into_iter()
                .map(|(uid, f)| (kb.unit(uid).label_en.clone(), f))
                .collect(),
        })
        .collect()
}

// ===================== MWP datasets (Table VI, Table IX, Figs 6-7) ========

/// The four evaluation datasets of Table VI.
pub struct MwpDatasets {
    /// N-Math23k.
    pub n_math23k: Vec<MwpProblem>,
    /// N-Ape210k.
    pub n_ape210k: Vec<MwpProblem>,
    /// Q-Math23k.
    pub q_math23k: Vec<MwpProblem>,
    /// Q-Ape210k.
    pub q_ape210k: Vec<MwpProblem>,
}

impl MwpDatasets {
    /// Iterates `(name, problems)` in Table VI order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &[MwpProblem])> {
        [
            ("N-Math23k", self.n_math23k.as_slice()),
            ("N-Ape210k", self.n_ape210k.as_slice()),
            ("Q-Math23k", self.q_math23k.as_slice()),
            ("Q-Ape210k", self.q_ape210k.as_slice()),
        ]
        .into_iter()
    }
}

/// Builds the four evaluation sets (seeds disjoint from training).
pub fn build_mwp_eval(config: &ExperimentConfig) -> MwpDatasets {
    let kb = DimUnitKb::shared();
    let par = config.pipeline.parallelism;
    let generate = |source, seed| {
        let config = GenConfig { count: config.mwp_eval, seed };
        degrade::complete(dim_mwp::generate_with(source, &config, par, Policy::CLASSIC))
    };
    let n_math23k = generate(Source::Math23k, config.seed ^ 0xE23);
    let n_ape210k = generate(Source::Ape210k, config.seed ^ 0xEA2);
    let q_math23k =
        Augmenter::new(&kb, config.seed ^ 0x923u64).to_qmwp_with(&n_math23k, par);
    let q_ape210k =
        Augmenter::new(&kb, config.seed ^ 0x9A2u64).to_qmwp_with(&n_ape210k, par);
    MwpDatasets { n_math23k, n_ape210k, q_math23k, q_ape210k }
}

/// Runs the Table VI statistics.
pub fn table6(config: &ExperimentConfig) -> Vec<(&'static str, DatasetStats)> {
    let _span = EXP_TABLE6.span();
    let sets = build_mwp_eval(config);
    sets.iter().map(|(name, ps)| (name, dataset_stats(ps))).collect()
}

// ===================== Table VII =====================

/// One Table VII row.
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// Model display name.
    pub name: String,
    /// Parameter column.
    pub params: String,
    /// Extraction `[QE, VE, UE]` F1s; `None` when the task is unsupported.
    pub extraction: Option<[f64; 3]>,
    /// `(task, precision, f1)` for the six choice tasks in paper order.
    pub tasks: Vec<(TaskKind, f64, f64)>,
}

fn report_to_row(
    name: String,
    params: String,
    supports_extraction: bool,
    report: &dimeval::EvalReport,
) -> Table7Row {
    let e = &report.extraction;
    Table7Row {
        name,
        params,
        extraction: supports_extraction.then(|| [e.qe.f1(), e.ve.f1(), e.ue.f1()]),
        tasks: TaskKind::CHOICE
            .iter()
            .map(|t| (*t, report.choice[t].precision(), report.choice[t].f1()))
            .collect(),
    }
}

/// DimPerc: `base` fine-tuned on the training DimEval, with no faults.
fn train_dimperc(base: TinyLm, kb: &Arc<DimUnitKb>, config: &ExperimentConfig) -> TinyLm {
    degrade::complete(pipeline::train_dimperc(base, kb, &config.pipeline, Policy::CLASSIC))
}

/// Builds the evaluation benchmark.
pub fn build_eval_dimeval(config: &ExperimentConfig) -> DimEval {
    let eval_config = DimEvalConfig {
        per_task: config.eval_per_task,
        extraction_items: config.eval_per_task,
        seed: config.seed,
        parallelism: config.pipeline.parallelism,
        ..Default::default()
    };
    degrade::complete(DimEval::build(&DimUnitKb::shared(), &eval_config, Policy::CLASSIC))
}

/// Runs Table VII: tool-augmented GPTs, zero-shot baselines, and DimPerc.
pub fn table7(config: &ExperimentConfig) -> Vec<Table7Row> {
    let _span = EXP_TABLE7.span();
    let kb = DimUnitKb::shared();
    let eval = build_eval_dimeval(config);
    let engine = Arc::new(WolframEngine::new(kb.clone()));
    let mut rows = Vec::new();

    // Tool-augmented block.
    for (i, p) in [profile::GPT4, profile::GPT35_TURBO].iter().enumerate() {
        let inner = SimulatedLlm::new(kb.clone(), *p, config.seed + i as u64);
        let mut model = ToolAugmented::new(inner, engine.clone(), config.seed + i as u64);
        let report = evaluate(&mut model, &eval);
        rows.push(report_to_row(
            p.name.to_string(),
            p.params.to_string(),
            p.extraction > 0.0,
            &report,
        ));
    }
    // Zero-shot baselines.
    for (i, p) in profile::TABLE7_BASELINES.iter().enumerate() {
        let mut model = SimulatedLlm::new(kb.clone(), *p, config.seed + 100 + i as u64);
        let report = evaluate(&mut model, &eval);
        rows.push(report_to_row(
            p.name.to_string(),
            p.params.to_string(),
            p.extraction > 0.0,
            &report,
        ));
    }
    // DimPerc (ours).
    let base = TinyLm::llama_ift(config.pipeline.seed);
    let mut dimperc = train_dimperc(base, &kb, config);
    let report = evaluate(&mut dimperc, &eval);
    rows.push(report_to_row("DimPerc (Ours)".into(), "7B".into(), true, &report));
    rows
}

// ===================== Table VIII =====================

/// One Table VIII row: category-aggregated precision/F1.
#[derive(Debug, Clone)]
pub struct Table8Row {
    /// Model name.
    pub name: String,
    /// `(precision, f1)` per category in paper order.
    pub categories: [(f64, f64); 3],
}

/// Runs Table VIII: LLaMA_IFT vs DimPerc fine-tuned from that same base.
pub fn table8(config: &ExperimentConfig) -> Vec<Table8Row> {
    let _span = EXP_TABLE8.span();
    let kb = DimUnitKb::shared();
    let eval = build_eval_dimeval(config);
    let mut base = TinyLm::llama_ift(config.pipeline.seed);
    let mut dimperc = train_dimperc(base.clone(), &kb, config);
    [&mut base as &mut dyn DimEvalSolver, &mut dimperc as &mut dyn DimEvalSolver]
        .into_iter()
        .map(|m| {
            let report = evaluate(m, &eval);
            Table8Row {
                name: report.model.clone(),
                categories: [
                    report.category(Category::BasicPerception),
                    report.category(Category::DimensionPerception),
                    report.category(Category::ScalePerception),
                ],
            }
        })
        .collect()
}

// ===================== Table IX =====================

/// One Table IX row: accuracy on the four MWP sets.
#[derive(Debug, Clone)]
pub struct Table9Row {
    /// Model name.
    pub name: String,
    /// `[N-Math23k, N-Ape210k, Q-Math23k, Q-Ape210k]` accuracies.
    pub accuracy: [f64; 4],
}

fn mwp_row(model: &mut dyn MwpSolver, sets: &MwpDatasets) -> Table9Row {
    Table9Row {
        name: model.name(),
        accuracy: [
            accuracy(model, &sets.n_math23k),
            accuracy(model, &sets.n_ape210k),
            accuracy(model, &sets.q_math23k),
            accuracy(model, &sets.q_ape210k),
        ],
    }
}

/// Runs Table IX: powerful LLMs (± WolframAlpha), supervised models, and
/// DimPerc after the full pipeline.
pub fn table9(config: &ExperimentConfig) -> Vec<Table9Row> {
    let _span = EXP_TABLE9.span();
    let kb = DimUnitKb::shared();
    let sets = build_mwp_eval(config);
    let engine = Arc::new(WolframEngine::new(kb.clone()));
    let mut rows = Vec::new();
    for (i, p) in [profile::GPT4, profile::GPT35_TURBO].iter().enumerate() {
        let mut solo = SimulatedLlm::new(kb.clone(), *p, config.seed + i as u64);
        rows.push(mwp_row(&mut solo, &sets));
        let inner = SimulatedLlm::new(kb.clone(), *p, config.seed + i as u64);
        let mut tool = ToolAugmented::new(inner, engine.clone(), config.seed + i as u64);
        rows.push(mwp_row(&mut tool, &sets));
    }
    for (i, p) in [profile::BERTGEN, profile::LLAMA_NMWP].iter().enumerate() {
        let mut model = SimulatedLlm::new(kb.clone(), *p, config.seed + 50 + i as u64);
        rows.push(mwp_row(&mut model, &sets));
    }
    // DimPerc: full pipeline (DimEval fine-tuning + augmented MWP training).
    let base = TinyLm::llama_ift(config.pipeline.seed);
    let mut dimperc = train_dimperc(base, &kb, config);
    let training = pipeline::build_mwp_training(&kb, &config.pipeline);
    pipeline::train_quantitative(&mut dimperc, &training, &config.pipeline, 0, |_, _| {});
    rows.push(mwp_row(&mut dimperc, &sets));
    rows
}

// ===================== Fig. 6 =====================

/// Runs the augmentation-rate sweep: `(η, accuracy on Q-Ape210k)`.
pub fn fig6(config: &ExperimentConfig, etas: &[f64]) -> Vec<(f64, f64)> {
    let _span = EXP_FIG6.span();
    let kb = DimUnitKb::shared();
    let sets = build_mwp_eval(config);
    let base = TinyLm::llama_ift(config.pipeline.seed);
    let dimperc = train_dimperc(base, &kb, config);
    etas.iter()
        .map(|&eta| {
            let mut model = dimperc.clone();
            let cfg = PipelineConfig { eta, ..config.pipeline };
            let training = pipeline::build_mwp_training(&kb, &cfg);
            pipeline::train_quantitative(&mut model, &training, &cfg, 0, |_, _| {});
            (eta, accuracy(&mut model, &sets.q_ape210k))
        })
        .collect()
}

// ===================== Fig. 7 =====================

/// One training curve of Fig. 7.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Series label.
    pub label: String,
    /// `(training step, accuracy on Q-Ape210k)` points.
    pub points: Vec<(usize, f64)>,
}

/// Runs the training-dynamics ablation: base model vs DimPerc, with and
/// without equation tokenization (`w/o ET` = regular tokenization). All
/// four variants start from one LLaMA_IFT and train on one MWP mixture,
/// which does not depend on the tokenization.
pub fn fig7(config: &ExperimentConfig, checkpoints: usize) -> Vec<Curve> {
    let _span = EXP_FIG7.span();
    let kb = DimUnitKb::shared();
    let sets = build_mwp_eval(config);
    let base = TinyLm::llama_ift(config.pipeline.seed);
    let dimperc = train_dimperc(base.clone(), &kb, config);
    let variants: Vec<(String, TinyLm, EqTokenization)> = vec![
        ("DimPerc w/o ET".into(), dimperc.clone(), EqTokenization::Regular),
        ("DimPerc w/ ET".into(), dimperc, EqTokenization::Digit),
        ("LLaMa_IFT w/o ET".into(), base.clone(), EqTokenization::Regular),
        ("LLaMa_IFT w/ ET".into(), base, EqTokenization::Digit),
    ];
    let training = pipeline::build_mwp_training(&kb, &config.pipeline);
    let training_len = 2 * config.pipeline.mwp_train
        + (2.0 * config.pipeline.mwp_train as f64 * config.pipeline.eta) as usize;
    // Geometric-ish checkpoint schedule: dense early (where the paper's
    // Fig. 7 shows DimPerc's knowledge-transfer advantage), sparse later.
    let base_every = (training_len / (checkpoints * 4).max(1)).max(1);
    let mut wanted: Vec<usize> = Vec::new();
    let mut step = base_every;
    while wanted.len() < checkpoints && step <= training_len {
        wanted.push(step);
        step = (step * 2).min(step + training_len / checkpoints.max(1)).max(step + base_every);
    }
    // The callback fires on multiples of base_every; record the last one.
    let last_multiple = (training_len / base_every) * base_every;
    if wanted.last() != Some(&last_multiple) {
        wanted.push(last_multiple);
    }
    variants
        .into_iter()
        .map(|(label, mut model, tokenization)| {
            let mut points = Vec::new();
            let cfg = PipelineConfig { tokenization, ..config.pipeline };
            let wanted = wanted.clone();
            pipeline::train_quantitative(&mut model, &training, &cfg, base_every, |step, snapshot| {
                if !wanted.iter().any(|w| step >= *w && step < w + base_every) {
                    return;
                }
                let correct = sets
                    .q_ape210k
                    .iter()
                    .filter(|p| {
                        dim_mwp::prediction_correct(p, &snapshot.solve_frozen(p, step as u64))
                    })
                    .count();
                points.push((step, correct as f64 / sets.q_ape210k.len() as f64));
            });
            Curve { label, points }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_shape_matches_paper() {
        let rows = table4();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].units, 76, "UoM row");
        assert_eq!(rows[1].units, 540, "WolframAlpha row");
        assert!(rows[2].units > rows[1].units, "DimUnitKB dominates");
        assert!(rows[2].freq && !rows[0].freq);
        assert_eq!(rows[2].lang, "En&Zh");
    }

    #[test]
    fn fig3_fig4_are_ranked() {
        let units = fig3(15);
        assert_eq!(units.len(), 15);
        for w in units.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        let kinds = fig4(14);
        assert_eq!(kinds.len(), 14);
        for row in &kinds {
            assert!(!row.units.is_empty() && row.units.len() <= 5);
        }
    }

    #[test]
    fn table6_q_sets_dominate_n_sets() {
        let cfg = quick_config();
        let rows = table6(&cfg);
        assert_eq!(rows.len(), 4);
        let stats: std::collections::HashMap<&str, &DatasetStats> =
            rows.iter().map(|(n, s)| (*n, s)).collect();
        assert!(stats["Q-Math23k"].units > stats["N-Math23k"].units);
        assert!(stats["Q-Ape210k"].units > stats["N-Ape210k"].units);
    }
}
