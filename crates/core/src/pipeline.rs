//! The three-step framework of Fig. 2: build DimKS, fine-tune dimension
//! perception (DimPerc), then apply it to quantitative reasoning with
//! quantity-oriented data augmentation.

use dim_models::tinylm::TinyLm;
use dim_mwp::{Augmenter, EqTokenization, GenConfig, MwpProblem, Source};
use dimeval::{DimEval, DimEvalConfig};
use dimkb::degrade::{self, BudgetExceeded, Outcome, Policy, QuarantineEntry};
use dimkb::DimUnitKb;
use std::sync::Arc;

// Observability: one span per Fig. 2 pipeline step.
static TRAIN_DIMPERC_SPAN: dim_obs::Histogram = dim_obs::Histogram::new("pipeline.train_dimperc");
static BUILD_MWP_SPAN: dim_obs::Histogram = dim_obs::Histogram::new("pipeline.build_mwp_training");
static TRAIN_QUANT_SPAN: dim_obs::Histogram =
    dim_obs::Histogram::new("pipeline.train_quantitative");
static MWP_TRAINING_ITEMS: dim_obs::Counter = dim_obs::Counter::new("pipeline.mwp_training_items");
static RECORDS_QUARANTINED: dim_obs::Counter =
    dim_obs::Counter::new("pipeline.records_quarantined");
static DEGRADED_RUNS: dim_obs::Counter = dim_obs::Counter::new("pipeline.degraded_runs");

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Training items per DimEval task.
    pub train_per_task: usize,
    /// Epochs of DimEval fine-tuning.
    pub epochs: usize,
    /// MWP training problems per source style.
    pub mwp_train: usize,
    /// Augmentation rate η for the quantitative-reasoning step.
    pub eta: f64,
    /// Equation tokenization strategy (ablation switch).
    pub tokenization: EqTokenization,
    /// Master seed.
    pub seed: u64,
    /// Fan-out for benchmark construction, MWP generation and
    /// augmentation. Any thread count yields identical datasets: the
    /// `dim_par` morsel scheduler clamps the requested width to the host's
    /// usable cores and merges results in index order, so this knob trades
    /// wall-clock time only, never output bytes.
    pub parallelism: dim_par::Parallelism,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            train_per_task: 600,
            epochs: 6,
            mwp_train: 900,
            eta: 0.5,
            tokenization: EqTokenization::Regular,
            seed: 77,
            parallelism: dim_par::Parallelism::SEQUENTIAL,
        }
    }
}

/// The DimEval *training* benchmark's configuration (distinct seeds from
/// the evaluation benchmark).
fn train_dimeval_config(config: &PipelineConfig) -> DimEvalConfig {
    DimEvalConfig {
        per_task: config.train_per_task,
        extraction_items: (config.train_per_task / 2).max(100),
        seed: config.seed ^ 0x7EA1,
        parallelism: config.parallelism,
        ..Default::default()
    }
}

/// Builds the DimEval *training* benchmark (distinct seeds from the
/// evaluation benchmark).
pub fn build_train_dimeval(kb: &Arc<DimUnitKb>, config: &PipelineConfig) -> DimEval {
    degrade::complete(DimEval::build(kb, &train_dimeval_config(config), Policy::CLASSIC))
}

/// Step 2 (Fig. 2b): continual fine-tuning of `base` on DimEval → DimPerc.
/// Callers pass `TinyLm::llama_ift(config.seed)` or a clone of one; a
/// clone shares its weight tables until training writes them. Benchmark
/// construction may quarantine whole tasks (see [`DimEval::build`]) under
/// the policy.
pub fn train_dimperc(
    mut base: TinyLm,
    kb: &Arc<DimUnitKb>,
    config: &PipelineConfig,
    policy: Policy,
) -> Result<(TinyLm, Vec<QuarantineEntry>), BudgetExceeded> {
    let _span = TRAIN_DIMPERC_SPAN.span();
    let (train, quarantine) = DimEval::build(kb, &train_dimeval_config(config), policy)?;
    RECORDS_QUARANTINED.add(quarantine.len() as u64);
    base.finetune_dimeval(kb, &train, config.epochs, config.seed ^ 0xF1);
    Ok((base, quarantine))
}

/// The MWP training mixture: both dataset styles, augmented at rate η.
pub fn build_mwp_training(kb: &DimUnitKb, config: &PipelineConfig) -> Vec<MwpProblem> {
    degrade::complete(mwp_training(kb, config, Policy::CLASSIC))
}

/// [`build_mwp_training`] under `policy`: generation runs through
/// [`dim_mwp::generate_with`] per source and augmentation through
/// [`Augmenter::augment_dataset_with`], each quarantining faulted records.
/// Surviving problems go through the same deterministic interleave, so
/// with no faults the mixture is identical.
fn mwp_training(
    kb: &DimUnitKb,
    config: &PipelineConfig,
    policy: Policy,
) -> Result<(Vec<MwpProblem>, Vec<QuarantineEntry>), BudgetExceeded> {
    let _span = BUILD_MWP_SPAN.span();
    let d1 = dim_mwp::generate_with(
        Source::Math23k,
        &GenConfig { count: config.mwp_train, seed: config.seed ^ 0x23 },
        config.parallelism,
        policy,
    )?;
    let d2 = dim_mwp::generate_with(
        Source::Ape210k,
        &GenConfig { count: config.mwp_train, seed: config.seed ^ 0x210 },
        config.parallelism,
        policy,
    )?;
    let (mut problems, mut quarantine) = d1.split();
    let (ape, ape_quarantine) = d2.split();
    problems.extend(ape);
    quarantine.extend(ape_quarantine);
    let aug = Augmenter::new(kb, config.seed ^ 0xA6);
    let (out, aug_quarantine) =
        aug.augment_dataset_with(&problems, config.eta, config.parallelism, policy)?;
    quarantine.extend(aug_quarantine);
    let mixed = interleave(out);
    MWP_TRAINING_ITEMS.add(mixed.len() as u64);
    RECORDS_QUARANTINED.add(quarantine.len() as u64);
    Ok((mixed, quarantine))
}

/// Deterministic interleave so originals and augmented variants mix:
/// Fibonacci hashing of the index gives a fixed pseudo-random total
/// order (the old `(i * K) % len` key collapsed for many lengths —
/// e.g. even lengths mapped every index pair {i, i + len/2} to the
/// same key, leaving long runs in original order).
fn interleave(out: Vec<MwpProblem>) -> Vec<MwpProblem> {
    let n = out.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
    // Apply the permutation by moving problems, not cloning them. `order`
    // is a permutation of 0..n, so every slot is taken exactly once.
    let mut slots: Vec<Option<MwpProblem>> = out.into_iter().map(Some).collect();
    let mixed: Vec<MwpProblem> =
        // lint:allow(no_panic, order is a permutation of 0..n == slots.len() by construction two lines up)
        order.into_iter().filter_map(|i| slots[i].take()).collect();
    debug_assert_eq!(mixed.len(), n);
    mixed
}

/// Step 3 (Fig. 2c): quantitative-reasoning fine-tuning of a model on a
/// prebuilt MWP mixture (see [`build_mwp_training`]), decoded with
/// `config.tokenization`. Checkpoints via the callback when requested.
pub fn train_quantitative(
    model: &mut TinyLm,
    training: &[MwpProblem],
    config: &PipelineConfig,
    checkpoint_every: usize,
    callback: impl FnMut(usize, &TinyLm),
) {
    let _span = TRAIN_QUANT_SPAN.span();
    model.tokenization = config.tokenization;
    model.finetune_mwp(training, checkpoint_every, callback);
}

/// The full pipeline: steps 1–3 end to end, returning the finished model
/// and the records quarantined on the way. Every batch stage
/// skips-and-records faulted work under the policy instead of panicking; a
/// blown budget is a typed [`BudgetExceeded`] abort. With no faults the
/// quarantine is empty; with faults, [`degrade::manifest`] renders it.
pub fn run_full_pipeline(
    config: &PipelineConfig,
    policy: Policy,
) -> Result<(TinyLm, Vec<QuarantineEntry>), BudgetExceeded> {
    let kb = DimUnitKb::shared(); // step 1: the knowledge system
    let base = TinyLm::llama_ift(config.seed);
    let (mut model, mut quarantine) = train_dimperc(base, &kb, config, policy)?; // step 2
    let (training, mwp_quarantine) = mwp_training(&kb, config, policy)?; // step 3
    quarantine.extend(mwp_quarantine);
    train_quantitative(&mut model, &training, config, 0, |_, _| {});
    if !quarantine.is_empty() {
        DEGRADED_RUNS.inc();
    }
    Ok((model, quarantine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_mwp::accuracy;

    #[test]
    fn full_pipeline_solves_qmwp() {
        let config = PipelineConfig {
            train_per_task: 120,
            epochs: 3,
            // 17 problem templates per style need enough examples each for
            // the template memory to cover the held-out set.
            mwp_train: 500,
            ..Default::default()
        };
        let kb = DimUnitKb::shared();
        let mut model = degrade::complete(run_full_pipeline(&config, Policy::CLASSIC));
        assert_eq!(model.display_name, "DimPerc");
        // Held-out Q-MWP evaluation.
        let n = dim_mwp::generate(Source::Math23k, &GenConfig { count: 120, seed: 999 });
        let q = Augmenter::new(&kb, 999).to_qmwp(&n);
        let acc = accuracy(&mut model, &q);
        assert!(acc > 0.4, "pipeline Q-MWP accuracy {acc}");
    }

    #[test]
    fn dimperc_from_a_shared_base_matches_dimperc_from_a_fresh_one() {
        let kb = DimUnitKb::shared();
        let config = PipelineConfig { train_per_task: 20, epochs: 2, ..Default::default() };
        let base = TinyLm::llama_ift(config.seed);
        // A second clone stays alive, so the base's weights are shared
        // three ways when fine-tuning starts writing them.
        let bystander = base.clone();
        let dimperc = |base| degrade::complete(train_dimperc(base, &kb, &config, Policy::CLASSIC));
        let shared = dimperc(base.clone());
        let fresh = dimperc(TinyLm::llama_ift(config.seed));
        let untrained = TinyLm::llama_ift(config.seed);
        let eval_config = DimEvalConfig { per_task: 10, seed: 3, ..Default::default() };
        let eval = degrade::complete(DimEval::build(&kb, &eval_config, Policy::CLASSIC));
        let bits = |m: &TinyLm, item| -> Vec<u32> {
            m.choice.scores(item).into_iter().map(f32::to_bits).collect()
        };
        for item in eval.choice.values().flatten() {
            assert_eq!(bits(&shared, item), bits(&fresh, item), "{}", item.question);
            for base_side in [&base, &bystander] {
                assert_eq!(bits(base_side, item), bits(&untrained, item), "{}", item.question);
            }
        }
    }

    #[test]
    fn the_mwp_mixture_does_not_depend_on_the_tokenization() {
        // Fig. 7 trains its w/ ET and w/o ET variants on one mixture.
        let kb = DimUnitKb::shared();
        let regular = PipelineConfig {
            mwp_train: 60,
            tokenization: EqTokenization::Regular,
            ..Default::default()
        };
        let digit = PipelineConfig { tokenization: EqTokenization::Digit, ..regular };
        assert_eq!(build_mwp_training(&kb, &regular), build_mwp_training(&kb, &digit));
    }

    #[test]
    fn augmentation_rate_changes_training_size() {
        let kb = DimUnitKb::shared();
        let base = PipelineConfig { mwp_train: 100, eta: 0.0, ..Default::default() };
        let aug = PipelineConfig { mwp_train: 100, eta: 1.0, ..Default::default() };
        assert_eq!(build_mwp_training(&kb, &base).len(), 200);
        assert_eq!(build_mwp_training(&kb, &aug).len(), 400);
    }
}
