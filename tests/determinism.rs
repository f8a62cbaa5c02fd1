//! End-to-end determinism contract of the `dim-par` fan-out: every
//! parallelized pipeline stage must produce byte-identical output at
//! `threads = 1` and `threads = 4`, compared with `PartialEq`.

use dim_core::pipeline::{self, PipelineConfig};
use dim_mwp::{Augmenter, GenConfig, Source};
use dim_par::Parallelism;
use dimeval::{DimEval, DimEvalConfig};
use dimkb::degrade::{self, Policy};
use dimkb::DimUnitKb;
use dimlink::{Annotator, LinkerConfig, UnitLinker};

const THREADS: usize = 4;

#[test]
fn dimeval_build_is_byte_identical_across_thread_counts() {
    let kb = DimUnitKb::shared();
    let base = DimEvalConfig { per_task: 8, extraction_items: 8, ..Default::default() };
    let build = |cfg| degrade::complete(DimEval::build(&kb, &cfg, Policy::CLASSIC));
    let seq = build(base);
    let par = build(DimEvalConfig { parallelism: Parallelism::new(THREADS), ..base });
    assert_eq!(seq, par);
}

#[test]
fn mwp_generation_and_augmentation_are_byte_identical() {
    let kb = DimUnitKb::shared();
    let cfg = GenConfig { count: 200, seed: 4242 };
    let seq_gen = dim_mwp::generate(Source::Ape210k, &cfg);
    let par = Parallelism::new(THREADS);
    let par_gen =
        degrade::complete(dim_mwp::generate_with(Source::Ape210k, &cfg, par, Policy::CLASSIC));
    assert_eq!(seq_gen, par_gen);

    let augment = |par| {
        let d = Augmenter::new(&kb, 7).augment_dataset_with(&seq_gen, 0.5, par, Policy::CLASSIC);
        degrade::complete(d)
    };
    assert_eq!(augment(Parallelism::SEQUENTIAL), augment(par));
}

#[test]
fn batch_linking_matches_sequential() {
    let kb = DimUnitKb::shared();
    let annotator = Annotator::new(UnitLinker::with_config(kb, LinkerConfig::default()));
    let texts: Vec<String> = (0..60)
        .map(|i| format!("第{i}项记录：距离{}千米，用时{}小时，油耗{} L。", i + 5, i + 1, i % 9 + 3))
        .collect();
    let seq: Vec<_> = texts.iter().map(|t| annotator.annotate(t)).collect();
    let par = annotator.annotate_batch(&texts, Parallelism::new(THREADS));
    assert_eq!(seq, par);
}

#[test]
fn mwp_training_mixture_is_byte_identical() {
    let kb = DimUnitKb::shared();
    let base = PipelineConfig { mwp_train: 150, ..Default::default() };
    let seq = pipeline::build_mwp_training(&kb, &base);
    let par = pipeline::build_mwp_training(
        &kb,
        &PipelineConfig { parallelism: Parallelism::new(THREADS), ..base },
    );
    assert_eq!(seq, par);
}

#[test]
fn training_mixture_interleaves_augmented_variants() {
    // The reorder must actually mix: with η = 0.5 the last third of the
    // pre-shuffle vector is augmented variants, so after interleaving they
    // must not sit in one contiguous block.
    let kb = DimUnitKb::shared();
    let cfg = PipelineConfig { mwp_train: 150, ..Default::default() };
    let mixed = pipeline::build_mwp_training(&kb, &cfg);
    let n_originals = 2 * cfg.mwp_train;
    assert!(mixed.len() > n_originals);
    // Originals carry ids 0..mwp_train per source; augmented copies keep
    // their source problem's id. Count augmented-vs-original transitions by
    // comparing against a conversion-free regeneration: instead, use the
    // conversions field — augmented problems carry conversion records or
    // differ from any original. Cheap proxy: the first quarter of the mixed
    // vector should already contain some problem with conversions.
    let quarter = mixed.len() / 4;
    assert!(
        mixed[..quarter].iter().any(|p| !p.conversions.is_empty() || p.answer_conversion != 1.0),
        "augmented variants should appear early after interleaving"
    );
}
