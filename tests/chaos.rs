//! Chaos harness: deterministic fault injection over the degraded-mode
//! (`try_*`) batch entry points and the full pipeline.
//!
//! The contract under test, per ISSUE/DESIGN §9:
//!
//! - with no plan installed (or rate 0) every `try_*` path produces output
//!   identical to its classic counterpart, at every thread width;
//! - with a fixed `FaultPlan` and rate > 0 the run completes panic-free,
//!   un-faulted slots match the clean run byte-for-byte, and the
//!   quarantine manifest is identical across repeated runs and widths;
//! - a blown error budget is a typed [`BudgetExceeded`] abort, never a
//!   panic.
//!
//! The fault plan is process-global, so every test holds a
//! `dim_chaos::scoped` guard: one process-wide mutex, the test's plan
//! installed once it is held, and both plans cleared on drop.

use dim_chaos::FaultPlan;
use dimension_perception::core::pipeline::{try_run_full_pipeline, PipelineConfig};
use dimension_perception::eval::{DimEval, DimEvalConfig};
use dimension_perception::kb::degrade::{ErrorBudget, QuarantineEntry};
use dimension_perception::kb::DimUnitKb;
use dimension_perception::link::{Annotator, LinkerConfig, UnitLinker};
use dimension_perception::mwp::{self, Augmenter, GenConfig, Source};

fn annotator() -> Annotator {
    Annotator::new(UnitLinker::new(DimUnitKb::shared(), None, LinkerConfig::default()))
}

fn widths() -> [dim_par::Parallelism; 2] {
    [dim_par::Parallelism::new(1), dim_par::Parallelism::new(4)]
}

/// Clean texts (no decoys): the try path must match classic `annotate`.
fn clean_texts() -> Vec<String> {
    (0..16)
        .map(|i| match i % 3 {
            0 => format!("这条路全长{}千米。", i + 1),
            1 => format!("箱子重{} kg。", i * 2 + 3),
            _ => format!("水温是{}°C。", i + 15),
        })
        .collect()
}

#[test]
fn rate_zero_try_paths_match_classic_at_both_widths() {
    let clean = dim_chaos::scoped(FaultPlan::OFF);
    let budget = ErrorBudget::strict();
    let kb = DimUnitKb::shared();
    let texts = clean_texts();
    let ann = annotator();
    let classic_mentions: Vec<_> = texts.iter().map(|t| ann.annotate(t)).collect();
    let gen_cfg = GenConfig { count: 150, seed: 51 };
    let classic_gen = mwp::generate_with(Source::Math23k, &gen_cfg, dim_par::Parallelism::new(1));
    let classic_qmwp = Augmenter::new(&kb, 99).to_qmwp(&classic_gen);
    let classic_aug = Augmenter::new(&kb, 7)
        .augment_dataset_with(&classic_gen, 0.5, dim_par::Parallelism::new(1));
    let eval_cfg = DimEvalConfig {
        per_task: 24,
        extraction_items: 30,
        seed: 4242,
        ..Default::default()
    };
    let classic_eval = DimEval::build(&kb, &eval_cfg);

    // Install a plan with rate 0: `is_active()` is false, so this must be
    // indistinguishable from no plan at all.
    drop(clean);
    let _plan = dim_chaos::scoped(FaultPlan::new(123, 0.0));
    for par in widths() {
        let d = ann.try_annotate_batch(&texts, par, budget).unwrap();
        assert!(d.quarantine.is_empty());
        let got: Vec<_> = d.items.into_iter().map(Option::unwrap).collect();
        assert_eq!(got, classic_mentions);

        let d = mwp::try_generate_with(Source::Math23k, &gen_cfg, par, budget).unwrap();
        assert!(d.quarantine.is_empty());
        assert_eq!(d.ok_items(), classic_gen);

        let d = Augmenter::new(&kb, 99).try_to_qmwp_with(&classic_gen, par, budget).unwrap();
        assert!(d.quarantine.is_empty());
        assert_eq!(d.ok_items(), classic_qmwp);

        let (aug, quarantine) = Augmenter::new(&kb, 7)
            .try_augment_dataset_with(&classic_gen, 0.5, par, budget)
            .unwrap();
        assert!(quarantine.is_empty());
        assert_eq!(aug, classic_aug);

        let cfg = DimEvalConfig { parallelism: par, ..eval_cfg };
        let (eval, quarantine) = DimEval::try_build(&kb, &cfg, budget).unwrap();
        assert!(quarantine.is_empty());
        assert_eq!(
            serde_json::to_string(&eval).unwrap(),
            serde_json::to_string(&classic_eval).unwrap()
        );
    }
}

#[test]
fn fixed_plan_quarantine_is_deterministic_and_spares_clean_slots() {
    let budget = ErrorBudget::new(0.5);
    let gen_cfg = GenConfig { count: 400, seed: 314 };
    let clean = {
        let _clean = dim_chaos::scoped(FaultPlan::OFF);
        mwp::generate_with(Source::Ape210k, &gen_cfg, dim_par::Parallelism::new(1))
    };

    let _plan = dim_chaos::scoped(FaultPlan::new(0xC4A05, 0.05));
    let mut manifests: Vec<String> = Vec::new();
    for par in [widths()[0], widths()[1], widths()[0]] {
        let d = mwp::try_generate_with(Source::Ape210k, &gen_cfg, par, budget).unwrap();
        assert!(!d.quarantine.is_empty(), "rate 0.05 over 400 items should fault some");
        assert!(d.failed_count() < clean.len() / 4, "faults should stay near the rate");
        // Un-faulted slots are byte-identical to the clean run, positionally.
        for (i, slot) in d.items.iter().enumerate() {
            if let Some(p) = slot {
                assert_eq!(p, &clean[i], "clean slot {i} must match the fault-free run");
            }
        }
        // Quarantined slots are exactly the manifest's indices.
        let faulted: Vec<usize> = d
            .items
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect();
        let listed: Vec<usize> = d.quarantine.iter().map(|q| q.index).collect();
        assert_eq!(faulted, listed);
        manifests.push(dimension_perception::kb::degrade::manifest(&d.quarantine));
    }
    assert_eq!(manifests[0], manifests[1], "manifest must not depend on thread width");
    assert_eq!(manifests[0], manifests[2], "manifest must not depend on the run");
}

#[test]
fn blown_budget_is_a_typed_abort() {
    let _plan = dim_chaos::scoped(FaultPlan::new(9, 0.9));
    let gen_cfg = GenConfig { count: 200, seed: 77 };
    let err = mwp::try_generate_with(
        Source::Math23k,
        &gen_cfg,
        dim_par::Parallelism::new(4),
        ErrorBudget::new(0.1),
    )
    .unwrap_err();
    assert_eq!(err.site, "mwp.gen.math23k");
    assert_eq!(err.total, 200);
    assert!(err.failed as f64 > 0.1 * err.total as f64);
    assert!(err.to_string().contains("error budget exceeded at mwp.gen.math23k"));
}

#[test]
fn degraded_quick_pipeline_completes_panic_free() {
    dim_obs::enable();
    let config = PipelineConfig {
        train_per_task: 120,
        epochs: 2,
        mwp_train: 300,
        ..Default::default()
    };
    let counter = |name: &str| {
        dim_obs::snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    let quarantined_before = counter("pipeline.records_quarantined");
    let degraded_before = counter("pipeline.degraded_runs");

    let _plan = dim_chaos::scoped(FaultPlan::new(7, 0.05));
    let mut manifests: Vec<String> = Vec::new();
    for par in widths() {
        let cfg = PipelineConfig { parallelism: par, ..config };
        let (model, report) =
            try_run_full_pipeline(&cfg, ErrorBudget::new(0.5)).expect("budget holds at 5%");
        assert_eq!(model.display_name, "DimPerc");
        assert!(report.is_degraded(), "rate 0.05 must quarantine something");
        manifests.push(report.manifest());
    }
    assert_eq!(manifests[0], manifests[1], "pipeline manifest must not depend on width");
    assert!(counter("pipeline.records_quarantined") > quarantined_before);
    assert!(counter("pipeline.degraded_runs") >= degraded_before + 2);
}

#[test]
fn corpus_decoy_tokens_are_quarantined_not_unwrapped() {
    // No fault plan: the decoy guard is plan-independent robustness.
    let _clean = dim_chaos::scoped(FaultPlan::OFF);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(20_24);
    let ann = annotator();
    let budget = ErrorBudget::new(1.0);
    let mut decoys_seen = 0usize;
    for _ in 0..24 {
        let token = dimension_perception::corpus::noise::decoy_token(&mut rng);
        let text = format!("新设备{token}已经部署,线路全长3千米。");
        // Only tokens the annotator actually mis-links as quantities are
        // interesting here; for those, the try path must skip-and-record
        // with a `decoy` error instead of reaching a conversion unwrap.
        if ann.annotate(&text).is_empty() {
            continue;
        }
        let d = ann
            .try_annotate_batch(std::slice::from_ref(&text), dim_par::Parallelism::new(1), budget)
            .unwrap();
        if let Some(q) = d.quarantine.first() {
            assert!(q.error.starts_with("decoy:"), "decoy text {text:?} got {q}");
            decoys_seen += 1;
        }
    }
    assert!(decoys_seen > 0, "corpus decoy tokens never triggered the guard");
}

#[test]
fn quarantine_entries_order_and_render_stably() {
    let _plan = dim_chaos::scoped(FaultPlan::new(0xBEEF, 0.2));
    let d = mwp::try_generate_with(
        Source::Math23k,
        &GenConfig { count: 64, seed: 1 },
        dim_par::Parallelism::new(4),
        ErrorBudget::new(0.8),
    )
    .unwrap();
    let mut shuffled: Vec<QuarantineEntry> = d.quarantine.clone();
    shuffled.reverse();
    assert_eq!(
        dimension_perception::kb::degrade::manifest(&shuffled),
        dimension_perception::kb::degrade::manifest(&d.quarantine),
        "manifest must sort entries, not trust arrival order"
    );
}
