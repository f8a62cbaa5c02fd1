//! Chaos harness: deterministic fault injection over the degraded batch
//! operations (each takes a `Policy` last) and the full pipeline.
//!
//! The contract under test, per DESIGN §9:
//!
//! - under a rate-0 plan every operation produces output identical to the
//!   same function under `Policy::CLASSIC`, at every thread width;
//! - `degrade::isolate` quarantines the same panicking records, with the
//!   same messages, under every `dim_par` fan-out at every width;
//! - with a fixed `FaultPlan` and rate > 0 the run completes panic-free,
//!   un-faulted slots match the clean run byte-for-byte, and the
//!   quarantine manifest is identical across repeated runs and widths;
//! - a blown error budget is a typed `BudgetExceeded` abort, never a
//!   panic;
//! - a plan reaches only the call it is passed to: a `Policy::CLASSIC`
//!   call running beside a rate-1.0 chaos run is untouched.
//!
//! Plans are values inside a `Policy`, so these tests share no state and
//! run in parallel.

use dim_chaos::FaultPlan;
use dimension_perception::core::pipeline::{run_full_pipeline, PipelineConfig};
use dimension_perception::eval::{DimEval, DimEvalConfig};
use dimension_perception::kb::degrade::{
    self, Degraded, ErrorBudget, Policy, QuarantineEntry, RecordError,
};
use dimension_perception::kb::DimUnitKb;
use dimension_perception::link::{Annotator, LinkerConfig, UnitLinker};
use dimension_perception::mwp::{self, Augmenter, GenConfig, MwpSolver, Source};

fn annotator() -> Annotator {
    Annotator::new(UnitLinker::new(DimUnitKb::shared(), None, LinkerConfig::default()))
}

/// A policy injecting `plan` under a budget of `max_error_rate`.
fn policy(plan: FaultPlan, max_error_rate: f64) -> Policy {
    Policy { plan, budget: ErrorBudget::new(max_error_rate) }
}

fn widths() -> [dim_par::Parallelism; 2] {
    [dim_par::Parallelism::new(1), dim_par::Parallelism::new(4)]
}

/// Clean texts (no decoys), so no record is quarantined at rate 0.
fn clean_texts() -> Vec<String> {
    (0..16)
        .map(|i| match i % 3 {
            0 => format!("这条路全长{}千米。", i + 1),
            1 => format!("箱子重{} kg。", i * 2 + 3),
            _ => format!("水温是{}°C。", i + 15),
        })
        .collect()
}

/// Generation under `policy` at width `par`.
fn generate(
    source: Source,
    config: &GenConfig,
    par: dim_par::Parallelism,
    policy: Policy,
) -> Degraded<mwp::MwpProblem> {
    mwp::generate_with(source, config, par, policy).expect("the budget holds")
}

#[test]
fn rate_zero_policy_matches_classic_at_both_widths() {
    // A plan with rate 0 is inactive, so even under a strict budget each
    // operation must be indistinguishable from the same call under
    // `Policy::CLASSIC`.
    let zero = policy(FaultPlan::new(123, 0.0), 0.0);
    let kb = DimUnitKb::shared();
    let texts = clean_texts();
    let ann = annotator();
    let gen_cfg = GenConfig { count: 150, seed: 51 };
    let eval_cfg =
        DimEvalConfig { per_task: 24, extraction_items: 30, seed: 4242, ..Default::default() };
    let pipeline_cfg =
        PipelineConfig { train_per_task: 20, epochs: 1, mwp_train: 40, ..Default::default() };
    let probe = mwp::generate(Source::Ape210k, &GenConfig { count: 12, seed: 9 });

    for par in widths() {
        let [classic, at_zero] = [Policy::CLASSIC, zero]
            .map(|p| ann.try_annotate_batch(&texts, par, p).expect("the budget holds"));
        assert!(at_zero.quarantine.is_empty());
        assert_eq!(at_zero, classic);

        let [classic, at_zero] =
            [Policy::CLASSIC, zero].map(|p| generate(Source::Math23k, &gen_cfg, par, p));
        assert!(at_zero.quarantine.is_empty());
        assert_eq!(at_zero, classic);
        let problems = classic.ok_items();

        let [classic, at_zero] = [Policy::CLASSIC, zero]
            .map(|p| Augmenter::new(&kb, 7).augment_dataset_with(&problems, 0.5, par, p).unwrap());
        assert!(at_zero.1.is_empty());
        assert_eq!(at_zero, classic);

        let cfg = DimEvalConfig { parallelism: par, ..eval_cfg };
        let [classic, at_zero] = [Policy::CLASSIC, zero].map(|p| DimEval::build(&kb, &cfg, p));
        let (eval, quarantine) = at_zero.unwrap();
        assert!(quarantine.is_empty());
        assert_eq!(eval, classic.unwrap().0);

        // The pipeline's model: compare what it solves on a probe set.
        let cfg = PipelineConfig { parallelism: par, ..pipeline_cfg };
        let [classic, at_zero] = [Policy::CLASSIC, zero].map(|p| {
            let (mut model, quarantine) = run_full_pipeline(&cfg, p).unwrap();
            let solved: Vec<_> = probe.iter().map(|q| model.solve(q)).collect();
            (solved, quarantine)
        });
        assert!(at_zero.1.is_empty());
        assert_eq!(at_zero, classic);
    }
}

/// The panicking indices of [`isolate_quarantines_the_same_panics_at_every_width`].
const PANICKING: [usize; 4] = [13, 57, 58, 91];

/// One degraded item: doubles `x`, or panics at a [`PANICKING`] index.
fn double_or_panic(i: usize, x: u32) -> Result<u32, RecordError> {
    if PANICKING.contains(&i) {
        panic!("{} at test[{i}]", dim_chaos::INJECTED_PANIC_PREFIX);
    }
    Ok(x * 2)
}

#[test]
fn isolate_quarantines_the_same_panics_at_every_width() {
    dim_chaos::silence_injected_panic_reports();
    let items: Vec<u32> = (0..100).collect();
    let isolated = |i, &x: &u32| degrade::isolate(|| double_or_panic(i, x));
    let mut runs = Vec::new();
    for threads in [1, 2, 4] {
        let par = dim_par::Parallelism::new(threads);
        runs.push(dim_par::par_map_indexed(par, &items, isolated));
        runs.push(dim_par::par_map_coarse(par, &items, isolated));
        runs.push(dim_par::par_map_scratch(par, &items, String::new, |i, x, scratch| {
            scratch.clear();
            isolated(i, x)
        }));
    }
    for slots in runs {
        let d = degrade::collect_degraded("test", slots, ErrorBudget::new(0.1)).unwrap();
        let listed: Vec<String> = d.quarantine.iter().map(|q| q.to_string()).collect();
        let expected: Vec<String> = PANICKING
            .iter()
            .map(|i| format!("test[{i}]: panicked: chaos: injected panic at test[{i}]"))
            .collect();
        assert_eq!(listed, expected);
        for (i, slot) in d.items.iter().enumerate() {
            let want = (!PANICKING.contains(&i)).then_some(2 * i as u32);
            assert_eq!(*slot, want, "slot {i}");
        }
    }
}

#[test]
fn fixed_plan_quarantine_is_deterministic_and_spares_clean_slots() {
    let faulty = policy(FaultPlan::new(0xC4A05, 0.05), 0.5);
    let gen_cfg = GenConfig { count: 400, seed: 314 };
    let clean = mwp::generate(Source::Ape210k, &gen_cfg);

    let mut manifests: Vec<String> = Vec::new();
    for par in [widths()[0], widths()[1], widths()[0]] {
        let d = generate(Source::Ape210k, &gen_cfg, par, faulty);
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
        manifests.push(degrade::manifest(&d.quarantine));
    }
    assert_eq!(manifests[0], manifests[1], "manifest must not depend on thread width");
    assert_eq!(manifests[0], manifests[2], "manifest must not depend on the run");
}

#[test]
fn blown_budget_is_a_typed_abort() {
    let gen_cfg = GenConfig { count: 200, seed: 77 };
    let err = mwp::generate_with(
        Source::Math23k,
        &gen_cfg,
        dim_par::Parallelism::new(4),
        policy(FaultPlan::new(9, 0.9), 0.1),
    )
    .unwrap_err();
    assert_eq!(err.site, "mwp.gen.math23k");
    assert_eq!(err.total, 200);
    assert!(err.failed as f64 > 0.1 * err.total as f64);
    assert!(err.to_string().contains("error budget exceeded at mwp.gen.math23k"));
}

#[test]
fn degraded_quick_pipeline_completes_panic_free() {
    let config = PipelineConfig {
        train_per_task: 120,
        epochs: 2,
        mwp_train: 300,
        ..Default::default()
    };
    let before = dim_obs::snapshot();

    let mut manifests: Vec<String> = Vec::new();
    for par in widths() {
        let cfg = PipelineConfig { parallelism: par, ..config };
        let (model, quarantine) = run_full_pipeline(&cfg, policy(FaultPlan::new(7, 0.05), 0.5))
            .expect("budget holds at 5%");
        assert_eq!(model.display_name, "DimPerc");
        assert!(!quarantine.is_empty(), "rate 0.05 must quarantine something");
        manifests.push(degrade::manifest(&quarantine));
    }
    assert_eq!(manifests[0], manifests[1], "pipeline manifest must not depend on width");
    let after = dim_obs::snapshot();
    assert!(after.counter_since(&before, "pipeline.records_quarantined") > 0);
    assert!(after.counter_since(&before, "pipeline.degraded_runs") >= 2);
}

#[test]
fn corpus_decoy_tokens_are_quarantined_not_unwrapped() {
    // No fault plan: the decoy guard is plan-independent robustness.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(20_24);
    let ann = annotator();
    let budget = policy(FaultPlan::OFF, 1.0);
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
    let d = generate(
        Source::Math23k,
        &GenConfig { count: 64, seed: 1 },
        dim_par::Parallelism::new(4),
        policy(FaultPlan::new(0xBEEF, 0.2), 0.8),
    );
    let mut shuffled: Vec<QuarantineEntry> = d.quarantine.clone();
    shuffled.reverse();
    assert_eq!(
        degrade::manifest(&shuffled),
        degrade::manifest(&d.quarantine),
        "manifest must sort entries, not trust arrival order"
    );
}

/// A plan reaches only the call it is passed to: generation under
/// `Policy::CLASSIC` on one thread equals the clean run while another
/// thread generates the same dataset with every record faulted.
#[test]
fn a_plan_reaches_only_the_call_it_is_given() {
    let gen_cfg = GenConfig { count: 300, seed: 5 };
    let par = dim_par::Parallelism::new(2);
    let clean = mwp::generate(Source::Math23k, &gen_cfg);
    let start = std::sync::Barrier::new(2);
    let (classic, faulted) = std::thread::scope(|s| {
        let chaos = s.spawn(|| {
            start.wait();
            (0..4)
                .map(|_| {
                    let all = policy(FaultPlan::new(3, 1.0), 1.0);
                    generate(Source::Math23k, &gen_cfg, par, all).failed_count()
                })
                .collect::<Vec<_>>()
        });
        start.wait();
        let classic: Vec<_> = (0..4)
            .map(|_| {
                let d = mwp::generate_with(Source::Math23k, &gen_cfg, par, Policy::CLASSIC);
                degrade::complete(d)
            })
            .collect();
        (classic, chaos.join().expect("chaos thread"))
    });
    for run in classic {
        assert_eq!(run, clean, "the classic call must not see the other thread's plan");
    }
    assert_eq!(faulted, vec![gen_cfg.count; 4], "rate 1.0 faults every record");
}
