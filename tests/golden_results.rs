//! Golden-results harness: every paper-facing output under `results/` is
//! regenerated in-process (through the same `dim_bench::render` functions
//! the experiment binaries print) and byte-compared against the committed
//! transcript. Any behavioural drift in the pipeline — intended or not —
//! fails here instead of silently rotting the committed tables.
//!
//! The config-independent outputs (Table IV, Fig. 3/4, both ablations)
//! compare against `results/<name>.txt`; the config-dependent outputs
//! (Tables VI–IX, Fig. 6/7) run at the `--quick` configuration and compare against
//! `results/quick/<name>.txt`, at thread widths 1 and 4 — proving both
//! the cross-thread determinism contract and that enabling the `dim-obs`
//! metrics layer never perturbs paper-facing bytes.
//!
//! To refresh goldens after an *intentional* output change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_results
//! ```
//!
//! then review the `results/` diff like any other code change.

use dim_bench::render;
use dim_verify::DEFAULT_NOISE;
use dimension_perception::core::experiments::{build_mwp_eval, quick_config, ExperimentConfig};
use dimension_perception::eval::detection_rates;
use std::fs;
use std::path::PathBuf;

fn golden_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results").join(rel)
}

/// Byte-compares `actual` against the committed golden, or rewrites the
/// golden when `UPDATE_GOLDEN` is set.
fn assert_matches_golden(rel: &str, actual: &str) {
    let path = golden_path(rel);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        eprintln!("golden: rewrote {}", path.display());
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); generate it with `UPDATE_GOLDEN=1 cargo test --test golden_results`",
            path.display()
        )
    });
    if expected != actual {
        let first_diff = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map(|i| i + 1);
        panic!(
            "regenerated output drifted from {} (first differing line: {first_diff:?}, \
             expected {} bytes, got {} bytes).\n\
             If the change is intentional, refresh with `UPDATE_GOLDEN=1 cargo test --test golden_results` \
             and review the results/ diff.",
            path.display(),
            expected.len(),
            actual.len(),
        );
    }
}

/// The quick experiment configuration at an explicit fan-out width.
fn quick_at(threads: usize) -> ExperimentConfig {
    let mut cfg = quick_config();
    cfg.pipeline.parallelism = dim_par::Parallelism::new(threads);
    cfg
}

#[test]
fn table4_matches_golden() {
    assert_matches_golden("table4.txt", &render::table4());
}

/// Paper parity for Table IV: the grown DimUnitKB must meet the scale the
/// paper reports for its knowledge base — 1778 units across 327 quantity
/// kinds. Floors, not equalities: the KB may keep growing, but it
/// must never shrink below the paper again.
#[test]
fn table4_reaches_paper_scale() {
    use dimension_perception::kb::{stats, DimUnitKb};

    let table4 = stats::statistics(&DimUnitKb::shared());
    assert!(
        table4.units >= 1778,
        "paper reports 1778 units; the KB has regressed to {}",
        table4.units,
    );
    assert!(
        table4.quantity_kinds >= 327,
        "paper reports 327 quantity kinds; the KB has regressed to {}",
        table4.quantity_kinds,
    );
    assert_eq!(table4.languages, "En&Zh");
    assert!(table4.has_frequency);
}

#[test]
fn fig3_matches_golden() {
    assert_matches_golden("fig3.txt", &render::fig3());
}

#[test]
fn fig4_matches_golden() {
    assert_matches_golden("fig4.txt", &render::fig4());
}

#[test]
fn ablation_algo1_matches_golden() {
    assert_matches_golden("ablation_algo1.txt", &render::ablation_algo1());
}

#[test]
fn ablation_linking_matches_golden() {
    assert_matches_golden("ablation_linking.txt", &render::ablation_linking());
}

#[test]
fn quick_table6_matches_golden_at_every_thread_width() {
    // Width 1 establishes the golden; width 4 proves the fan-out cannot
    // change paper-facing bytes. Metrics are live during the second run
    // (see `obs_instrumentation_covers_stages_without_perturbing_output`,
    // which may execute concurrently in this process) — that is part of
    // the contract under test.
    for threads in [1, 4] {
        assert_matches_golden("quick/table6.txt", &render::table6(&quick_at(threads)));
    }
}

#[test]
fn quick_table7_matches_golden_at_every_thread_width() {
    for threads in [1, 4] {
        assert_matches_golden("quick/table7.txt", &render::table7(&quick_at(threads)));
    }
}

#[test]
fn quick_table8_matches_golden_at_every_thread_width() {
    for threads in [1, 4] {
        assert_matches_golden("quick/table8.txt", &render::table8(&quick_at(threads)));
    }
}

#[test]
fn quick_table9_matches_golden_at_every_thread_width() {
    for threads in [1, 4] {
        assert_matches_golden("quick/table9.txt", &render::table9(&quick_at(threads)));
    }
}

#[test]
fn quick_fig6_matches_golden_at_every_thread_width() {
    for threads in [1, 4] {
        assert_matches_golden("quick/fig6.txt", &render::fig6(&quick_at(threads)));
    }
}

#[test]
fn quick_fig7_matches_golden_at_every_thread_width() {
    for threads in [1, 4] {
        assert_matches_golden("quick/fig7.txt", &render::fig7(&quick_at(threads)));
    }
}

/// The dim-verify repair table (before/after accuracy of the dimensional
/// rejection/repair pass, DESIGN.md §15) is a paper-facing output like
/// Tables VI/VII: byte-identical at both fan-out widths and pinned
/// against the committed golden. `quick_verify_repair_never_hurts`
/// asserts the after >= before invariant on the underlying numbers.
#[test]
fn quick_verify_repair_matches_golden_at_every_thread_width() {
    for threads in [1, 4] {
        assert_matches_golden("quick/verify_repair.txt", &render::verify_repair(&quick_at(threads)));
    }
}

/// Same contract for the NUMCoT-style perturbation table (unit-mutation
/// detection rates per mutation class).
#[test]
fn quick_verify_perturb_matches_golden_at_every_thread_width() {
    for threads in [1, 4] {
        assert_matches_golden(
            "quick/verify_perturb.txt",
            &render::verify_perturb(&quick_at(threads)),
        );
    }
}

/// Repair never hurts: on every quick evaluation set, accuracy after the
/// rejection/repair pass is at least the beam's top-candidate accuracy
/// (gold equations always verify, so rejection can only promote).
#[test]
fn quick_verify_repair_never_hurts() {
    let cfg = quick_config();
    let kb = dimension_perception::kb::DimUnitKb::shared();
    for (name, problems) in build_mwp_eval(&cfg).iter() {
        let par = cfg.pipeline.parallelism;
        let row = dim_verify::repair_row(name, problems, &kb, cfg.seed, DEFAULT_NOISE, par);
        assert!(row.after >= row.before, "{name}: repair hurt: {row:?}");
    }
}

/// Every mutation class applies to at least one problem and is detected
/// at a nonzero rate on every quick Q-MWP set.
#[test]
fn quick_verify_detects_every_mutation_class() {
    let cfg = quick_config();
    let kb = dimension_perception::kb::DimUnitKb::shared();
    let sets = build_mwp_eval(&cfg);
    for (name, problems) in sets.iter().filter(|(name, _)| name.starts_with("Q-")) {
        for row in detection_rates(problems, &kb, cfg.seed, cfg.pipeline.parallelism) {
            let class = row.class.name();
            assert!(row.n > 0 && row.detected > 0, "{name}/{class}: {row:?}");
        }
    }
}

/// The chaos stage under a fixed `FaultPlan` (seed 7, rate 0.05) renders a
/// byte-identical report — plan banner, stage outcomes, and the full
/// quarantine manifest — at both fan-out widths. This pins the
/// fault-injection decision function and the quarantine contract the same
/// way the other goldens pin paper-facing numbers. Safe alongside the
/// other golden tests: the plan is a value passed to this report's
/// stages only, and the other stages run under `Policy::CLASSIC`.
#[test]
fn chaos_quick_matches_golden() {
    for threads in [1, 4] {
        assert_matches_golden(
            "quick/chaos.txt",
            &render::chaos_report(&quick_at(threads), 7, 0.05),
        );
    }
}

/// Drives every instrumented hot path with a small workload and asserts
/// each acceptance-criteria stage (link, algo1, algo2, mwp-gen, eval)
/// reports a non-zero span timing plus plausible counters. Recording is
/// always on, so output-perturbation safety is covered by the golden tests
/// above running in the same process.
#[test]
fn obs_instrumentation_covers_stages_without_perturbing_output() {
    use dimension_perception::corpus::{generate, CorpusConfig};
    use dimension_perception::eval::algo1::{self, Algo1Config};
    use dimension_perception::eval::algo2::{self, Algo2Config};
    use dimension_perception::eval::{evaluate, DimEval, DimEvalConfig};
    use dimension_perception::kb::degrade::{self, Policy};
    use dimension_perception::kb::DimUnitKb;
    use dimension_perception::kgraph::{synthesize, SynthConfig};
    use dimension_perception::link::{Annotator, LinkerConfig, UnitLinker};
    use dimension_perception::models::{profile, SimulatedLlm};
    use dimension_perception::mwp::{self, GenConfig, Source};

    let kb = DimUnitKb::shared();
    let annotator = Annotator::new(UnitLinker::new(kb.clone(), None, LinkerConfig::default()));

    // kb.search.* : the indexed KB search.
    let hits = dimension_perception::kb::search::search(&kb, "meter", 5);
    assert!(!hits.is_empty());

    // link.* : link one mention, and annotate a sentence with two quantities.
    assert!(!annotator.linker().link("km", "").is_empty());
    let mentions = annotator.annotate("LeBron James's height is 2.06 meters and his weight is 113 kg.");
    assert_eq!(mentions.len(), 2);

    // algo1.* : the semi-automated annotation pipeline on a small corpus.
    let corpus = generate(&kb, &CorpusConfig { sentences: 40, seed: 11 });
    let mlm = algo1::train_filter(&corpus);
    algo1::semi_automated_annotate(&annotator, &mlm, &corpus, Algo1Config::default());

    // algo2.* : bootstrapping retrieval over a small synthetic KG.
    let kg = synthesize(&kb, &SynthConfig { entities_per_type: 10, seed: 3 });
    algo2::bootstrap_retrieve(&kg, &annotator, Algo2Config::default());

    // mwp.* : problem generation.
    let problems = mwp::generate(Source::Ape210k, &GenConfig { count: 20, seed: 9 });
    assert_eq!(problems.len(), 20);

    // dimeval.build + eval.* : build a tiny benchmark and evaluate a
    // simulated solver over it.
    let eval_config = DimEvalConfig { per_task: 4, extraction_items: 4, ..Default::default() };
    let eval = degrade::complete(DimEval::build(&kb, &eval_config, Policy::CLASSIC));
    let mut solver = SimulatedLlm::new(kb.clone(), profile::GPT35_TURBO, 1);
    evaluate(&mut solver, &eval);

    let snap = dim_obs::snapshot();
    for stage in ["link.link", "link.annotate", "algo1.run", "algo2.run", "mwp.gen", "eval.evaluate", "dimeval.build"]
    {
        let h = snap
            .histogram(stage)
            .unwrap_or_else(|| panic!("stage {stage} not present in the obs snapshot"));
        assert!(h.count > 0, "stage {stage} recorded no spans");
        assert!(h.sum > 0, "stage {stage} recorded zero elapsed time");
        assert!(h.max >= h.p50, "stage {stage} has inconsistent stats: {h:?}");
    }
    assert!(snap.counter("link.mentions").unwrap() >= 2);
    assert!(snap.counter("algo1.sentences").unwrap() >= 40);
    assert!(snap.counter("mwp.problems").unwrap() >= 20);
    assert!(snap.counter("eval.items").unwrap() > 0);
    assert!(snap.counter("kb.search.queries").unwrap() > 0);
    assert!(
        snap.histogram("kb.search").map(|h| h.count).unwrap_or(0) > 0,
        "the indexed KB search span must record"
    );
}
