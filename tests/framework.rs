//! End-to-end integration tests across the workspace crates.

use dimension_perception::core::DimKs;
use dimension_perception::eval::{evaluate, DimEval, DimEvalConfig, TaskKind};
use dimension_perception::kb::degrade::{self, Policy};
use dimension_perception::kb::DimUnitKb;
use dimension_perception::models::profile::GPT4;
use dimension_perception::models::SimulatedLlm;

fn build_dimeval(config: &DimEvalConfig) -> DimEval {
    degrade::complete(DimEval::build(&DimUnitKb::shared(), config, Policy::CLASSIC))
}

#[test]
fn dimks_annotates_bilingual_text_end_to_end() {
    let ks = DimKs::standard();
    let text = "这座塔高三百二十四米，重约7000吨，每年用电约580万千瓦时。";
    let mentions = ks.annotate(text);
    assert!(mentions.len() >= 2, "{mentions:?}");
    let kb = ks.kb();
    let codes: Vec<String> =
        mentions.iter().map(|m| kb.unit(m.best_unit()).code.clone()).collect();
    assert!(codes.contains(&"M".to_string()), "{codes:?}");
    assert!(codes.contains(&"TONNE".to_string()), "{codes:?}");
}

#[test]
fn benchmark_pipeline_is_reproducible_across_processes_shape() {
    // Same seed → identical benchmark; different seed → different items.
    let cfg = DimEvalConfig { per_task: 8, extraction_items: 8, ..Default::default() };
    let a = build_dimeval(&cfg);
    let b = build_dimeval(&cfg);
    assert_eq!(a.choice[&TaskKind::UnitConversion], b.choice[&TaskKind::UnitConversion]);
    let c = build_dimeval(&DimEvalConfig { seed: 999, ..cfg });
    assert_ne!(a.choice[&TaskKind::UnitConversion], c.choice[&TaskKind::UnitConversion]);
}

#[test]
fn simulated_model_runs_the_whole_benchmark() {
    let eval =
        build_dimeval(&DimEvalConfig { per_task: 10, extraction_items: 10, ..Default::default() });
    let mut model = SimulatedLlm::new(DimUnitKb::shared(), GPT4, 1);
    let report = evaluate(&mut model, &eval);
    assert_eq!(report.choice.len(), 6);
    for (task, score) in &report.choice {
        assert_eq!(score.total, 10, "{task:?}");
    }
    assert_eq!(report.extraction.qe.gold, eval.extraction.iter().map(|e| e.gold.len()).sum::<usize>());
}

#[test]
fn umbrella_reexports_are_wired() {
    // Every facade module resolves and interoperates.
    let kb = dimension_perception::kb::DimUnitKb::shared();
    let toks = dimension_perception::embed::tokenize::words("3 km away");
    assert_eq!(toks.len(), 3);
    let problems = dimension_perception::mwp::generate(
        dimension_perception::mwp::Source::Math23k,
        &dimension_perception::mwp::GenConfig { count: 3, seed: 1 },
    );
    assert_eq!(problems.len(), 3);
    let aug = dimension_perception::mwp::Augmenter::new(&kb, 2);
    let q = aug.to_qmwp(&problems);
    assert_eq!(q.len(), 3);
}
