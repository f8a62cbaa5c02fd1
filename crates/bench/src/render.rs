//! Table/figure renderers: each function returns the exact text its
//! harness binary prints to stdout. Splitting rendering from `main` lets
//! `all_experiments` run the whole suite in one process (so a single obs
//! registry sees every stage) and lets the golden-results test byte-compare
//! regenerated output against `results/*.txt` without spawning binaries.
//!
//! Rendering must stay a pure function of the experiment config: anything
//! nondeterministic (timings, thread counts, obs state) is forbidden here.

use crate::{pct, PAPER_TABLE4, PAPER_TABLE6, PAPER_TABLE7_KEY_ROWS, PAPER_TABLE8, PAPER_TABLE9};
use dim_core::experiments::{self, ExperimentConfig};
use dim_mwp::OP_BUCKET_LABELS;
use std::fmt::Write as _;

fn rule_to(out: &mut String, width: usize) {
    let _ = writeln!(out, "{}", "-".repeat(width));
}

/// Table IV — knowledge-base statistics comparison.
pub fn table4() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table IV — statistics of DimUnitKB vs UoM and WolframAlpha");
    rule_to(&mut out, 78);
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>14} {:>12} {:>8} {:>6}",
        "Resource", "#Units", "#QuantityKind", "#DimVector", "Lang", "Freq"
    );
    rule_to(&mut out, 78);
    for row in experiments::table4() {
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>14} {:>12} {:>8} {:>6}",
            row.name,
            row.units,
            row.kinds,
            if row.dims == 0 { "-".to_string() } else { row.dims.to_string() },
            row.lang,
            if row.freq { "yes" } else { "no" }
        );
    }
    rule_to(&mut out, 78);
    let _ = writeln!(out, "Paper reported:");
    for (name, units, kinds, dims, lang, freq) in PAPER_TABLE4 {
        let _ = writeln!(out, "{name:<14} {units:>8} {kinds:>14} {dims:>12} {lang:>8} {freq:>6}");
    }
    out
}

/// Fig. 3 — popular units sorted by the frequency feature.
pub fn fig3() -> String {
    let k = 20;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 3 — top {k} units by Freq(u) (Eq. 1-2 over synthetic popularity sources)"
    );
    rule_to(&mut out, 56);
    for (i, (label, freq)) in experiments::fig3(k).into_iter().enumerate() {
        let bar = "#".repeat((freq * 40.0).round() as usize);
        let _ = writeln!(out, "{:>2}. {:<22} {:>6.3}  {}", i + 1, label, freq, bar);
    }
    rule_to(&mut out, 56);
    let _ = writeln!(out, "Paper shape: everyday units (metre, percent, hour, kilogram)");
    let _ = writeln!(out, "dominate; rare scientific units trail (the centimetre > decimetre");
    let _ = writeln!(out, "property is asserted by dimkb's test suite).");
    out
}

/// Fig. 4 — top quantity kinds and their top-five units.
pub fn fig4() -> String {
    let k = 14;
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 4 — top {k} quantity kinds (freq = mean of top-5 unit freqs)");
    rule_to(&mut out, 86);
    for row in experiments::fig4(k) {
        let units: Vec<String> =
            row.units.iter().map(|(u, f)| format!("{u} ({f:.2})")).collect();
        let _ = writeln!(out, "{:<22} {:>5.3}  {}", row.kind, row.freq, units.join(", "));
    }
    rule_to(&mut out, 86);
    let _ = writeln!(out, "Paper shape: everyday kinds (Length, Time, Mass, Ratio) lead with");
    let _ = writeln!(out, "their common units; each kind lists its five most frequent units.");
    out
}

/// Table VI — statistics of the MWP evaluation datasets.
pub fn table6(cfg: &ExperimentConfig) -> String {
    let mut out = String::new();
    let _ =
        writeln!(out, "Table VI — statistics of evaluation datasets on quantitative reasoning");
    rule_to(&mut out, 70);
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "Dataset",
        "#Num",
        "#Units",
        OP_BUCKET_LABELS[0],
        OP_BUCKET_LABELS[1],
        OP_BUCKET_LABELS[2],
        OP_BUCKET_LABELS[3]
    );
    rule_to(&mut out, 70);
    for (name, s) in experiments::table6(cfg) {
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>7} {:>9} {:>9} {:>9} {:>9}",
            name, s.problems, s.units, s.op_buckets[0], s.op_buckets[1], s.op_buckets[2],
            s.op_buckets[3]
        );
    }
    rule_to(&mut out, 70);
    let _ = writeln!(out, "Paper reported:");
    for (name, num, units, b) in PAPER_TABLE6 {
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>7} {:>9} {:>9} {:>9} {:>9}",
            name, num, units, b[0], b[1], b[2], b[3]
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "Shape to hold: Q-sets have more distinct units and shift mass into");
    let _ = writeln!(out, "the higher operation buckets (unit conversions add steps).");
    out
}

/// Table VII — DimEval results across models and settings.
pub fn table7(cfg: &ExperimentConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table VII — results (%) of different models and settings on DimEval");
    let _ = writeln!(
        out,
        "(eval: {} items/task; DimPerc trained on {} items/task × {} epochs)",
        cfg.eval_per_task, cfg.pipeline.train_per_task, cfg.pipeline.epochs
    );
    rule_to(&mut out, 132);
    let _ = writeln!(
        out,
        "{:<28} {:>6} | {:>6} {:>6} {:>6} | {:>11} | {:>11} | {:>11} | {:>11} | {:>11} | {:>11}",
        "Model", "#par", "QE", "VE", "UE",
        "KindMatch", "Comparable", "DimPred", "DimArith", "Magnitude", "Conversion"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>6} | {:>6} {:>6} {:>6} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5}",
        "", "", "(F1)", "(F1)", "(F1)", "Prec", "F1", "Prec", "F1", "Prec", "F1", "Prec", "F1", "Prec", "F1", "Prec", "F1"
    );
    rule_to(&mut out, 132);
    for row in experiments::table7(cfg) {
        let ext = match row.extraction {
            Some([qe, ve, ue]) => format!("{:>6} {:>6} {:>6}", pct(qe), pct(ve), pct(ue)),
            None => format!("{:>6} {:>6} {:>6}", "-", "-", "-"),
        };
        let tasks: Vec<String> =
            row.tasks.iter().map(|(_, p, f)| format!("{:>5} {:>5}", pct(*p), pct(*f))).collect();
        let _ =
            writeln!(out, "{:<28} {:>6} | {} | {}", row.name, row.params, ext, tasks.join(" | "));
    }
    rule_to(&mut out, 132);
    let _ = writeln!(out, "Paper reported (key rows, QE/VE/UE then Prec/F1 per task):");
    for (name, ext, tasks) in PAPER_TABLE7_KEY_ROWS {
        let t: Vec<String> =
            tasks.iter().map(|(p, f)| format!("{p:>5.2} {f:>5.2}")).collect();
        let _ = writeln!(
            out,
            "{:<28} {:>6} | {:>6.2} {:>6.2} {:>6.2} | {}",
            name, "", ext[0], ext[1], ext[2], t.join(" | ")
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "Shapes to hold: GPT-4 best zero-shot; dimension arithmetic hardest for");
    let _ = writeln!(out, "LLMs; F1 < precision for abstaining GPT-series; DimPerc dominates the");
    let _ = writeln!(out, "dimension- and scale-perception tasks after fine-tuning.");
    out
}

/// Table VIII — DimPerc vs the base model on DimEval categories.
pub fn table8(cfg: &ExperimentConfig) -> String {
    let mut out = String::new();
    let _ =
        writeln!(out, "Table VIII — comparison between DimPerc and the base model on DimEval");
    rule_to(&mut out, 88);
    let _ = writeln!(
        out,
        "{:<12} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
        "Model", "Basic P.", "F1", "Dim P.", "F1", "Scale P.", "F1"
    );
    rule_to(&mut out, 88);
    for row in experiments::table8(cfg) {
        let c = row.categories;
        let _ = writeln!(
            out,
            "{:<12} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
            row.name,
            pct(c[0].0),
            pct(c[0].1),
            pct(c[1].0),
            pct(c[1].1),
            pct(c[2].0),
            pct(c[2].1)
        );
    }
    rule_to(&mut out, 88);
    let _ = writeln!(out, "Paper reported:");
    for (name, cats) in PAPER_TABLE8 {
        let _ = writeln!(
            out,
            "{:<12} | {:>9.2} {:>9.2} | {:>9.2} {:>9.2} | {:>9.2} {:>9.2}",
            name, cats[0].0, cats[0].1, cats[1].0, cats[1].1, cats[2].0, cats[2].1
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "Shape to hold: fine-tuning on DimEval lifts every category by a");
    let _ = writeln!(out, "large margin over the instruction-tuned base model.");
    out
}

/// Table IX — accuracy on N-MWP and Q-MWP.
pub fn table9(cfg: &ExperimentConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table IX — accuracy (%) of different models on N-MWP and Q-MWP");
    let _ = writeln!(
        out,
        "(eval: {} problems/set; DimPerc pipeline: η = {}, {} MWP training problems/style)",
        cfg.mwp_eval, cfg.pipeline.eta, cfg.pipeline.mwp_train
    );
    rule_to(&mut out, 86);
    let _ = writeln!(
        out,
        "{:<32} {:>11} {:>11} {:>11} {:>11}",
        "Model", "N-Math23k", "N-Ape210k", "Q-Math23k", "Q-Ape210k"
    );
    rule_to(&mut out, 86);
    for row in experiments::table9(cfg) {
        let _ = writeln!(
            out,
            "{:<32} {:>11} {:>11} {:>11} {:>11}",
            row.name,
            pct(row.accuracy[0]),
            pct(row.accuracy[1]),
            pct(row.accuracy[2]),
            pct(row.accuracy[3])
        );
    }
    rule_to(&mut out, 86);
    let _ = writeln!(out, "Paper reported:");
    for (name, a) in PAPER_TABLE9 {
        let _ = writeln!(
            out,
            "{:<32} {:>11.2} {:>11.2} {:>11.2} {:>11.2}",
            name, a[0], a[1], a[2], a[3]
        );
    }
    let _ = writeln!(out);
    let _ =
        writeln!(out, "Shapes to hold: every baseline drops sharply from N to Q; the tool helps");
    let _ =
        writeln!(out, "hard Q-sets; supervised N-MWP models collapse hardest; DimPerc leads Q-MWP.");
    out
}

/// Fig. 6 — DimPerc accuracy on Q-Ape210k vs augmentation rate η.
pub fn fig6(cfg: &ExperimentConfig) -> String {
    let etas = [0.0, 0.25, 0.5, 0.75, 1.0];
    let mut out = String::new();
    let _ =
        writeln!(out, "Fig. 6 — accuracy of DimPerc on Q-Ape210k vs data augmentation rate η");
    rule_to(&mut out, 54);
    for (eta, acc) in experiments::fig6(cfg, &etas) {
        let bar = "#".repeat((acc * 50.0).round() as usize);
        let _ = writeln!(out, "η = {eta:<5} accuracy = {:>6}%  {bar}", pct(acc));
    }
    rule_to(&mut out, 54);
    let _ = writeln!(out, "Paper shape: accuracy rises with η and saturates at η ≥ 0.5;");
    let _ = writeln!(out, "the paper recommends η = 0.5 as the cost/benefit sweet spot.");
    out
}

/// Fig. 7 — training curves (base model × equation tokenization).
pub fn fig7(cfg: &ExperimentConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 7 — Q-Ape210k accuracy vs training steps (base model × equation tokenization)"
    );
    rule_to(&mut out, 76);
    for curve in experiments::fig7(cfg, 8) {
        let _ = writeln!(out, "{}:", curve.label);
        for (step, acc) in &curve.points {
            let bar = "#".repeat((acc * 48.0).round() as usize);
            let _ = writeln!(out, "  step {:>6}: {:>6}%  {bar}", step, pct(*acc));
        }
        let _ = writeln!(out);
    }
    rule_to(&mut out, 76);
    let _ =
        writeln!(out, "Paper shapes: DimPerc starts above the base model (dimension knowledge");
    let _ =
        writeln!(out, "transfers) and both improve with steps; equation (digit) tokenization");
    let _ = writeln!(
        out,
        "consistently *underperforms* regular tokenization — the paper's negative"
    );
    let _ = writeln!(out, "result, reproduced here through longer decoded sequences.");
    out
}

/// Ablation of Algorithm 1's masked-LM filtering stage.
pub fn ablation_algo1() -> String {
    use dim_corpus::{generate, CorpusConfig};
    use dimeval::algo1::{self, Algo1Config};
    use dimkb::DimUnitKb;
    use dimlink::{Annotator, LinkerConfig, UnitLinker};

    let kb = DimUnitKb::shared();
    let corpus = generate(&kb, &CorpusConfig { sentences: 600, seed: 505 });
    let annotator = Annotator::new(UnitLinker::with_config(kb, LinkerConfig::default()));
    let mlm = algo1::train_filter(&corpus);
    let mut out = String::new();
    let _ = writeln!(out, "Algorithm 1 ablation — masked-LM filter thresholds");
    rule_to(&mut out, 78);
    let _ = writeln!(
        out,
        "{:<12} {:>16} {:>16} {:>10} {:>12}",
        "threshold", "stage-1 prec", "stage-2 prec", "removed", "review work"
    );
    rule_to(&mut out, 78);
    for threshold in [0.0, 0.05, 0.18, 0.4, 0.7] {
        let res = algo1::semi_automated_annotate(
            &annotator,
            &mlm,
            &corpus,
            Algo1Config { mlm_threshold: threshold, ..Default::default() },
        );
        let _ = writeln!(
            out,
            "{:<12} {:>15}% {:>15}% {:>10} {:>12}",
            threshold,
            pct(res.stage1_precision),
            pct(res.stage2_precision),
            res.removed_by_filter,
            res.corrected_by_review
        );
    }
    rule_to(&mut out, 78);
    let _ = writeln!(out, "threshold 0 disables the filter (stage-2 = stage-1); the paper's");
    let _ = writeln!(out, "automated accuracy is 82% — moderate thresholds recover precision");
    let _ = writeln!(out, "by dropping device-code decoys at small recall cost.");
    out
}

/// Ablation of the unit-linking score components (§III-B).
pub fn ablation_linking() -> String {
    use dim_corpus::{generate, CorpusConfig};
    use dimkb::DimUnitKb;
    use dimlink::{LinkerConfig, UnitLinker};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn perturb(rng: &mut StdRng, mention: &str) -> String {
        match rng.gen_range(0..10) {
            // Lowercase (symbol case is lost in casual text).
            0..=3 => mention.to_lowercase(),
            // Drop one character (typo), only for longer mentions.
            4..=6 if mention.chars().count() > 3 => {
                let chars: Vec<char> = mention.chars().collect();
                let drop = rng.gen_range(1..chars.len());
                chars
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != drop)
                    .map(|(_, c)| c)
                    .collect()
            }
            // Keep exact.
            _ => mention.to_string(),
        }
    }

    let kb = DimUnitKb::shared();
    let corpus = generate(&kb, &CorpusConfig { sentences: 500, seed: 404 });
    let variants: [(&str, LinkerConfig); 4] = [
        (
            "mention only (Pr(u|m))",
            LinkerConfig { use_prior: false, use_context: false, ..Default::default() },
        ),
        ("+ prior (Pr(u))", LinkerConfig { use_context: false, ..Default::default() }),
        ("+ context (Pr(u|c))", LinkerConfig { use_prior: false, ..Default::default() }),
        ("full model", LinkerConfig::default()),
    ];
    let mut out = String::new();
    let _ = writeln!(out, "Linking ablation — argmax accuracy on perturbed corpus mentions");
    let _ = writeln!(out, "(40% lowercased, 30% one-character typos, 30% exact)");
    rule_to(&mut out, 64);
    for (label, config) in variants {
        let linker = UnitLinker::with_config(kb.clone(), config);
        let mut rng = StdRng::seed_from_u64(7);
        let mut total = 0usize;
        let mut correct = 0usize;
        for sent in &corpus {
            for q in &sent.quantities {
                total += 1;
                let noisy = perturb(&mut rng, &q.unit_surface);
                if let Some(best) = linker.best(&noisy, &sent.text) {
                    if kb.unit(best.unit).code == q.unit_code {
                        correct += 1;
                    }
                }
            }
        }
        let acc = correct as f64 / total as f64;
        let _ = writeln!(out, "{label:<26} {:>7}%   ({correct}/{total})", pct(acc));
    }
    rule_to(&mut out, 64);
    let _ = writeln!(out, "Finding: with a complete naming dictionary the mention term");
    let _ = writeln!(out, "Pr(u|m) already resolves ~99% of mentions; the prior and context");
    let _ = writeln!(out, "terms only matter for genuinely ambiguous surfaces (degree, 度,");
    let _ = writeln!(out, "lost-case mw) and can even mislead when the local corpus skews");
    let _ = writeln!(out, "away from global unit frequency — the classic prior/likelihood");
    let _ = writeln!(out, "trade-off the paper's product formulation embodies.");
    out
}

/// The dim-verify repair table — accuracy of the simulated beam's top
/// candidate before and after the dimensional rejection/repair pass, per
/// evaluation set (DESIGN.md §15). Gold equations always verify (a tested
/// invariant), so the after column can never fall below the before column.
pub fn verify_repair(cfg: &ExperimentConfig) -> String {
    use dim_verify::{repair_row, DEFAULT_NOISE};

    let kb = dimkb::DimUnitKb::shared();
    let sets = experiments::build_mwp_eval(cfg);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "dim-verify repair — beam top-1 accuracy before/after dimensional verification"
    );
    let _ = writeln!(
        out,
        "(beam-sim noise = {DEFAULT_NOISE}, seed = {}, beam width = {})",
        cfg.seed,
        dim_verify::BEAM
    );
    rule_to(&mut out, 72);
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "Dataset", "#Prob", "Before", "After", "Rejected", "Promoted"
    );
    rule_to(&mut out, 72);
    let par = cfg.pipeline.parallelism;
    for (name, problems) in sets.iter() {
        let row = repair_row(name, problems, &kb, cfg.seed, DEFAULT_NOISE, par);
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>8}% {:>8}% {:>9} {:>9}",
            row.dataset,
            row.n,
            pct(row.before),
            pct(row.after),
            row.rejected,
            row.promoted
        );
    }
    rule_to(&mut out, 72);
    let _ = writeln!(out, "Invariant: after >= before on every row — verification only ever");
    let _ = writeln!(out, "replaces a top candidate that fails the dimension or conversion law.");
    out
}

/// The NUMCoT-style perturbation table — detection rate of the two-law
/// checker per mutation class, over the Q-MWP evaluation sets (mutating
/// a unit mid-problem must flip the verdict for the mutation to count as
/// detected; see EXPERIMENTS.md "Perturbation methodology").
pub fn verify_perturb(cfg: &ExperimentConfig) -> String {
    use dimeval::detection_rates;

    let kb = dimkb::DimUnitKb::shared();
    let sets = experiments::build_mwp_eval(cfg);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "dim-verify perturbation — unit-mutation detection rates (seed = {})",
        cfg.seed
    );
    rule_to(&mut out, 64);
    let _ = writeln!(
        out,
        "{:<12} {:<18} {:>6} {:>9} {:>8}",
        "Dataset", "Mutation", "n", "Detected", "Rate"
    );
    rule_to(&mut out, 64);
    for (name, problems) in sets.iter() {
        for row in detection_rates(problems, &kb, cfg.seed, cfg.pipeline.parallelism) {
            let _ = writeln!(
                out,
                "{:<12} {:<18} {:>6} {:>9} {:>7}%",
                name,
                row.class.name(),
                row.n,
                row.detected,
                pct(row.rate())
            );
        }
    }
    rule_to(&mut out, 64);
    let _ = writeln!(out, "cross-dimension breaks the dimension law; prefix-swap and");
    let _ = writeln!(out, "cross-lingual keep the dimension and are caught (when the written");
    let _ = writeln!(out, "value no longer reconciles) by the conversion law's scale sets.");
    out
}

/// Chaos stage — the degraded-mode pipeline under a deterministic fault
/// plan. Passes `FaultPlan { seed, rate }` to a decoy-laced annotation
/// sweep plus the full degraded pipeline (and to nothing else), and
/// renders the plan banner, per-stage outcomes and the sorted quarantine
/// manifest. Output is a pure function of `(cfg, seed, rate)`: the
/// manifest is identical across runs and thread widths.
pub fn chaos_report(cfg: &ExperimentConfig, seed: u64, rate: f64) -> String {
    use dimkb::degrade::{ErrorBudget, Policy};
    use dimlink::{Annotator, LinkerConfig, UnitLinker};

    let plan = dim_chaos::FaultPlan::new(seed, rate);
    let budget = ErrorBudget::new(0.5);
    let policy = Policy { plan, budget };

    let mut out = String::new();
    let _ = writeln!(out, "Chaos — degraded-mode pipeline under deterministic fault injection");
    rule_to(&mut out, 78);
    let _ = writeln!(
        out,
        "plan: seed={} rate={:.4} kinds={}",
        plan.seed,
        plan.rate,
        plan.kinds.render()
    );
    let _ = writeln!(out, "budget: max_error_rate={:.2}", budget.max_error_rate);
    rule_to(&mut out, 78);

    // Decoy-laced annotation sweep: exercises the `link.annotate` site and
    // the decoy guard (device codes must be quarantined, not unwrapped).
    let texts: Vec<String> = (0..12)
        .map(|i| match i % 4 {
            0 => format!("这段管道全长{}米。", i + 2),
            1 => format!("货物重量是{} kg左右。", i * 3 + 1),
            2 => format!("设备型号为LPUI-{}T,已经上线。", i),
            _ => format!("列车速度为{} km/h。", i + 5),
        })
        .collect();
    let annotator =
        Annotator::new(UnitLinker::with_config(dimkb::DimUnitKb::shared(), LinkerConfig::default()));
    let mut quarantine = Vec::new();
    match annotator.try_annotate_batch(&texts, cfg.pipeline.parallelism, policy) {
        Ok(d) => {
            let _ = writeln!(
                out,
                "annotate: {} texts, {} annotated, {} quarantined",
                d.items.len(),
                d.ok_count(),
                d.failed_count()
            );
            quarantine.extend(d.quarantine);
        }
        Err(e) => {
            let _ = writeln!(out, "annotate: aborted — {e}");
        }
    }

    // The full degraded pipeline: DimEval construction, MWP generation and
    // augmentation all skip-and-record faulted work under the budget.
    match dim_core::run_full_pipeline(&cfg.pipeline, policy) {
        Ok((model, skipped)) => {
            let _ = writeln!(
                out,
                "pipeline: completed {} — model {}, {} records quarantined",
                if skipped.is_empty() { "clean" } else { "degraded" },
                model.display_name,
                skipped.len()
            );
            quarantine.extend(skipped);
        }
        Err(e) => {
            let _ = writeln!(out, "pipeline: aborted — {e}");
        }
    }

    rule_to(&mut out, 78);
    let _ = writeln!(out, "quarantine manifest:");
    out.push_str(&dimkb::degrade::manifest(&quarantine));
    out
}
