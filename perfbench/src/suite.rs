//! `suite_quick`: the `all_experiments --quick` stages, in-process through
//! `dim_bench::render`, with their stdout checked against a recorded digest
//! and the committed quick goldens.

use crate::harness::{self, fnv1a, Clock, ObsMark, Outcome, Sampler, Tracer};
use crate::layers;
use crate::Opts;
use dim_bench::render;
use dim_core::experiments::{self, ExperimentConfig};
use dim_core::pipeline;
use dim_models::tinylm::{choice::ChoiceScorer, features::choice_features, TinyLm};
use dimeval::TaskKind;
use std::time::Instant;

/// The stages `all_experiments --quick` prints, in order.
const STAGES: [&str; 9] = [
    "table4", "fig3", "fig4", "table6", "table7", "table8", "table9", "fig6", "fig7",
];

/// FNV-1a of the whole suite's stdout (as `all_experiments --quick` prints
/// it). The quick configuration fixes every seed, so this never varies.
const STDOUT_DIGEST: u64 = 0x0a94_8afb_ade1_f45c;

/// How often the sampler calibrates while the stages run.
const SAMPLE_PERIOD: std::time::Duration = std::time::Duration::from_millis(50);

/// Stage outputs that must equal a committed golden byte for byte.
const GOLDENS: [(&str, &str); 2] = [
    ("table6", "results/quick/table6.txt"),
    ("table7", "results/quick/table7.txt"),
];

fn render_stage(name: &str, cfg: &ExperimentConfig) -> String {
    match name {
        "table4" => render::table4(),
        "fig3" => render::fig3(),
        "fig4" => render::fig4(),
        "table6" => render::table6(cfg),
        "table7" => render::table7(cfg),
        "table8" => render::table8(cfg),
        "table9" => render::table9(cfg),
        "fig6" => render::fig6(cfg),
        _ => render::fig7(cfg),
    }
}

/// What one pass over the nine stages produced.
struct Pass {
    /// Wall time inside the stage calls.
    wall_s: f64,
    stage_s: Vec<f64>,
    /// CPU time of each stage call on the calling thread.
    stage_cpu_s: Vec<f64>,
    /// `stage_cpu_s` in reference seconds (untraced passes only).
    stage_ref_s: Vec<f64>,
    /// Per-stage time in ms from the program's own `exp.<stage>` span, or
    /// the benchmark's span for the stages that have none (traced passes
    /// only).
    stage_ms: Vec<f64>,
    /// `stage_ms` minus the pipeline training spans under the stage.
    self_ms: Vec<f64>,
    mismatches: Vec<String>,
}

/// Time inside the pipeline's own training spans (`dim-obs`), which nest
/// under a stage and are subtracted from its self time.
fn pipeline_ms(mark: &ObsMark) -> f64 {
    mark.span_ms("pipeline.train_dimperc") + mark.span_ms("pipeline.train_quantitative")
}

/// One pass. With a live tracer each stage is a child span of the pass, and
/// the stage's time comes from the program's `exp.<stage>` span (`dim-obs`);
/// `fig3` and `fig4` record none, so the benchmark's span stands in. An
/// untraced pass times each stage on the thread's CPU clock and scales it
/// by the mean of the sampler's calibrations taken while the stage ran; a
/// stage too short to hold one takes the mean over the pass.
fn pass(
    cfg: &ExperimentConfig,
    goldens: &[(&str, String)],
    tracer: &mut Tracer,
    sampler: Option<&Sampler>,
) -> Pass {
    let traced = tracer.enabled;
    let root = tracer.open("suite_quick.pass", None);
    let mut stdout = String::new();
    let (mut stage_s, mut stage_cpu_s, mut stage_ref_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut stage_ms, mut self_ms) = (Vec::new(), Vec::new());
    let mut cals: Vec<Vec<f64>> = Vec::new();
    let mut mismatches = Vec::new();
    for name in STAGES {
        let mark = traced.then(ObsMark::now);
        let start = tracer.now();
        let (t0, c0) = (Instant::now(), harness::thread_cpu_now());
        let s0 = sampler.map(Sampler::now);
        let text = render_stage(name, cfg);
        let dt = t0.elapsed().as_secs_f64();
        stage_cpu_s.push(harness::thread_cpu_now() - c0);
        if let (Some(s), Some(s0)) = (sampler, s0) {
            cals.push(s.between(s0, s.now()));
        }
        tracer.record(&format!("exp.{name}"), start, tracer.now(), Some(root));
        if let Some(mark) = mark {
            let (calls, ns) = mark.hist_delta(&format!("exp.{name}"));
            let ms = if calls > 0 { ns as f64 / 1e6 } else { dt * 1e3 };
            stage_ms.push(ms);
            self_ms.push(ms - pipeline_ms(&mark));
        }
        stage_s.push(dt);
        if let Some((_, golden)) = goldens.iter().find(|(stage, _)| *stage == name) {
            if text != *golden {
                mismatches.push(format!("{name} differs from its committed golden"));
            }
        }
        stdout.push_str(&format!("\n================= {name} =================\n\n"));
        stdout.push_str(&text);
    }
    let wall_s = stage_s.iter().sum();
    if sampler.is_some() {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let all = cals.concat();
        stage_ref_s = stage_cpu_s
            .iter()
            .zip(&cals)
            .map(|(cpu, k)| {
                let k = mean(if k.is_empty() { &all } else { k });
                cpu * harness::ref_scale(k, k)
            })
            .collect();
        println!(
            "pass: {:.4} CPU s, {:.4} reference s, {} calibrations",
            stage_cpu_s.iter().sum::<f64>(),
            stage_ref_s.iter().sum::<f64>(),
            all.len()
        );
    }
    tracer.close(root);
    let digest = fnv1a(stdout.as_bytes());
    if digest != STDOUT_DIGEST {
        mismatches.push(format!(
            "stdout digest {digest:#018x}, recorded {STDOUT_DIGEST:#018x}"
        ));
    }
    Pass {
        wall_s,
        stage_s,
        stage_cpu_s,
        stage_ref_s,
        stage_ms,
        self_ms,
        mismatches,
    }
}

pub fn run(opts: &Opts, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    // One thread: kept on one CPU, it runs where its calibrations run.
    harness::pin(&mut out);
    let cfg = experiments::quick_config();
    let mut goldens = Vec::new();
    for (stage, path) in GOLDENS {
        match std::fs::read_to_string(path) {
            Ok(text) => goldens.push((stage, text)),
            Err(e) => out.fail(format!("cannot read {path}: {e}")),
        }
    }
    if !out.problems.is_empty() {
        return out;
    }
    // The first unit of work needs the shared KB; build it outside the pass.
    let kb = dimkb::DimUnitKb::shared();

    let mut passes = Vec::new();
    let mut off = Tracer::new(false);
    let sampler = Sampler::start(SAMPLE_PERIOD);
    let t0 = Instant::now();
    loop {
        passes.push(pass(&cfg, &goldens, &mut off, Some(&sampler)));
        // A traced run splits its time between an untraced and a traced half.
        let budget = if opts.trace {
            opts.seconds / 2.0
        } else {
            opts.seconds
        };
        if t0.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    drop(sampler);
    let mut traced = Vec::new();
    if opts.trace {
        layers::kb_probes(&mut out, tracer);
        dim_obs::enable();
        let mark = ObsMark::now();
        let t1 = Instant::now();
        loop {
            traced.push(pass(&cfg, &goldens, tracer, None));
            if t1.elapsed().as_secs_f64() >= opts.seconds / 2.0 {
                break;
            }
        }
        suite_layers(&mut out, &mark, &traced);
        for (i, name) in STAGES.iter().enumerate() {
            let mut v: Vec<f64> = traced.iter().map(|p| p.self_ms[i]).collect();
            let n = v.len();
            out.metric(
                &format!("exp.{name}.self_ms"),
                harness::median(&mut v),
                "ms",
                format!("program stage span minus DimPerc training, median of {n}"),
            );
        }
        direct_layers(&mut out, tracer, &kb, &cfg);
        let cpu = |ps: &[Pass]| {
            harness::median(
                &mut ps
                    .iter()
                    .map(|p| p.stage_cpu_s.iter().sum())
                    .collect::<Vec<_>>(),
            )
        };
        out.metric(
            "trace.overhead_frac",
            cpu(&traced) / cpu(&passes) - 1.0,
            "ratio",
            "traced pass CPU / untraced pass CPU - 1",
        );
        layer_sum_check(&mut out, &traced);
    }

    let all: Vec<&Pass> = passes.iter().chain(&traced).collect();
    for p in &all {
        for m in &p.mismatches {
            out.fail(m.clone());
        }
    }
    out.attempted = (all.len() * STAGES.len()) as u64;
    out.failed = all.iter().map(|p| p.mismatches.len() as u64).sum();

    let stage_count = passes.len() * STAGES.len();
    out.metric(
        "req_per_s",
        stage_count as f64 / passes.iter().map(|p| p.wall_s).sum::<f64>(),
        "1/s",
        format!("stages completed per second, {stage_count} stages"),
    );
    // A stage's latency is its median over the passes: the nine stages
    // differ far more than one stage's passes, so a percentile over every
    // stage time would follow a single slow pass of the slowest stage.
    let per_stage = |time: fn(&Pass) -> &[f64]| -> Vec<f64> {
        (0..STAGES.len())
            .map(|i| harness::median(&mut passes.iter().map(|p| time(p)[i]).collect::<Vec<_>>()))
            .collect()
    };
    let units = |time: fn(&Pass) -> &[f64]| -> Vec<f64> {
        passes.iter().map(|p| time(p).iter().sum()).collect()
    };
    let (unit, op) = ("suite pass", "stage median");
    let (units_ref, stages_ref) = (units(|p| &p.stage_ref_s), per_stage(|p| &p.stage_ref_s));
    harness::time_metrics(&mut out, Clock::Cpu, "", units_ref, stages_ref, unit, op);
    let (units_cpu, stages_cpu) = (units(|p| &p.stage_cpu_s), per_stage(|p| &p.stage_cpu_s));
    harness::time_metrics(
        &mut out,
        Clock::Cpu,
        ".measured",
        units_cpu,
        stages_cpu,
        unit,
        op,
    );
    let (units_wall, stages_wall) = (units(|p| &p.stage_s), per_stage(|p| &p.stage_s));
    harness::time_metrics(&mut out, Clock::Wall, "", units_wall, stages_wall, unit, op);
    out
}

/// Layer totals the program's own `dim-obs` registry recorded during the
/// traced passes.
fn suite_layers(out: &mut Outcome, mark: &ObsMark, traced: &[Pass]) {
    let passes = traced.len().max(1) as f64;
    let per_pass = |ms: f64| ms / passes;
    let (build_calls, build_ns) = mark.hist_delta("dimeval.build");
    out.metric(
        "dimeval.build_ms",
        per_pass(build_ns as f64 / 1e6),
        "ms",
        "dimeval.build span, per pass",
    );
    out.metric(
        "dimeval.build_calls",
        build_calls as f64 / passes,
        "count",
        "per pass",
    );
    out.metric(
        "dimeval.algo1_ms",
        per_pass(mark.span_ms("algo1.run")),
        "ms",
        "algo1.run span, per pass",
    );
    out.metric(
        "dimeval.algo2_ms",
        per_pass(mark.span_ms("algo2.run")),
        "ms",
        "algo2.run span, per pass",
    );
    out.metric(
        "dimeval.evaluate_ms",
        per_pass(mark.span_ms("eval.evaluate")),
        "ms",
        "eval.evaluate span, per pass",
    );
    out.metric(
        "mwp.gen_ms",
        per_pass(mark.span_ms("mwp.gen")),
        "ms",
        "mwp.gen span, per pass",
    );
    out.metric(
        "mwp.augment_ms",
        per_pass(mark.span_ms("mwp.augment")),
        "ms",
        "mwp.augment span, per pass",
    );
    out.metric(
        "mwp.augment_yield",
        harness::ratio(
            mark.counter_delta("mwp.augmented"),
            mark.counter_delta("mwp.augment_attempts"),
        ),
        "ratio",
        "augmented / attempts",
    );
    // `build_mwp_eval` converts both N-sets to Q-sets: two `mwp.qmwp` spans.
    out.metric(
        "mwp.eval_build_calls",
        mark.hist_delta("mwp.qmwp").0 as f64 / 2.0 / passes,
        "count",
        "mwp.qmwp spans / 2, per pass",
    );
    let (train_calls, train_ns) = mark.hist_delta("pipeline.train_dimperc");
    out.metric(
        "pipeline.train_dimperc_calls",
        train_calls as f64 / passes,
        "count",
        "per pass",
    );
    out.metric(
        "pipeline.train_dimperc_ms",
        per_pass(train_ns as f64 / 1e6),
        "ms",
        "per pass",
    );
    out.metric(
        "par.items",
        mark.counter_delta("par.items") as f64 / passes,
        "count",
        "per pass",
    );
    let queries = mark.counter_delta("link.memo_hit") + mark.counter_delta("link.memo_miss");
    out.metric(
        "dimlink.memo_hit_ratio",
        harness::ratio(mark.counter_delta("link.memo_hit"), queries),
        "ratio",
        format!("over {queries} memo lookups"),
    );
    let lev = mark.counter_delta("link.lev_pruned") + mark.counter_delta("link.lev_computed");
    out.metric(
        "dimlink.lev_prune_ratio",
        harness::ratio(mark.counter_delta("link.lev_pruned"), lev),
        "ratio",
        "pruned / (pruned + computed)",
    );
}

/// Layers inside the experiment runners, called directly with the quick
/// configuration.
fn direct_layers(
    out: &mut Outcome,
    tracer: &mut Tracer,
    kb: &std::sync::Arc<dimkb::DimUnitKb>,
    cfg: &ExperimentConfig,
) {
    let p = cfg.pipeline;
    let root = tracer.open("layers.direct", None);
    let timed = |tracer: &mut Tracer, name: &str, f: &mut dyn FnMut()| {
        let start = tracer.now();
        f();
        let end = tracer.now();
        tracer.record(name, start, end, Some(root));
        (end - start) as f64 / 1e6
    };
    let mut train = None;
    timed(tracer, "pipeline.build_train_dimeval", &mut || {
        train = Some(pipeline::build_train_dimeval(kb, &p));
    });
    let train = train.expect("built above");
    let ms = timed(tracer, "tinylm.finetune_dimeval", &mut || {
        let mut model = TinyLm::llama_ift(p.seed);
        model.finetune_dimeval(kb, &train, p.epochs, p.seed ^ 0xF1);
        std::hint::black_box(&model);
    });
    out.metric(
        "tinylm.finetune_dimeval_ms",
        ms,
        "ms",
        "TinyLm::finetune_dimeval, quick config",
    );
    let items: Vec<dimeval::ChoiceItem> = TaskKind::CHOICE
        .iter()
        .filter_map(|t| train.choice.get(t))
        .flat_map(|v| v.iter().cloned())
        .collect();
    let ms = timed(tracer, "tinylm.choice_train", &mut || {
        let mut scorer = ChoiceScorer::naive(p.seed);
        std::hint::black_box(scorer.train(&items, p.epochs, p.seed ^ 0xF1));
    });
    out.metric(
        "tinylm.choice_train_ms",
        ms,
        "ms",
        format!("{} items x {} epochs", items.len(), p.epochs),
    );
    let ms = timed(tracer, "tinylm.featurise", &mut || {
        for _ in 0..p.epochs {
            for item in &items {
                for option in &item.options {
                    std::hint::black_box(choice_features(item.task.name(), &item.question, option));
                }
            }
        }
    });
    out.metric(
        "tinylm.featurise_ms",
        ms,
        "ms",
        "choice_features over the same items x epochs",
    );
    timed(tracer, "experiments.build_mwp_eval", &mut || {
        std::hint::black_box(experiments::build_mwp_eval(cfg));
    });
    let mut training = Vec::new();
    timed(tracer, "pipeline.build_mwp_training", &mut || {
        training = pipeline::build_mwp_training(kb, &p);
    });
    let ms = timed(tracer, "tinylm.finetune_mwp", &mut || {
        let mut model = TinyLm::llama_ift(p.seed);
        model.finetune_mwp(&training, 0, |_, _| {});
        std::hint::black_box(&model);
    });
    out.metric(
        "tinylm.finetune_mwp_ms",
        ms,
        "ms",
        format!("{} problems", training.len()),
    );
    tracer.close(root);
}

/// The stage self times plus the pipeline training under them, all taken
/// from the program's own spans (the benchmark's span only for `fig3` and
/// `fig4`), must account for the wall time of each traced pass, which the
/// benchmark measures, within 5%. No stage may have negative self time.
fn layer_sum_check(out: &mut Outcome, traced: &[Pass]) {
    let mut rest = Vec::new();
    for p in traced {
        let wall_ms = p.wall_s * 1e3;
        let attributed: f64 = p.stage_ms.iter().sum();
        println!(
            "check: layer sum: stage self times + training = {attributed:.1} ms of a {wall_ms:.1} ms traced pass ({:.2}%)",
            100.0 * attributed / wall_ms
        );
        if (wall_ms - attributed).abs() > 0.05 * wall_ms {
            out.fail(format!(
                "layer sum: stages account for {:.1}% of the pass",
                100.0 * attributed / wall_ms
            ));
        }
        rest.push(1.0 - attributed / wall_ms);
    }
    let n = rest.len();
    out.metric(
        "trace.unattributed_frac",
        harness::median(&mut rest),
        "ratio",
        format!("pass time outside the stage spans, median of {n}"),
    );
    let negative: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("exp.") && m.value < -1.0)
        .map(|m| format!("layer sum: {} is negative ({:.3} ms)", m.name, m.value))
        .collect();
    for problem in negative {
        out.fail(problem);
    }
}
