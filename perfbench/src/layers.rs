//! The per-layer metrics of the traced run: the full list every traced
//! result carries, the layer probes shared by all workloads, and the
//! tracer-derived remainder.

use crate::harness::{self, Outcome, Tracer};
use std::time::Instant;

/// Every per-layer metric, in report order. A layer the workload never
/// enters reports 0.
pub const LAYER_METRICS: [(&str, &str); 42] = [
    ("dimkb.build_ms", "ms"),
    ("dimkb.link_index_ms", "ms"),
    ("dimlink.annotate_ns_per_sent", "ns"),
    ("dimlink.link_ns.p50", "ns"),
    ("dimlink.lev_prune_ratio", "ratio"),
    ("dimlink.memo_hit_ratio", "ratio"),
    ("par.busy_frac", "ratio"),
    ("par.items", "count"),
    ("dimeval.build_ms", "ms"),
    ("dimeval.build_calls", "count"),
    ("dimeval.algo1_ms", "ms"),
    ("dimeval.algo2_ms", "ms"),
    ("dimeval.evaluate_ms", "ms"),
    ("mwp.gen_ms", "ms"),
    ("mwp.augment_ms", "ms"),
    ("mwp.augment_yield", "ratio"),
    ("mwp.eval_build_calls", "count"),
    ("tinylm.finetune_dimeval_ms", "ms"),
    ("tinylm.choice_train_ms", "ms"),
    ("tinylm.featurise_ms", "ms"),
    ("tinylm.finetune_mwp_ms", "ms"),
    ("pipeline.train_dimperc_calls", "count"),
    ("pipeline.train_dimperc_ms", "ms"),
    ("exp.table4.self_ms", "ms"),
    ("exp.fig3.self_ms", "ms"),
    ("exp.fig4.self_ms", "ms"),
    ("exp.table6.self_ms", "ms"),
    ("exp.table7.self_ms", "ms"),
    ("exp.table8.self_ms", "ms"),
    ("exp.table9.self_ms", "ms"),
    ("exp.fig6.self_ms", "ms"),
    ("exp.fig7.self_ms", "ms"),
    ("verify.problem_us", "us"),
    ("serve.app_handle_us.p50", "us"),
    ("serve.transport_us.p50", "us"),
    ("serve.http_parse_ns", "ns"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.batch_mean", "items"),
    ("serve.sheds", "count"),
    ("serve.retries", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// The remainder metric, kept apart so the list above reads as layers.
pub const UNATTRIBUTED: (&str, &str) = ("trace.unattributed_frac", "ratio");

/// Cold builds per probe; the reported value is their median.
const KB_BUILDS: usize = 5;

/// `dimkb` probes every traced run shares: `DimUnitKb::standard` (a fresh
/// build, never the shared `OnceLock`), and the first link on a fresh KB,
/// which builds its interned link index.
pub fn kb_probes(out: &mut Outcome, tracer: &mut Tracer) {
    let root = tracer.open("dimkb.probes", None);
    let (mut build, mut index) = (Vec::new(), Vec::new());
    for _ in 0..KB_BUILDS {
        let t = tracer.now();
        let t0 = Instant::now();
        let kb = std::hint::black_box(dimkb::DimUnitKb::standard());
        build.push(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = tracer.now();
        tracer.record("dimkb.standard", t, t1, Some(root));
        // `UnitLinker::new` forces the index build; the first link follows.
        let linker = dimlink::UnitLinker::new(
            std::sync::Arc::new(kb),
            None,
            dimlink::LinkerConfig::default(),
        );
        std::hint::black_box(linker.link("km", "first link"));
        let t2 = tracer.now();
        index.push((t2 - t1) as f64 / 1e6);
        tracer.record("dimlink.first_link", t1, t2, Some(root));
    }
    tracer.close(root);
    let build_ms = harness::median(&mut build);
    let index_ms = harness::median(&mut index);
    out.metric(
        "dimkb.build_ms",
        build_ms,
        "ms",
        format!("median of {KB_BUILDS} fresh builds"),
    );
    out.metric(
        "dimkb.link_index_ms",
        index_ms,
        "ms",
        format!("median of {KB_BUILDS}: linker + index + first link"),
    );
}

/// Cold-link latency over `(mention, context)` queries: each query gets a
/// fresh linker, so its memo never answers.
pub fn cold_link_p50_ns(
    kb: &std::sync::Arc<dimkb::DimUnitKb>,
    queries: &[(String, String)],
) -> f64 {
    let mut ns: Vec<f64> = queries
        .iter()
        .map(|(m, c)| {
            let linker =
                dimlink::UnitLinker::new(kb.clone(), None, dimlink::LinkerConfig::default());
            let t0 = Instant::now();
            std::hint::black_box(linker.link(m, c));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    harness::median(&mut ns)
}

/// Completes a traced result: adds the unattributed remainder of the
/// `*.pass` spans unless the workload measured its own, fills unexercised
/// layers with 0, and orders the metrics.
pub fn finish(out: &mut Outcome, tracer: &Tracer) {
    if !out.metrics.iter().any(|m| m.name == UNATTRIBUTED.0) {
        let (mut rest, mut total) = (0u64, 0u64);
        for (id, s) in tracer.spans.iter().enumerate() {
            if s.parent.is_none() && s.name.ends_with(".pass") {
                rest += tracer.self_ns(id);
                total += s.end - s.start;
            }
        }
        out.metric(
            UNATTRIBUTED.0,
            harness::ratio(rest, total),
            UNATTRIBUTED.1,
            "pass time outside every child span",
        );
    }
    for (name, unit) in LAYER_METRICS {
        if !out.metrics.iter().any(|m| m.name == name) {
            out.metric(name, 0.0, unit, "not exercised by this workload");
        }
    }
    let order = |name: &str| {
        LAYER_METRICS
            .iter()
            .chain([&UNATTRIBUTED])
            .position(|(n, _)| *n == name)
            .unwrap_or(usize::MAX)
    };
    out.metrics.sort_by_key(|m| order(&m.name));
}

/// Whether a metric belongs in a traced result line.
pub fn is_layer(name: &str) -> bool {
    name == UNATTRIBUTED.0 || LAYER_METRICS.iter().any(|(n, _)| *n == name)
}
