//! `annotate_bulk`: `Annotator::annotate_batch` over a seeded
//! `dim_corpus` corpus, streamed in fixed-size batches at width `nproc`
//! with a fresh annotator per pass. The oracle is a digest of every
//! mention, which must match a width-1 pass over the same corpus.

use crate::harness::{self, Clock, Fnv, ObsMark, Outcome, Tracer};
use crate::layers;
use crate::{nproc, Opts};
use dim_par::Parallelism;
use dimkb::DimUnitKb;
use dimlink::{Annotator, LinkerConfig, QuantityMention, UnitLinker};
use std::sync::Arc;
use std::time::Instant;

/// Sentences per corpus (one pass annotates all of them).
const SENTENCES: usize = 65_536;
/// Sentences per `annotate_batch` call; each call is one latency sample.
const BATCH: usize = 1024;
/// Batches between two calibrations of an untraced pass.
const CALIBRATE_EVERY: usize = 8;
/// Corpus mentions linked cold for `dimlink.link_ns.p50`.
const COLD_LINKS: usize = 2000;
/// Largest link-memo hit ratio at which linking still counts as cold.
const MAX_MEMO_HIT_RATIO: f64 = 0.01;

/// What one pass over the corpus produced.
struct Pass {
    /// Wall time inside `annotate_batch` calls (the digest is not timed).
    wall_s: f64,
    batch_s: Vec<f64>,
    /// Process CPU time of each `annotate_batch` call, over every thread.
    batch_cpu_s: Vec<f64>,
    /// `batch_cpu_s` in reference seconds (calibrated passes only).
    batch_ref_s: Vec<f64>,
    digest: u64,
}

fn digest_batch(h: &mut Fnv, first: usize, batch: &[Vec<QuantityMention>]) {
    for (i, mentions) in batch.iter().enumerate() {
        h.u64((first + i) as u64);
        h.u64(mentions.len() as u64);
        for m in mentions {
            for v in [
                m.start,
                m.end,
                m.value_span.0,
                m.value_span.1,
                m.unit_span.0,
                m.unit_span.1,
            ] {
                h.u64(v as u64);
            }
            h.u64(m.value.to_bits());
            h.bytes(m.unit_surface.as_bytes());
            h.u64(m.links.len() as u64);
            for l in &m.links {
                h.u64(l.unit.0 as u64);
                h.u64(l.score.to_bits());
            }
        }
    }
}

/// One pass. A calibrated pass calibrates at its own width before its first
/// batch and after every [`CALIBRATE_EVERY`] batches, outside the batch
/// timings, and scales each batch by the calibrations on either side.
fn pass(
    kb: &Arc<DimUnitKb>,
    texts: &[String],
    width: usize,
    tracer: &mut Tracer,
    calibrated: bool,
) -> Pass {
    // A fresh annotator per pass: no memo survives from an earlier pass.
    let annotator = Annotator::new(UnitLinker::new(kb.clone(), None, LinkerConfig::default()));
    let par = Parallelism::new(width);
    let root = tracer.open("annotate_bulk.pass", None);
    let mut h = Fnv::default();
    let mut batch_s = Vec::with_capacity(texts.len() / BATCH + 1);
    let mut batch_cpu_s = Vec::with_capacity(texts.len() / BATCH + 1);
    let mut batch_ref_s = Vec::with_capacity(texts.len() / BATCH + 1);
    let mut cal = calibrated.then(|| harness::calibrate(width));
    let batches = texts.len().div_ceil(BATCH);
    for (b, batch) in texts.chunks(BATCH).enumerate() {
        let start = tracer.now();
        let (t0, c0) = (Instant::now(), harness::cpu_now());
        let out = annotator.annotate_batch(batch, par);
        batch_s.push(t0.elapsed().as_secs_f64());
        batch_cpu_s.push(harness::cpu_now() - c0);
        tracer.record("annotate_batch", start, tracer.now(), Some(root));
        digest_batch(&mut h, b * BATCH, &out);
        let group_done = (b + 1) % CALIBRATE_EVERY == 0 || b + 1 == batches;
        if let Some(before) = cal.filter(|_| group_done) {
            let after = harness::calibrate(width);
            let k = harness::ref_scale(before, after);
            let group = &batch_cpu_s[batch_ref_s.len()..];
            batch_ref_s.extend(group.iter().map(|c| c * k).collect::<Vec<_>>());
            cal = Some(after);
        }
    }
    tracer.close(root);
    Pass {
        wall_s: batch_s.iter().sum(),
        batch_s,
        batch_cpu_s,
        batch_ref_s,
        digest: h.0,
    }
}

pub fn run(opts: &Opts, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let width = nproc();
    let kb = DimUnitKb::shared();
    // Input generation: seeded, untimed.
    let corpus = dim_corpus::generate(
        &kb,
        &dim_corpus::CorpusConfig {
            sentences: SENTENCES,
            seed: opts.seed,
        },
    );
    let texts: Vec<String> = corpus.iter().map(|s| s.text.clone()).collect();

    // Oracle pass at width 1, with the registry on so the memo is checked.
    dim_obs::enable();
    let mark = ObsMark::now();
    let reference = pass(&kb, &texts, 1, &mut Tracer::new(false), false);
    let hits = mark.counter_delta("link.memo_hit");
    let lookups = hits + mark.counter_delta("link.memo_miss");
    let memo_ratio = harness::ratio(hits, lookups);
    println!(
        "check: width-1 mention digest {:#018x}; link memo answered {hits} of {lookups} lookups",
        reference.digest
    );
    if memo_ratio > MAX_MEMO_HIT_RATIO {
        out.fail(format!(
            "link memo answered {hits} of {lookups} lookups: linking is not cold"
        ));
    }
    dim_obs::disable();

    let mut passes = Vec::new();
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let t0 = Instant::now();
    while passes.is_empty() || t0.elapsed().as_secs_f64() < budget {
        passes.push(pass(&kb, &texts, width, &mut Tracer::new(false), true));
    }
    let mut traced = Vec::new();
    if opts.trace {
        layers::kb_probes(&mut out, tracer);
        dim_obs::enable();
        let mark = ObsMark::now();
        let t1 = Instant::now();
        while traced.is_empty() || t1.elapsed().as_secs_f64() < budget {
            traced.push(pass(&kb, &texts, width, tracer, false));
        }
        let traced_wall: f64 = traced.iter().map(|p| p.wall_s).sum();
        let hits = mark.counter_delta("link.memo_hit");
        let lookups = hits + mark.counter_delta("link.memo_miss");
        out.metric(
            "dimlink.memo_hit_ratio",
            harness::ratio(hits, lookups),
            "ratio",
            format!("width {width}, over {lookups} memo lookups"),
        );
        let pruned = mark.counter_delta("link.lev_pruned");
        out.metric(
            "dimlink.lev_prune_ratio",
            harness::ratio(pruned, pruned + mark.counter_delta("link.lev_computed")),
            "ratio",
            "pruned / (pruned + computed)",
        );
        let busy_ns = mark.hist_delta("par.worker_busy").1 as f64;
        out.metric(
            "par.busy_frac",
            busy_ns / (traced_wall * 1e9 * width as f64),
            "ratio",
            format!("worker busy / (wall x {width})"),
        );
        out.metric(
            "par.items",
            mark.counter_delta("par.items") as f64 / traced.len() as f64,
            "count",
            "per pass",
        );
        out.metric(
            "dimlink.annotate_ns_per_sent",
            reference.wall_s * 1e9 / texts.len() as f64,
            "ns",
            "width-1 pass / sentences",
        );
        let queries: Vec<(String, String)> = corpus
            .iter()
            .flat_map(|s| {
                s.quantities
                    .iter()
                    .map(|q| (q.unit_surface.clone(), s.text.clone()))
            })
            .take(COLD_LINKS)
            .collect();
        out.metric(
            "dimlink.link_ns.p50",
            layers::cold_link_p50_ns(&kb, &queries),
            "ns",
            format!("{} corpus mentions, fresh linker each", queries.len()),
        );
        let cpu = |ps: &[Pass]| {
            harness::median(
                &mut ps
                    .iter()
                    .map(|p| p.batch_cpu_s.iter().sum())
                    .collect::<Vec<_>>(),
            )
        };
        out.metric(
            "trace.overhead_frac",
            cpu(&traced) / cpu(&passes) - 1.0,
            "ratio",
            "traced pass CPU / untraced pass CPU - 1",
        );
    }

    let all: Vec<&Pass> = passes.iter().chain(&traced).collect();
    let mismatched = all.iter().filter(|p| p.digest != reference.digest).count();
    if mismatched > 0 {
        out.fail(format!(
            "{mismatched} width-{width} passes differ from the width-1 digest {:#018x}",
            reference.digest
        ));
    }
    out.attempted = (all.len() * texts.len()) as u64;
    out.failed = (mismatched * texts.len()) as u64;

    let n = passes.len();
    let total: f64 = passes.iter().map(|p| p.wall_s).sum();
    out.metric(
        "req_per_s",
        (n * texts.len()) as f64 / total,
        "1/s",
        format!("sentences annotated per second at width {width}"),
    );
    let unit = format!("pass over {} sentences", texts.len());
    let op = format!("batch ({BATCH} sentences)");
    let cpu = |batches: fn(&Pass) -> &[f64]| -> (Vec<f64>, Vec<f64>) {
        let units = passes.iter().map(|p| batches(p).iter().sum()).collect();
        (
            units,
            passes.iter().flat_map(|p| batches(p).to_vec()).collect(),
        )
    };
    let (units, ops) = cpu(|p| &p.batch_ref_s);
    harness::time_metrics(&mut out, Clock::Cpu, "", units, ops, &unit, &op);
    let (units, ops) = cpu(|p| &p.batch_cpu_s);
    harness::time_metrics(&mut out, Clock::Cpu, ".measured", units, ops, &unit, &op);
    harness::time_metrics(
        &mut out,
        Clock::Wall,
        "",
        passes.iter().map(|p| p.wall_s).collect(),
        passes.iter().flat_map(|p| p.batch_s.clone()).collect(),
        &unit,
        &op,
    );
    out
}
