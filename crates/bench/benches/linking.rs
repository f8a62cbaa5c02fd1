//! Microbenchmarks of the unit linking module: Levenshtein similarity,
//! exact and fuzzy linking, and full-sentence annotation.

use criterion::{criterion_group, criterion_main, Criterion};
use dimkb::DimUnitKb;
use dimlink::{lev, Annotator, LinkerConfig, UnitLinker};
use std::hint::black_box;

fn bench_linking(c: &mut Criterion) {
    let kb = DimUnitKb::shared();
    let annotator =
        Annotator::new(UnitLinker::new(kb.clone(), None, LinkerConfig::default()));

    c.bench_function("levenshtein_similarity", |b| {
        b.iter(|| lev::similarity(black_box("kilometre"), black_box("kilometer")))
    });
    // The linker keeps no memo, so repeating a query times real linking.
    let linker = annotator.linker();
    for (name, mention, context) in [
        ("link_exact_mention", "km/h", "the car drove fast"),
        ("link_fuzzy_mention", "kilometrs", "distance on the road"),
    ] {
        c.bench_function(name, |b| b.iter(|| linker.link(black_box(mention), black_box(context))));
    }
    c.bench_function("annotate_sentence", |b| {
        b.iter(|| {
            annotator.annotate(black_box(
                "LeBron James's height is 2.06 meters and Stephen Curry's height is 188 cm.",
            ))
        })
    });
    c.bench_function("annotate_chinese_sentence", |b| {
        b.iter(|| annotator.annotate(black_box("小王要将150千克含药量20%的农药稀释成含药量5%的药水")))
    });

    // Batch annotation at 1 vs 4 threads; on a single-core host both
    // variants degenerate to the sequential path and should read roughly
    // equal.
    let texts: Vec<String> = (0..120)
        .map(|i| {
            format!(
                "第{i}组样本：长度为{}米，质量是{}千克，速度达到{} km/h，含水量{}%。",
                i + 2,
                i * 3 + 1,
                (i % 40) + 20,
                (i % 50) + 10,
            )
        })
        .collect();
    for threads in [1usize, 4] {
        c.bench_function_meta(
            &format!("annotate_batch_threads{threads}"),
            &[("threads", threads as f64), ("morsel", dim_par::MORSEL_SIZE as f64)],
            |b| b.iter(|| annotator.annotate_batch(&texts, dim_par::Parallelism::new(threads)).len()),
        );
    }

    // Batch solution verification at 1 vs 4 threads, next to
    // annotate_batch: the full rejection/repair pass (beam generation,
    // literal binding, both checker layers, repair search) over a
    // generated problem set.
    let kb3 = DimUnitKb::shared();
    let problems = dim_mwp::generate(
        dim_mwp::Source::Math23k,
        &dim_mwp::GenConfig { count: 120, seed: 33 },
    );
    for threads in [1usize, 4] {
        c.bench_function_meta(
            &format!("verify_batch_threads{threads}"),
            &[("threads", threads as f64), ("problems", problems.len() as f64)],
            |b| {
                b.iter(|| {
                    dim_verify::repair_row(
                        "bench",
                        black_box(&problems),
                        &kb3,
                        33,
                        dim_verify::DEFAULT_NOISE,
                        dim_par::Parallelism::new(threads),
                    )
                })
            },
        );
    }
}

criterion_group!(benches, bench_linking);
criterion_main!(benches);
