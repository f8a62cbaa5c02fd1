//! Microbenchmarks of DimUnitKB operations: lookup, conversion, and unit
//! expression evaluation (supports the §IV-C3 complexity analysis — KB
//! operations are the `D.annotate` inner loop of Algorithm 1).

use criterion::{criterion_group, criterion_main, Criterion};
use dimkb::{expr, DimUnitKb};
use std::hint::black_box;

fn bench_kb(c: &mut Criterion) {
    let kb = DimUnitKb::shared();
    let m = kb.unit_by_code("M").unwrap().id;
    let km = kb.unit_by_code("KiloM").unwrap().id;

    c.bench_function("kb_build_standard", |b| b.iter(|| DimUnitKb::standard().units().len()));
    c.bench_function("kb_lookup_exact", |b| {
        b.iter(|| black_box(kb.lookup(black_box("千米"))).len())
    });
    c.bench_function("kb_convert", |b| {
        b.iter(|| kb.convert(black_box(3.25), black_box(km), black_box(m)).unwrap())
    });
    c.bench_function("kb_units_with_dim", |b| {
        let dim = kb.unit(m).dim;
        b.iter(|| black_box(kb.units_with_dim(black_box(dim))).len())
    });
    c.bench_function("expr_eval_compound", |b| {
        b.iter(|| expr::eval(&kb, black_box("J / (kg * K)")).unwrap())
    });

    // Indexed search vs the reference full scan (identical ranked output;
    // the determinism tests in dimkb pin the equivalence).
    let queries: [(&str, &str); 3] =
        [("label", "newton"), ("zh", "千克"), ("keywords", "blood pressure medical")];
    dimkb::search::search(&kb, queries[0].1, 1); // warm the lazy index outside the timing loop
    for (tag, query) in queries {
        c.bench_function(&format!("kb_search_indexed_{tag}"), |b| {
            b.iter(|| dimkb::search::search(&kb, black_box(query), 10).len())
        });
        c.bench_function(&format!("kb_search_scan_{tag}"), |b| {
            b.iter(|| dimkb::search::search_scan(&kb, black_box(query), 10).len())
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kb
}
criterion_main!(benches);
