//! The link hot path counts into per-worker tallies that reach their
//! `dim-obs` counters when each worker's scratch drops. This binary holds
//! one test function, so nothing else links between its snapshots.

use dimkb::DimUnitKb;
use dimlink::{Annotator, LinkerConfig, UnitLinker};

const COUNTERS: [&str; 5] =
    ["link.queries", "link.lev_pruned", "link.lev_computed", "link.annotate.texts", "link.mentions"];

/// How much each of [`COUNTERS`] grows while `work` runs.
fn deltas(work: impl FnOnce()) -> Vec<u64> {
    let before = dim_obs::snapshot();
    work();
    let after = dim_obs::snapshot();
    COUNTERS.iter().map(|name| after.counter_since(&before, name)).collect()
}

#[test]
fn batch_tallies_equal_per_text_counts_at_every_width() {
    let kb = DimUnitKb::shared();
    let corpus = dim_corpus::generate(&kb, &dim_corpus::CorpusConfig { sentences: 400, seed: 5 });
    let texts: Vec<&str> = corpus.iter().map(|s| s.text.as_str()).collect();
    let annotator = Annotator::new(UnitLinker::with_config(kb.clone(), LinkerConfig::default()));

    let per_text = deltas(|| {
        for text in &texts {
            annotator.annotate(text);
        }
    });
    assert!(per_text.iter().all(|&d| d > 0), "every counter must move: {per_text:?}");
    assert_eq!(per_text[3], texts.len() as u64);
    for threads in [1, 4] {
        let batch = deltas(|| {
            annotator.annotate_batch(&texts, dim_par::Parallelism::new(threads));
        });
        assert_eq!(batch, per_text, "width {threads}: {COUNTERS:?}");
    }
}
