//! Pins the decisions of the linker's fuzzy scan as counts: how many keys
//! the length window and the char-signature bound pruned
//! (`link.lev_pruned`), how many Levenshtein distances were computed
//! (`link.lev_computed`), and how many link queries ran (`link.queries`).
//! A change to the window, the bound or the annotator's trials shows up
//! here as a count; a faster distance kernel moves none of them. This
//! binary holds one test function, so nothing else links between its
//! snapshots.

use dimkb::DimUnitKb;
use dimlink::{Annotator, LinkerConfig, UnitLinker};

const COUNTERS: [&str; 3] = ["link.queries", "link.lev_pruned", "link.lev_computed"];

/// The `/annotate` sentence of the serve benchmark's mix.
const SERVE_TEXT: &str = "Runner 7 covered 12.5 kilometers carrying 30 kg of gear.";

/// [`COUNTERS`] over the 400-sentence seed-5 corpus.
const CORPUS_COUNTS: [u64; 3] = [952, 9_976, 22];

/// [`COUNTERS`] over [`SERVE_TEXT`].
const SERVE_COUNTS: [u64; 3] = [3, 3_129, 238];

/// How much each of [`COUNTERS`] grows while `work` runs.
fn deltas(work: impl FnOnce()) -> [u64; 3] {
    let before = dim_obs::snapshot();
    work();
    let after = dim_obs::snapshot();
    COUNTERS.map(|name| after.counter_since(&before, name))
}

#[test]
fn fuzzy_scan_counts_are_pinned() {
    let kb = DimUnitKb::shared();
    let corpus = dim_corpus::generate(
        &kb,
        &dim_corpus::CorpusConfig {
            sentences: 400,
            seed: 5,
        },
    );
    let annotator = Annotator::new(UnitLinker::with_config(kb, LinkerConfig::default()));
    let corpus_counts = deltas(|| {
        for sentence in &corpus {
            annotator.annotate(&sentence.text);
        }
    });
    let serve_counts = deltas(|| {
        annotator.annotate(SERVE_TEXT);
    });
    assert_eq!(corpus_counts, CORPUS_COUNTS, "{COUNTERS:?} over the corpus");
    assert_eq!(
        serve_counts, SERVE_COUNTS,
        "{COUNTERS:?} over the serve text"
    );
}
