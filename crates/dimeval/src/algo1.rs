//! Algorithm 1: the semi-automated annotating method (§IV-C1).
//!
//! Three stages, exactly as in the paper:
//!
//! 1. **Heuristic annotation with DimKS** — the `dimlink` annotator scans
//!    values and links following mentions into DimUnitKB (high recall, and
//!    it deliberately over-triggers on device codes like `LPUI-1T`).
//! 2. **Masked-LM filtering** — each candidate value is masked and a
//!    numeric-slot model scores whether a number belongs there; low-scoring
//!    candidates are removed (this is where `LPUI-1T` dies).
//! 3. **Manual review** — a review oracle corrects residual errors. Here
//!    the oracle is the corpus gold (simulating the paper's human pass);
//!    the number of corrections it makes is reported.

use crate::task::{ExtractionItem, GoldExtraction};
use dim_corpus::{NumericSlotModel, Sentence};
use dim_embed::tokenize::Tokens;
use dimlink::{Annotator, QuantityMention};

static ALGO1_SPAN: dim_obs::Histogram = dim_obs::Histogram::new("algo1.run");
static ALGO1_SENTENCES: dim_obs::Counter = dim_obs::Counter::new("algo1.sentences");
static ALGO1_MLM_REMOVED: dim_obs::Counter = dim_obs::Counter::new("algo1.mlm_removed");
static ALGO1_CORRECTED: dim_obs::Counter = dim_obs::Counter::new("algo1.corrected");

/// Configuration for Algorithm 1.
#[derive(Debug, Clone, Copy)]
pub struct Algo1Config {
    /// Minimum masked-LM numeric probability for a candidate to survive
    /// stage 2.
    pub mlm_threshold: f64,
    /// Fan-out for the per-sentence annotate + filter work.
    pub parallelism: dim_par::Parallelism,
}

impl Default for Algo1Config {
    fn default() -> Self {
        Algo1Config { mlm_threshold: 0.18, parallelism: dim_par::Parallelism::SEQUENTIAL }
    }
}

/// Output of the pipeline, including per-stage quality measurements.
#[derive(Debug, Clone)]
pub struct Algo1Output {
    /// The final reviewed dataset `D'`.
    pub dataset: Vec<ExtractionItem>,
    /// Mention-level precision of stage 1 (heuristic only) against gold.
    pub stage1_precision: f64,
    /// Mention-level precision after the masked-LM filter — the paper
    /// reports 82% for this automated portion.
    pub stage2_precision: f64,
    /// Candidates removed by the masked-LM filter.
    pub removed_by_filter: usize,
    /// Mentions the (simulated) manual review had to fix or add.
    pub corrected_by_review: usize,
}

/// Does a predicted mention agree with some gold span of the sentence?
fn mention_correct(m: &QuantityMention, sent: &Sentence) -> bool {
    sent.quantities.iter().any(|g| {
        let value_ok = (g.value - m.value).abs() <= 1e-9 * g.value.abs().max(1.0);
        let overlap = m.unit_span.0 < g.unit_span.1 && g.unit_span.0 < m.unit_span.1;
        value_ok && overlap
    })
}

/// Per-sentence tallies produced by the (possibly parallel) stage 1+2 pass;
/// folded in corpus order so every thread count yields identical output.
#[derive(Default)]
struct SentenceTally {
    stage1_total: usize,
    stage1_correct: usize,
    stage2_total: usize,
    stage2_correct: usize,
    removed: usize,
    corrected: usize,
    item: Option<ExtractionItem>,
}

/// Runs the three-stage pipeline over an annotated corpus. Sentences are
/// independent, so the annotate + filter work fans out across
/// `config.parallelism`; tallies are reduced in corpus order.
pub fn semi_automated_annotate(
    annotator: &Annotator,
    mlm: &NumericSlotModel,
    corpus: &[Sentence],
    config: Algo1Config,
) -> Algo1Output {
    let _span = ALGO1_SPAN.span();
    ALGO1_SENTENCES.add(corpus.len() as u64);
    let tallies = dim_par::par_map_scratch(
        config.parallelism,
        corpus,
        || (dimlink::ScratchSpace::new(), Tokens::default()),
        |_, sent, (scratch, toks)| {
        let mut t = SentenceTally::default();
        // Stage 1: heuristic DimKS annotation with per-worker scratch; keep
        // sentences with numerics.
        let mentions = annotator.annotate_with(&sent.text, scratch);
        if mentions.is_empty() {
            return t;
        }
        for m in &mentions {
            t.stage1_total += 1;
            if mention_correct(m, sent) {
                t.stage1_correct += 1;
            }
        }

        // Stage 2: mask each value and keep numeric-looking slots; the
        // sentence is tokenized once for all of its values.
        toks.scan(&sent.text);
        let surviving: Vec<&QuantityMention> = mentions
            .iter()
            .filter(|m| {
                let p = mlm.mask_and_score_scanned(toks, m.value_span.0).unwrap_or(0.0);
                let keep = p >= config.mlm_threshold;
                if !keep {
                    t.removed += 1;
                }
                keep
            })
            .collect();
        for m in &surviving {
            t.stage2_total += 1;
            if mention_correct(m, sent) {
                t.stage2_correct += 1;
            }
        }

        // Stage 3: manual review (gold oracle) — count corrections.
        let surviving_correct = surviving.iter().filter(|m| mention_correct(m, sent)).count();
        let false_positives = surviving.len() - surviving_correct;
        let missed = sent.quantities.len().saturating_sub(surviving_correct);
        t.corrected = false_positives + missed;
        t.item = Some(ExtractionItem {
            text: sent.text.clone(),
            gold: sent
                .quantities
                .iter()
                .map(|q| GoldExtraction { value: q.value, unit_surface: q.unit_surface.clone() })
                .collect(),
        });
        t
    });

    let mut stage1_total = 0usize;
    let mut stage1_correct = 0usize;
    let mut stage2_total = 0usize;
    let mut stage2_correct = 0usize;
    let mut removed = 0usize;
    let mut corrected = 0usize;
    let mut dataset = Vec::new();
    for t in tallies {
        stage1_total += t.stage1_total;
        stage1_correct += t.stage1_correct;
        stage2_total += t.stage2_total;
        stage2_correct += t.stage2_correct;
        removed += t.removed;
        corrected += t.corrected;
        dataset.extend(t.item);
    }

    ALGO1_MLM_REMOVED.add(removed as u64);
    ALGO1_CORRECTED.add(corrected as u64);
    let ratio = |c: usize, t: usize| if t == 0 { 0.0 } else { c as f64 / t as f64 };
    Algo1Output {
        dataset,
        stage1_precision: ratio(stage1_correct, stage1_total),
        stage2_precision: ratio(stage2_correct, stage2_total),
        removed_by_filter: removed,
        corrected_by_review: corrected,
    }
}

/// Trains the numeric-slot model on the corpus itself (the paper uses a
/// BERT pretrained on clean text; here the clean text is the corpus minus
/// nothing — the model learns which contexts host numbers, which is the
/// discriminative signal the filter needs).
pub fn train_filter(corpus: &[Sentence]) -> NumericSlotModel {
    NumericSlotModel::train(corpus.iter().map(|s| s.text.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_corpus::CorpusConfig;
    use dimkb::DimUnitKb;
    use dimlink::{LinkerConfig, UnitLinker};

    fn run() -> Algo1Output {
        let kb = DimUnitKb::shared();
        let corpus = dim_corpus::generate(&kb, &CorpusConfig { sentences: 250, seed: 3 });
        let annotator =
            Annotator::new(UnitLinker::with_config(kb, LinkerConfig::default()));
        let mlm = train_filter(&corpus);
        semi_automated_annotate(&annotator, &mlm, &corpus, Algo1Config::default())
    }

    #[test]
    fn filter_improves_precision() {
        let out = run();
        assert!(
            out.stage2_precision >= out.stage1_precision,
            "MLM filter must not hurt precision: {} -> {}",
            out.stage1_precision,
            out.stage2_precision
        );
        assert!(out.removed_by_filter > 0, "decoys should be filtered");
    }

    #[test]
    fn automated_precision_is_in_paper_range() {
        // The paper reports 82% accuracy for the automated portion; our
        // substrate should land in a comparable band (>70%).
        let out = run();
        assert!(
            out.stage2_precision > 0.70,
            "automated precision too low: {}",
            out.stage2_precision
        );
    }

    #[test]
    fn dataset_is_nonempty_with_gold() {
        let out = run();
        assert!(out.dataset.len() > 100);
        assert!(out.dataset.iter().all(|d| !d.gold.is_empty()));
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let kb = DimUnitKb::shared();
        let corpus = dim_corpus::generate(&kb, &CorpusConfig { sentences: 250, seed: 3 });
        let annotator = Annotator::new(UnitLinker::with_config(kb, LinkerConfig::default()));
        let mlm = train_filter(&corpus);
        let seq = semi_automated_annotate(&annotator, &mlm, &corpus, Algo1Config::default());
        let par = semi_automated_annotate(
            &annotator,
            &mlm,
            &corpus,
            Algo1Config { parallelism: dim_par::Parallelism::new(4), ..Default::default() },
        );
        assert_eq!(seq.dataset, par.dataset);
        assert_eq!(seq.stage1_precision, par.stage1_precision);
        assert_eq!(seq.stage2_precision, par.stage2_precision);
        assert_eq!(seq.removed_by_filter, par.removed_by_filter);
        assert_eq!(seq.corrected_by_review, par.corrected_by_review);
    }

    #[test]
    fn review_counts_are_reported() {
        let out = run();
        // Review exists precisely because automation is imperfect.
        assert!(out.corrected_by_review > 0);
    }
}
