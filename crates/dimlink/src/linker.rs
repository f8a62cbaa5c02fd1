//! The unit linking module (Definition 1 of the paper).
//!
//! Given a mention `m` and context `c`, rank candidate units by
//!
//! ```text
//! ũ = argmax_u Pr(u) · Pr(u|m) · Pr(u|c)
//! ```
//!
//! where `Pr(u)` is the KB frequency prior (§III-A4), `Pr(u|m)` is the
//! normalized Levenshtein similarity between mention and the unit's surface
//! forms, and `Pr(u|c)` is the share of context words found among the
//! unit's stored keywords (§III-B2; exact keyword overlap stands in for the
//! paper's Word2Vec similarity).
//!
//! The hot implementation ([`UnitLinker::link_with`]: `candidates`, then
//! `score_candidates`) is allocation-free per query: candidate keys are
//! interned `Symbol(u32)`s resolved through the KB's shared
//! [`dimkb::intern::LinkIndex`], candidates accumulate in a
//! struct-of-arrays arena, and normalization, Levenshtein DP rows, and
//! context words all live in a caller-provided
//! [`crate::scratch::ScratchSpace`] reused across queries. The annotator
//! hands an exact dictionary hit straight to scoring, and scores every
//! mention of a sentence against one tokenization of it. The String-based
//! original survives as [`crate::reference`] for differential testing.

use crate::lev;
use crate::scratch::{LinkBufs, ScratchSpace};
use dimkb::intern::char_signature;
use dimkb::{DimUnitKb, UnitId};
use std::sync::Arc;

// Times single-query `UnitLinker::link` calls; the per-query counts are
// per-worker tallies in `LinkBufs` (see `crate::scratch`).
static LINK_SPAN: dim_obs::Histogram = dim_obs::Histogram::new("link.link");

/// A scored candidate from the linker.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkResult {
    /// The candidate unit.
    pub unit: UnitId,
    /// Combined confidence `Pr(u)·Pr(u|m)·Pr(u|c)`.
    pub score: f64,
    /// The frequency prior `Pr(u)`.
    pub prior: f64,
    /// The mention similarity `Pr(u|m)`.
    pub mention_sim: f64,
    /// The context probability `Pr(u|c)`.
    pub context_prob: f64,
}

/// A link query's context: the words of `text[lo..hi]` score `Pr(u|c)`.
/// The annotator passes the whole sentence with each mention's window, so
/// the buffers' context cache tokenizes the sentence once for all of them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Context<'a> {
    pub(crate) text: &'a str,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
}

impl<'a> Context<'a> {
    /// All of `text`.
    fn whole(text: &'a str) -> Self {
        Context { text, lo: 0, hi: text.len() }
    }
}

/// Linker configuration.
#[derive(Debug, Clone, Copy)]
pub struct LinkerConfig {
    /// Minimum `Pr(u|m)` for a candidate to be considered.
    pub mention_threshold: f64,
    /// Maximum number of ranked results returned.
    pub top_k: usize,
    /// Smoothing floor for `Pr(u|c)` so context never zeroes a candidate.
    pub context_floor: f64,
    /// Ablation switch: include the frequency prior `Pr(u)` in the score.
    pub use_prior: bool,
    /// Ablation switch: include the context term `Pr(u|c)` in the score.
    pub use_context: bool,
}

impl Default for LinkerConfig {
    fn default() -> Self {
        LinkerConfig {
            mention_threshold: 0.6,
            top_k: 8,
            context_floor: 0.05,
            use_prior: true,
            use_context: true,
        }
    }
}

/// The unit linker. Owns a reference to the KB, whose unit keywords score
/// context by exact overlap. Candidate tables live in the KB's shared
/// [`dimkb::intern::LinkIndex`] — constructing a linker is cheap.
pub struct UnitLinker {
    kb: Arc<DimUnitKb>,
    config: LinkerConfig,
}

impl UnitLinker {
    /// Builds a linker over a KB.
    pub fn with_config(kb: Arc<DimUnitKb>, config: LinkerConfig) -> Self {
        UnitLinker { kb, config }
    }

    /// [`Self::with_config`] under its old three-argument signature, whose
    /// middle argument can only be `None`; kept only for perfbench's calls,
    /// and deleted once perfbench calls `with_config`.
    #[doc(hidden)]
    pub fn new(kb: Arc<DimUnitKb>, _none: Option<std::convert::Infallible>, config: LinkerConfig) -> Self {
        Self::with_config(kb, config)
    }

    /// The knowledge base this linker resolves into.
    pub fn kb(&self) -> &DimUnitKb {
        &self.kb
    }

    /// This linker's configuration.
    pub fn config(&self) -> &LinkerConfig {
        &self.config
    }

    /// Links a mention within a context, returning ranked candidates
    /// (highest confidence first). Allocates fresh working buffers; batch
    /// hot paths use [`Self::link_with`] with per-worker scratch instead.
    pub fn link(&self, mention: &str, context: &str) -> Vec<LinkResult> {
        let _span = LINK_SPAN.span();
        self.link_in(mention, context, &mut LinkBufs::default())
    }

    /// [`Self::link`] against a per-worker [`ScratchSpace`]: all working
    /// buffers are reused across queries, and the result is exactly what
    /// `link` returns for the same inputs.
    pub fn link_with(&self, mention: &str, context: &str, scratch: &mut ScratchSpace) -> Vec<LinkResult> {
        self.link_in(mention, context, &mut scratch.link)
    }

    /// Crate-internal core of [`Self::link_with`], taking just the linker's
    /// buffers. `context` is a text of its own, so the context-word cache
    /// forgets the previous one first.
    pub(crate) fn link_in(&self, mention: &str, context: &str, bufs: &mut LinkBufs) -> Vec<LinkResult> {
        bufs.ctx.reset();
        self.candidates(mention, bufs);
        self.ranked(Context::whole(context), bufs)
    }

    /// The annotator's fuzzy fallback: the full query for a mention whose
    /// exact trial ([`Self::link_exact`]) just missed, so it starts at the
    /// fuzzy scan instead of repeating the lookup. Results equal the full
    /// query's ([`Self::candidates`], then scoring) for such a mention.
    pub(crate) fn link_fuzzy(&self, mention: &str, ctx: Context<'_>, bufs: &mut LinkBufs) -> Vec<LinkResult> {
        bufs.cand_ids.clear();
        bufs.cand_sims.clear();
        if let Some(m_sig) = prepare_mention(mention, bufs) {
            self.fuzzy_candidates(m_sig, bufs);
        }
        self.ranked(ctx, bufs)
    }

    /// An exact-dictionary trial: when `mention` resolves in the naming
    /// dictionary, its units are scored straight away, as the full query
    /// would score them (every exact candidate has `Pr(u|m) = 1`). A miss
    /// returns no results and, like a trial that was never linked, counts
    /// no query.
    pub(crate) fn link_exact(&self, mention: &str, ctx: Context<'_>, bufs: &mut LinkBufs) -> Vec<LinkResult> {
        let ids = self.kb.link_index().lookup(mention, &mut bufs.key);
        if ids.is_empty() {
            return Vec::new();
        }
        bufs.cand_ids.clear();
        bufs.cand_ids.extend_from_slice(ids);
        bufs.cand_sims.clear();
        bufs.cand_sims.resize(ids.len(), 1.0);
        self.ranked(ctx, bufs)
    }

    /// Scores the candidate arena, counts the query and returns the ranking.
    fn ranked(&self, ctx: Context<'_>, bufs: &mut LinkBufs) -> Vec<LinkResult> {
        self.score_candidates(ctx, bufs);
        bufs.queries += 1;
        bufs.results_linked += bufs.results.len() as u64;
        bufs.results.clone() // lint:allow(hot_alloc, output construction: the ranked result Vec is the query's output and must be owned)
    }

    /// Candidate generation into the `cand_ids`/`cand_sims` arena.
    /// Together with [`Self::score_candidates`] this is result-equivalent to
    /// [`crate::reference::link_reference`] (the retired String-based
    /// implementation), which the differential proptests pin down.
    fn candidates(&self, mention: &str, bufs: &mut LinkBufs) {
        bufs.cand_ids.clear();
        bufs.cand_sims.clear();
        let Some(m_sig) = prepare_mention(mention, bufs) else { return };
        // Candidate generation: exact hit short-circuits the fuzzy scan.
        // The raw mention goes through the index's case-aware lookup so `MW`
        // and `mW` resolve differently; the lowercased form only drives the
        // fuzzy Levenshtein pass. (`key` is free again: `lookup` reuses it
        // as its normalization buffer.)
        for &id in self.kb.link_index().lookup(mention, &mut bufs.key) {
            bufs.cand_ids.push(id);
            bufs.cand_sims.push(1.0);
        }
        if bufs.cand_ids.is_empty() {
            self.fuzzy_candidates(m_sig, bufs);
        }
    }

    /// The fuzzy scan of [`Self::candidates`] for the mention
    /// [`prepare_mention`] left in `bufs.mention_chars`, with signature
    /// `m_sig`: every unit whose key is within the mention threshold, at
    /// its best similarity, appended to the empty candidate arena.
    fn fuzzy_candidates(&self, m_sig: u64, bufs: &mut LinkBufs) {
        let idx = self.kb.link_index();
        let m_len = bufs.mention_chars.len();
        let radius = (m_len as f64 * (1.0 - self.config.mention_threshold)).ceil() as usize;
        let lo = m_len.saturating_sub(radius);
        let hi = m_len + radius;
        for len in lo..=hi {
            let Some(bucket) = idx.bucket(len) else { continue };
            let max_len = m_len.max(len) as f64;
            // The distance is at least the length difference: a bucket
            // that bound already rules out is pruned whole.
            let len_lb = m_len.abs_diff(len) as u32;
            if 1.0 - f64::from(len_lb) / max_len < self.config.mention_threshold {
                bufs.lev_pruned += bucket.syms.len() as u64;
                continue;
            }
            for (slot, &sym) in bucket.syms.iter().enumerate() {
                // Signature lower bound: skip the O(m·n) DP when even
                // the optimistic distance cannot reach the threshold.
                let k_sig = bucket.sigs[slot]; // lint:allow(no_panic, sigs is parallel to syms by LenBucket construction)
                let dist_lb = (m_sig & !k_sig)
                    .count_ones()
                    .max((k_sig & !m_sig).count_ones())
                    .max(len_lb);
                if 1.0 - f64::from(dist_lb) / max_len < self.config.mention_threshold {
                    bufs.lev_pruned += 1;
                    continue;
                }
                bufs.lev_computed += 1;
                let sim = lev::similarity_with(
                    &bufs.mention_chars,
                    idx.key(sym),
                    len,
                    &mut bufs.lev_prev,
                    &mut bufs.lev_cur,
                );
                if sim >= self.config.mention_threshold {
                    for &id in idx.fuzzy_units(sym) {
                        // Dedup-max over the SoA arena: candidate sets
                        // are small (a handful of near keys), so a
                        // linear scan beats hashing.
                        match bufs.cand_ids.iter().position(|&x| x == id) {
                            Some(p) => {
                                if sim > bufs.cand_sims[p] { // lint:allow(no_panic, cand_sims is parallel to cand_ids, p from position())
                                    bufs.cand_sims[p] = sim; // lint:allow(no_panic, same parallel-arena bound as above)
                                }
                            }
                            None => {
                                bufs.cand_ids.push(id);
                                bufs.cand_sims.push(sim);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Scores every candidate in the arena by `Pr(u)·Pr(u|m)·Pr(u|c)` and
    /// leaves the top-k ranking in `bufs.results`. The context words come
    /// from the buffers' per-text cache, so the text is tokenized at most
    /// once however many windows and trials score against it.
    fn score_candidates(&self, ctx: Context<'_>, bufs: &mut LinkBufs) {
        bufs.results.clear();
        if bufs.cand_ids.is_empty() {
            return;
        }
        let (ctx_arena, ctx_spans) = bufs.ctx.view(ctx.text, ctx.lo, ctx.hi);
        for (i, &id) in bufs.cand_ids.iter().enumerate() {
            let mention_sim = bufs.cand_sims[i]; // lint:allow(no_panic, cand_sims is parallel to cand_ids by arena construction)
            let unit = self.kb.unit(id);
            let prior = unit.frequency;
            let context_prob =
                context_probability(ctx_arena, ctx_spans, &unit.keywords).max(self.config.context_floor);
            let score = mention_sim
                * if self.config.use_prior { prior } else { 1.0 }
                * if self.config.use_context { context_prob } else { 1.0 };
            bufs.results.push(LinkResult { unit: id, score, prior, mention_sim, context_prob });
        }
        // (score desc, unit asc) is a total order, so the ranking is
        // independent of arena insertion order — the determinism argument
        // for matching the reference implementation's HashMap iteration.
        bufs.results.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.unit.cmp(&b.unit))
        });
        bufs.results.truncate(self.config.top_k);
    }

    /// Convenience: the single best link, if any.
    pub fn best(&self, mention: &str, context: &str) -> Option<LinkResult> {
        self.link(mention, context).into_iter().next()
    }
}

/// `Pr(u|c) = (1/n) Σ_i max_j [c_i = k_j]`, the paper's formula with exact
/// match as the similarity: the share of the `n` context words that are
/// among the unit's keywords (a count of ones over `n` is exactly the f64
/// the summed form gives). Context words arrive as spans into an arena (see
/// `dim_embed::tokenize::ContextWords`) instead of owned strings.
fn context_probability(ctx_arena: &str, ctx_spans: &[(usize, usize)], keywords: &[String]) -> f64 {
    if ctx_spans.is_empty() || keywords.is_empty() {
        return 0.0;
    }
    let hits = ctx_spans
        .iter()
        .filter(|&&(s, e)| {
            let cw = &ctx_arena[s..e]; // lint:allow(no_panic, spans index the arena ContextWords wrote them into)
            keywords.iter().any(|kw| kw == cw)
        })
        .count();
    hits as f64 / ctx_spans.len() as f64
}

/// Normalizes `mention` into `bufs.mention_chars` for the fuzzy scan and
/// returns its char signature; `None` when it normalizes to nothing, which
/// no query links.
fn prepare_mention(mention: &str, bufs: &mut LinkBufs) -> Option<u64> {
    dimkb::normalize_into(mention, &mut bufs.key);
    if bufs.key.is_empty() {
        return None;
    }
    bufs.mention_chars.clear();
    bufs.mention_chars.extend(bufs.key.chars());
    Some(char_signature(&bufs.key))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linker() -> UnitLinker {
        UnitLinker::with_config(DimUnitKb::shared(), LinkerConfig::default())
    }

    #[test]
    fn exact_symbol_links_to_unit() {
        let l = linker();
        let best = l.best("km", "the road is long").expect("km resolves");
        assert_eq!(l.kb().unit(best.unit).code, "KiloM");
        assert_eq!(best.mention_sim, 1.0);
    }

    #[test]
    fn fig1_dyn_per_cm_links() {
        let l = linker();
        let best = l.best("dyn/cm", "surface tension of the liquid").expect("resolves");
        assert_eq!(l.kb().unit(best.unit).code, "DYN-PER-CentiM");
    }

    #[test]
    fn fuzzy_typo_links() {
        let l = linker();
        let best = l.best("kilometr", "distance travelled on the road").expect("fuzzy match");
        let unit = l.kb().unit(best.unit);
        assert!(unit.label_en.contains("kilometre") || unit.aliases.iter().any(|a| a.contains("kilometer")),
            "got {}", unit.label_en);
        assert!(best.mention_sim < 1.0);
    }

    #[test]
    fn frequency_prior_breaks_ties() {
        // "m" is both metre and milli-prefix symbol clash candidates; the
        // frequent metre must win with neutral context.
        let l = linker();
        let best = l.best("m", "").expect("resolves");
        assert_eq!(l.kb().unit(best.unit).code, "M");
    }

    #[test]
    fn chinese_mention_links() {
        let l = linker();
        let best = l.best("千克", "这袋大米的重量").expect("resolves");
        assert_eq!(l.kb().unit(best.unit).code, "KiloGM");
    }

    #[test]
    fn scratch_link_matches_shared_link() {
        let l = linker();
        let mut scratch = ScratchSpace::new();
        for (mention, context) in [
            ("km", "the road is long"),
            ("kilometr", "distance travelled on the road"),
            ("千克", "这袋大米的重量"),
            ("dyn/cm", "surface tension of the liquid"),
            ("m", ""),
            ("qqqqzzzzqqqqzzzz", "context"),
            ("", "empty mention"),
            ("degree", "the angle of rotation"),
        ] {
            let shared = l.link(mention, context);
            let scratched = l.link_with(mention, context, &mut scratch);
            assert_eq!(shared, scratched, "mention = {mention:?}");
            // And again through the reused scratch.
            let reused = l.link_with(mention, context, &mut scratch);
            assert_eq!(shared, reused, "reused scratch for {mention:?}");
        }
    }

    #[test]
    fn garbage_mention_returns_empty() {
        let l = linker();
        assert!(l.link("qqqqzzzzqqqqzzzz", "context").is_empty());
    }

    #[test]
    fn results_are_sorted_and_bounded() {
        let l = linker();
        let results = l.link("degree", "the angle of rotation");
        assert!(results.len() <= LinkerConfig::default().top_k);
        for w in results.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn context_disambiguates_degree_by_keyword_overlap() {
        // "degree" names both the arc degree and degree Celsius; each
        // context shares three of its six words with one unit's keywords
        // ("rotation", "angle", "compass" / "weather", "forecast",
        // "temperature"), so Pr(u|c) = 3/6 picks that unit.
        let l = linker();
        for (context, want, other) in [
            ("rotation angle of the compass needle", "DEG-ANGLE", "DEG-C"),
            ("weather forecast temperature today", "DEG-C", "DEG-ANGLE"),
        ] {
            let results = l.link("degree", context);
            let best = &results[0];
            assert_eq!(l.kb().unit(best.unit).code, want, "context = {context:?}");
            assert_eq!(best.context_prob, 0.5, "context = {context:?}");
            let rival = results
                .iter()
                .find(|r| l.kb().unit(r.unit).code == other)
                .map_or(0.0, |r| r.context_prob);
            assert!(rival < best.context_prob, "{other} in {context:?}: {rival}");
        }
    }
}
