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
//! forms, and `Pr(u|c)` aggregates cosine similarities between context
//! words and the unit's stored keywords (§III-B2).
//!
//! The hot implementation ([`UnitLinker::link_with`] / `link_core`) is
//! allocation-free per query: candidate keys are interned `Symbol(u32)`s
//! resolved through the KB's shared [`dimkb::intern::LinkIndex`], candidates
//! accumulate in a struct-of-arrays arena, and normalization, Levenshtein
//! DP rows, and context words all live in a caller-provided
//! [`crate::scratch::ScratchSpace`] reused across queries. The String-based
//! original survives as [`crate::reference`] for differential testing.

use crate::lev;
use crate::scratch::{LinkBufs, ScratchSpace};
use dim_embed::EmbeddingModel;
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

/// The unit linker. Owns a reference to the KB and optional embeddings for
/// context disambiguation (without embeddings, `Pr(u|c)` falls back to
/// lexical keyword overlap). Candidate tables live in the KB's shared
/// [`dimkb::intern::LinkIndex`] — constructing a linker is cheap.
pub struct UnitLinker {
    kb: Arc<DimUnitKb>,
    embeddings: Option<EmbeddingModel>,
    config: LinkerConfig,
}

impl UnitLinker {
    /// Builds a linker over a KB.
    pub fn new(kb: Arc<DimUnitKb>, embeddings: Option<EmbeddingModel>, config: LinkerConfig) -> Self {
        UnitLinker { kb, embeddings, config }
    }

    /// The knowledge base this linker resolves into.
    pub fn kb(&self) -> &DimUnitKb {
        &self.kb
    }

    /// This linker's configuration.
    pub fn config(&self) -> &LinkerConfig {
        &self.config
    }

    /// The embedding model used for context disambiguation, if any.
    pub fn embeddings(&self) -> Option<&EmbeddingModel> {
        self.embeddings.as_ref()
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
    /// buffers so the annotator can hold disjoint borrows of its own
    /// scratch fields (candidate buffers) across the call.
    pub(crate) fn link_in(&self, mention: &str, context: &str, bufs: &mut LinkBufs) -> Vec<LinkResult> {
        self.link_core(mention, context, bufs);
        bufs.queries += 1;
        bufs.results_linked += bufs.results.len() as u64;
        bufs.results.clone() // lint:allow(hot_alloc, output construction: the ranked result Vec is the query's output and must be owned)
    }

    /// The interned link query: leaves the ranked results in
    /// `bufs.results`. Result-equivalent to [`crate::reference::link_reference`]
    /// (the retired String-based implementation), which the differential
    /// proptests pin down.
    fn link_core(&self, mention: &str, context: &str, bufs: &mut LinkBufs) {
        bufs.results.clear();
        let idx = self.kb.link_index();
        dimkb::normalize_into(mention, &mut bufs.key);
        if bufs.key.is_empty() {
            return;
        }
        bufs.mention_chars.clear();
        bufs.mention_chars.extend(bufs.key.chars());
        let m_sig = char_signature(&bufs.key);

        // Candidate generation: exact hit short-circuits the fuzzy scan.
        // The raw mention goes through the index's case-aware lookup so `MW`
        // and `mW` resolve differently; the lowercased form only drives the
        // fuzzy Levenshtein pass. (`key` is free again: `lookup` reuses it
        // as its normalization buffer.)
        bufs.cand_ids.clear();
        bufs.cand_sims.clear();
        for &id in idx.lookup(mention, &mut bufs.key) {
            bufs.cand_ids.push(id);
            bufs.cand_sims.push(1.0);
        }
        if bufs.cand_ids.is_empty() {
            let m_len = bufs.mention_chars.len();
            let radius = (m_len as f64 * (1.0 - self.config.mention_threshold)).ceil() as usize;
            let lo = m_len.saturating_sub(radius);
            let hi = m_len + radius;
            for len in lo..=hi {
                let Some(bucket) = idx.bucket(len) else { continue };
                let max_len = m_len.max(len) as f64;
                for (slot, &sym) in bucket.syms.iter().enumerate() {
                    // Signature lower bound: skip the O(m·n) DP when even
                    // the optimistic distance cannot reach the threshold.
                    let k_sig = bucket.sigs[slot]; // lint:allow(no_panic, sigs is parallel to syms by LenBucket construction)
                    let dist_lb = (m_sig & !k_sig)
                        .count_ones()
                        .max((k_sig & !m_sig).count_ones());
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
        if bufs.cand_ids.is_empty() {
            return;
        }

        dim_embed::tokenize::context_words_into(context, &mut bufs.ctx_arena, &mut bufs.ctx_spans);

        for (i, &id) in bufs.cand_ids.iter().enumerate() {
            let mention_sim = bufs.cand_sims[i]; // lint:allow(no_panic, cand_sims is parallel to cand_ids by arena construction)
            let unit = self.kb.unit(id);
            let prior = unit.frequency;
            let context_prob = self
                .context_probability(&bufs.ctx_arena, &bufs.ctx_spans, &unit.keywords)
                .max(self.config.context_floor);
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

    /// `Pr(u|c) = (1/n) Σ_i max_j sim(c_i, k_j)` (the paper's formula), with
    /// embedding cosine when available and exact-match overlap as fallback.
    /// Context words arrive as spans into an arena (see
    /// `dim_embed::tokenize::context_words_into`) instead of owned strings.
    fn context_probability(
        &self,
        ctx_arena: &str,
        ctx_spans: &[(usize, usize)],
        keywords: &[String],
    ) -> f64 {
        if ctx_spans.is_empty() || keywords.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for &(s, e) in ctx_spans {
            let cw = &ctx_arena[s..e]; // lint:allow(no_panic, spans index the arena they were written into by context_words_into)
            let mut best: f64 = 0.0;
            for kw in keywords {
                let sim = if cw == kw.as_str() {
                    1.0
                } else if let Some(model) = &self.embeddings {
                    f64::from(model.similarity(cw, kw)).max(0.0)
                } else {
                    0.0
                };
                if sim > best {
                    best = sim;
                }
            }
            total += best;
        }
        total / ctx_spans.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linker() -> UnitLinker {
        UnitLinker::new(DimUnitKb::shared(), None, LinkerConfig::default())
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
    fn context_disambiguates_degree_with_embeddings() {
        // Train tiny embeddings where "angle"-context words cluster with the
        // arc-degree keywords and "weather" words with celsius keywords.
        let kb = DimUnitKb::shared();
        let mut sents: Vec<Vec<String>> = Vec::new();
        for _ in 0..40 {
            sents.push(
                ["rotation", "angle", "geometry", "compass"].iter().map(|s| s.to_string()).collect(),
            );
            sents.push(
                ["weather", "temperature", "thermometer", "forecast"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            );
        }
        let model = dim_embed::EmbeddingModel::train(&sents, dim_embed::EmbedConfig::default());
        let l = UnitLinker::new(kb, Some(model), LinkerConfig::default());
        let angle = l.best("degree", "rotation angle of the compass needle").unwrap();
        let weather = l.best("degree", "weather forecast temperature today").unwrap();
        let angle_unit = l.kb().unit(angle.unit).code.clone();
        let weather_unit = l.kb().unit(weather.unit).code.clone();
        assert_eq!(angle_unit, "DEG-ANGLE");
        // The weather context should shift probability mass toward Celsius
        // relative to the angle context even if the final argmax is shared.
        let celsius_in_weather = l
            .link("degree", "weather forecast temperature today")
            .iter()
            .find(|r| l.kb().unit(r.unit).code == "DEG-C")
            .map(|r| r.context_prob)
            .unwrap_or(0.0);
        let celsius_in_angle = l
            .link("degree", "rotation angle of the compass needle")
            .iter()
            .find(|r| l.kb().unit(r.unit).code == "DEG-C")
            .map(|r| r.context_prob)
            .unwrap_or(0.0);
        assert!(
            celsius_in_weather > celsius_in_angle || weather_unit == "DEG-C",
            "weather context must favour Celsius: {celsius_in_weather} vs {celsius_in_angle}"
        );
    }
}
