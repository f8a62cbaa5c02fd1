//! Free-text unit search over labels, aliases, keywords and descriptions —
//! the "find me the unit for X" entry point a downstream user reaches for
//! before they know any code or symbol.
//!
//! [`search`] retrieves candidates through an inverted token→unit index
//! ([`SearchIndex`], built lazily per KB) and then scores only those
//! candidates; [`search_scan`] is the reference implementation that scores
//! every unit. Both return identical ranked hits — the index can only
//! change *which units get scored*, never a score — and an equivalence
//! test pins that.

use crate::kb::DimUnitKb;
use crate::unit::{Unit, UnitId};
use dim_embed::tokenize::words;
use std::collections::HashMap;

// The candidate counters quantify exactly what the inverted index buys:
// scored candidates per query vs the full-scan unit count.
static SEARCH_SPAN: dim_obs::Histogram = dim_obs::Histogram::new("kb.search");
static SEARCH_QUERIES: dim_obs::Counter = dim_obs::Counter::new("kb.search.queries");
static SEARCH_CANDIDATES: dim_obs::Counter = dim_obs::Counter::new("kb.search.candidates");
static SEARCH_HITS: dim_obs::Counter = dim_obs::Counter::new("kb.search.hits");

/// A scored search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// The matched unit.
    pub unit: UnitId,
    /// Relevance score (higher is better).
    pub score: f64,
}

/// Inverted index over every token that can contribute to a unit's search
/// score. Exact-match terms resolve through [`Self::token_units`] posting
/// lists; substring terms (≥3 chars against label words) scan the distinct
/// label-word vocabulary, which is ~an order of magnitude smaller than the
/// unit list and shrinks further after dedup.
#[derive(Debug, Clone, Default)]
pub struct SearchIndex {
    /// Exact token (label/zh/alias/keyword/description word, normalized
    /// symbol) → units containing it in a scored field.
    token_units: HashMap<String, Vec<UnitId>>,
    /// Distinct English label words → units, for substring-match terms.
    label_vocab: Vec<(String, Vec<UnitId>)>,
}

impl SearchIndex {
    /// Builds the index by tokenizing every scored field of every unit.
    pub fn build(kb: &DimUnitKb) -> SearchIndex {
        fn push(map: &mut HashMap<String, Vec<UnitId>>, tok: String, id: UnitId) {
            let entry = map.entry(tok).or_default();
            // Units are visited in id order, so a last-element check dedups.
            if entry.last() != Some(&id) {
                entry.push(id);
            }
        }
        let mut token_units: HashMap<String, Vec<UnitId>> = HashMap::new();
        let mut label_vocab: HashMap<String, Vec<UnitId>> = HashMap::new();
        for u in kb.units() {
            for w in words(&u.label_en) {
                push(&mut token_units, w.clone(), u.id);
                push(&mut label_vocab, w, u.id);
            }
            for w in words(&u.label_zh) {
                push(&mut token_units, w, u.id);
            }
            for alias in &u.aliases {
                for w in words(alias) {
                    push(&mut token_units, w, u.id);
                }
            }
            for kw in &u.keywords {
                push(&mut token_units, kw.clone(), u.id);
            }
            for w in words(&u.description) {
                push(&mut token_units, w, u.id);
            }
            push(&mut token_units, crate::kb::normalize(&u.symbol), u.id);
        }
        let mut label_vocab: Vec<(String, Vec<UnitId>)> = label_vocab.into_iter().collect();
        label_vocab.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        SearchIndex { token_units, label_vocab }
    }

    /// Every unit that could score nonzero for the query terms, in unit-id
    /// order (the same order the full scan visits).
    fn candidates(&self, terms: &[String]) -> Vec<UnitId> {
        let mut out: Vec<UnitId> = Vec::new();
        for term in terms {
            if let Some(ids) = self.token_units.get(term) {
                out.extend_from_slice(ids);
            }
            if term.chars().count() >= 3 {
                for (word, ids) in &self.label_vocab {
                    if word.contains(term.as_str()) {
                        out.extend_from_slice(ids);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Scores one unit against the query; `None` when nothing matches.
fn score_unit(u: &Unit, terms: &[String], query: &str) -> Option<f64> {
    let mut score = 0.0;
    let label_words = words(&u.label_en);
    let zh_chars = words(&u.label_zh);
    for term in terms {
        if label_words.iter().any(|w| w == term) || zh_chars.iter().any(|w| w == term) {
            score += 3.0;
        } else if label_words.iter().any(|w| w.contains(term.as_str()))
            && term.chars().count() >= 3
        {
            score += 1.5;
        }
        if u.aliases.iter().any(|a| words(a).iter().any(|w| w == term)) {
            score += 2.0;
        }
        if u.keywords.iter().any(|k| k == term) {
            score += 1.5;
        }
        if words(&u.description).iter().any(|w| w == term) {
            score += 0.5;
        }
        if crate::kb::normalize(&u.symbol) == *term {
            score += 3.0;
        }
    }
    if score == 0.0 {
        return None;
    }
    // Prefer tight matches: "newton" should rank the newton above
    // the newton-metre, whose longer label matched only partially.
    let full_label = crate::kb::normalize(&u.label_en) == crate::kb::normalize(query)
        || u.label_zh == query.trim();
    if full_label {
        score += 6.0;
    }
    score /= 1.0 + 0.35 * (label_words.len().saturating_sub(1)) as f64;
    Some(score * (0.5 + u.frequency))
}

fn rank(mut hits: Vec<SearchHit>, limit: usize) -> Vec<SearchHit> {
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.unit.cmp(&b.unit))
    });
    hits.truncate(limit);
    hits
}

/// Searches units by free text. Scoring blends field matches (label >
/// alias > keyword > description token) with the unit's frequency so that
/// "flow" surfaces litre-per-minute before gill-per-hour. Candidates come
/// from the KB's inverted [`SearchIndex`]; only they are scored.
pub fn search(kb: &DimUnitKb, query: &str, limit: usize) -> Vec<SearchHit> {
    let _span = SEARCH_SPAN.span();
    SEARCH_QUERIES.inc();
    let terms = words(query);
    if terms.is_empty() {
        return Vec::new();
    }
    let candidates = kb.search_index().candidates(&terms);
    SEARCH_CANDIDATES.add(candidates.len() as u64);
    let hits: Vec<SearchHit> = candidates
        .into_iter()
        .filter_map(|id| {
            score_unit(kb.unit(id), &terms, query).map(|score| SearchHit { unit: id, score })
        })
        .collect();
    SEARCH_HITS.add(hits.len() as u64);
    rank(hits, limit)
}

/// Reference implementation of [`search`]: scores every unit in the KB.
/// Kept for the index-equivalence test and the indexed-vs-scan benchmark.
pub fn search_scan(kb: &DimUnitKb, query: &str, limit: usize) -> Vec<SearchHit> {
    let terms = words(query);
    if terms.is_empty() {
        return Vec::new();
    }
    let hits = kb
        .units()
        .iter()
        .filter_map(|u| score_unit(u, &terms, query).map(|score| SearchHit { unit: u.id, score }))
        .collect();
    rank(hits, limit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_label_word_ranks_first() {
        let kb = DimUnitKb::shared();
        let hits = search(&kb, "newton", 5);
        assert!(!hits.is_empty());
        assert_eq!(kb.unit(hits[0].unit).code, "N");
    }

    #[test]
    fn keyword_search_finds_domain_units() {
        let kb = DimUnitKb::shared();
        let hits = search(&kb, "blood pressure medical", 10);
        let codes: Vec<&str> = hits.iter().map(|h| kb.unit(h.unit).code.as_str()).collect();
        assert!(codes.contains(&"MMHG"), "mmHg should surface for blood pressure: {codes:?}");
    }

    #[test]
    fn frequency_breaks_ties_toward_common_units() {
        let kb = DimUnitKb::shared();
        let hits = search(&kb, "surface tension", 10);
        assert!(!hits.is_empty());
        // N/m and dyn/cm both carry the keywords; results are ranked.
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn chinese_query_works() {
        let kb = DimUnitKb::shared();
        let hits = search(&kb, "千克", 5);
        assert!(!hits.is_empty());
        let top = kb.unit(hits[0].unit);
        assert!(top.label_zh.contains('克'), "{}", top.label_zh);
    }

    #[test]
    fn empty_and_garbage_queries() {
        let kb = DimUnitKb::shared();
        assert!(search(&kb, "", 5).is_empty());
        assert!(search(&kb, "zzqqxx", 5).is_empty());
    }

    #[test]
    fn indexed_search_matches_scan() {
        // The index is a candidate pre-filter, never a scorer: for a query
        // corpus covering English labels, aliases, symbols, Chinese labels,
        // keywords, substrings, multiword and junk queries, ranked output
        // must be bit-identical to the full scan.
        let kb = DimUnitKb::shared();
        let queries = [
            "newton",
            "kilometre",
            "kilometer", // alias spelling
            "km",        // symbol
            "kg",
            "千克", // Chinese label
            "千米",
            "平方米",
            "blood pressure medical", // keywords
            "surface tension",
            "metre",   // substring of kilometre, centimetre, ...
            "second",  // label + description word
            "flow",    // keyword over rate units
            "degree celsius",
            "standard atmosphere", // multiword label
            "litre per minute",    // rate unit label
            "joule",
            "毫米",
            "volt",
            "zzqqxx", // garbage: both must return nothing
            "",
        ];
        for q in queries {
            for limit in [1, 5, 50, usize::MAX] {
                let indexed = search(&kb, q, limit);
                let scanned = search_scan(&kb, q, limit);
                assert_eq!(indexed, scanned, "query {q:?} limit {limit}");
            }
        }
    }

    #[test]
    fn index_works_on_subset_kbs() {
        // Subsets build their own lazy index; equivalence must hold there
        // too (fresh OnceLock, different unit ids).
        let kb = DimUnitKb::shared();
        let sub = kb.subset(|u| !u.prefixed);
        for q in ["metre", "newton", "克", "pressure"] {
            assert_eq!(search(&sub, q, 10), search_scan(&sub, q, 10), "query {q:?}");
        }
    }
}
