//! The retired String-based link implementation, kept verbatim as a
//! differential oracle.
//!
//! [`ReferenceLinker`] is the unit linker exactly as it was before the
//! interned hot path landed: owned-`String` candidate keys bucketed in a
//! `HashMap`, a fresh `Vec<String>` of context words per query, and
//! allocating normalization. It exists so property tests can assert that
//! [`crate::linker::UnitLinker`] is *result-equivalent* on arbitrary input —
//! any divergence is a bug in the optimized path, not a judgment call.
//!
//! Nothing outside tests should construct one; it is deliberately slow.
//! This module is excluded from the `hot-alloc` lint scope for the same
//! reason.

use crate::lev;
use crate::linker::{LinkResult, LinkerConfig};
use dim_embed::tokenize::{tokenize, TokenKind};
use dimkb::{DimUnitKb, UnitId};
use std::collections::HashMap;
use std::sync::Arc;

/// 64-bit occupancy mask over hashed char values (the retired local copy;
/// the live one is `dimkb::intern::char_signature`).
fn char_signature(s: &str) -> u64 {
    let mut mask = 0u64;
    for c in s.chars() {
        mask |= 1u64 << (((c as u64).wrapping_mul(0x9E3779B97F4A7C15)) >> 58);
    }
    mask
}

/// The pre-interning unit linker: same scoring model, allocation-heavy
/// data layout. See the module docs for why it survives.
pub struct ReferenceLinker {
    kb: Arc<DimUnitKb>,
    config: LinkerConfig,
    /// Naming-dictionary keys bucketed by char length, each with a
    /// [`char_signature`] for the Levenshtein lower-bound pre-filter.
    keys_by_len: HashMap<usize, Vec<(String, u64)>>,
}

impl ReferenceLinker {
    /// Builds the reference linker over a KB (no memo — every query is a
    /// full recompute, which is exactly what an oracle should be).
    pub fn new(kb: Arc<DimUnitKb>, config: LinkerConfig) -> Self {
        let mut keys_by_len: HashMap<usize, Vec<(String, u64)>> = HashMap::new();
        for (key, _) in kb.naming_dictionary() {
            keys_by_len
                .entry(key.chars().count())
                .or_default()
                .push((key.to_string(), char_signature(key)));
        }
        // Deterministic candidate order regardless of hash-map iteration.
        for bucket in keys_by_len.values_mut() {
            bucket.sort_unstable();
        }
        ReferenceLinker { kb, config, keys_by_len }
    }

    /// Links a mention within a context — the original algorithm, verbatim.
    pub fn link(&self, mention: &str, context: &str) -> Vec<LinkResult> {
        let mention_norm = dimkb::normalize(mention);
        if mention_norm.is_empty() {
            return Vec::new();
        }
        let mut cand: HashMap<UnitId, f64> = HashMap::new();
        for &id in self.kb.lookup(mention) {
            cand.insert(id, 1.0);
        }
        if cand.is_empty() {
            let m_len = mention_norm.chars().count();
            let m_sig = char_signature(&mention_norm);
            let radius = (m_len as f64 * (1.0 - self.config.mention_threshold)).ceil() as usize;
            let lo = m_len.saturating_sub(radius);
            let hi = m_len + radius;
            for len in lo..=hi {
                let Some(keys) = self.keys_by_len.get(&len) else { continue };
                let max_len = m_len.max(len) as f64;
                for (key, k_sig) in keys {
                    let dist_lb = (m_sig & !k_sig)
                        .count_ones()
                        .max((k_sig & !m_sig).count_ones());
                    if 1.0 - f64::from(dist_lb) / max_len < self.config.mention_threshold {
                        continue;
                    }
                    let sim = lev::similarity(&mention_norm, key);
                    if sim >= self.config.mention_threshold {
                        for &id in self.kb.lookup(key) {
                            let e = cand.entry(id).or_insert(0.0);
                            if sim > *e {
                                *e = sim;
                            }
                        }
                    }
                }
            }
        }
        if cand.is_empty() {
            return Vec::new();
        }

        let context_words: Vec<String> = tokenize(context)
            .into_iter()
            .filter(|t| matches!(t.kind, TokenKind::Word | TokenKind::Cjk))
            .map(|t| t.text)
            .collect();

        let mut results: Vec<LinkResult> = cand
            .into_iter()
            .map(|(id, mention_sim)| {
                let unit = self.kb.unit(id);
                let prior = unit.frequency;
                let context_prob = self
                    .context_probability(&context_words, &unit.keywords)
                    .max(self.config.context_floor);
                let score = mention_sim
                    * if self.config.use_prior { prior } else { 1.0 }
                    * if self.config.use_context { context_prob } else { 1.0 };
                LinkResult { unit: id, score, prior, mention_sim, context_prob }
            })
            .collect();
        results.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.unit.cmp(&b.unit))
        });
        results.truncate(self.config.top_k);
        results
    }

    fn context_probability(&self, context_words: &[String], keywords: &[String]) -> f64 {
        if context_words.is_empty() || keywords.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for cw in context_words {
            let mut best: f64 = 0.0;
            for kw in keywords {
                let sim = if cw == kw { 1.0 } else { 0.0 };
                if sim > best {
                    best = sim;
                }
            }
            total += best;
        }
        total / context_words.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linker::UnitLinker;
    use crate::scratch::ScratchSpace;

    #[test]
    fn reference_matches_optimized_on_fixed_cases() {
        let kb = DimUnitKb::shared();
        let config = LinkerConfig::default();
        let reference = ReferenceLinker::new(kb.clone(), config);
        let optimized = UnitLinker::with_config(kb, config);
        let mut scratch = ScratchSpace::new();
        for (mention, context) in [
            ("km", "the road is long"),
            ("KM", "the road is long"),
            ("kilometr", "distance travelled on the road"),
            ("千克", "这袋大米的重量"),
            ("平方厘米", "这块木板的面积"),
            ("dyn/cm", "surface tension of the liquid"),
            ("m", ""),
            ("mW", "laser power output"),
            ("MW", "power plant output"),
            ("qqqqzzzzqqqqzzzz", "context"),
            ("", ""),
            ("  spaced   out  ", "padding"),
            ("degree", "the angle of rotation"),
        ] {
            let want = reference.link(mention, context);
            assert_eq!(want, optimized.link(mention, context), "link({mention:?})");
            assert_eq!(
                want,
                optimized.link_with(mention, context, &mut scratch),
                "link_with({mention:?})"
            );
        }
    }
}
