//! Hashed sparse features for the TinyLM suite.
//!
//! A feature is a short string such as `"Unit Conversion|x:km|1000"`,
//! hashed into the weight space with FNV-1a. The hash is taken over the
//! string's byte pieces in order ([`Fnv`]), so no feature string is ever
//! built: the same bytes give the same id as hashing the joined string.

use dim_embed::tokenize::tokenize;
use std::fmt::Write as _;

/// Size of the hashed weight space (2^20).
pub const FEATURE_DIM: usize = 1 << 20;

/// Streaming FNV-1a (stable across platforms and runs): hashing `"ab"`
/// then `"c"` equals hashing `"abc"`. `Copy`, so a shared prefix such as
/// `"{task}|"` is hashed once and extended per feature.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    fn str(self, s: &str) -> Fnv {
        let mut h = self.0;
        for &b in s.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        Fnv(h)
    }

    fn char(self, c: char) -> Fnv {
        self.str(c.encode_utf8(&mut [0; 4]))
    }

    /// The decimal digits of `n`, exactly as `format!("{n}")` writes them.
    fn num(mut self, n: usize) -> Fnv {
        let _ = write!(self, "{n}");
        self
    }

    /// The feature id: the hash folded into the weight space.
    fn finish(self) -> u32 {
        (self.0 % FEATURE_DIM as u64) as u32
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        *self = self.str(s);
        Ok(())
    }
}

/// Hashes a feature string into the weight space.
pub fn feat(s: &str) -> u32 {
    Fnv::new().str(s).finish()
}

/// Word-level tokens of a text (CJK chars count as words).
pub fn words(text: &str) -> Vec<String> {
    tokenize(text).into_iter().map(|t| t.text).collect()
}

/// The last four chars of a word (the whole word when shorter). Word
/// suffixes generalize across metric families: kilometre / centimetre /
/// metre all share the "etre" stem, which carries the same-dimension
/// signal a transformer would pick up subword-wise.
fn suffix(w: &str) -> &str {
    w.char_indices().rev().nth(3).map_or(w, |(i, _)| &w[i..])
}

/// Features of a (question, option) pair for choice scoring: option words,
/// option word bigrams, and question×option crossed words (capped).
pub fn choice_features(task: &str, question: &str, option: &str) -> Vec<u32> {
    choice_features_for(task, &words(question), option)
}

/// [`choice_features`] over an already tokenised question, so an item's
/// question is tokenised once for all of its options.
pub(crate) fn choice_features_for(task: &str, q_words: &[String], option: &str) -> Vec<u32> {
    let o_words = words(option);
    let (n_q, n_o) = (q_words.len().min(40), o_words.len().min(8));
    let len = o_words.len() * 2 + o_words.len().saturating_sub(1) + 1 + n_q * (n_o * 2 + 1) + 2;
    let mut out = Vec::with_capacity(len);
    let t = Fnv::new().str(task).str("|");
    for w in &o_words {
        out.push(t.str("o:").str(w).finish());
        out.push(t.str("os:").str(suffix(w)).finish());
    }
    for pair in o_words.windows(2) {
        out.push(t.str("o2:").str(&pair[0]).str(" ").str(&pair[1]).finish());
    }
    // The whole option string as one memorization feature (crucial for
    // conversion factors like "1000").
    out.push(t.str("O:").str(option).finish());
    for qw in &q_words[..n_q] {
        let qs = suffix(qw);
        for ow in &o_words[..n_o] {
            out.push(t.str("x:").str(qw).str("|").str(ow).finish());
            out.push(t.str("xs:").str(qs).str("|").str(suffix(ow)).finish());
        }
        out.push(t.str("xO:").str(qw).str("|").str(option).finish());
    }
    // Overlap indicators: does the option share words / word-families with
    // the question? A linear proxy for the token-matching attention that
    // lets a transformer spot "metre" echoing "kilometre".
    let mut share_word = 0usize;
    let mut share_suffix = 0usize;
    for ow in &o_words {
        if q_words.iter().any(|qw| qw == ow) {
            share_word += 1;
        }
        let os = suffix(ow);
        if os.chars().count() >= 3 && q_words.iter().any(|qw| suffix(qw) == os && qw != ow) {
            share_suffix += 1;
        }
    }
    out.push(t.str("shareW:").num(share_word.min(3)).finish());
    out.push(t.str("shareS:").num(share_suffix.min(3)).finish());
    debug_assert_eq!(out.len(), len);
    out
}

/// Features of an extraction candidate: the unit string, its characters,
/// and the local context tokens.
pub fn extraction_features(unit_surface: &str, prev: &str, next: &str) -> Vec<u32> {
    let n_chars = unit_surface.chars().count();
    let mut out = Vec::with_capacity(n_chars + 5);
    out.push(Fnv::new().str("u:").str(unit_surface).finish());
    for c in unit_surface.chars() {
        out.push(Fnv::new().str("uc:").char(c).finish());
    }
    out.push(Fnv::new().str("len:").num(n_chars).finish());
    out.push(Fnv::new().str("prev:").str(prev).finish());
    out.push(Fnv::new().str("next:").str(next).finish());
    out.push(Fnv::new().str("pu:").str(prev).str("|").str(unit_surface).finish());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `format!`-based featuriser the streaming hasher replaced, kept
    /// as the differential oracle: ids must match it bit for bit.
    fn choice_features_reference(task: &str, question: &str, option: &str) -> Vec<u32> {
        let q_words = words(question);
        let o_words = words(option);
        let suffix = |w: &str| -> String {
            let chars: Vec<char> = w.chars().collect();
            let n = chars.len();
            chars[n.saturating_sub(4)..].iter().collect()
        };
        let mut out = Vec::new();
        for w in &o_words {
            out.push(feat(&format!("{task}|o:{w}")));
            out.push(feat(&format!("{task}|os:{}", suffix(w))));
        }
        for pair in o_words.windows(2) {
            out.push(feat(&format!("{task}|o2:{} {}", pair[0], pair[1])));
        }
        out.push(feat(&format!("{task}|O:{option}")));
        for qw in q_words.iter().take(40) {
            let qs = suffix(qw);
            for ow in o_words.iter().take(8) {
                out.push(feat(&format!("{task}|x:{qw}|{ow}")));
                out.push(feat(&format!("{task}|xs:{qs}|{}", suffix(ow))));
            }
            out.push(feat(&format!("{task}|xO:{qw}|{option}")));
        }
        let mut share_word = 0usize;
        let mut share_suffix = 0usize;
        for ow in &o_words {
            if q_words.iter().any(|qw| qw == ow) {
                share_word += 1;
            }
            let os = suffix(ow);
            if os.chars().count() >= 3
                && !o_words.is_empty()
                && q_words.iter().any(|qw| suffix(qw) == os && qw != ow)
            {
                share_suffix += 1;
            }
        }
        out.push(feat(&format!("{task}|shareW:{}", share_word.min(3))));
        out.push(feat(&format!("{task}|shareS:{}", share_suffix.min(3))));
        out
    }

    /// The `format!`-based extraction featuriser, the oracle for
    /// [`extraction_features`].
    fn extraction_features_reference(unit_surface: &str, prev: &str, next: &str) -> Vec<u32> {
        let mut out = vec![feat(&format!("u:{unit_surface}"))];
        for c in unit_surface.chars() {
            out.push(feat(&format!("uc:{c}")));
        }
        out.push(feat(&format!("len:{}", unit_surface.chars().count())));
        out.push(feat(&format!("prev:{prev}")));
        out.push(feat(&format!("next:{next}")));
        out.push(feat(&format!("pu:{prev}|{unit_surface}")));
        out
    }

    /// A word, short or long: ASCII, CJK, accented and unit-symbol chars,
    /// digits, or any printable text, so suffixes cut through multi-byte
    /// chars and words shorter than four chars.
    fn word() -> impl Strategy<Value = String> {
        let shapes = (
            "[a-z]{1,3}",
            "[a-zA-Z]{4,12}",
            "[千克米秒升瓦度公里平方厘]{1,6}",
            "[a-zé°µΩ²³千米]{1,7}",
            "[0-9.]{1,6}",
            "\\PC{0,8}",
        );
        (0..6usize, shapes).prop_map(|(k, (a, b, c, d, e, f))| vec![a, b, c, d, e, f].swap_remove(k))
    }

    /// Up to `max` words, each followed by a space or a punctuation mark.
    fn text(max: usize) -> impl Strategy<Value = String> {
        prop::collection::vec((word(), "[ ,，。/]"), 0..max + 1)
            .prop_map(|ws| ws.into_iter().map(|(w, sep)| w + &sep).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn choice_features_match_the_format_reference(
            task in "[a-z-]{0,20}",
            question in text(60),
            option in text(12),
        ) {
            let got = choice_features(&task, &question, &option);
            prop_assert_eq!(got.len(), got.capacity());
            prop_assert_eq!(got, choice_features_reference(&task, &question, &option));
        }

        #[test]
        fn extraction_features_match_the_format_reference(
            unit in "[a-zA-Z°µΩ%‰/²³千克米秒]{0,12}",
            prev in "[a-z重号长 ]{0,2}",
            next in "[，。 a-z]{0,1}",
        ) {
            prop_assert_eq!(
                extraction_features(&unit, &prev, &next),
                extraction_features_reference(&unit, &prev, &next)
            );
        }
    }

    #[test]
    fn choice_features_match_the_reference_at_the_caps() {
        // More than 40 question words, more than 8 option words with
        // shared words and suffixes, an empty option, and a unit whose
        // length feature has three digits.
        let question: String = (0..55).map(|i| format!("kilometre{i} 千米 ")).collect();
        let option = "kilometre1 metre centimetre a bc 千米 克 x y z";
        for opt in [option, ""] {
            assert_eq!(
                choice_features("task", &question, opt),
                choice_features_reference("task", &question, opt)
            );
        }
        let long_unit = "m".repeat(123);
        assert_eq!(
            extraction_features(&long_unit, "重", "，"),
            extraction_features_reference(&long_unit, "重", "，")
        );
    }

    #[test]
    fn hashing_is_stable_and_in_range() {
        let a = feat("hello");
        let b = feat("hello");
        assert_eq!(a, b);
        assert!((a as usize) < FEATURE_DIM);
        assert_ne!(feat("hello"), feat("world"));
        assert_eq!(Fnv::new().str("hel").str("lo").finish(), a, "streaming equals one-shot");
        // The published FNV-1a 64 test vector for "a", folded into range.
        assert_eq!(feat("a"), (0xAF63_DC4C_8601_EC8C_u64 % FEATURE_DIM as u64) as u32);
    }

    #[test]
    fn choice_features_depend_on_both_sides() {
        let a = choice_features("conv", "convert km to m", "1000");
        let b = choice_features("conv", "convert km to m", "0.001");
        assert_ne!(a, b);
        let c = choice_features("conv", "convert kg to g", "1000");
        assert_ne!(a, c, "crossed features must differ with the question");
    }

    #[test]
    fn extraction_features_capture_context() {
        let a = extraction_features("千克", "重", "，");
        let b = extraction_features("千克", "号", "，");
        assert_ne!(a, b);
    }
}
