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

/// Question words crossed with the option in [`choice_features`].
const MAX_Q_WORDS: usize = 40;
/// Option words crossed with each question word in [`choice_features`].
const MAX_O_WORDS: usize = 8;

const FNV_PRIME: u64 = 0x100000001b3;

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
            h = h.wrapping_mul(FNV_PRIME);
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

/// Extends four FNV states by the same bytes, in lockstep: the four
/// multiply chains are independent, so their latencies overlap.
#[inline]
fn str4(h: [Fnv; 4], s: &str) -> [Fnv; 4] {
    let mut h = h.map(|f| f.0);
    for &b in s.as_bytes() {
        for v in &mut h {
            *v = (*v ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    h.map(Fnv)
}

/// Hashes a feature string into the weight space.
pub fn feat(s: &str) -> u32 {
    Fnv::new().str(s).finish()
}

/// Word-level tokens of a text (CJK chars count as words).
pub fn words(text: &str) -> Vec<String> {
    tokenize(text).into_iter().map(|t| t.text).collect()
}

/// The byte offset of a word's [`suffix`].
fn suffix_at(w: &str) -> usize {
    w.char_indices().rev().nth(3).map_or(0, |(i, _)| i)
}

/// The last four chars of a word (the whole word when shorter). Word
/// suffixes generalize across metric families: kilometre / centimetre /
/// metre all share the "etre" stem, which carries the same-dimension
/// signal a transformer would pick up subword-wise.
fn suffix(w: &str) -> &str {
    &w[suffix_at(w)..]
}

/// Features of a (question, option) pair for choice scoring: option words,
/// option word bigrams, and question×option crossed words (capped).
pub fn choice_features(task: &str, question: &str, option: &str) -> Vec<u32> {
    choice_features_for(&PreparedQuestion::new(task, question), option)
}

/// The cross-feature prefix states of four question words, one lane each:
/// `"{task}|x:{qw}|"`, `"{task}|xs:{suffix(qw)}|"` and `"{task}|xO:{qw}|"`.
struct Quad {
    x: [Fnv; 4],
    xs: [Fnv; 4],
    xo: [Fnv; 4],
}

/// An item's question, prepared once and shared by all of its options:
/// its words, each word's suffix offset, and the cross-feature prefix
/// states of the first [`MAX_Q_WORDS`] words. An option then hashes only
/// its own bytes onto those states ([`choice_features_for`]).
pub(crate) struct PreparedQuestion {
    /// `"{task}|"`.
    task: Fnv,
    words: Vec<String>,
    suffix_at: Vec<usize>,
    /// Question words that get cross features.
    n_crossed: usize,
    /// The crossed words four at a time; a short last quad repeats its
    /// last word in the unused lanes.
    quads: Vec<Quad>,
}

impl PreparedQuestion {
    pub(crate) fn new(task: &str, question: &str) -> PreparedQuestion {
        let words = words(question);
        let suffix_at: Vec<usize> = words.iter().map(|w| suffix_at(w)).collect();
        let task = Fnv::new().str(task).str("|");
        let n_crossed = words.len().min(MAX_Q_WORDS);
        let quads = (0..n_crossed.div_ceil(4))
            .map(|g| {
                let lane = |k: usize| (4 * g + k).min(n_crossed - 1);
                let word = |k: usize| words[lane(k)].as_str();
                let suf = |k: usize| &word(k)[suffix_at[lane(k)]..];
                Quad {
                    x: std::array::from_fn(|k| task.str("x:").str(word(k)).str("|")),
                    xs: std::array::from_fn(|k| task.str("xs:").str(suf(k)).str("|")),
                    xo: std::array::from_fn(|k| task.str("xO:").str(word(k)).str("|")),
                }
            })
            .collect();
        PreparedQuestion { task, words, suffix_at, n_crossed, quads }
    }
}

/// [`choice_features`] for one option of a prepared question: the
/// question's prefixes are hashed once per item, not once per feature.
pub(crate) fn choice_features_for(q: &PreparedQuestion, option: &str) -> Vec<u32> {
    let o_words = words(option);
    let n_o = o_words.len().min(MAX_O_WORDS);
    let mut o_suffixes = [""; MAX_O_WORDS];
    for (s, w) in o_suffixes.iter_mut().zip(&o_words) {
        *s = suffix(w);
    }
    // Each crossed question word owns one block of the output: an `x:` and
    // an `xs:` id per crossed option word, then its `xO:` id.
    let block = n_o * 2 + 1;
    let head = o_words.len() * 2 + o_words.len().saturating_sub(1) + 1;
    let len = head + q.n_crossed * block + 2;
    let mut out = Vec::with_capacity(len);
    let t = q.task;
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
    out.resize(head + q.n_crossed * block, 0);
    for (quad, blocks) in q.quads.iter().zip(out[head..].chunks_mut(4 * block)) {
        for (j, ow) in o_words[..n_o].iter().enumerate() {
            let x = str4(quad.x, ow);
            let xs = str4(quad.xs, o_suffixes[j]);
            for (b, (x, xs)) in blocks.chunks_exact_mut(block).zip(x.into_iter().zip(xs)) {
                b[2 * j] = x.finish();
                b[2 * j + 1] = xs.finish();
            }
        }
        let xo = str4(quad.xo, option);
        for (b, xo) in blocks.chunks_exact_mut(block).zip(xo) {
            b[2 * n_o] = xo.finish();
        }
    }
    // Overlap indicators: does the option share words / word-families with
    // the question? A linear proxy for the token-matching attention that
    // lets a transformer spot "metre" echoing "kilometre".
    let mut share_word = 0usize;
    let mut share_suffix = 0usize;
    for ow in &o_words {
        if q.words.iter().any(|qw| qw == ow) {
            share_word += 1;
        }
        let os = suffix(ow);
        if os.chars().count() >= 3
            && q.words.iter().zip(&q.suffix_at).any(|(qw, &at)| &qw[at..] == os && qw != ow)
        {
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
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `format!`-based featuriser the streaming hasher replaced, kept
    /// as the differential oracle: ids must match it bit for bit.
    pub(crate) fn choice_features_reference(task: &str, question: &str, option: &str) -> Vec<u32> {
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
    fn one_prepared_question_matches_the_reference_for_every_option() {
        // Options with no words, with fewer and more than the eight crossed
        // option words, and with words and suffixes the question shares.
        let options =
            ["", "1000", "metre", "kilometre1 metre centimetre a bc 千米 克 x y z", "0.001 km per 秒"];
        // 0-9 words cover every remainder mod 4 of the four-lane groups;
        // 38-42 straddle the 40-word cap; the last question mixes EN/CJK.
        let vocab = ["metre", "kilometre", "centimetre", "kg", "per", "second", "km"];
        let questions = (0..=9)
            .chain(38..=42)
            .map(|n| (0..n).map(|i| format!("{} ", vocab[i % 7])).collect::<String>())
            .chain(["convert 3 kilometre5 to metre: how many 千米 is that per second?".into()]);
        for question in questions {
            let q = PreparedQuestion::new("task", &question);
            for option in options {
                assert_eq!(
                    choice_features_for(&q, option),
                    choice_features_reference("task", &question, option),
                    "question {question:?}, option {option:?}"
                );
            }
        }
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
