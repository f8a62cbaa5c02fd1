//! Hashed sparse features for the TinyLM suite.
//!
//! A feature is a short string such as `"Unit Conversion|x:km|1000"`,
//! hashed into the weight space with FNV-1a. The hash is taken over the
//! string's byte pieces in order ([`Fnv`]), so no feature string is ever
//! built: the same bytes give the same id as hashing the joined string.

use dim_embed::tokenize::Tokens;
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

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
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

/// The byte offset of a word's suffix: the start of its last four chars
/// (the whole word when shorter). Word suffixes generalize across metric
/// families: kilometre / centimetre / metre all share the "etre" stem,
/// which carries the same-dimension signal a transformer would pick up
/// subword-wise.
fn suffix_at(w: &str) -> usize {
    w.char_indices().rev().nth(3).map_or(0, |(i, _)| i)
}

/// Features of a (question, option) pair for choice scoring: option words,
/// option word bigrams, and question×option crossed words (capped).
pub fn choice_features(task: &str, question: &str, option: &str) -> Vec<u32> {
    let mut f = Featuriser::default();
    f.scan_item(task, question, &[option]);
    let mut out = Vec::with_capacity(f.option_len(0));
    f.write_option(0, option, &mut out);
    out
}

/// A word or suffix of an item: its FNV-1a hash and its text's span in
/// the token arena.
#[derive(Clone, Copy)]
struct Key {
    hash: u64,
    span: (usize, usize),
}

/// The distinct keys of one item, in order of first occurrence, found by
/// hash: open addressing over `slots`, each holding a key index plus one
/// (zero is empty), with at most half of the slots full.
#[derive(Default)]
struct DistinctSet {
    keys: Vec<Key>,
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the first slot.
    shift: u32,
}

impl DistinctSet {
    /// Empties the set, sized for up to `max_keys` keys.
    fn reset(&mut self, max_keys: usize) {
        let n = (2 * max_keys).next_power_of_two().max(8);
        self.keys.clear();
        self.keys.reserve(max_keys);
        self.slots.clear();
        self.slots.resize(n, 0);
        self.shift = 64 - n.trailing_zeros();
    }

    /// The index of `key`'s text, or the empty slot where it would go.
    fn probe(&self, arena: &str, key: Key) -> Result<usize, usize> {
        let text = &arena[key.span.0..key.span.1];
        let mask = self.slots.len() - 1;
        let mut slot = (key.hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                k => {
                    let d = self.keys[k as usize - 1];
                    if d.hash == key.hash && &arena[d.span.0..d.span.1] == text {
                        return Ok(k as usize - 1);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    fn find(&self, arena: &str, key: Key) -> Option<usize> {
        self.probe(arena, key).ok()
    }

    /// The index of `key`'s text and whether it was new, interning it.
    fn intern(&mut self, arena: &str, key: Key) -> (usize, bool) {
        match self.probe(arena, key) {
            Ok(i) => (i, false),
            Err(slot) => {
                self.keys.push(key);
                self.slots[slot] = self.keys.len() as u32;
                (self.keys.len() - 1, true)
            }
        }
    }
}

/// Hashes each of `prefixes` (four states in lockstep) extended by each of
/// `suffixes`, into `out[s * prefixes.len() + p]`.
fn cross_table(prefixes: &[Fnv], suffixes: impl ExactSizeIterator<Item = impl AsRef<str>>, out: &mut Vec<u32>) {
    let n = prefixes.len();
    out.clear();
    out.reserve(n * suffixes.len());
    for s in suffixes {
        let s = s.as_ref();
        let row = out.len();
        out.resize(row + n, 0);
        for (quad, ids) in prefixes.chunks(4).zip(out[row..].chunks_mut(4)) {
            // A short last quad repeats its last state in the unused lanes.
            let lanes = std::array::from_fn(|k| quad[k.min(quad.len() - 1)]);
            for (id, h) in ids.iter_mut().zip(str4(lanes, s)) {
                *id = h.finish();
            }
        }
    }
}

/// Featurises choice items a whole item at a time, reusing its buffers
/// across items. [`Self::scan_item`] scans the question and every option
/// once, keeps each distinct word and suffix once, and hashes each `x:`
/// and `xs:` id once per distinct (question word or suffix, option word or
/// suffix) pair of the item and each `xO:` id once per distinct question
/// word per option. [`Self::write_option`] then lays one option's ids out
/// exactly as the per-pair `format!` reference orders them.
#[derive(Default)]
pub(crate) struct Featuriser {
    /// `"{task}|"`.
    task: Fnv,
    /// The question's tokens, then each option's.
    toks: Tokens,
    /// Distinct question words and suffixes. The crossed words come first,
    /// so the first `n_dq`/`n_dqs` are exactly theirs.
    dq: DistinctSet,
    dqs: DistinctSet,
    n_dq: usize,
    n_dqs: usize,
    /// Per distinct question suffix: how many distinct question words end
    /// in it, and the `dq` index of the first.
    suffix_words: Vec<(usize, usize)>,
    /// Each crossed question word's index in `dq` and its suffix's in `dqs`.
    qx: Vec<usize>,
    qsx: Vec<usize>,
    /// Each option's token range `(start, end)` in `toks`.
    options: Vec<(usize, usize)>,
    /// Distinct crossed option words and suffixes over all options.
    dow: DistinctSet,
    dos: DistinctSet,
    /// Per option (`MAX_O_WORDS` slots each), each crossed option word's
    /// index in `dow` and its suffix's in `dos`.
    ox: Vec<usize>,
    osx: Vec<usize>,
    /// Prefix states of the distinct crossed question words or suffixes.
    prefixes: Vec<Fnv>,
    /// `x[b * n_dq + a]`: the `x:` id of question word `a` and option word
    /// `b`; `xs` likewise over suffixes; `xo[o * n_dq + a]`: the `xO:` id
    /// of question word `a` and option `o`.
    x: Vec<u32>,
    xs: Vec<u32>,
    xo: Vec<u32>,
    /// Each option's `shareW`/`shareS` counts.
    shares: Vec<(usize, usize)>,
}

impl Featuriser {
    /// Token `i`'s word and suffix keys.
    fn keys(&self, i: usize) -> (Key, Key) {
        let w = self.toks.text(i);
        let (s, e) = self.toks.spans()[i].text;
        let at = suffix_at(w);
        let word = Key { hash: Fnv::new().str(w).0, span: (s, e) };
        let suffix = Key { hash: Fnv::new().str(&w[at..]).0, span: (s + at, e) };
        (word, suffix)
    }

    /// Scans one item and hashes its cross tables; the options are then
    /// written by [`Self::write_option`] in any order.
    pub(crate) fn scan_item(&mut self, task: &str, question: &str, options: &[impl AsRef<str>]) {
        self.task = Fnv::new().str(task).str("|");
        self.toks.clear();
        let q = self.toks.push(question);
        self.options.clear();
        self.options.reserve(options.len());
        for o in options {
            let range = self.toks.push(o.as_ref());
            self.options.push((range.start, range.end));
        }
        let n_crossed = q.len().min(MAX_Q_WORDS);
        self.dq.reset(q.len());
        self.dqs.reset(q.len());
        self.suffix_words.clear();
        self.suffix_words.reserve(q.len());
        self.qx.clear();
        self.qx.reserve(n_crossed);
        self.qsx.clear();
        self.qsx.reserve(n_crossed);
        (self.n_dq, self.n_dqs) = (0, 0);
        for (k, i) in (q.start..q.end).enumerate() {
            let (word, suffix) = self.keys(i);
            let arena = self.toks.arena();
            let (a, new_word) = self.dq.intern(arena, word);
            let (sa, new_suffix) = self.dqs.intern(arena, suffix);
            if new_suffix {
                self.suffix_words.push((0, a));
            }
            if new_word {
                self.suffix_words[sa].0 += 1;
            }
            if k < n_crossed {
                self.qx.push(a);
                self.qsx.push(sa);
                (self.n_dq, self.n_dqs) = (self.dq.keys.len(), self.dqs.keys.len());
            }
        }
        let n_option_words = self.toks.len() - q.len();
        self.dow.reset(n_option_words);
        self.dos.reset(n_option_words);
        self.ox.clear();
        self.ox.reserve(options.len() * MAX_O_WORDS);
        self.osx.clear();
        self.osx.reserve(options.len() * MAX_O_WORDS);
        self.shares.clear();
        self.shares.reserve(options.len());
        for o in 0..self.options.len() {
            let (mut share_word, mut share_suffix) = (0usize, 0usize);
            let (start, end) = self.options[o];
            for (j, i) in (start..end).enumerate() {
                let (word, suffix) = self.keys(i);
                let arena = self.toks.arena();
                if j < MAX_O_WORDS {
                    self.ox.push(self.dow.intern(arena, word).0);
                    self.osx.push(self.dos.intern(arena, suffix).0);
                }
                // Overlap indicators: does the option share words /
                // word-families with the question? A linear proxy for the
                // token-matching attention that lets a transformer spot
                // "metre" echoing "kilometre". A suffix counts when some
                // other question word ends in it.
                let in_question = self.dq.find(arena, word);
                share_word += usize::from(in_question.is_some());
                if arena[suffix.span.0..suffix.span.1].chars().count() >= 3 {
                    if let Some(sa) = self.dqs.find(arena, suffix) {
                        let (n_words, first) = self.suffix_words[sa];
                        share_suffix += usize::from(n_words > 1 || in_question != Some(first));
                    }
                }
            }
            self.ox.resize((o + 1) * MAX_O_WORDS, 0);
            self.osx.resize((o + 1) * MAX_O_WORDS, 0);
            self.shares.push((share_word, share_suffix));
        }
        self.hash_cross_tables(options);
    }

    /// Fills `x`, `xs` and `xo`: one hash per distinct pair.
    fn hash_cross_tables(&mut self, options: &[impl AsRef<str>]) {
        let t = self.task;
        let arena = self.toks.arena();
        let text = |d: &Key| &arena[d.span.0..d.span.1];
        let (dq, dqs) = (&self.dq.keys[..self.n_dq], &self.dqs.keys[..self.n_dqs]);
        self.prefixes.clear();
        self.prefixes.reserve(self.n_dq.max(self.n_dqs));
        self.prefixes.extend(dq.iter().map(|d| t.str("x:").str(text(d)).str("|")));
        cross_table(&self.prefixes, self.dow.keys.iter().map(text), &mut self.x);
        self.prefixes.clear();
        self.prefixes.extend(dqs.iter().map(|d| t.str("xs:").str(text(d)).str("|")));
        cross_table(&self.prefixes, self.dos.keys.iter().map(text), &mut self.xs);
        self.prefixes.clear();
        self.prefixes.extend(dq.iter().map(|d| t.str("xO:").str(text(d)).str("|")));
        cross_table(&self.prefixes, options.iter(), &mut self.xo);
    }

    /// The number of ids option `o` has.
    pub(crate) fn option_len(&self, o: usize) -> usize {
        let n_words = self.options[o].1 - self.options[o].0;
        let n_o = n_words.min(MAX_O_WORDS);
        let head = n_words * 2 + n_words.saturating_sub(1) + 1;
        head + self.qx.len() * (n_o * 2 + 1) + 2
    }

    /// Appends option `o` (whose text is `option`) to `out`: its words and
    /// suffixes, word bigrams and the whole option, then per crossed
    /// question word an `x:` and an `xs:` id per crossed option word and
    /// its `xO:` id, then the two overlap counts.
    pub(crate) fn write_option(&self, o: usize, option: &str, out: &mut Vec<u32>) {
        let t = self.task;
        let (start, end) = self.options[o];
        let n_o = (end - start).min(MAX_O_WORDS);
        let words = || self.toks.texts(start..end);
        out.reserve(self.option_len(o));
        for w in words() {
            out.push(t.str("o:").str(w).finish());
            out.push(t.str("os:").str(&w[suffix_at(w)..]).finish());
        }
        for (a, b) in words().zip(words().skip(1)) {
            out.push(t.str("o2:").str(a).str(" ").str(b).finish());
        }
        // The whole option string as one memorization feature (crucial for
        // conversion factors like "1000").
        out.push(t.str("O:").str(option).finish());
        let ox = &self.ox[o * MAX_O_WORDS..][..n_o];
        let osx = &self.osx[o * MAX_O_WORDS..][..n_o];
        let xo = &self.xo[o * self.n_dq..][..self.n_dq];
        // A crossed word's block depends on the word alone, so a repeated
        // word copies the block its first occurrence wrote.
        let block = 2 * n_o + 1;
        let mut written = [usize::MAX; MAX_Q_WORDS];
        for (&a, &sa) in self.qx.iter().zip(&self.qsx) {
            if written[a] != usize::MAX {
                out.extend_from_within(written[a]..written[a] + block);
                continue;
            }
            written[a] = out.len();
            for (&b, &sb) in ox.iter().zip(osx) {
                out.push(self.x[b * self.n_dq + a]);
                out.push(self.xs[sb * self.n_dqs + sa]);
            }
            out.push(xo[a]);
        }
        let (share_word, share_suffix) = self.shares[o];
        out.push(t.str("shareW:").num(share_word.min(3)).finish());
        out.push(t.str("shareS:").num(share_suffix.min(3)).finish());
    }
}

/// Featurised choice items in one flat id buffer: option `k`, counted over
/// all items, holds `ids[bounds[k]..bounds[k + 1]]`, and item `i` holds
/// options `items[i]..items[i + 1]`.
#[derive(Debug)]
pub(crate) struct ChoiceBatch {
    ids: Vec<u32>,
    bounds: Vec<usize>,
    items: Vec<usize>,
}

impl Default for ChoiceBatch {
    fn default() -> Self {
        ChoiceBatch { ids: Vec::new(), bounds: vec![0], items: vec![0] }
    }
}

impl ChoiceBatch {
    /// Appends one item's options, featurised by one scan of `f`.
    pub(crate) fn push_item(
        &mut self,
        f: &mut Featuriser,
        task: &str,
        question: &str,
        options: &[impl AsRef<str>],
    ) {
        f.scan_item(task, question, options);
        for (o, option) in options.iter().enumerate() {
            f.write_option(o, option.as_ref(), &mut self.ids);
            self.bounds.push(self.ids.len());
        }
        self.items.push(self.bounds.len() - 1);
    }

    /// Number of items.
    pub(crate) fn len(&self) -> usize {
        self.items.len() - 1
    }

    /// Item `i` as [`crate::tinylm::linear::LinearModel::sgd_softmax`]
    /// reads it: the id buffer and the item's option bounds in it.
    pub(crate) fn item(&self, i: usize) -> (&[u32], &[usize]) {
        (&self.ids, &self.bounds[self.items[i]..=self.items[i + 1]])
    }
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
    use dim_embed::tokenize::words;
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

    impl ChoiceBatch {
        /// A batch holding ids produced elsewhere, one `Vec` per option.
        pub(crate) fn from_options(items: &[Vec<Vec<u32>>]) -> ChoiceBatch {
            let mut batch = ChoiceBatch::default();
            for options in items {
                for ids in options {
                    batch.ids.extend_from_slice(ids);
                    batch.bounds.push(batch.ids.len());
                }
                batch.items.push(batch.bounds.len() - 1);
            }
            batch
        }
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
        fn item_features_match_the_format_reference(
            task in "[a-z-]{0,20}",
            question in text(60),
            options in prop::collection::vec(text(12), 0..6),
        ) {
            let options: Vec<&str> = options.iter().map(String::as_str).collect();
            prop_assert_eq!(check_item(&mut Featuriser::default(), &task, &question, &options), Ok(()));
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

    /// Every option of one item through one scan of `f`, which may hold an
    /// earlier item's state; each option is checked against the reference.
    fn check_item(f: &mut Featuriser, task: &str, question: &str, options: &[&str]) -> Result<(), String> {
        f.scan_item(task, question, options);
        let mut out = Vec::new();
        for (o, option) in options.iter().enumerate() {
            out.clear();
            f.write_option(o, option, &mut out);
            let want = choice_features_reference(task, question, option);
            if out != want || f.option_len(o) != want.len() {
                return Err(format!("question {question:?}, option {o} {option:?} of {options:?}"));
            }
        }
        Ok(())
    }

    #[test]
    fn one_scanned_item_matches_the_reference_for_every_option() {
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
        let mut f = Featuriser::default();
        for question in questions {
            check_item(&mut f, "task", &question, &options).unwrap();
        }
    }

    #[test]
    fn deduplicated_pairs_keep_every_id_in_place() {
        let mut f = Featuriser::default();
        // Options sharing words and the `(`, `)` and `/` symbols.
        let shared = ["km (kilometre)", "m/s (metre)", "(km)/s", "kg/m (km)", "km"];
        check_item(&mut f, "conv", "convert 5 km/h (speed) to m/s", &shared).unwrap();
        // A question word on each side of the 40-word cap, and words that
        // occur only past it (uncrossed, but still counted as shared).
        let letter = |i: usize| char::from(b'a' + (i % 26) as u8);
        let filler: Vec<String> = (0..38).map(|i| format!("w{}{}", letter(i / 26), letter(i))).collect();
        let question = format!("metre {} metre gram metre tonne", filler.join(" "));
        assert!(words(&question).len() > MAX_Q_WORDS && words(&question)[39] == "metre");
        check_item(&mut f, "cap", &question, &["metre", "gram tonne", "tonne metre wab"]).unwrap();
        // An option word repeated past the 8-word cap, and one that occurs
        // only past it.
        let long = "a b metre d e f g h metre tonne";
        assert_eq!(words(long)[8], "metre");
        check_item(&mut f, "cap", "a metre of tonne", &[long, "metre metre", long]).unwrap();
        // Distinct words with one suffix: `kilometre`/`centimetre` share
        // `etre`, so their `xs:` ids are one pair and `shareS` counts them.
        check_item(
            &mut f,
            "suffix",
            "kilometre centimetre millimetre kilometre",
            &["centimetre", "decimetre metre", "kilometre"],
        )
        .unwrap();
        // The state of a larger item never leaks into a smaller one.
        check_item(&mut f, "t", "", &["", "x"]).unwrap();
        check_item(&mut f, "t", "one", &[]).unwrap();
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
