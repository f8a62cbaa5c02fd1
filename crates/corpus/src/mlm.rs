//! The masked-LM numeric-slot filter (BERT substitution).
//!
//! Step 2 of Algorithm 1 replaces a candidate value token with `[MASK]` and
//! asks a pretrained LM whether a numeric token belongs in that slot; if
//! not, the candidate is discarded as a non-quantity (e.g. the `1` inside
//! the device code `LPUI-1T`). The only property the algorithm uses is
//! *"is this slot numeric-shaped?"*, so the substitution is a smoothed
//! bigram-context model `P(numeric | prev token, next token)` trained on
//! clean corpus text.

use dim_embed::tokenize::{TokenKind, Tokens};
use std::collections::HashMap;

/// Sentinel tokens for sequence boundaries.
const BOS: &str = "<s>";
const EOS: &str = "</s>";

/// Counts for one context: (numeric occurrences, non-numeric occurrences).
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    numeric: f64,
    other: f64,
}

impl Counts {
    fn prob(&self, prior: f64, prior_weight: f64) -> f64 {
        (self.numeric + prior * prior_weight) / (self.numeric + self.other + prior_weight)
    }

    fn add(&mut self, numeric: bool) {
        if numeric {
            self.numeric += 1.0;
        } else {
            self.other += 1.0;
        }
    }

    /// `None` for a context never counted.
    fn seen(self) -> Option<Counts> {
        (self.numeric + self.other > 0.0).then_some(self)
    }
}

/// A numeric-slot model: predicts how likely a masked token position holds
/// a number given its neighbouring tokens.
///
/// Token texts are interned once, so a context is a pair of ids. Every
/// count is a sum of ones in `f64`, exact whatever the order of addition,
/// so the probabilities are those of counting the texts themselves.
#[derive(Debug, Clone, Default)]
pub struct NumericSlotModel {
    /// Token text → id; `BOS` and `EOS` are interned like any text.
    vocab: HashMap<Box<str>, u32>,
    both: HashMap<(u32, u32), Counts>,
    /// Indexed by token id; an id never seen on that side counts zero.
    prev_only: Vec<Counts>,
    next_only: Vec<Counts>,
    prior: Counts,
}

impl NumericSlotModel {
    /// Trains the model on raw sentences.
    pub fn train<'a>(sentences: impl IntoIterator<Item = &'a str>) -> Self {
        let mut model = NumericSlotModel::default();
        let (mut toks, mut ids) = (Tokens::default(), Vec::new());
        for text in sentences {
            toks.scan(text);
            ids.clear();
            ids.push(model.intern(BOS));
            for i in 0..toks.len() {
                ids.push(model.intern(toks.text(i)));
            }
            ids.push(model.intern(EOS));
            for (i, tok) in toks.spans().iter().enumerate() {
                let (prev, next) = (ids[i], ids[i + 2]);
                let numeric = tok.kind == TokenKind::Number;
                model.both.entry((prev, next)).or_default().add(numeric);
                model.prev_only[prev as usize].add(numeric);
                model.next_only[next as usize].add(numeric);
                model.prior.add(numeric);
            }
        }
        model
    }

    /// The id of `text`, interning it when new.
    fn intern(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.vocab.get(text) {
            return id;
        }
        let id = self.prev_only.len() as u32;
        self.vocab.insert(text.into(), id);
        self.prev_only.push(Counts::default());
        self.next_only.push(Counts::default());
        id
    }

    /// The corpus-wide prior probability that a token is numeric.
    pub fn prior(&self) -> f64 {
        self.prior.prob(0.5, 1.0)
    }

    /// `P(numeric | prev, next)` with backoff: exact bigram context, then
    /// each side alone, then the prior.
    pub fn numeric_prob(&self, prev: &str, next: &str) -> f64 {
        let prior = self.prior();
        let (prev, next) = (self.vocab.get(prev).copied(), self.vocab.get(next).copied());
        if let Some(c) = prev.zip(next).and_then(|key| self.both.get(&key)) {
            if c.numeric + c.other >= 3.0 {
                return c.prob(prior, 1.0);
            }
        }
        let p = prev.and_then(|id| self.prev_only[id as usize].seen());
        let n = next.and_then(|id| self.next_only[id as usize].seen());
        match (p, n) {
            (Some(a), Some(b)) => 0.5 * (a.prob(prior, 2.0) + b.prob(prior, 2.0)),
            (Some(a), None) => a.prob(prior, 2.0),
            (None, Some(b)) => b.prob(prior, 2.0),
            (None, None) => prior,
        }
    }

    /// Masks the token covering byte `pos` in `text` and returns the
    /// probability that a numeric token belongs there. `None` if no token
    /// covers `pos`.
    pub fn mask_and_score(&self, text: &str, pos: usize) -> Option<f64> {
        let mut toks = Tokens::default();
        toks.scan(text);
        self.mask_and_score_scanned(&toks, pos)
    }

    /// [`Self::mask_and_score`] over a text already scanned into `toks`
    /// (by [`Tokens::scan`]): every slot of a sentence is scored from one
    /// scan.
    pub fn mask_and_score_scanned(&self, toks: &Tokens, pos: usize) -> Option<f64> {
        let spans = toks.spans();
        let idx = spans.partition_point(|t| t.end <= pos);
        if spans.get(idx)?.start > pos {
            return None;
        }
        let prev = if idx == 0 { BOS } else { toks.text(idx - 1) };
        let next = if idx + 1 == spans.len() { EOS } else { toks.text(idx + 1) };
        Some(self.numeric_prob(prev, next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_embed::tokenize::tokenize;

    /// The `String`-keyed model the interned one replaced, kept as the
    /// differential oracle: probabilities must match it bit for bit.
    #[derive(Default)]
    struct StringSlotModel {
        both: HashMap<(String, String), Counts>,
        prev_only: HashMap<String, Counts>,
        next_only: HashMap<String, Counts>,
        prior: Counts,
    }

    impl StringSlotModel {
        fn train<'a>(sentences: impl IntoIterator<Item = &'a str>) -> Self {
            let mut model = StringSlotModel::default();
            for text in sentences {
                let toks = tokenize(text);
                for (i, tok) in toks.iter().enumerate() {
                    let prev = if i == 0 { BOS.to_string() } else { toks[i - 1].text.clone() };
                    let next =
                        if i + 1 == toks.len() { EOS.to_string() } else { toks[i + 1].text.clone() };
                    let numeric = tok.kind == TokenKind::Number;
                    for c in [
                        model.both.entry((prev.clone(), next.clone())).or_default(),
                        model.prev_only.entry(prev).or_default(),
                        model.next_only.entry(next).or_default(),
                        &mut model.prior,
                    ] {
                        if numeric {
                            c.numeric += 1.0;
                        } else {
                            c.other += 1.0;
                        }
                    }
                }
            }
            model
        }

        fn numeric_prob(&self, prev: &str, next: &str) -> f64 {
            let prior = self.prior.prob(0.5, 1.0);
            if let Some(c) = self.both.get(&(prev.to_string(), next.to_string())) {
                if c.numeric + c.other >= 3.0 {
                    return c.prob(prior, 1.0);
                }
            }
            let p = self.prev_only.get(prev);
            let n = self.next_only.get(next);
            match (p, n) {
                (Some(a), Some(b)) => 0.5 * (a.prob(prior, 2.0) + b.prob(prior, 2.0)),
                (Some(a), None) => a.prob(prior, 2.0),
                (None, Some(b)) => b.prob(prior, 2.0),
                (None, None) => prior,
            }
        }

        fn mask_and_score(&self, text: &str, pos: usize) -> Option<f64> {
            let toks = tokenize(text);
            let idx = toks.iter().position(|t| t.start <= pos && pos < t.end)?;
            let prev = if idx == 0 { BOS } else { &toks[idx - 1].text };
            let next = if idx + 1 == toks.len() { EOS } else { &toks[idx + 1].text };
            Some(self.numeric_prob(prev, next))
        }
    }

    #[test]
    fn interned_model_matches_the_string_keyed_oracle() {
        let kb = dimkb::DimUnitKb::shared();
        let corpus = crate::generate(&kb, &crate::CorpusConfig { sentences: 300, seed: 5 });
        let texts: Vec<&str> = corpus.iter().map(|s| s.text.as_str()).collect();
        let (fast, oracle) = (NumericSlotModel::train(texts.iter().copied()), StringSlotModel::train(texts.iter().copied()));
        assert_eq!(fast.prior().to_bits(), oracle.prior.prob(0.5, 1.0).to_bits());
        // Every (prev, next) pair of the corpus, each side crossed with a
        // sentinel and an unseen text, and every masked byte position.
        let mut vocab: Vec<&str> = oracle.prev_only.keys().chain(oracle.next_only.keys()).map(String::as_str).collect();
        vocab.sort_unstable();
        vocab.dedup();
        let mut pairs: Vec<(&str, &str)> = oracle.both.keys().map(|(p, n)| (p.as_str(), n.as_str())).collect();
        for &w in &vocab {
            for other in [BOS, EOS, "unseen-text", "", w] {
                pairs.extend([(w, other), (other, w)]);
            }
        }
        assert!(pairs.len() > 5_000, "{} pairs", pairs.len());
        for (prev, next) in pairs {
            let (got, want) = (fast.numeric_prob(prev, next), oracle.numeric_prob(prev, next));
            assert_eq!(got.to_bits(), want.to_bits(), "({prev:?}, {next:?})");
        }
        let mut toks = Tokens::default();
        for text in texts.iter().take(60).chain(&["", "  ", "LPUI-1T 型号"]) {
            toks.scan(text);
            for pos in 0..=text.len() + 1 {
                let want = oracle.mask_and_score(text, pos).map(f64::to_bits);
                assert_eq!(fast.mask_and_score(text, pos).map(f64::to_bits), want, "{text:?} @ {pos}");
                assert_eq!(fast.mask_and_score_scanned(&toks, pos).map(f64::to_bits), want);
            }
        }
    }

    fn model() -> NumericSlotModel {
        let sents = [
            "货物重150千克需要运输",
            "货物重23千克需要运输",
            "货物重8千克需要运输",
            "箱子重40千克左右",
            "设备型号为LPUI-1T系列",
            "设备型号为XJ-5T系列",
            "设备型号为QR-2K系列",
        ];
        NumericSlotModel::train(sents)
    }

    #[test]
    fn quantity_slots_score_high() {
        let m = model();
        // "货物重" is 9 bytes of CJK; the value token "99" starts at byte 9.
        let p = m.mask_and_score("货物重99千克需要运输", 9).expect("covers 99");
        assert!(p > 0.5, "weight slot should look numeric, got {p}");
    }

    #[test]
    fn device_code_digits_score_low() {
        let m = model();
        // Position of the digit inside "ZV-9M": the context is hyphen+letter,
        // which in training co-occurs with code digits, but the *next* token
        // being a bare letter makes it indistinguishable from codes; the
        // model learned those contexts from decoy sentences where the token
        // IS numeric-shaped... The discriminative signal is the next token:
        // "千" strongly predicts numeric, "t"/"k" suffixes are code-like.
        let code_p = m.numeric_prob("-", "m");
        let qty_p = m.numeric_prob("重", "千");
        assert!(qty_p > code_p, "quantity context {qty_p} must beat code context {code_p}");
    }

    #[test]
    fn unseen_context_falls_back_to_prior() {
        let m = model();
        let p = m.numeric_prob("alienword", "anotheralien");
        assert!((p - m.prior()).abs() < 1e-9);
    }

    #[test]
    fn mask_out_of_range_is_none() {
        let m = model();
        assert!(m.mask_and_score("abc", 999).is_none());
    }

    #[test]
    fn prior_reflects_numeric_density() {
        let m = model();
        let p = m.prior();
        assert!(p > 0.0 && p < 0.5);
    }
}
