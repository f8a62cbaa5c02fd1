//! The DimKS text annotator: finds quantities (value + unit) in raw text
//! and links the unit mention into `DimUnitKB`.
//!
//! This is the `DimKS annotator D` of Algorithm 1: a heuristic, high-recall
//! pass — numbers are scanned (including inside device codes), the text
//! right after each number is matched against the naming dictionary
//! (longest match first, falling back to fuzzy linking), and successful
//! links become quantity mentions. Precision is then recovered by the
//! masked-LM filter and manual review stages of Algorithm 1 (see
//! `dimeval::algo1`).
//!
//! The hot path streams: candidate surfaces are slices of the input (CJK
//! prefixes) or built in a reused scratch buffer (multiword Latin phrases),
//! the context window is a borrowed slice, and all per-sentence buffers
//! live in a per-worker [`ScratchSpace`] (see
//! [`Annotator::annotate_with`] / [`Annotator::annotate_batch`]).

use crate::linker::{LinkResult, UnitLinker};
use crate::numparse::{scan_numbers_into, NumberMatch};
use crate::scratch::ScratchSpace;
use dim_embed::tokenize::is_cjk;
use dimkb::degrade::{self, BudgetExceeded, Degraded, Policy, RecordError};

// Times each public annotate call, one text or a whole batch; the per-text
// counts are per-worker tallies in `ScratchSpace` (see `crate::scratch`).
static ANNOTATE_SPAN: dim_obs::Histogram = dim_obs::Histogram::new("link.annotate");

/// A quantity mention found and linked in text.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantityMention {
    /// Byte span of the whole quantity (value + unit).
    pub start: usize,
    /// One past the end.
    pub end: usize,
    /// Parsed numeric value.
    pub value: f64,
    /// Byte span of the value.
    pub value_span: (usize, usize),
    /// The unit surface form as written.
    pub unit_surface: String,
    /// Byte span of the unit.
    pub unit_span: (usize, usize),
    /// Ranked candidate links (best first, never empty).
    pub links: Vec<LinkResult>,
}

impl QuantityMention {
    /// The best-linked unit.
    pub fn best_unit(&self) -> dimkb::UnitId {
        // lint:allow(no_panic, links is documented never-empty for annotator output)
        self.links[0].unit
    }
}

/// Chaos/quarantine site name for batch annotation.
pub const SITE_ANNOTATE: &str = "link.annotate";

/// Returns the code-like token a mention's value is embedded in, if any.
///
/// This is the decoy guard for `corpus::noise`-style tokens (`LPUI-1T`,
/// `v2.5`, `Covid-19`): a quantity whose value is immediately preceded by an
/// ASCII letter, or by a `-` that itself follows an alphanumeric, is part of
/// an identifier — linking its trailing letters to a unit (the paper's
/// `1T` → tesla failure, §IV-C1) and then converting would be garbage. The
/// classic [`Annotator::annotate`] deliberately keeps such mentions (the
/// paper's Algorithm 1 removes them with the MLM filter);
/// [`Annotator::try_annotate_batch`] quarantines the record instead so the
/// mention can never reach a unit conversion.
pub fn decoy_token_at(text: &str, m: &QuantityMention) -> Option<String> {
    let value_start = m.value_span.0;
    // Spans come from the annotator's own extraction over this same text,
    // so every slice boundary below is a valid char boundary.
    let before = text[..value_start].chars().next_back()?; // lint:allow(no_panic, value_span is a char-boundary byte offset into this text)
    let embedded = before.is_ascii_alphabetic()
        || (before == '-'
            // lint:allow(no_panic, before is the ASCII char '-' so value_start >= 1 and value_start - 1 is a boundary)
            && text[..value_start - 1]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
    if !embedded {
        return None;
    }
    // Expand to the whole surrounding token for the quarantine report.
    let is_tok = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '.';
    let start = text[..value_start] // lint:allow(no_panic, value_start is a char-boundary offset, checked above)
        .char_indices()
        .rev()
        .take_while(|&(_, c)| is_tok(c))
        .last()
        .map(|(i, _)| i)
        .unwrap_or(value_start);
    let end = text[value_start..] // lint:allow(no_panic, value_start is a char-boundary offset, checked above)
        .find(|c| !is_tok(c))
        .map(|i| value_start + i)
        .unwrap_or(text.len());
    // lint:allow(no_panic, start/end come from char_indices/find over this text, so both are char boundaries with start <= end)
    Some(text[start..end].trim_end_matches(['.', '-']).to_string()) // lint:allow(hot_alloc, quarantine report construction, not the per-sentence hot loop)
}

/// The annotator: a [`UnitLinker`] plus mention-extraction heuristics.
pub struct Annotator {
    linker: UnitLinker,
    /// Maximum CJK characters tried for a unit mention.
    max_cjk_chars: usize,
    /// Maximum extra Latin words tried for multiword names.
    max_extra_words: usize,
}

impl Annotator {
    /// Wraps a linker.
    pub fn new(linker: UnitLinker) -> Self {
        Annotator { linker, max_cjk_chars: 4, max_extra_words: 2 }
    }

    /// Access to the underlying linker.
    pub fn linker(&self) -> &UnitLinker {
        &self.linker
    }

    /// Annotates text, returning all linked quantity mentions.
    ///
    /// Convenience wrapper over [`Self::annotate_with`] with a throwaway
    /// scratch space; batch callers should hold a [`ScratchSpace`] per
    /// worker instead so buffers persist across texts.
    pub fn annotate(&self, text: &str) -> Vec<QuantityMention> {
        let _span = ANNOTATE_SPAN.span();
        let mut scratch = ScratchSpace::new();
        self.annotate_with(text, &mut scratch)
    }

    /// [`Self::annotate`] against a caller-owned [`ScratchSpace`]: the
    /// number-scanner buffer, candidate builders, and Levenshtein rows are
    /// all reused across calls. Output is identical to `annotate`
    /// for the same text — the scratch is working memory, never state.
    pub fn annotate_with(&self, text: &str, scratch: &mut ScratchSpace) -> Vec<QuantityMention> {
        let mut out = Vec::new();
        // Take the match buffer out so `scratch` stays free for the trial
        // loop below (NumberMatch is Copy; the buffer goes back after).
        let mut nums = std::mem::take(&mut scratch.nums);
        scan_numbers_into(text, &mut nums);
        for &num in &nums {
            if let Some(m) = self.try_unit_after(text, num, scratch) {
                out.push(m);
            }
        }
        scratch.nums = nums;
        scratch.texts += 1;
        scratch.mentions += out.len() as u64;
        out
    }

    /// Annotates a batch of texts, fanning the per-text work out across
    /// `par` threads with one [`ScratchSpace`] per worker. Output order
    /// matches input order and each element is exactly what
    /// [`Self::annotate`] would return — annotation reads only shared
    /// immutable state (KB, linker config) and scratch buffers are cleared
    /// per use, so neither the fan-out nor buffer reuse can change results.
    pub fn annotate_batch<S: AsRef<str> + Sync>(
        &self,
        texts: &[S],
        par: dim_par::Parallelism,
    ) -> Vec<Vec<QuantityMention>> {
        let _span = ANNOTATE_SPAN.span();
        dim_par::par_map_scratch(par, texts, ScratchSpace::new, |_, text, scratch| {
            self.annotate_with(text.as_ref(), scratch)
        })
    }

    /// Degraded-mode batch annotation: each text is annotated in panic
    /// isolation, oversized records and records containing decoy tokens
    /// (see [`decoy_token_at`]) are quarantined instead of linked, and the
    /// failure fraction is checked against the policy's budget. With no
    /// faults every un-quarantined slot equals the classic `annotate`
    /// output for that text. This is a different operation from
    /// [`Self::annotate_batch`], which must keep the decoys the paper's
    /// baseline annotator over-links.
    pub fn try_annotate_batch<S: AsRef<str> + Sync>(
        &self,
        texts: &[S],
        par: dim_par::Parallelism,
        policy: Policy,
    ) -> Result<Degraded<Vec<QuantityMention>>, BudgetExceeded> {
        let _span = ANNOTATE_SPAN.span();
        let slots = dim_par::par_map_scratch(par, texts, ScratchSpace::new, |i, text, scratch| {
            degrade::isolate(|| {
                let text = text.as_ref();
                degrade::inject(policy.plan, SITE_ANNOTATE, i)?;
                degrade::guard_len(text.len())?;
                let mentions = self.annotate_with(text, scratch);
                if let Some(token) = mentions.iter().find_map(|m| decoy_token_at(text, m)) {
                    return Err(RecordError::Decoy(token));
                }
                Ok(mentions)
            })
        });
        degrade::collect_degraded(SITE_ANNOTATE, slots, policy.budget)
    }

    /// Attempts to read a unit mention right after a number.
    ///
    /// Candidate surfaces are tried longest-first against the naming
    /// dictionary (via the KB's interned [`dimkb::intern::LinkIndex`]), with
    /// a final fuzzy-link fallback on the shortest candidate — the same
    /// trial order as the original allocating implementation, but every
    /// candidate is a slice of `text` or a reused scratch buffer.
    fn try_unit_after(
        &self,
        text: &str,
        num: NumberMatch,
        scratch: &mut ScratchSpace,
    ) -> Option<QuantityMention> {
        let mut unit_start = num.end;
        // Allow a single space (ASCII or ideographic) between value and unit.
        let rest = &text[unit_start..]; // lint:allow(no_panic, num.end is a char-boundary offset produced by numparse over this text)
        if let Some(c) = rest.chars().next() {
            if c == ' ' || c == '\u{3000}' {
                unit_start += c.len_utf8();
            }
        }
        let rest = &text[unit_start..]; // lint:allow(no_panic, unit_start advanced by a whole char's len_utf8, still a boundary)
        let first = rest.chars().next()?;

        let idx = self.linker.kb().link_index();
        let context = context_window(text, num.start, 60);

        if is_cjk(first) {
            // Longest CJK prefix first: 平方厘米 before 厘米 before 米.
            // `cjk_ends[k]` is the byte length of the (k+1)-char prefix.
            scratch.cjk_ends.clear();
            let mut end = 0;
            for c in rest.chars().take(self.max_cjk_chars) {
                end += c.len_utf8();
                scratch.cjk_ends.push(end);
            }
            for i in (0..scratch.cjk_ends.len()).rev() {
                let cand = &rest[..scratch.cjk_ends[i]]; // lint:allow(no_panic, cjk_ends holds char-boundary prefix lengths of rest, i < len)
                if !idx.lookup(cand, &mut scratch.link.key).is_empty() {
                    let links = self.linker.link_in(cand, context, &mut scratch.link);
                    if !links.is_empty() {
                        return Some(mention(num, unit_start, cand, links, text));
                    }
                }
            }
            // Fall back to fuzzy linking of the single-char prefix.
            let cand = &rest[..scratch.cjk_ends[0]]; // lint:allow(no_panic, first is CJK so cjk_ends has at least one entry)
            let links = self.linker.link_in(cand, context, &mut scratch.link);
            if links.is_empty() {
                return None;
            }
            Some(mention(num, unit_start, cand, links, text))
        } else if first.is_ascii_alphabetic() || "°µΩ%‰′″".contains(first) {
            // A symbol run like `km/h`, `m²`, `°C`, `dyn/cm`, then
            // optionally extended by following words ("square metres").
            let run_end = rest
                .char_indices()
                .find(|&(_, c)| {
                    !(c.is_ascii_alphanumeric()
                        || "°µΩ%‰/·*^²³⁻¹-′″.".contains(c))
                })
                .map(|(i, _)| i)
                .unwrap_or(rest.len());
            let run = rest[..run_end].trim_end_matches(['.', '-']); // lint:allow(no_panic, run_end is a char_indices index or rest.len(), both boundaries)
            if run.is_empty() {
                return None;
            }
            // Multiword extensions, longest first, built in the reused
            // phrase buffer. `max_extra_words` is 2; the fixed-size word
            // window keeps this loop allocation-free.
            let tail = &rest[run.len()..]; // lint:allow(no_panic, run is a trimmed prefix of rest, so run.len() is a boundary within rest)
            let mut words = [""; 4];
            let mut n_words = 0;
            for w in tail.split_whitespace().take(self.max_extra_words.min(4)) {
                words[n_words] = w; // lint:allow(no_panic, n_words < 4 by the take() bound above)
                n_words += 1;
            }
            for n in (1..=n_words).rev() {
                scratch.phrase.clear();
                scratch.phrase.push_str(run);
                for w in &words[..n] { // lint:allow(no_panic, n <= n_words <= 4)
                    scratch.phrase.push(' ');
                    scratch.phrase.push_str(w.trim_end_matches(['.', ',', ';', '!', '?']));
                }
                if !idx.lookup(&scratch.phrase, &mut scratch.link.key).is_empty() {
                    let links = self.linker.link_in(&scratch.phrase, context, &mut scratch.link);
                    if !links.is_empty() {
                        return Some(mention(num, unit_start, &scratch.phrase, links, text));
                    }
                }
            }
            // The bare run: exact trial first, then the fuzzy fallback.
            if !idx.lookup(run, &mut scratch.link.key).is_empty() {
                let links = self.linker.link_in(run, context, &mut scratch.link);
                if !links.is_empty() {
                    return Some(mention(num, unit_start, run, links, text));
                }
            }
            let links = self.linker.link_in(run, context, &mut scratch.link);
            if links.is_empty() {
                return None;
            }
            Some(mention(num, unit_start, run, links, text))
        } else {
            None // no unit-shaped text follows
        }
    }
}

/// Builds the output mention (the one place the unit surface is copied out
/// of the input text).
fn mention(
    num: NumberMatch,
    unit_start: usize,
    surface: &str,
    links: Vec<LinkResult>,
    text: &str,
) -> QuantityMention {
    let unit_end = unit_start + surface.len();
    debug_assert!(text.is_char_boundary(unit_end));
    QuantityMention {
        start: num.start,
        end: unit_end,
        value: num.value,
        value_span: (num.start, num.end),
        unit_surface: surface.to_string(), // lint:allow(hot_alloc, output construction: the mention owns its surface)
        unit_span: (unit_start, unit_end),
        links,
    }
}

/// A byte-window of context around a position, clipped to char boundaries.
/// Borrows from `text` — the annotate hot path never copies the context.
fn context_window(text: &str, pos: usize, radius: usize) -> &str {
    let mut lo = pos.saturating_sub(radius);
    while lo > 0 && !text.is_char_boundary(lo) {
        lo -= 1;
    }
    let mut hi = (pos + radius).min(text.len());
    while hi < text.len() && !text.is_char_boundary(hi) {
        hi += 1;
    }
    // lint:allow(no_panic, lo and hi are walked to char boundaries by the loops above, lo <= pos <= hi <= len)
    &text[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linker::LinkerConfig;
    use dimkb::DimUnitKb;

    fn annotator() -> Annotator {
        Annotator::new(UnitLinker::new(DimUnitKb::shared(), None, LinkerConfig::default()))
    }

    /// A fault-free policy with the given error budget.
    fn policy(max_error_rate: f64) -> Policy {
        Policy { budget: dimkb::ErrorBudget::new(max_error_rate), ..Policy::CLASSIC }
    }

    fn code_of(a: &Annotator, m: &QuantityMention) -> String {
        a.linker().kb().unit(m.best_unit()).code.clone()
    }

    #[test]
    fn fig1_sentence_annotates_both_quantities() {
        let a = annotator();
        let text = "LeBron James's height is 2.06 meters and Stephen Curry's height is 188 cm.";
        let ms = a.annotate(text);
        assert_eq!(ms.len(), 2, "{ms:?}");
        assert_eq!(ms[0].value, 2.06);
        assert_eq!(code_of(&a, &ms[0]), "M");
        assert_eq!(ms[1].value, 188.0);
        assert_eq!(code_of(&a, &ms[1]), "CentiM");
    }

    #[test]
    fn chinese_tight_quantities() {
        let a = annotator();
        let ms = a.annotate("小王要将150千克含药量20%的农药稀释成含药量5%的药水");
        assert!(ms.len() >= 3, "{ms:?}");
        assert_eq!(code_of(&a, &ms[0]), "KiloGM");
        assert_eq!(code_of(&a, &ms[1]), "PERCENT");
        assert_eq!(ms[0].value, 150.0);
    }

    #[test]
    fn longest_cjk_match_wins() {
        let a = annotator();
        let ms = a.annotate("面积为25平方厘米的纸片");
        assert_eq!(ms.len(), 1);
        assert_eq!(code_of(&a, &ms[0]), "CM2", "平方厘米 must not truncate to 米");
    }

    #[test]
    fn compound_symbol_links() {
        let a = annotator();
        let ms = a.annotate("表面张力为30 dyn/cm左右");
        assert_eq!(ms.len(), 1);
        assert_eq!(code_of(&a, &ms[0]), "DYN-PER-CentiM");
    }

    #[test]
    fn device_code_is_heuristically_mislinked() {
        // The paper's motivating failure: 1T inside LPUI-1T links to tesla
        // or tonne at this (pre-filter) stage — Algorithm 1's MLM stage
        // exists to remove it.
        let a = annotator();
        let ms = a.annotate("设备型号为LPUI-1T");
        assert_eq!(ms.len(), 1, "the heuristic stage should over-trigger");
        let code = code_of(&a, &ms[0]);
        assert!(code.contains('T') || code == "TONNE", "got {code}");
    }

    #[test]
    fn number_without_unit_is_skipped() {
        let a = annotator();
        let ms = a.annotate("共有25个苹果分给5个人");
        // 个 links to EACH (a count unit), which is correct behaviour.
        for m in &ms {
            assert_eq!(code_of(&a, m), "EACH");
        }
    }

    #[test]
    fn multiword_english_unit() {
        let a = annotator();
        let ms = a.annotate("a pressure of 3 standard atmosphere inside");
        assert_eq!(ms.len(), 1);
        assert_eq!(code_of(&a, &ms[0]), "ATM");
    }

    #[test]
    fn chinese_numeral_value_with_unit() {
        let a = annotator();
        let ms = a.annotate("这座桥全长三千五百米。");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].value, 3500.0);
        assert_eq!(code_of(&a, &ms[0]), "M");
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // One scratch space across many texts must give the same output as
        // a fresh scratch per text — buffer reuse is invisible.
        let a = annotator();
        let texts = [
            "面积为25平方厘米的纸片",
            "LeBron James's height is 2.06 meters and 188 cm.",
            "表面张力为30 dyn/cm左右",
            "a pressure of 3 standard atmosphere inside",
            "这座桥全长三千五百米。",
            "no numbers here at all",
            "共有25个苹果分给5个人",
        ];
        let mut reused = ScratchSpace::new();
        for text in texts {
            let fresh = a.annotate(text);
            let warm = a.annotate_with(text, &mut reused);
            assert_eq!(fresh, warm, "text = {text:?}");
        }
    }

    #[test]
    fn batch_matches_sequential_annotation() {
        let a = annotator();
        let texts: Vec<String> = (0..40)
            .map(|i| format!("第{i}段：全长{}米，重量是{} kg，速度为3 km/h。", i + 2, i * 3 + 1))
            .collect();
        let seq: Vec<Vec<QuantityMention>> = texts.iter().map(|t| a.annotate(t)).collect();
        for threads in [1, 2, 4] {
            let batch = a.annotate_batch(&texts, dim_par::Parallelism::new(threads));
            assert_eq!(batch, seq, "threads = {threads}");
        }
    }

    #[test]
    fn decoy_guard_flags_device_codes_not_real_quantities() {
        let a = annotator();
        // The paper's decoy: the heuristic stage links `1T`, the guard sees
        // the value is embedded in `LPUI-1T`.
        let text = "设备型号为LPUI-1T";
        let ms = a.annotate(text);
        assert_eq!(ms.len(), 1);
        assert_eq!(decoy_token_at(text, &ms[0]), Some("LPUI-1T".to_string()));
        // Version-string decoy: `v2.5` ends up as a mention only if a unit
        // follows, but the guard classifies the embedded value regardless.
        let text = "固件为v2.5米"; // adversarial: version number before a unit word
        let ms = a.annotate(text);
        if let Some(m) = ms.first() {
            assert!(decoy_token_at(text, m).is_some(), "{ms:?}");
        }
        // Real quantities are untouched.
        let text = "LeBron James's height is 2.06 meters and Stephen Curry's height is 188 cm.";
        for m in a.annotate(text) {
            assert_eq!(decoy_token_at(text, &m), None);
        }
        let text = "重量是150 kg左右";
        for m in a.annotate(text) {
            assert_eq!(decoy_token_at(text, &m), None);
        }
    }

    #[test]
    fn try_batch_quarantines_decoys_and_matches_classic_elsewhere() {
        let a = annotator();
        let texts = vec![
            "全长3000米的大桥".to_string(),
            "设备型号为LPUI-1T".to_string(),
            "表面张力为30 dyn/cm左右".to_string(),
        ];
        let classic = a.annotate_batch(&texts, dim_par::Parallelism::new(1));
        for threads in [1, 4] {
            let d = a
                .try_annotate_batch(
                    &texts,
                    dim_par::Parallelism::new(threads),
                    policy(0.5),
                )
                .expect("one decoy in three records is within budget");
            assert_eq!(d.items.len(), 3);
            assert_eq!(d.items[0].as_ref(), Some(&classic[0]), "threads = {threads}");
            assert_eq!(d.items[1], None, "decoy record must be quarantined");
            assert_eq!(d.items[2].as_ref(), Some(&classic[2]));
            assert_eq!(d.quarantine.len(), 1);
            assert_eq!(d.quarantine[0].index, 1);
            assert!(d.quarantine[0].error.contains("LPUI-1T"), "{:?}", d.quarantine[0]);
        }
        // A strict budget turns the same batch into a typed abort.
        let err = a
            .try_annotate_batch(&texts, dim_par::Parallelism::new(1), policy(0.0))
            .expect_err("strict budget");
        assert_eq!((err.failed, err.total), (1, 3));
    }

    #[test]
    fn try_batch_quarantines_oversized_records() {
        let a = annotator();
        let big = "长度为3米。".repeat(6000); // ~78 KB, over the 64 KB cap
        let texts = vec!["全长3000米".to_string(), big];
        let d = a
            .try_annotate_batch(&texts, dim_par::Parallelism::new(1), policy(0.5))
            .expect("within budget");
        assert!(d.items[0].is_some());
        assert_eq!(d.items[1], None);
        assert!(d.quarantine[0].error.contains("oversized"));
    }

    #[test]
    fn spans_reconstruct_surface() {
        let a = annotator();
        let text = "重量是150 kg左右";
        let ms = a.annotate(text);
        assert_eq!(ms.len(), 1);
        let m = &ms[0];
        assert_eq!(&text[m.unit_span.0..m.unit_span.1], m.unit_surface);
        assert_eq!(&text[m.value_span.0..m.value_span.1], "150");
    }
}
