//! Property tests for the interned hot path.
//!
//! Three claims the perf refactor rests on, each exercised over generated
//! input rather than fixed cases:
//!
//! 1. **Interner determinism** — [`SymbolTable`] ids depend only on the key
//!    *set*: insertion order and thread width never change them.
//! 2. **Behavioural equivalence** — the interned, scratch-reusing linker
//!    returns exactly what the retired String-based [`ReferenceLinker`]
//!    returns, on arbitrary UTF-8 (Latin, symbols, CJK) mentions and
//!    contexts, via both the fresh-buffer `link` and the scratch `link_with`.
//! 3. **Width invariance** — `annotate_batch` output is identical at thread
//!    widths 1 and 4 (the morsel scheduler only moves work, never bytes; the
//!    byte-level goldens pin the same property end-to-end via `make golden`).
//!
//! The equivalence is also checked for mentions of up to 80 chars, on
//! either side of the fuzzy scan's 64-char switch from bit-parallel
//! Levenshtein to the DP, and pinned for five fixed fuzzy mentions.

use dim_par::Parallelism;
use dimkb::freq::{PopularitySource, Signal};
use dimkb::spec::{kind, u, KindSpec, UnitSpec};
use dimkb::{DimUnitKb, SymbolTable};
use dimlink::reference::ReferenceLinker;
use dimlink::{Annotator, LinkerConfig, ScratchSpace, UnitLinker};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Unit-shaped surface strings: Latin letters, digits, SI punctuation, and
/// the CJK range the KB's Chinese aliases live in.
const MENTION: &str = "[a-zA-Z0-9/²³·°µΩ 一-龥]{0,10}";

/// Free-text context: the full printable space (ASCII, Latin-1, CJK, emoji).
const CONTEXT: &str = "\\PC{0,60}";

/// Every key of a table, in symbol-id order.
fn keys_of(table: &SymbolTable) -> Vec<&str> {
    table.strings().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interner ids are a pure function of the key set: forward, reversed,
    /// and pre-sorted insertion all build the identical table.
    #[test]
    fn interner_ids_are_insertion_order_independent(
        keys in prop::collection::vec(MENTION, 0..24)
    ) {
        let forward = SymbolTable::build(keys.clone());
        let mut reversed = keys.clone();
        reversed.reverse();
        let backward = SymbolTable::build(reversed);
        let mut sorted = keys.clone();
        sorted.sort();
        let presorted = SymbolTable::build(sorted);
        prop_assert_eq!(keys_of(&forward), keys_of(&backward));
        prop_assert_eq!(keys_of(&forward), keys_of(&presorted));
        for k in &keys {
            prop_assert!(forward.get(k).is_some(), "built key must resolve: {k:?}");
            prop_assert_eq!(forward.get(k), backward.get(k));
            prop_assert_eq!(forward.get(k), presorted.get(k));
        }
    }

    /// Building the same table concurrently under a width-4 morsel scheduler
    /// yields bit-identical ids on every worker — interning is safe to race.
    #[test]
    fn interner_ids_identical_across_thread_widths(
        keys in prop::collection::vec(MENTION, 0..24)
    ) {
        let sequential = SymbolTable::build(keys.clone());
        let lanes = [0u8, 1, 2, 3];
        let concurrent =
            dim_par::par_map(Parallelism::new(4), &lanes, |_| SymbolTable::build(keys.clone()));
        for table in &concurrent {
            prop_assert_eq!(keys_of(table), keys_of(&sequential));
            for k in &keys {
                prop_assert_eq!(table.get(k), sequential.get(k));
            }
        }
    }
}

proptest! {
    // Linking runs the full fuzzy pipeline per case; fewer, richer cases.
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The interned linker is result-equivalent to the String-based
    /// reference on arbitrary mentions/contexts, through both entry points.
    #[test]
    fn interned_linker_matches_reference_on_arbitrary_utf8(
        mention in MENTION,
        context in CONTEXT,
    ) {
        let kb = DimUnitKb::shared();
        let config = LinkerConfig::default();
        let reference = ReferenceLinker::new(kb.clone(), config);
        let optimized = UnitLinker::with_config(kb, config);
        let mut scratch = ScratchSpace::new();
        let want = reference.link(&mention, &context);
        prop_assert_eq!(&want, &optimized.link(&mention, &context));
        prop_assert_eq!(&want, &optimized.link_with(&mention, &context, &mut scratch));
        // A second pass through the reused scratch must not change anything.
        prop_assert_eq!(&want, &optimized.link_with(&mention, &context, &mut scratch));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch annotation is thread-width invariant: widths 1 and 4 produce
    /// equal mention lists on arbitrary sentence batches.
    #[test]
    fn annotate_batch_is_identical_at_widths_1_and_4(
        texts in prop::collection::vec("\\PC{0,48}", 0..12)
    ) {
        let annotator = || {
            Annotator::new(UnitLinker::with_config(
                DimUnitKb::shared(),
                LinkerConfig::default(),
            ))
        };
        let sequential = annotator().annotate_batch(&texts, Parallelism::new(1));
        let wide = annotator().annotate_batch(&texts, Parallelism::new(4));
        prop_assert_eq!(sequential, wide);
    }
}

/// Words of English unit names. Mentions and the long KB's labels are built
/// from them, so a mention lands near keys of its own length.
const WORDS: [&str; 16] = [
    "kilo", "gram", "metre", "meter", "per", "square", "second", "hour", "cubic", "centi", "milli",
    "degree", "celsius", "newton", "litre", "mole",
];

/// The CJK chars of common Chinese unit names.
const CJK_RUN: &str = "[千米克秒小时每平方立厘毫公里升度摄氏牛顿]{0,80}";

/// Up to 80 chars of [`WORDS`]: an even pick is followed by a space, an
/// odd one runs on into the next word.
fn words(picks: &[usize]) -> String {
    let mut out = String::new();
    for &pick in picks {
        out.push_str(WORDS[pick / 2 % WORDS.len()]);
        if pick % 2 == 0 {
            out.push(' ');
        }
    }
    out.truncate(80);
    out
}

/// Every unit equally popular.
struct Flat;

impl PopularitySource for Flat {
    fn raw(&self, _key: &str, _base_pop: f64, _signal: Signal) -> f64 {
        1.0
    }
}

/// Labels of 40 to about 84 chars, built from [`WORDS`]: the standard KB's
/// longest key has 37 chars, so only these reach the scan's DP fallback.
fn long_labels() -> Vec<String> {
    (0..24)
        .map(|i| {
            let mut label = String::new();
            let mut j = i;
            while label.len() < 40 + 2 * i {
                label.push_str(WORDS[j * 7 % WORDS.len()]);
                label.push(' ');
                j += 3;
            }
            label.pop();
            label
        })
        .collect()
}

/// A KB of one unit per [`long_labels`] label.
fn long_kb() -> Arc<DimUnitKb> {
    static KB: OnceLock<Arc<DimUnitKb>> = OnceLock::new();
    KB.get_or_init(|| {
        let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
        let kinds: Vec<KindSpec> = vec![kind("Length", "", "L")];
        let specs: Vec<UnitSpec> = long_labels()
            .into_iter()
            .enumerate()
            .map(|(i, label)| {
                u(
                    leak(format!("LONG{i}")),
                    leak(label),
                    "",
                    "",
                    "Length",
                    1.0,
                    1.0,
                )
            })
            .collect();
        let specs: Vec<&UnitSpec> = specs.iter().collect();
        Arc::new(DimUnitKb::from_specs(&kinds, &specs, &Flat))
    })
    .clone()
}

/// `label` with one edit per entry of `edits`: delete, replace or insert
/// at a position the entry picks.
fn edited(label: &str, edits: &[usize]) -> String {
    let mut chars: Vec<char> = label.chars().collect();
    for &e in edits {
        let at = e % (chars.len() + 1);
        match e / 1000 % 3 {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 if at < chars.len() => chars[at] = 'x',
            _ => chars.insert(at, 'x'),
        }
    }
    chars.into_iter().collect()
}

/// The context the long-mention checks link against.
const LONG_CONTEXT: &str = "the square metre per second of flow";

/// `mention` links the same through the reference, `link` and `link_with`.
fn check_mention(
    reference: &ReferenceLinker,
    optimized: &UnitLinker,
    scratch: &mut ScratchSpace,
    mention: &str,
) -> Result<(), proptest::TestCaseError> {
    let want = reference.link(mention, LONG_CONTEXT);
    prop_assert_eq!(&want, &optimized.link(mention, LONG_CONTEXT));
    prop_assert_eq!(&want, &optimized.link_with(mention, LONG_CONTEXT, scratch));
    Ok(())
}

proptest! {
    // Long mentions scan many keys through the reference's DP; few cases.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mentions of 0–80 chars (runs of unit words, CJK runs, and edited
    /// long labels) link identically through the reference and the
    /// interned linker, against the standard KB and against a KB whose
    /// keys are long enough for mentions past 64 chars to match.
    #[test]
    fn long_mentions_match_reference(
        latin in prop::collection::vec(0usize..2 * WORDS.len(), 0..20),
        cjk in CJK_RUN,
        noisy in (0usize..24, prop::collection::vec(0usize..3000, 0..20)),
    ) {
        let labels = long_labels();
        let mentions = [words(&latin), cjk, edited(&labels[noisy.0], &noisy.1)];
        let config = LinkerConfig::default();
        for kb in [DimUnitKb::shared(), long_kb()] {
            let reference = ReferenceLinker::new(kb.clone(), config);
            let optimized = UnitLinker::with_config(kb, config);
            let mut scratch = ScratchSpace::new();
            for mention in &mentions {
                check_mention(&reference, &optimized, &mut scratch, mention)?;
            }
        }
    }
}

/// The `/annotate` sentence of the serve benchmark's mix.
const SERVE_TEXT: &str = "Runner 7 covered 12.5 kilometers carrying 30 kg of gear.";

/// One ranked result as `(unit code, Pr(u|m), score)`.
type Ranked<'a> = (&'a str, f64, f64);

/// Each fixed fuzzy mention's ranking against [`SERVE_TEXT`], recorded
/// before the scan scored keys with the bit-parallel kernel.
const FUZZY_CASES: [(&str, &[Ranked<'static>]); 5] = [
    ("covered", &[]),
    ("carrying", &[]),
    ("runner", &[]),
    (
        "kilometr",
        &[
            ("KiloMOL", 0.625, 0.08204997430777512),
            ("KiloM", 0.8888888888888888, 0.04306069162161867),
            ("KiloL", 0.6666666666666667, 0.03193794479104727),
            ("KiloW", 0.625, 0.03064426465950695),
            ("KiloSEC", 0.625, 0.030388930932655423),
            ("KiloHZ", 0.6666666666666667, 0.030314690876121337),
            ("KiloBYTE", 0.625, 0.0291349039928362),
            ("MilliM", 0.6, 0.028127214006787485),
        ],
    ),
    (
        "gear",
        &[
            ("YR", 0.75, 0.03565603734499872),
            ("GigaBAR", 0.75, 0.02747471248444351),
            ("GigaVAR", 0.75, 0.021779601455054122),
        ],
    ),
];

#[test]
fn fixed_fuzzy_mentions_keep_their_links() {
    let kb = DimUnitKb::shared();
    let config = LinkerConfig::default();
    let reference = ReferenceLinker::new(kb.clone(), config);
    let optimized = UnitLinker::with_config(kb.clone(), config);
    let mut scratch = ScratchSpace::new();
    for (mention, want) in FUZZY_CASES {
        let results = optimized.link_with(mention, SERVE_TEXT, &mut scratch);
        let got: Vec<Ranked<'_>> = results
            .iter()
            .map(|r| (kb.unit(r.unit).code.as_str(), r.mention_sim, r.score))
            .collect();
        assert_eq!(got, want, "{mention:?}");
        assert_eq!(results, reference.link(mention, SERVE_TEXT), "{mention:?}");
        assert_eq!(results, optimized.link(mention, SERVE_TEXT), "{mention:?}");
    }
}

#[test]
fn mentions_past_64_chars_link_through_the_dp_fallback() {
    let kb = long_kb();
    let config = LinkerConfig::default();
    let reference = ReferenceLinker::new(kb.clone(), config);
    let optimized = UnitLinker::with_config(kb.clone(), config);
    let mut scratch = ScratchSpace::new();
    let mut long = 0;
    for label in long_labels() {
        // Three edits keep the label's own unit well above the threshold.
        let mention = edited(&label, &[1005, 2017, 29]);
        let results = optimized.link_with(&mention, LONG_CONTEXT, &mut scratch);
        assert!(!results.is_empty(), "{mention:?} must link");
        assert_eq!(
            results,
            reference.link(&mention, LONG_CONTEXT),
            "{mention:?}"
        );
        long += usize::from(mention.chars().count() > 64);
    }
    assert!(long >= 4, "only {long} mentions are past 64 chars");
}
