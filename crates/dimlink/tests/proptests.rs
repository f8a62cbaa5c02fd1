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

use dim_par::Parallelism;
use dimkb::{DimUnitKb, SymbolTable};
use dimlink::reference::ReferenceLinker;
use dimlink::{Annotator, LinkerConfig, ScratchSpace, UnitLinker};
use proptest::prelude::*;

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
