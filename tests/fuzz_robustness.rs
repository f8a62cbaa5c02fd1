//! Robustness property tests: the text-facing components must never panic
//! on arbitrary input, and parsers must fail cleanly rather than crash.

use dimension_perception::core::DimKs;
use dimension_perception::kb::{expr, DimUnitKb};
use dimension_perception::link::{parse_chinese_numeral, scan_numbers};
use dimension_perception::mwp::calculate;
use proptest::prelude::*;
use std::sync::OnceLock;

fn ks() -> &'static DimKs {
    static KS: OnceLock<DimKs> = OnceLock::new();
    KS.get_or_init(DimKs::standard)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn annotator_never_panics(text in "\\PC{0,80}") {
        // Arbitrary printable unicode, including CJK, emoji, digits.
        let _ = ks().annotate(&text);
    }

    #[test]
    fn annotator_handles_numeric_soup(text in "[0-9.千万亿 kmgs%/]{0,40}") {
        let mentions = ks().annotate(&text);
        for m in mentions {
            prop_assert!(m.value.is_finite());
            prop_assert!(m.start <= m.end && m.end <= text.len());
            prop_assert!(text.is_char_boundary(m.start) && text.is_char_boundary(m.end));
        }
    }

    #[test]
    fn number_scanner_spans_are_valid(text in "\\PC{0,60}") {
        for m in scan_numbers(&text) {
            prop_assert!(text.is_char_boundary(m.start) && text.is_char_boundary(m.end));
            prop_assert!(m.start < m.end);
        }
    }

    #[test]
    fn chinese_numeral_parser_never_panics(text in "[零一二两三四五六七八九十百千万亿点]{0,10}") {
        if let Some(v) = parse_chinese_numeral(&text) {
            prop_assert!(v.is_finite() && v >= 0.0);
        }
    }

    #[test]
    fn unit_expression_parser_never_panics(text in "[a-z×·/()^0-9 %°µ]{0,30}") {
        let kb = DimUnitKb::shared();
        let _ = expr::eval(&kb, &text);
    }

    #[test]
    fn unit_expression_parser_survives_arbitrary_unicode(text in "\\PC{0,60}") {
        // Arbitrary multi-script UTF-8 (CJK, emoji, Latin-1 punctuation):
        // parsing must return `Err(KbError)` rather than panic.
        let kb = DimUnitKb::shared();
        let _ = expr::eval(&kb, &text);
    }

    #[test]
    fn unit_expression_parser_survives_operator_soup(
        text in "[×·/()^\\-0-9a-zµ°%⁻¹²³ ]{0,40}"
    ) {
        // Dense operator/exponent soup — adversarial for the exponent
        // tokenizer (`^-`, `^^`, bare `^`, huge exponents, superscripts).
        let kb = DimUnitKb::shared();
        if let Ok(v) = expr::eval(&kb, &text) {
            // Accepted expressions must have sane, clamped exponents.
            for e in v.dim.exponents() {
                prop_assert!(e.unsigned_abs() <= 144, "runaway exponent {e}");
            }
        }
    }

    #[test]
    fn equation_calculator_never_panics(text in "[0-9+\\-*/()%. x=]{0,30}") {
        if let Ok(v) = calculate(&text) {
            prop_assert!(v.is_finite());
        }
    }

    #[test]
    fn json_parser_never_panics(
        text in "\\PC{0,80}",
        soup in "[\\[\\]{}\",:\\\\/ubfnrt0-9eE.+\\- ]{0,80}"
    ) {
        // Arbitrary text, then bracket/quote/escape/number soup that is
        // mostly malformed: parsing returns a value or an error, never panics.
        let _ = dim_json::parse_value(&text);
        let _ = dim_json::parse_value(&soup);
    }

    #[test]
    fn linker_never_panics(mention in "\\PC{0,20}", context in "\\PC{0,40}") {
        let _ = ks().link(&mention, &context);
    }
}
