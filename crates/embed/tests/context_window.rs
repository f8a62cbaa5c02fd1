//! The per-text window view of context words is exact: for every
//! char-boundary window `[lo, hi)` of a text, `ContextWords::window_into`
//! after one `scan` of the whole text yields the same words, in the same
//! order, as `context_words_into(&text[lo..hi])`; and that scanner yields
//! exactly the word and CJK tokens of `tokenize`.

use dim_embed::tokenize::{context_words_into, tokenize, ContextWords, TokenKind};
use proptest::prelude::*;

/// Checks every char-boundary window of `text` against a re-scan of it.
fn check_all_windows(text: &str) -> Result<(), String> {
    let mut view = ContextWords::default();
    view.scan(text);
    let bounds: Vec<usize> = text
        .char_indices()
        .map(|(i, _)| i)
        .chain([text.len()])
        .collect();
    let (mut arena, mut spans, mut got) = (String::new(), Vec::new(), Vec::new());
    for (k, &lo) in bounds.iter().enumerate() {
        for &hi in &bounds[k..] {
            context_words_into(&text[lo..hi], &mut arena, &mut spans);
            let want: Vec<&str> = spans.iter().map(|&(s, e)| &arena[s..e]).collect();
            view.window_into(text, lo, hi, &mut got);
            if (lo, hi) == (0, text.len()) && view.spans() != got {
                return Err(format!("text {text:?}: spans() differs from the whole window"));
            }
            let have: Vec<&str> = got.iter().map(|&(s, e)| &view.arena()[s..e]).collect();
            if have != want {
                return Err(format!(
                    "text {text:?} window {lo}..{hi}: {have:?} != {want:?}"
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn windows_that_cut_words_decimals_and_cjk_runs() {
    for text in [
        "LeBron James's height is 2.06 meters",
        "身高2.06米 and 188 cm，面积为25平方厘米的纸片",
        "KM² plus 3.14159 radians, Straße weiß ΣΑΣ",
        "a3.5b..7.c 12.x 万ÀÉ一二",
        "",
    ] {
        check_all_windows(text).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary printable UTF-8, and text dense in words, decimals and
    /// CJK runs, each alone and concatenated.
    #[test]
    fn window_view_equals_rescanning_the_window(
        free in "\\PC{0,32}",
        dense in "[a-zA-Z0-9. ,ÀÉßΣİ一-龥]{0,32}",
    ) {
        for text in [free.clone(), dense.clone(), format!("{dense}{free}{dense}")] {
            prop_assert_eq!(check_all_windows(&text), Ok(()));
        }
    }

    /// The allocation-free scanner keeps exactly `tokenize`'s word and CJK
    /// tokens, lowercased the same way.
    #[test]
    fn context_words_are_tokenize_words(
        free in "\\PC{0,48}",
        dense in "[a-zA-Z0-9. ,ÀÉßΣİ一-龥]{0,48}",
    ) {
        let (mut arena, mut spans) = (String::new(), Vec::new());
        for text in [free.clone(), dense.clone(), format!("{dense}{free}")] {
            let want: Vec<String> = tokenize(&text)
                .into_iter()
                .filter(|t| matches!(t.kind, TokenKind::Word | TokenKind::Cjk))
                .map(|t| t.text)
                .collect();
            context_words_into(&text, &mut arena, &mut spans);
            let got: Vec<&str> = spans.iter().map(|&(s, e)| &arena[s..e]).collect();
            prop_assert_eq!(got, want);
        }
    }
}
