//! Bilingual tokenization shared across the framework.
//!
//! Latin-script text is split on non-alphanumeric boundaries and lowercased;
//! CJK text is split into single characters (the standard character-level
//! fallback when no segmenter is available). Digits are kept as contiguous
//! number tokens so quantity values survive tokenization.

/// A token with its byte span in the original text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The normalized token text (lowercased for Latin script).
    pub text: String,
    /// Byte offset of the token start in the input.
    pub start: usize,
    /// Byte offset one past the token end.
    pub end: usize,
    /// Token class.
    pub kind: TokenKind,
}

/// Classification of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A Latin-script word.
    Word,
    /// A single CJK character.
    Cjk,
    /// A run of ASCII digits, possibly with one decimal point.
    Number,
    /// Punctuation or symbols.
    Symbol,
}

/// True for characters in the main CJK blocks.
pub fn is_cjk(c: char) -> bool {
    matches!(c,
        '\u{4E00}'..='\u{9FFF}'   // CJK Unified Ideographs
        | '\u{3400}'..='\u{4DBF}' // Extension A
        | '\u{F900}'..='\u{FAFF}' // Compatibility Ideographs
    )
}

/// One token of a [`Tokens`] scan: its byte span in the scanned text, its
/// class, and where its normalized text sits in the scan's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenSpan {
    /// Byte offset of the token start in the input.
    pub start: usize,
    /// Byte offset one past the token end.
    pub end: usize,
    /// Byte range of the token's normalized text in the arena.
    pub text: (usize, usize),
    /// Token class.
    pub kind: TokenKind,
}

/// The one tokenizer scanner: appends each token's normalized text to
/// `arena` and reports its [`TokenSpan`], in order.
///
/// Whitespace separates tokens and is dropped. A CJK char is a token of
/// its own. A run of ASCII digits is a number, with at most one `.` and
/// only where a digit follows it (`2.06`; `3.` is `3` then `.`). A maximal
/// run of alphabetic non-CJK chars is a word, lowercased (so a word's text
/// can be longer than its span: `İ` lowercases to two chars). Every other
/// char is a symbol. Number, CJK and symbol texts equal their source bytes.
fn scan_tokens(text: &str, arena: &mut String, mut emit: impl FnMut(TokenSpan)) {
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(c) = char_at(text, i) {
        let (start, at) = (i, arena.len());
        let kind = if c.is_ascii_digit() {
            i += 1;
            let mut seen_dot = false;
            while let Some(&b) = bytes.get(i) {
                if b.is_ascii_digit() {
                    i += 1;
                } else if b == b'.' && !seen_dot && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    seen_dot = true;
                    i += 1;
                } else {
                    break;
                }
            }
            arena.push_str(&text[start..i]);
            TokenKind::Number
        } else if is_word_char(c) {
            push_lowercase(arena, c);
            i += c.len_utf8();
            while let Some(nc) = char_at(text, i).filter(|&nc| is_word_char(nc)) {
                push_lowercase(arena, nc);
                i += nc.len_utf8();
            }
            TokenKind::Word
        } else {
            i += c.len_utf8();
            if c.is_whitespace() {
                continue;
            }
            arena.push(c);
            if is_cjk(c) {
                TokenKind::Cjk
            } else {
                TokenKind::Symbol
            }
        };
        emit(TokenSpan { start, end: i, text: (at, arena.len()), kind });
    }
}

/// The char starting at byte `i` of `text` (a char boundary), read
/// without decoding when it is ASCII.
fn char_at(text: &str, i: usize) -> Option<char> {
    match text.as_bytes().get(i) {
        Some(&b) if b.is_ascii() => Some(char::from(b)),
        _ => text.get(i..)?.chars().next(),
    }
}

/// The tokens of one or more texts, scanned into one arena: no `String`
/// per token, and the buffers are reused across scans.
#[derive(Debug, Default, Clone)]
pub struct Tokens {
    arena: String,
    spans: Vec<TokenSpan>,
}

impl Tokens {
    /// Scans `text`, replacing whatever was scanned before.
    pub fn scan(&mut self, text: &str) {
        self.clear();
        self.push(text);
    }

    /// Appends the tokens of `text` after those already scanned and returns
    /// their index range. Their spans are offsets into `text`.
    pub fn push(&mut self, text: &str) -> std::ops::Range<usize> {
        let first = self.spans.len();
        // Token texts are about as long as the text; lowercasing rarely
        // grows them.
        self.arena.reserve(text.len());
        let spans = &mut self.spans;
        scan_tokens(text, &mut self.arena, |t| spans.push(t));
        first..self.spans.len()
    }

    /// Forgets every scanned token, keeping the buffers.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.spans.clear();
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no token is scanned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Every scanned token, in order.
    pub fn spans(&self) -> &[TokenSpan] {
        &self.spans
    }

    /// The arena every token's [`TokenSpan::text`] indexes.
    pub fn arena(&self) -> &str {
        &self.arena
    }

    /// The normalized text of token `i`.
    pub fn text(&self, i: usize) -> &str {
        let (s, e) = self.spans[i].text;
        &self.arena[s..e]
    }

    /// The normalized texts of the tokens in `range`, in order.
    pub fn texts(&self, range: std::ops::Range<usize>) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.spans[range].iter().map(|t| &self.arena[t.text.0..t.text.1])
    }
}

/// Tokenizes bilingual text into [`Token`]s with spans: an allocating view
/// of the one scanner behind [`Tokens`].
///
/// ```
/// use dim_embed::tokenize::{tokenize, TokenKind};
///
/// let toks = tokenize("LeBron身高2.06米");
/// let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
/// assert_eq!(texts, vec!["lebron", "身", "高", "2.06", "米"]);
/// assert_eq!(toks[3].kind, TokenKind::Number);
/// ```
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut toks = Tokens::default();
    toks.scan(text);
    let spans = toks.spans().iter();
    spans
        .zip(toks.texts(0..toks.len()))
        .map(|(t, text)| Token { text: text.to_string(), start: t.start, end: t.end, kind: t.kind })
        .collect()
}

/// Convenience: just the token texts.
pub fn words(text: &str) -> Vec<String> {
    let mut toks = Tokens::default();
    let all = toks.push(text);
    toks.texts(all).map(str::to_string).collect()
}

/// Writes the *context words* of `text` — the [`TokenKind::Word`] and
/// [`TokenKind::Cjk`] token texts, in order, exactly as [`tokenize`] would
/// produce them — into a caller-provided arena instead of one `String` per
/// token. `arena` holds the lowercased word texts concatenated; `spans`
/// holds each word's byte range *within the arena*. Both buffers are
/// cleared first, so a hot loop reuses their allocations across calls.
///
/// This is the reference the unit linker's [`ContextWords`] view is pinned
/// to; the equivalence with `tokenize` filtering is pinned by a test below.
pub fn context_words_into(text: &str, arena: &mut String, spans: &mut Vec<(usize, usize)>) {
    arena.clear();
    spans.clear();
    scan_context_words(text, arena, |_, span| spans.push(span));
}

/// The one context-word scanner: appends each word's lowercased text to
/// `arena` and reports `(source span in text, span in arena)`.
///
/// A CJK char is a word of its own, and a Latin word is a maximal run of
/// alphabetic non-CJK chars; every other char (whitespace, digits, symbols)
/// is part of no context word. `tokenize`'s number runs hold only ASCII
/// digits and `.`, so skipping them char by char emits the same words, and
/// a scan never lands inside a Latin run. That is what lets
/// [`ContextWords`] clip a whole-text scan to a window instead of
/// re-scanning it.
fn scan_context_words(text: &str, arena: &mut String, mut emit: impl FnMut((usize, usize), (usize, usize))) {
    let mut chars = text.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        if is_cjk(c) {
            let at = arena.len();
            arena.push(c);
            emit((start, start + c.len_utf8()), (at, arena.len()));
        } else if is_word_char(c) {
            let at = arena.len();
            push_lowercase(arena, c);
            let mut end = start + c.len_utf8();
            while let Some(&(i, nc)) = chars.peek() {
                if is_word_char(nc) {
                    push_lowercase(arena, nc);
                    end = i + nc.len_utf8();
                    chars.next();
                } else {
                    break;
                }
            }
            emit((start, end), (at, arena.len()));
        }
    }
}

/// `c.is_alphabetic() && !is_cjk(c)`, testing the cheap classes first.
fn is_word_char(c: char) -> bool {
    if c.is_ascii() {
        c.is_ascii_alphabetic()
    } else {
        !is_cjk(c) && c.is_alphabetic()
    }
}

/// Appends `c.to_lowercase()`; ASCII takes the equal, cheaper ASCII fold.
fn push_lowercase(arena: &mut String, c: char) {
    if c.is_ascii() {
        arena.push(c.to_ascii_lowercase());
    } else {
        arena.extend(c.to_lowercase());
    }
}

/// The context words of one text, scanned once and then viewed through
/// any byte window of it: [`Self::window_into`] yields exactly what
/// [`context_words_into`] yields for `&text[lo..hi]`, without re-scanning
/// the window. Words inside the window are reused as scanned; a Latin word
/// the window cuts is re-lowercased for its inside part only (a CJK word is
/// one char, so a char-boundary window never cuts one). The buffers are
/// reused across texts.
#[derive(Debug, Default)]
pub struct ContextWords {
    /// The whole text's lowercased words, then the current window's edge
    /// fragments.
    arena: String,
    /// Arena length holding the whole text's words.
    scanned_len: usize,
    /// Each word's span in the arena.
    spans: Vec<(usize, usize)>,
    /// Each word's span in the scanned text, parallel to `spans`.
    srcs: Vec<(usize, usize)>,
}

impl ContextWords {
    /// Scans `text`, replacing whatever was scanned before.
    pub fn scan(&mut self, text: &str) {
        self.arena.clear();
        self.spans.clear();
        self.srcs.clear();
        let (spans, srcs) = (&mut self.spans, &mut self.srcs);
        scan_context_words(text, &mut self.arena, |src, span| {
            srcs.push(src);
            spans.push(span);
        });
        self.scanned_len = self.arena.len();
    }

    /// The arena spans of every word of the scanned text: the window that
    /// covers all of it.
    pub fn spans(&self) -> &[(usize, usize)] {
        &self.spans
    }

    /// Writes into `spans` the arena spans of the context words of
    /// `text[lo..hi]`, in order; read them from [`Self::arena`]. `text` must
    /// be the text last passed to [`Self::scan`], and `lo`/`hi` char
    /// boundaries of it. `spans` is cleared first.
    pub fn window_into(&mut self, text: &str, lo: usize, hi: usize, spans: &mut Vec<(usize, usize)>) {
        self.arena.truncate(self.scanned_len);
        spans.clear();
        let first = self.srcs.partition_point(|src| src.1 <= lo);
        for (&(start, end), &span) in self.srcs[first..].iter().zip(&self.spans[first..]) {
            if start >= hi {
                break;
            }
            if lo <= start && end <= hi {
                spans.push(span);
                continue;
            }
            let (s, e) = (start.max(lo), end.min(hi));
            if s < e {
                let at = self.arena.len();
                for c in text[s..e].chars() {
                    push_lowercase(&mut self.arena, c);
                }
                spans.push((at, self.arena.len()));
            }
        }
    }

    /// The arena the spans of [`Self::spans`] and [`Self::window_into`]
    /// index.
    pub fn arena(&self) -> &str {
        &self.arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `String`-per-token tokenizer the arena scanner replaced, kept as
    /// the differential oracle for [`scan_tokens`] and its views.
    fn tokenize_reference(text: &str) -> Vec<Token> {
        let mut tokens = Vec::new();
        let mut chars = text.char_indices().peekable();
        while let Some((start, c)) = chars.next() {
            if c.is_whitespace() {
                continue;
            }
            if is_cjk(c) {
                tokens.push(Token {
                    text: c.to_string(),
                    start,
                    end: start + c.len_utf8(),
                    kind: TokenKind::Cjk,
                });
            } else if c.is_ascii_digit() {
                let mut end = start + c.len_utf8();
                let mut text_buf = c.to_string();
                let mut seen_dot = false;
                while let Some(&(i, nc)) = chars.peek() {
                    if nc.is_ascii_digit() || (nc == '.' && !seen_dot) {
                        if nc == '.' {
                            // Only treat as decimal point when followed by a digit.
                            let mut ahead = chars.clone();
                            ahead.next();
                            match ahead.peek() {
                                Some(&(_, d)) if d.is_ascii_digit() => seen_dot = true,
                                _ => break,
                            }
                        }
                        text_buf.push(nc);
                        end = i + nc.len_utf8();
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token { text: text_buf, start, end, kind: TokenKind::Number });
            } else if c.is_alphabetic() {
                let mut end = start + c.len_utf8();
                let mut text_buf: String = c.to_lowercase().collect();
                while let Some(&(i, nc)) = chars.peek() {
                    if nc.is_alphabetic() && !is_cjk(nc) {
                        text_buf.extend(nc.to_lowercase());
                        end = i + nc.len_utf8();
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token { text: text_buf, start, end, kind: TokenKind::Word });
            } else {
                tokens.push(Token {
                    text: c.to_string(),
                    start,
                    end: start + c.len_utf8(),
                    kind: TokenKind::Symbol,
                });
            }
        }
        tokens
    }

    /// Checks every view of the scanner against the reference on `text`:
    /// `tokenize`, `words`, and a [`Tokens`] scan appended after an earlier
    /// text, whose buffers it must share without mixing.
    fn check_views(text: &str) -> Result<(), String> {
        let want = tokenize_reference(text);
        if tokenize(text) != want {
            return Err(format!("tokenize({text:?}) = {:?}, want {want:?}", tokenize(text)));
        }
        let want_words: Vec<String> = want.iter().map(|t| t.text.clone()).collect();
        if words(text) != want_words {
            return Err(format!("words({text:?}) = {:?}", words(text)));
        }
        let mut toks = Tokens::default();
        toks.scan("Prefix 1.5 千克 ");
        let before = toks.len();
        let range = toks.push(text);
        let got: Vec<Token> = toks.spans()[range.clone()]
            .iter()
            .zip(toks.texts(range))
            .map(|(t, s)| Token { text: s.to_string(), start: t.start, end: t.end, kind: t.kind })
            .collect();
        if got != want || toks.texts(0..before).collect::<Vec<_>>() != ["prefix", "1.5", "千", "克"] {
            return Err(format!("Tokens::push({text:?}) = {got:?}"));
        }
        Ok(())
    }

    #[test]
    fn scanner_views_match_the_reference_on_edge_cases() {
        for text in [
            "LeBron身高2.06米",
            "小王有150千克农药 weighing 150 kg",
            "2.06 meters and 3. dots, version 1.2.3 and ..5 and 7..8",
            "tab\there\nnew line\u{3000}ideographic\u{a0}nbsp\u{2003}em",
            "CJK Ext A \u{3400}\u{4DB5} and compat \u{F900}",
            "fullwidth １２３．５ and Arabic-Indic ١٢٣",
            "İstanbul ẞtraße ΣΑΣ ǅ and KM²",
            "m/s (km) [x] 5%",
            "",
            "   ",
        ] {
            check_views(text).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary printable UTF-8, and text dense in the classes the
        /// scanner distinguishes: ASCII and non-ASCII letters (with
        /// multi-char lowercases), digits and dots, fullwidth digits,
        /// whitespace variants, CJK and CJK Extension A.
        #[test]
        fn scanner_views_match_the_reference(
            free in "\\PC{0,40}",
            dense in "[a-zA-Z0-9. ,/()ÀßẞİΣ０-９\t\n\u{3000}\u{a0}一-龥\u{3400}-\u{4DBF}]{0,40}",
        ) {
            for text in [free.clone(), dense.clone(), format!("{dense}{free}{dense}")] {
                prop_assert_eq!(check_views(&text), Ok(()));
            }
        }
    }

    #[test]
    fn splits_mixed_script() {
        let toks = words("小王有150千克农药 weighing 150 kg");
        assert!(toks.contains(&"千".to_string()));
        assert!(toks.contains(&"weighing".to_string()));
        assert!(toks.contains(&"150".to_string()));
    }

    #[test]
    fn decimal_numbers_stay_whole() {
        let toks = tokenize("2.06 meters and 3. dots");
        assert_eq!(toks[0].text, "2.06");
        assert_eq!(toks[0].kind, TokenKind::Number);
        // "3." keeps the 3 and emits the dot separately.
        let three = toks.iter().find(|t| t.text == "3").unwrap();
        assert_eq!(three.kind, TokenKind::Number);
    }

    #[test]
    fn spans_are_byte_accurate() {
        let text = "高2米";
        let toks = tokenize(text);
        for t in &toks {
            if t.kind != TokenKind::Word {
                assert_eq!(&text[t.start..t.end], t.text);
            }
        }
    }

    #[test]
    fn lowercases_latin() {
        assert_eq!(words("KM and Km"), vec!["km", "and", "km"]);
    }

    #[test]
    fn symbols_are_single_tokens() {
        let toks = tokenize("m/s");
        let kinds: Vec<TokenKind> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(kinds, vec![TokenKind::Word, TokenKind::Symbol, TokenKind::Word]);
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   ").is_empty());
    }

    #[test]
    fn context_words_match_tokenize_filtering() {
        let mut arena = String::new();
        let mut spans = Vec::new();
        for text in [
            "LeBron身高2.06米",
            "小王有150千克农药 weighing 150 kg",
            "it weighs 5. Then more.",
            "m/s and KM² plus 3.14159 radians",
            "",
            "   ",
            "١٢٣ Straße weiß 3万米", // non-ASCII digits/letters, CJK multiplier
        ] {
            let expected: Vec<String> = tokenize(text)
                .into_iter()
                .filter(|t| matches!(t.kind, TokenKind::Word | TokenKind::Cjk))
                .map(|t| t.text)
                .collect();
            context_words_into(text, &mut arena, &mut spans);
            let got: Vec<&str> = spans.iter().map(|&(s, e)| &arena[s..e]).collect();
            assert_eq!(got, expected, "text = {text:?}");
        }
    }
}
