//! Levenshtein distance and the normalized string similarity used as
//! `Pr(u|m)` in unit linking (§III-B1 of the paper).
//!
//! Two exact implementations of one distance (by `char`):
//!
//! - [`distance`] / [`distance_with`]: the O(|a|·|b|) dynamic programme.
//!   It has no length limit and is the oracle the kernel is tested
//!   against; the reference linker scores with it.
//! - [`PatternMasks`]: Myers' bit-vector algorithm (Myers 1999, JACM
//!   46(3)) in Hyyrö's global-distance form (Hyyrö 2003). A pattern of at
//!   most [`MAX_PATTERN`] chars is loaded once as per-char match masks;
//!   each text is then one pass of a few word operations per char. The
//!   linker's fuzzy scan loads the mention once per query and scores every
//!   key that survives its prefilter this way; a longer mention falls back
//!   to [`distance_with`].

/// The longest pattern [`PatternMasks`] holds: one bit per char of a `u64`.
pub const MAX_PATTERN: usize = 64;

/// Levenshtein edit distance between two strings (by `char`).
pub fn distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b_len = b.chars().count();
    let mut prev = Vec::new();
    let mut cur = Vec::new();
    distance_with(&a, b, b_len, &mut prev, &mut cur)
}

/// [`distance`] over pre-split `a` chars and caller-owned DP rows, so hot
/// loops (the linker's fuzzy scan, for mentions longer than
/// [`MAX_PATTERN`]) run the O(|a|·|b|) DP with zero allocation per call.
/// `b_len` must be `b.chars().count()` — callers in the linker already know
/// it from the length-bucketed index.
pub fn distance_with(
    a: &[char],
    b: &str,
    b_len: usize,
    prev: &mut Vec<usize>,
    cur: &mut Vec<usize>,
) -> usize {
    debug_assert_eq!(b_len, b.chars().count());
    if a.is_empty() {
        return b_len;
    }
    if b_len == 0 {
        return a.len();
    }
    // DP rows have fixed length b_len + 1; every index below is j or
    // j + 1 with j < b_len, or the constant 0 / b_len endpoints.
    prev.clear();
    prev.extend(0..=b_len);
    cur.clear();
    cur.resize(b_len + 1, 0);
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1; // lint:allow(no_panic, rows are b_len + 1 long, never empty)
        for (j, cb) in b.chars().enumerate() {
            let cost = usize::from(ca != cb);
            // lint:allow(no_panic, j < b_len from enumerate over b's chars, so j + 1 <= b_len < row length)
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(prev, cur);
    }
    prev[b_len] // lint:allow(no_panic, rows are b_len + 1 long)
}

/// Normalized similarity in `[0, 1]`: `1 − dist / max(|a|, |b|)`.
/// Equal strings score 1; completely different strings score 0.
pub fn similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - distance(a, b) as f64 / max_len as f64
}

/// The per-char match masks of a pattern of at most [`MAX_PATTERN`] chars:
/// bit `i` of a char's mask is set when the pattern's `i`-th char is that
/// char. ASCII chars index a 128-entry table, and any other char sits in a
/// short list (a mention has few distinct non-ASCII chars). Loading a
/// pattern clears only the table entries the previous one set, so a value
/// reused across queries makes no allocation once its list has grown.
#[derive(Debug)]
pub struct PatternMasks {
    /// Masks of the ASCII chars, by code point.
    ascii: [u64; 128],
    /// Bit `c` is set when `ascii[c]` may be nonzero.
    ascii_set: u128,
    /// Masks of the pattern's other chars, one entry per distinct char.
    other: Vec<(char, u64)>,
    /// Chars in the loaded pattern.
    len: usize,
}

impl Default for PatternMasks {
    fn default() -> Self {
        PatternMasks {
            ascii: [0; 128],
            ascii_set: 0,
            other: Vec::new(),
            len: 0,
        }
    }
}

impl PatternMasks {
    /// Loads `pattern`'s masks in place of the previous pattern's. Returns
    /// `false`, with the empty pattern loaded, when `pattern` is longer
    /// than [`MAX_PATTERN`].
    pub fn load(&mut self, pattern: &[char]) -> bool {
        while self.ascii_set != 0 {
            if let Some(mask) = self.ascii.get_mut(self.ascii_set.trailing_zeros() as usize) {
                *mask = 0;
            }
            self.ascii_set &= self.ascii_set - 1;
        }
        self.other.clear();
        self.len = 0;
        if pattern.len() > MAX_PATTERN {
            return false;
        }
        for (i, &c) in pattern.iter().enumerate() {
            let bit = 1u64 << i;
            if let Some(mask) = self.ascii.get_mut(c as usize) {
                *mask |= bit;
                self.ascii_set |= 1u128 << (c as u32);
            } else if let Some((_, mask)) = self.other.iter_mut().find(|(o, _)| *o == c) {
                *mask |= bit;
            } else {
                self.other.push((c, bit));
            }
        }
        self.len = pattern.len();
        true
    }

    /// The match mask of `c`: zero when the pattern does not contain it.
    fn mask(&self, c: char) -> u64 {
        match self.ascii.get(c as usize) {
            Some(&mask) => mask,
            None => self
                .other
                .iter()
                .find(|&&(o, _)| o == c)
                .map_or(0, |&(_, mask)| mask),
        }
    }

    /// Levenshtein distance (by `char`) between the loaded pattern and
    /// `text`: exactly [`distance`]`(pattern, text)`, in one pass over
    /// `text`'s chars.
    ///
    /// Column `j` of the DP matrix is kept as two bit-vectors of vertical
    /// deltas, `pv` (+1) and `mv` (−1), one bit per pattern row; the score
    /// tracks the bottom cell. Row 0 is `D[0][j] = j`, so every column's
    /// horizontal delta enters at +1 (the `| 1`). Bits above the pattern's
    /// length hold garbage that only carries upwards and is never read.
    pub fn distance(&self, text: &str) -> usize {
        let m = self.len;
        if m == 0 {
            return text.chars().count();
        }
        let last = 1u64 << (m - 1);
        let mut pv = !0u64;
        let mut mv = 0u64;
        let mut score = m;
        for c in text.chars() {
            let eq = self.mask(c);
            let xv = eq | mv;
            let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
            let ph = mv | !(xh | pv);
            let mh = pv & xh;
            if ph & last != 0 {
                score += 1;
            } else if mh & last != 0 {
                score -= 1;
            }
            let ph = (ph << 1) | 1;
            let mh = mh << 1;
            pv = mh | !(xv | ph);
            mv = ph & xv;
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestCaseError;

    #[test]
    fn classic_distances() {
        assert_eq!(distance("kitten", "sitting"), 3);
        assert_eq!(distance("", "abc"), 3);
        assert_eq!(distance("abc", ""), 3);
        assert_eq!(distance("same", "same"), 0);
    }

    #[test]
    fn unicode_is_by_char_not_byte() {
        assert_eq!(distance("千米", "厘米"), 1);
        assert_eq!(distance("米", "米"), 0);
    }

    #[test]
    fn similarity_bounds() {
        assert_eq!(similarity("", ""), 1.0);
        assert_eq!(similarity("abc", "abc"), 1.0);
        assert_eq!(similarity("abc", "xyz"), 0.0);
        let s = similarity("meter", "metre");
        assert!(s > 0.5 && s < 1.0);
    }

    #[test]
    fn similarity_is_symmetric() {
        for (a, b) in [("km/h", "kmh"), ("dyn/cm", "dyne/cm"), ("斤", "公斤")] {
            assert!((similarity(a, b) - similarity(b, a)).abs() < 1e-12);
        }
    }

    /// The kernel's distance from `pattern` to `text`, through one reused
    /// mask table; `None` when the pattern is too long to load.
    fn kernel(masks: &mut PatternMasks, pattern: &str, text: &str) -> Option<usize> {
        let chars: Vec<char> = pattern.chars().collect();
        masks.load(&chars).then(|| masks.distance(text))
    }

    #[test]
    fn kernel_matches_fixed_cases() {
        let mut masks = PatternMasks::default();
        let run = "a".repeat(64);
        for (a, b, want) in [
            ("kitten", "sitting", 3),
            ("sitting", "kitten", 3),
            ("", "", 0),
            ("", "abc", 3),
            ("abc", "", 3),
            ("千米", "厘米", 1),
            ("covered", "cover", 2),
            ("aaaa", "aaaaaaa", 3),
            ("aaaaaaa", "aaaa", 3),
            ("aaaa", "bbbb", 4),
            (run.as_str(), run.as_str(), 0),
            (run.as_str(), "a", 63),
            (run.as_str(), "", 64),
            ("a", run.as_str(), 63),
        ] {
            assert_eq!(kernel(&mut masks, a, b), Some(want), "{a:?} → {b:?}");
            assert_eq!(distance(a, b), want, "{a:?} → {b:?}");
        }
        let long = "a".repeat(MAX_PATTERN + 1);
        assert_eq!(kernel(&mut masks, &long, "a"), None);
        assert_eq!(
            masks.distance("abc"),
            3,
            "a rejected pattern leaves the empty one"
        );
    }

    /// Code-point ranges the kernel is checked over: ASCII with its
    /// control chars, repeat-heavy two- and four-letter alphabets, a CJK
    /// run, astral emoji, and a small mix of 1- to 4-byte chars.
    const ALPHABETS: [&[(u32, u32)]; 7] = [
        &[(0x00, 0x7F)],
        &[(0x61, 0x62)],
        &[(0x61, 0x64)],
        &[(0x4E00, 0x4E0F)],
        &[(0x1F600, 0x1F607)],
        &[
            (0x61, 0x62),
            (0xE9, 0xE9),
            (0x7C73, 0x7C73),
            (0x1F600, 0x1F600),
        ],
        &[
            (0x61, 0x7A),
            (0x3000, 0x303F),
            (0x4E00, 0x9FA5),
            (0x1F600, 0x1F64F),
        ],
    ];

    /// The string of `picks` drawn from alphabet `alpha`.
    fn text(alpha: usize, picks: &[u32]) -> String {
        let ranges = ALPHABETS[alpha % ALPHABETS.len()];
        let size: u32 = ranges.iter().map(|(lo, hi)| hi - lo + 1).sum();
        picks
            .iter()
            .map(|&pick| {
                let mut pick = pick % size;
                for &(lo, hi) in ranges {
                    if pick <= hi - lo {
                        return char::from_u32(lo + pick)
                            .expect("alphabets hold only scalar values");
                    }
                    pick -= hi - lo + 1;
                }
                unreachable!("pick < size")
            })
            .collect()
    }

    /// Checks the kernel against the DP both ways round, with each side as
    /// the pattern when it fits.
    fn check_pair(a: &str, b: &str) -> Result<(), TestCaseError> {
        let mut masks = PatternMasks::default();
        for (p, t) in [(a, b), (b, a)] {
            let want = distance(p, t);
            match kernel(&mut masks, p, t) {
                Some(got) => prop_assert_eq!((p, t, got), (p, t, want)),
                None => prop_assert!(p.chars().count() > MAX_PATTERN),
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// Both sides 0–64 chars; half the cases draw them from one
        /// alphabet, the rest from two.
        #[test]
        fn kernel_equals_dp_up_to_64_chars(
            alphas in (0usize..ALPHABETS.len(), 0usize..2 * ALPHABETS.len()),
            a in prop::collection::vec(0u32..u32::MAX, 0..MAX_PATTERN + 1),
            b in prop::collection::vec(0u32..u32::MAX, 0..MAX_PATTERN + 1),
        ) {
            let b_alpha = if alphas.1 < ALPHABETS.len() { alphas.1 } else { alphas.0 };
            check_pair(&text(alphas.0, &a), &text(b_alpha, &b))?;
        }

        /// Both sides at the word's edge: 63, 64 or 65 chars, from one
        /// alphabet so that long runs of matches and carries occur.
        #[test]
        fn kernel_equals_dp_at_the_word_boundary(
            alpha in 0usize..ALPHABETS.len(),
            a in prop::collection::vec(0u32..u32::MAX, MAX_PATTERN - 1..MAX_PATTERN + 2),
            b in prop::collection::vec(0u32..u32::MAX, MAX_PATTERN - 1..MAX_PATTERN + 2),
        ) {
            check_pair(&text(alpha, &a), &text(alpha, &b))?;
        }
    }
}
