//! Equation tokenization (§V-B3).
//!
//! The paper investigates digit tokenization (after GenBERT): a word-piece
//! of an equation `##e1…##ek` with `e ∈ D ∪ Op` is split into single-symbol
//! pieces `##e1, …, ##ek`. The ablation (Fig. 7) finds it *hurts* for
//! larger models; both strategies are provided so the ablation can run.

/// Equation tokenization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EqTokenization {
    /// Regular tokenization: numbers stay whole (`150`, `20%`).
    Regular,
    /// Digit tokenization: every digit and operator is its own piece.
    Digit,
}

/// Tokenizes an equation string under the given strategy.
pub fn tokenize_equation(eq: &str, strategy: EqTokenization) -> Vec<String> {
    match strategy {
        EqTokenization::Digit => eq
            .chars()
            .filter(|c| !c.is_whitespace())
            .map(|c| c.to_string())
            .collect(),
        EqTokenization::Regular => {
            let mut out = Vec::new();
            let mut num = String::new();
            for c in eq.chars() {
                if c.is_whitespace() {
                    continue;
                }
                if c.is_ascii_digit() || c == '.' {
                    num.push(c);
                } else {
                    if !num.is_empty() {
                        out.push(std::mem::take(&mut num));
                    }
                    out.push(c.to_string());
                }
            }
            if !num.is_empty() {
                out.push(num);
            }
            out
        }
    }
}

/// Reassembles tokens into an equation string (inverse of tokenization).
pub fn detokenize(tokens: &[String]) -> String {
    tokens.concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_keeps_numbers_whole() {
        let toks = tokenize_equation("x=150*20%/5%-150", EqTokenization::Regular);
        assert_eq!(toks, vec!["x", "=", "150", "*", "20", "%", "/", "5", "%", "-", "150"]);
    }

    #[test]
    fn digit_splits_everything() {
        let toks = tokenize_equation("x=15*2", EqTokenization::Digit);
        assert_eq!(toks, vec!["x", "=", "1", "5", "*", "2"]);
    }

    #[test]
    fn roundtrip_via_detokenize() {
        let eq = "x=(1+2)*3.5";
        for s in [EqTokenization::Regular, EqTokenization::Digit] {
            assert_eq!(detokenize(&tokenize_equation(eq, s)), eq);
        }
    }

    #[test]
    fn digit_produces_longer_sequences() {
        let eq = "x=1500*23%";
        let r = tokenize_equation(eq, EqTokenization::Regular).len();
        let d = tokenize_equation(eq, EqTokenization::Digit).len();
        assert!(d > r);
    }
}
