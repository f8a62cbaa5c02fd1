//! The trainable equation generator: TinyLM's Seq2Seq substitute (§V-B4).
//!
//! The generator learns three things from training problems:
//!
//! * a **unit vocabulary** (surface form → unit code) — without it, test
//!   problems with unseen unit spellings cannot even be segmented;
//! * **skeleton → equation templates** — the problem text with quantities
//!   abstracted, mapped to the canonical solution equation and the
//!   canonical unit per slot (majority-voted from unaugmented examples);
//! * a **unit normalizer** — (from unit, to unit) → factor pairs, learned
//!   from the conversion steps of augmented training problems (and, for
//!   DimPerc, pre-seeded from DimEval unit-conversion items — this is
//!   exactly the early-training advantage Fig. 7 shows).
//!
//! Decoding emits the equation token-by-token with a per-token corruption
//! rate that decays with training; digit tokenization produces longer
//! sequences and therefore more corruption — the mechanism behind the
//! paper's negative equation-tokenization result (Fig. 7).

use dim_embed::tokenize::is_cjk;
use dim_mwp::{detokenize, tokenize_equation, EqTokenization, MwpProblem, Node, Op, Prediction};
use dimlink::scan_numbers;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;

const Q_MARK: &str = "⟨Q⟩";
const U_MARK: &str = "⟨U⟩";

/// One learned template.
#[derive(Debug, Clone)]
struct TemplateEntry {
    /// Canonical (conversion-stripped) solution equation.
    equation: Node,
    /// Per-slot votes for the canonical unit code ("" = unitless).
    slot_votes: Vec<HashMap<String, usize>>,
    /// Votes for the canonical answer-unit code.
    answer_votes: HashMap<String, usize>,
}

impl TemplateEntry {
    fn canonical_slot(&self, i: usize) -> Option<&str> {
        self.slot_votes
            .get(i)?
            .iter()
            .max_by_key(|(_, v)| **v)
            .map(|(k, _)| k.as_str())
            .filter(|s| !s.is_empty())
    }

    fn canonical_answer(&self) -> Option<&str> {
        self.answer_votes
            .iter()
            .max_by_key(|(_, v)| **v)
            .map(|(k, _)| k.as_str())
            .filter(|s| !s.is_empty())
    }
}

/// The trainable equation generator.
#[derive(Debug, Clone, Default)]
pub struct EquationGenerator {
    /// Learned surface → unit-code vocabulary.
    unit_codes: HashMap<String, String>,
    /// Learned skeleton → template memory.
    templates: HashMap<String, TemplateEntry>,
    /// Learned conversion pairs: (from code, to code) → factor.
    normalizer: HashMap<(String, String), f64>,
    /// Training examples seen (template memory growth).
    examples: usize,
    /// Total structured-output sequences the decoder has been trained on —
    /// MWP equations here, plus CoT targets from DimEval fine-tuning
    /// (drives the decoding-noise decay).
    maturity: usize,
}

impl EquationGenerator {
    /// An untrained generator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of training examples consumed.
    pub fn examples(&self) -> usize {
        self.examples
    }

    /// Number of learned conversion pairs.
    pub fn known_pairs(&self) -> usize {
        self.normalizer.len()
    }

    /// Seeds a conversion pair (`value[from] × β = value[to]`), e.g. from a
    /// DimEval unit-conversion item. Also records the inverse.
    pub fn seed_conversion(&mut self, from_code: &str, to_code: &str, beta: f64) {
        self.normalizer.insert((from_code.to_string(), to_code.to_string()), beta);
        if beta != 0.0 {
            self.normalizer.insert((to_code.to_string(), from_code.to_string()), 1.0 / beta);
        }
    }

    /// Seeds a unit surface form.
    pub fn seed_surface(&mut self, surface: &str, code: &str) {
        if !surface.is_empty() {
            self.unit_codes.insert(surface.to_string(), code.to_string());
        }
    }

    /// Credits the decoder with `n` structured-output training sequences
    /// that are not MWP equations (the CoT targets of DimEval fine-tuning):
    /// the decoder matures without any template being learned.
    pub fn pretrain_decoder(&mut self, n: usize) {
        self.maturity += n;
    }

    /// Consumes one training problem (one "step" of fine-tuning).
    pub fn train_one(&mut self, p: &MwpProblem) {
        self.examples += 1;
        self.maturity += 1;
        for q in &p.quantities {
            if let Some(code) = &q.unit_code {
                self.seed_surface(&q.surface, code);
            }
        }
        if let Some(code) = &p.answer_unit_code {
            self.seed_surface(&p.answer_unit_surface, code);
        }
        let skeleton = seg_skeleton(p);
        let stripped = strip_conversions(p);
        let converted: Vec<usize> = p.conversions.iter().map(|(i, _)| *i).collect();
        let entry = self.templates.entry(skeleton).or_insert_with(|| TemplateEntry {
            equation: stripped.clone(),
            slot_votes: vec![HashMap::new(); p.quantities.len()],
            answer_votes: HashMap::new(),
        });
        // Canonical units are voted only by unconverted slots.
        for (i, q) in p.quantities.iter().enumerate() {
            if converted.contains(&i) {
                continue;
            }
            let code = q.unit_code.clone().unwrap_or_default();
            if let Some(votes) = entry.slot_votes.get_mut(i) {
                *votes.entry(code).or_insert(0) += 1;
            }
        }
        if (p.answer_conversion - 1.0).abs() < 1e-12 {
            let code = p.answer_unit_code.clone().unwrap_or_default();
            *entry.answer_votes.entry(code).or_insert(0) += 1;
        }
        // Learn conversion pairs relative to the canonical slot unit.
        let pairs: Vec<(String, String, f64)> = p
            .conversions
            .iter()
            .filter_map(|(i, ratio)| {
                let written = p.quantities[*i].unit_code.clone()?;
                let canonical = entry.canonical_slot(*i)?.to_string();
                Some((written, canonical, *ratio))
            })
            .collect();
        for (from, to, beta) in pairs {
            self.seed_conversion(&from, &to, beta);
        }
        // Answer conversion pair: canonical answer code → written code.
        if (p.answer_conversion - 1.0).abs() > 1e-12 {
            let skeleton = seg_skeleton(p);
            let canonical = self
                .templates
                .get(&skeleton)
                .and_then(|e| e.canonical_answer().map(str::to_string));
            if let (Some(canonical), Some(written)) = (canonical, p.answer_unit_code.clone()) {
                self.seed_conversion(&canonical, &written, p.answer_conversion);
            }
        }
    }

    /// The decoding noise: per-token corruption probability, decaying with
    /// training (an untrained decoder is unreliable even with the right
    /// template).
    pub fn token_error(&self) -> f64 {
        // The 0.006 floor is the irreducible per-token decoding error of
        // the simulated 7B decoder; it keeps digit tokenization's longer
        // sequences measurably worse even late in training (Fig. 7).
        (0.05 / (1.0 + self.maturity as f64 / 150.0)).max(0.006)
    }

    /// Solves a problem from its raw text.
    pub fn solve(
        &self,
        text: &str,
        strategy: EqTokenization,
        rng: &mut StdRng,
    ) -> Prediction {
        let Some(parsed) = self.parse(text) else { return Prediction::None };
        let Some(entry) = self.templates.get(&parsed.skeleton) else {
            return Prediction::None;
        };
        if parsed.quantities.len() != entry.slot_votes.len() {
            return Prediction::None;
        }
        let mut values = Vec::with_capacity(parsed.quantities.len());
        for (i, (value, code, surface)) in parsed.quantities.iter().enumerate() {
            let mut v = if surface == "%" { *value / 100.0 } else { *value };
            if let (Some(c), Some(t)) = (code.as_deref(), entry.canonical_slot(i)) {
                if c != t {
                    if let Some(r) = self.normalizer.get(&(c.to_string(), t.to_string())) {
                        v *= r;
                    }
                    // Unknown pair: the conversion is silently skipped and
                    // the equation comes out wrong — the failure the
                    // augmentation exists to fix.
                }
            }
            values.push(v);
        }
        let mut node = entry.equation.map_q(&mut |i| {
            Node::Const(*values.get(i).unwrap_or(&f64::NAN))
        });
        if let (Some(asked), Some(canonical)) =
            (parsed.answer_code.as_deref(), entry.canonical_answer())
        {
            if asked != canonical {
                if let Some(r) =
                    self.normalizer.get(&(canonical.to_string(), asked.to_string()))
                {
                    node = Node::bin(Op::Mul, node, Node::Const(*r));
                }
            }
        }
        let rendered = node.render(&[]);
        Prediction::Equation(self.corrupt(&rendered, strategy, rng))
    }

    /// Applies decoding noise under the given tokenization strategy.
    fn corrupt(&self, equation: &str, strategy: EqTokenization, rng: &mut StdRng) -> String {
        let eps = self.token_error();
        let mut tokens = tokenize_equation(equation, strategy);
        for tok in &mut tokens {
            if rng.gen_bool(eps) {
                // Corrupt one digit of the token, if any.
                let chars: Vec<char> = tok.chars().collect();
                if let Some(pos) = chars.iter().position(|c| c.is_ascii_digit()) {
                    let d = chars[pos].to_digit(10).expect("digit");
                    let new = char::from_digit((d + 1) % 10, 10).expect("digit");
                    let mut c2 = chars.clone();
                    c2[pos] = new;
                    *tok = c2.into_iter().collect();
                }
            }
        }
        detokenize(&tokens)
    }

    /// Parses raw problem text with the learned vocabulary.
    fn parse(&self, text: &str) -> Option<ParsedProblem> {
        // MWP values are written in digits; Chinese numeral characters in
        // the text (一辆, 两队, …) are articles, not quantities.
        let numbers: Vec<_> = scan_numbers(text)
            .into_iter()
            .filter(|n| text[n.start..].starts_with(|c: char| c.is_ascii_digit()))
            .collect();
        if numbers.is_empty() {
            return None;
        }
        let mut skeleton = String::new();
        let mut quantities = Vec::new();
        let mut cursor = 0usize;
        for num in &numbers {
            if num.start < cursor {
                continue; // overlapping (e.g. 万-suffixed) — already consumed
            }
            skeleton.push_str(&text[cursor..num.start]);
            let mut unit_start = num.end;
            if text[unit_start..].starts_with(' ') {
                unit_start += 1;
            }
            let (surface, code) = self.longest_known_surface(&text[unit_start..]);
            skeleton.push_str(Q_MARK);
            let value_text = &text[num.start..num.end];
            let _ = value_text;
            quantities.push((num.value, code, surface.clone()));
            cursor = unit_start + surface.len();
            if surface.is_empty() {
                cursor = num.end;
            }
        }
        skeleton.push_str(&text[cursor..]);
        // Mask the answer unit after the last 多少 (or "how many").
        let mut answer_code = None;
        if let Some(pos) = skeleton.rfind("多少") {
            let after = pos + "多少".len();
            let tail = &skeleton[after..];
            let mut best: Option<(usize, String, String)> = None;
            let mut offset = 0usize;
            for (i, c) in tail.char_indices().take(6) {
                let _ = c;
                let (surface, code) = self.longest_known_surface(&tail[i..]);
                if !surface.is_empty() {
                    best = Some((i, surface, code.unwrap_or_default()));
                    break;
                }
                offset = i;
            }
            let _ = offset;
            if let Some((i, surface, code)) = best {
                let abs = after + i;
                skeleton.replace_range(abs..abs + surface.len(), U_MARK);
                if !code.is_empty() {
                    answer_code = Some(code);
                }
            }
        }
        Some(ParsedProblem { skeleton, quantities, answer_code })
    }

    /// Longest learned unit surface at the start of `rest` ("" when none).
    fn longest_known_surface(&self, rest: &str) -> (String, Option<String>) {
        match rest.chars().next() {
            Some(c) if is_cjk(c) => {
                let chars: Vec<char> = rest.chars().take(4).collect();
                for n in (1..=chars.len()).rev() {
                    let cand: String = chars[..n].iter().collect();
                    if let Some(code) = self.unit_codes.get(&cand) {
                        return (cand, Some(code.clone()));
                    }
                }
                (String::new(), None)
            }
            Some(c) if c.is_ascii_alphabetic() || "°µΩ%‰".contains(c) => {
                let run_end = rest
                    .char_indices()
                    .find(|&(_, ch)| {
                        !(ch.is_ascii_alphanumeric() || "°µΩ%‰/·*^²³⁻¹".contains(ch))
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(rest.len());
                let run = &rest[..run_end];
                match self.unit_codes.get(run) {
                    Some(code) if !run.is_empty() => (run.to_string(), Some(code.clone())),
                    _ => (String::new(), None),
                }
            }
            _ => (String::new(), None),
        }
    }
}

struct ParsedProblem {
    skeleton: String,
    /// (value, unit code if known, surface as written).
    quantities: Vec<(f64, Option<String>, String)>,
    answer_code: Option<String>,
}

/// Skeleton of a *training* problem from its segments (teacher forcing).
fn seg_skeleton(p: &MwpProblem) -> String {
    use dim_mwp::Seg;
    let mut out = String::new();
    for seg in &p.segs {
        match seg {
            Seg::Text(t) => out.push_str(t),
            Seg::Qty(_) => out.push_str(Q_MARK),
            Seg::AnswerUnit => out.push_str(U_MARK),
        }
    }
    out
}

/// Removes the conversion wrappers recorded in the problem's metadata,
/// recovering the canonical equation.
fn strip_conversions(p: &MwpProblem) -> Node {
    let mut node = p.equation.clone();
    // Strip the root answer conversion first.
    if (p.answer_conversion - 1.0).abs() > 1e-12 {
        node = match node {
            Node::Bin(Op::Mul, inner, c)
                if matches!(*c, Node::Const(v) if close(v, p.answer_conversion)) =>
            {
                *inner
            }
            Node::Bin(Op::Div, inner, c)
                if matches!(*c, Node::Const(v) if close(1.0 / v, p.answer_conversion)) =>
            {
                *inner
            }
            other => other,
        };
    }
    strip_q_wrappers(&node, &p.conversions)
}

fn close(a: f64, b: f64) -> bool {
    (a / b - 1.0).abs() < 1e-9
}

fn strip_q_wrappers(node: &Node, conversions: &[(usize, f64)]) -> Node {
    match node {
        Node::Bin(Op::Mul, l, r) => {
            if let (Node::Q(i), Node::Const(c)) = (l.as_ref(), r.as_ref()) {
                if conversions.iter().any(|(qi, ratio)| qi == i && close(*c, *ratio)) {
                    return Node::Q(*i);
                }
            }
            Node::bin(
                Op::Mul,
                strip_q_wrappers(l, conversions),
                strip_q_wrappers(r, conversions),
            )
        }
        Node::Bin(Op::Div, l, r) => {
            if let (Node::Q(i), Node::Const(c)) = (l.as_ref(), r.as_ref()) {
                if conversions.iter().any(|(qi, ratio)| qi == i && close(1.0 / *c, *ratio)) {
                    return Node::Q(*i);
                }
            }
            Node::bin(
                Op::Div,
                strip_q_wrappers(l, conversions),
                strip_q_wrappers(r, conversions),
            )
        }
        Node::Bin(op, l, r) => Node::bin(
            *op,
            strip_q_wrappers(l, conversions),
            strip_q_wrappers(r, conversions),
        ),
        Node::Q(i) => Node::Q(*i),
        Node::Const(c) => Node::Const(*c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_mwp::{generate, prediction_correct, Augmenter, GenConfig, Source};
    use dimkb::degrade::{self, Policy};
    use dimkb::DimUnitKb;
    use rand::SeedableRng;

    #[test]
    fn learns_n_mwp_templates_exactly() {
        let train = generate(Source::Math23k, &GenConfig { count: 300, seed: 1 });
        let test = generate(Source::Math23k, &GenConfig { count: 80, seed: 2 });
        let mut g = EquationGenerator::new();
        for p in &train {
            g.train_one(p);
        }
        let mut rng = StdRng::seed_from_u64(3);
        let correct = test
            .iter()
            .filter(|p| {
                prediction_correct(p, &g.solve(&p.text(), EqTokenization::Regular, &mut rng))
            })
            .count();
        assert!(correct as f64 / test.len() as f64 > 0.8, "{correct}/{}", test.len());
    }

    #[test]
    fn untrained_generator_fails() {
        let test = generate(Source::Math23k, &GenConfig { count: 20, seed: 4 });
        let g = EquationGenerator::new();
        let mut rng = StdRng::seed_from_u64(5);
        for p in &test {
            assert_eq!(
                g.solve(&p.text(), EqTokenization::Regular, &mut rng),
                Prediction::None
            );
        }
    }

    #[test]
    fn qmwp_needs_conversion_pairs() {
        let kb = DimUnitKb::shared();
        let n_train = generate(Source::Math23k, &GenConfig { count: 300, seed: 6 });
        let n_test = generate(Source::Math23k, &GenConfig { count: 120, seed: 7 });
        let q_test = Augmenter::new(&kb, 7).to_qmwp(&n_test);
        // Model A: trained on N-MWP only.
        let mut a = EquationGenerator::new();
        for p in &n_train {
            a.train_one(p);
        }
        // Model B: trained on N-MWP plus augmented variants (η = 1).
        let mut b = EquationGenerator::new();
        let aug_train = degrade::complete(Augmenter::new(&kb, 8).augment_dataset_with(
            &n_train,
            1.0,
            dim_par::Parallelism::SEQUENTIAL,
            Policy::CLASSIC,
        ));
        for p in &aug_train {
            b.train_one(p);
        }
        let acc = |g: &EquationGenerator, set: &[dim_mwp::MwpProblem], seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            set.iter()
                .filter(|p| {
                    prediction_correct(p, &g.solve(&p.text(), EqTokenization::Regular, &mut rng))
                })
                .count() as f64
                / set.len() as f64
        };
        let a_q = acc(&a, &q_test, 9);
        let b_q = acc(&b, &q_test, 9);
        assert!(
            b_q > a_q + 0.1,
            "augmentation must lift Q-MWP accuracy: {a_q} -> {b_q}"
        );
        // Both remain strong on N-MWP.
        assert!(acc(&b, &n_test, 10) > 0.75);
    }

    #[test]
    fn digit_tokenization_hurts() {
        let train = generate(Source::Ape210k, &GenConfig { count: 120, seed: 11 });
        let test = generate(Source::Ape210k, &GenConfig { count: 200, seed: 12 });
        let mut g = EquationGenerator::new();
        for p in &train {
            g.train_one(p);
        }
        let acc = |strategy, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            test.iter()
                .filter(|p| prediction_correct(p, &g.solve(&p.text(), strategy, &mut rng)))
                .count() as f64
                / test.len() as f64
        };
        // Average over seeds to stabilize the stochastic corruption.
        let reg: f64 = (0..5).map(|s| acc(EqTokenization::Regular, s)).sum::<f64>() / 5.0;
        let dig: f64 = (0..5).map(|s| acc(EqTokenization::Digit, s)).sum::<f64>() / 5.0;
        assert!(dig < reg, "digit tokenization must hurt: {dig} vs {reg}");
    }

    #[test]
    fn strip_conversions_recovers_canonical() {
        let kb = DimUnitKb::shared();
        let base = generate(Source::Math23k, &GenConfig { count: 40, seed: 13 });
        let mut aug = Augmenter::new(&kb, 14);
        let mut checked = 0;
        for p in &base {
            if let Some(a) = aug.augment(p, dim_mwp::AugmentMethod::ContextDimension) {
                let stripped = strip_conversions(&a);
                assert_eq!(stripped, p.equation, "stripping must recover the base equation");
                checked += 1;
            }
        }
        assert!(checked > 10);
    }

    #[test]
    fn token_error_decays_with_training() {
        let mut g = EquationGenerator::new();
        let e0 = g.token_error();
        for p in &generate(Source::Math23k, &GenConfig { count: 200, seed: 15 }) {
            g.train_one(p);
        }
        assert!(g.token_error() < e0 / 1.5);
    }

    #[test]
    fn seeded_pairs_are_symmetric() {
        let mut g = EquationGenerator::new();
        g.seed_conversion("KiloGM", "GM", 1000.0);
        assert_eq!(g.normalizer[&("GM".into(), "KiloGM".into())], 0.001);
        assert_eq!(g.known_pairs(), 2);
    }
}
