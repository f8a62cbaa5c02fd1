//! Structured math-word-problem representation.
//!
//! Problems are stored as *segments* (literal text and quantity slots) plus
//! an equation tree over the quantities. Keeping the structure (instead of
//! a flat string) is what makes the paper's quantity-oriented augmentation
//! (§V-B2) mechanical: substituting a unit rewrites one quantity and wraps
//! the equation with the corresponding conversion factor.

use crate::equation::{fmt_number, Node};

/// Which dataset style a problem was generated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// Math23k-style (simpler, fewer operations).
    Math23k,
    /// Ape210k-style (larger, more multi-step).
    Ape210k,
}

impl Source {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Source::Math23k => "Math23k",
            Source::Ape210k => "Ape210k",
        }
    }
}

/// A quantity slot of a problem.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemQuantity {
    /// The written numeric value.
    pub value: f64,
    /// KB unit code; `None` for bare counts.
    pub unit_code: Option<String>,
    /// The unit surface form as written (`千克`, `kg`, `%`, empty for bare).
    pub surface: String,
    /// True when the unit is the percent sign (value is divided by 100 in
    /// arithmetic).
    pub is_percent: bool,
}

impl ProblemQuantity {
    /// The arithmetic value used in equation evaluation.
    pub fn arith_value(&self) -> f64 {
        if self.is_percent {
            self.value / 100.0
        } else {
            self.value
        }
    }

    /// The literal rendering inside equations (`150`, `20%`).
    pub fn equation_literal(&self) -> String {
        if self.is_percent {
            format!("{}%", fmt_number(self.value))
        } else {
            fmt_number(self.value)
        }
    }

    /// The rendering inside problem text (`150千克`, `2.5 kg`).
    pub fn text_rendering(&self) -> String {
        let v = fmt_number(self.value);
        if self.surface.is_empty() {
            v
        } else if self.surface.chars().next().is_some_and(|c| c.is_ascii_alphabetic()) {
            format!("{v} {}", self.surface)
        } else {
            format!("{v}{}", self.surface)
        }
    }
}

/// One segment of problem text.
#[derive(Debug, Clone, PartialEq)]
pub enum Seg {
    /// Literal text.
    Text(String),
    /// The i-th quantity.
    Qty(usize),
    /// The answer-unit mention in the question ("多少千克" → `千克`).
    AnswerUnit,
}

/// A structured math word problem.
#[derive(Debug, Clone, PartialEq)]
pub struct MwpProblem {
    /// Stable id within its dataset.
    pub id: u64,
    /// Dataset style.
    pub source: Source,
    /// Text segments; the question part starts at `question_seg`.
    pub segs: Vec<Seg>,
    /// Index into `segs` where the question begins.
    pub question_seg: usize,
    /// The quantities.
    pub quantities: Vec<ProblemQuantity>,
    /// The solution equation over quantity indices.
    pub equation: Node,
    /// KB code of the unit the answer is asked in; `None` for bare counts.
    pub answer_unit_code: Option<String>,
    /// Surface form of the answer unit as written in the question.
    pub answer_unit_surface: String,
    /// Unit-conversion steps embedded in the gold equation by augmentation:
    /// `(quantity index, wrap ratio)` — the equation multiplies `Q(i)` by
    /// the ratio to restore the original scale.
    pub conversions: Vec<(usize, f64)>,
    /// Final answer conversion ratio applied at the equation root by
    /// question-based dimension substitution (1.0 when none).
    pub answer_conversion: f64,
}

impl MwpProblem {
    /// Renders the full problem text.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for seg in &self.segs {
            match seg {
                Seg::Text(t) => out.push_str(t),
                Seg::Qty(i) => out.push_str(&self.quantities[*i].text_rendering()),
                Seg::AnswerUnit => out.push_str(&self.answer_unit_surface),
            }
        }
        out
    }

    /// Renders only the context part (before the question).
    pub fn context_text(&self) -> String {
        self.render_range(0, self.question_seg)
    }

    /// Renders only the question part.
    pub fn question_text(&self) -> String {
        self.render_range(self.question_seg, self.segs.len())
    }

    fn render_range(&self, lo: usize, hi: usize) -> String {
        let mut out = String::new();
        for seg in &self.segs[lo..hi] {
            match seg {
                Seg::Text(t) => out.push_str(t),
                Seg::Qty(i) => out.push_str(&self.quantities[*i].text_rendering()),
                Seg::AnswerUnit => out.push_str(&self.answer_unit_surface),
            }
        }
        out
    }

    /// The arithmetic values of the quantities.
    pub fn values(&self) -> Vec<f64> {
        self.quantities.iter().map(ProblemQuantity::arith_value).collect()
    }

    /// The gold numeric answer.
    pub fn answer(&self) -> f64 {
        self.equation.eval(&self.values())
    }

    /// The gold equation string (`x=150*20%/5%-150`).
    pub fn equation_text(&self) -> String {
        let display: Vec<String> =
            self.quantities.iter().map(ProblemQuantity::equation_literal).collect();
        self.equation.render(&display)
    }

    /// Number of operations in the gold equation (Table VI's `#Operations`).
    pub fn op_count(&self) -> usize {
        // Percent literals cost a hidden /100 each time they appear.
        let mut percent_uses = 0usize;
        count_percent_uses(&self.equation, &self.quantities, &mut percent_uses);
        self.equation.op_count() + percent_uses
    }

    /// Distinct unit surface forms appearing in the problem (units of
    /// quantities plus the answer unit).
    pub fn unit_surfaces(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .quantities
            .iter()
            .map(|q| q.surface.as_str())
            .chain(std::iter::once(self.answer_unit_surface.as_str()))
            .filter(|s| !s.is_empty())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Which quantities appear in the question part (rather than context).
    pub fn question_quantities(&self) -> Vec<usize> {
        self.segs[self.question_seg..]
            .iter()
            .filter_map(|s| if let Seg::Qty(i) = s { Some(*i) } else { None })
            .collect()
    }
}

fn count_percent_uses(node: &Node, quantities: &[ProblemQuantity], acc: &mut usize) {
    match node {
        Node::Q(i) => {
            if quantities[*i].is_percent {
                *acc += 1;
            }
        }
        Node::Const(_) => {}
        Node::Bin(_, l, r) => {
            count_percent_uses(l, quantities, acc);
            count_percent_uses(r, quantities, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equation::Op;

    /// The Table V dilution problem, built by hand.
    pub(crate) fn dilution() -> MwpProblem {
        MwpProblem {
            id: 0,
            source: Source::Math23k,
            segs: vec![
                Seg::Text("小王要将".into()),
                Seg::Qty(0),
                Seg::Text("含药量".into()),
                Seg::Qty(1),
                Seg::Text("的农药稀释成含药量".into()),
                Seg::Qty(2),
                Seg::Text("的药水，".into()),
                Seg::Text("需要加水多少".into()),
                Seg::AnswerUnit,
                Seg::Text("？".into()),
            ],
            question_seg: 7,
            quantities: vec![
                ProblemQuantity {
                    value: 150.0,
                    unit_code: Some("KiloGM".into()),
                    surface: "千克".into(),
                    is_percent: false,
                },
                ProblemQuantity {
                    value: 20.0,
                    unit_code: Some("PERCENT".into()),
                    surface: "%".into(),
                    is_percent: true,
                },
                ProblemQuantity {
                    value: 5.0,
                    unit_code: Some("PERCENT".into()),
                    surface: "%".into(),
                    is_percent: true,
                },
            ],
            equation: Node::bin(
                Op::Sub,
                Node::bin(Op::Div, Node::bin(Op::Mul, Node::Q(0), Node::Q(1)), Node::Q(2)),
                Node::Q(0),
            ),
            answer_unit_code: Some("KiloGM".into()),
            answer_unit_surface: "千克".into(),
            conversions: vec![],
            answer_conversion: 1.0,
        }
    }

    #[test]
    fn dilution_matches_table_v() {
        let p = dilution();
        assert_eq!(
            p.text(),
            "小王要将150千克含药量20%的农药稀释成含药量5%的药水，需要加水多少千克？"
        );
        assert!((p.answer() - 450.0).abs() < 1e-9);
        assert_eq!(p.equation_text(), "x=150*20%/5%-150");
    }

    #[test]
    fn calculator_agrees_with_tree() {
        let p = dilution();
        let via_text = crate::equation::calculate(&p.equation_text()).unwrap();
        assert!((via_text - p.answer()).abs() < 1e-9);
    }

    #[test]
    fn context_question_split() {
        let p = dilution();
        assert!(p.context_text().ends_with("药水，"));
        assert!(p.question_text().starts_with("需要加水"));
        assert!(p.question_quantities().is_empty());
    }

    #[test]
    fn op_count_includes_percent_steps() {
        let p = dilution();
        // 3 explicit ops + 2 percent normalizations.
        assert_eq!(p.op_count(), 5);
    }

    #[test]
    fn unit_surfaces_deduplicate() {
        let p = dilution();
        assert_eq!(p.unit_surfaces(), vec!["%", "千克"]);
    }
}
