//! Equation representation for math word problems.
//!
//! Equations are trees over quantity references and constants. The textual
//! form follows the MWP convention (`x=150*20%/5%-150`), and a recursive-
//! descent parser plus evaluator form the "calculator" the paper uses to
//! score equation-generating models (§VI-D).

use std::fmt;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl Op {
    fn precedence(self) -> u8 {
        match self {
            Op::Add | Op::Sub => 1,
            Op::Mul | Op::Div => 2,
        }
    }

    fn symbol(self) -> char {
        match self {
            Op::Add => '+',
            Op::Sub => '-',
            Op::Mul => '*',
            Op::Div => '/',
        }
    }
}

/// An equation tree node. `Q(i)` references the i-th quantity of a problem;
/// `Const` holds literal constants (conversion factors, the 1 in work-rate
/// problems); `Bin` combines subtrees.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Reference to a problem quantity.
    Q(usize),
    /// A literal constant.
    Const(f64),
    /// A binary operation.
    Bin(Op, Box<Node>, Box<Node>),
}

impl Node {
    /// Convenience constructor.
    pub fn bin(op: Op, l: Node, r: Node) -> Node {
        Node::Bin(op, Box::new(l), Box::new(r))
    }

    /// Number of operators in the tree (the paper's `#Operations`).
    pub fn op_count(&self) -> usize {
        match self {
            Node::Q(_) | Node::Const(_) => 0,
            Node::Bin(_, l, r) => 1 + l.op_count() + r.op_count(),
        }
    }

    /// Quantity indices the tree references, in first-use order.
    pub fn used_quantities(&self) -> Vec<usize> {
        fn walk(node: &Node, out: &mut Vec<usize>) {
            match node {
                Node::Const(_) => {}
                Node::Q(i) => {
                    if !out.contains(i) {
                        out.push(*i);
                    }
                }
                Node::Bin(_, l, r) => {
                    walk(l, out);
                    walk(r, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Evaluates against quantity values (`values[i]` is the arithmetic
    /// value of quantity `i`, percent already divided by 100).
    pub fn eval(&self, values: &[f64]) -> f64 {
        match self {
            Node::Q(i) => values[*i],
            Node::Const(c) => *c,
            Node::Bin(op, l, r) => {
                let (a, b) = (l.eval(values), r.eval(values));
                match op {
                    Op::Add => a + b,
                    Op::Sub => a - b,
                    Op::Mul => a * b,
                    Op::Div => a / b,
                }
            }
        }
    }

    /// Renders to the conventional `x=` equation string. `display[i]` is the
    /// literal rendering of quantity `i` (e.g. `150` or `20%`).
    pub fn render(&self, display: &[String]) -> String {
        format!("x={}", self.render_prec(display, 0))
    }

    fn render_prec(&self, display: &[String], parent_prec: u8) -> String {
        match self {
            Node::Q(i) => display[*i].clone(),
            Node::Const(c) => fmt_number(*c),
            Node::Bin(op, l, r) => {
                let prec = op.precedence();
                let left = l.render_prec(display, prec);
                // Right side of - and / needs parens at equal precedence.
                let right = r.render_prec(display, prec + u8::from(matches!(op, Op::Sub | Op::Div)));
                let body = format!("{left}{}{right}", op.symbol());
                if prec < parent_prec {
                    format!("({body})")
                } else {
                    body
                }
            }
        }
    }

    /// Remaps quantity indices (used when augmentation reorders quantities).
    pub fn map_q(&self, f: &mut impl FnMut(usize) -> Node) -> Node {
        match self {
            Node::Q(i) => f(*i),
            Node::Const(c) => Node::Const(*c),
            Node::Bin(op, l, r) => Node::bin(*op, l.map_q(f), r.map_q(f)),
        }
    }
}

/// Formats a number for equation text.
pub fn fmt_number(v: f64) -> String {
    if (v - v.round()).abs() < 1e-9 && v.abs() < 1e15 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v}")
    }
}

/// Errors from equation parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "equation parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Parses an equation string (`x=…` prefix optional) into a literal tree
/// where every number is a [`Node::Const`] (percent literals `20%` become
/// `0.2`). This is the calculator's input format.
pub fn parse(input: &str) -> Result<Node, ParseError> {
    let s = input.trim();
    let s = s.strip_prefix("x=").or_else(|| s.strip_prefix("X=")).unwrap_or(s);
    let mut p = Parser { chars: s.chars().collect(), pos: 0 };
    let node = p.expr()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(ParseError(format!("trailing input at {}", p.pos)));
    }
    Ok(node)
}

/// Evaluates an equation string directly (the calculator).
pub fn calculate(input: &str) -> Result<f64, ParseError> {
    let v = parse(input)?.eval(&[]);
    if v.is_finite() {
        Ok(v)
    } else {
        Err(ParseError("non-finite result".into()))
    }
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn skip_ws(&mut self) {
        while matches!(self.chars.get(self.pos), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.chars.get(self.pos).copied()
    }

    fn expr(&mut self) -> Result<Node, ParseError> {
        let mut acc = self.term()?;
        while let Some(c) = self.peek() {
            let op = match c {
                '+' => Op::Add,
                '-' => Op::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.term()?;
            acc = Node::bin(op, acc, rhs);
        }
        Ok(acc)
    }

    fn term(&mut self) -> Result<Node, ParseError> {
        let mut acc = self.factor()?;
        while let Some(c) = self.peek() {
            let op = match c {
                '*' | '×' => Op::Mul,
                '/' | '÷' => Op::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.factor()?;
            acc = Node::bin(op, acc, rhs);
        }
        Ok(acc)
    }

    fn factor(&mut self) -> Result<Node, ParseError> {
        match self.peek() {
            Some('(') => {
                self.pos += 1;
                let inner = self.expr()?;
                if self.peek() != Some(')') {
                    return Err(ParseError("expected )".into()));
                }
                self.pos += 1;
                self.percent(inner)
            }
            Some('-') => {
                self.pos += 1;
                let inner = self.factor()?;
                Ok(Node::bin(Op::Sub, Node::Const(0.0), inner))
            }
            Some(c) if c.is_ascii_digit() || c == '.' => {
                let start = self.pos;
                while matches!(self.chars.get(self.pos), Some(c) if c.is_ascii_digit() || *c == '.')
                {
                    self.pos += 1;
                }
                let text: String = self.chars[start..self.pos].iter().collect();
                let value: f64 =
                    text.parse().map_err(|_| ParseError(format!("bad number {text:?}")))?;
                self.percent(Node::Const(value))
            }
            other => Err(ParseError(format!("unexpected {other:?}"))),
        }
    }

    fn percent(&mut self, node: Node) -> Result<Node, ParseError> {
        if self.chars.get(self.pos) == Some(&'%') {
            self.pos += 1;
            return Ok(Node::bin(Op::Div, node, Node::Const(100.0)));
        }
        Ok(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_v_dilution_equation() {
        // 小王's dilution: x = 150*20%/5% - 150 = 450.
        let v = calculate("x=150*20%/5%-150").unwrap();
        assert!((v - 450.0).abs() < 1e-9);
    }

    #[test]
    fn precedence_and_parens() {
        assert_eq!(calculate("1+2*3").unwrap(), 7.0);
        assert_eq!(calculate("(1+2)*3").unwrap(), 9.0);
        assert_eq!(calculate("10-2-3").unwrap(), 5.0);
        assert_eq!(calculate("12/2/3").unwrap(), 2.0);
    }

    #[test]
    fn unary_minus() {
        assert_eq!(calculate("-5+8").unwrap(), 3.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("x=1+").is_err());
        assert!(parse("x=(1").is_err());
        assert!(parse("hello").is_err());
        assert!(calculate("1/0").is_err(), "division by zero is non-finite");
    }

    #[test]
    fn render_round_trips_through_calculator() {
        let display = vec!["150".to_string(), "20%".to_string(), "5%".to_string()];
        let values = [150.0, 0.2, 0.05];
        let node = Node::bin(
            Op::Sub,
            Node::bin(Op::Div, Node::bin(Op::Mul, Node::Q(0), Node::Q(1)), Node::Q(2)),
            Node::Q(0),
        );
        let text = node.render(&display);
        assert_eq!(text, "x=150*20%/5%-150");
        let direct = node.eval(&values);
        let parsed = calculate(&text).unwrap();
        assert!((direct - parsed).abs() < 1e-9);
    }

    #[test]
    fn render_parenthesizes_correctly() {
        let d: Vec<String> = vec!["2".into(), "3".into(), "4".into()];
        // (2+3)*4
        let n = Node::bin(Op::Mul, Node::bin(Op::Add, Node::Q(0), Node::Q(1)), Node::Q(2));
        assert_eq!(n.render(&d), "x=(2+3)*4");
        // 2-(3-4)
        let n = Node::bin(Op::Sub, Node::Q(0), Node::bin(Op::Sub, Node::Q(1), Node::Q(2)));
        assert_eq!(n.render(&d), "x=2-(3-4)");
        assert_eq!(calculate(&n.render(&d)).unwrap(), 3.0);
        // 2/(3*4) — equal precedence right of /
        let n = Node::bin(Op::Div, Node::Q(0), Node::bin(Op::Mul, Node::Q(1), Node::Q(2)));
        assert!((calculate(&n.render(&d)).unwrap() - 2.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn op_count_counts_operators() {
        let n = parse("x=1*2/3-4").unwrap();
        assert_eq!(n.op_count(), 3);
        assert_eq!(parse("5").unwrap().op_count(), 0);
        // Percent adds a hidden /100 operator, mirroring the extra
        // computation step it demands.
        assert_eq!(parse("20%").unwrap().op_count(), 1);
    }

    #[test]
    fn map_q_substitutes() {
        let n = Node::bin(Op::Mul, Node::Q(0), Node::Q(1));
        let wrapped = n.map_q(&mut |i| {
            if i == 0 {
                Node::bin(Op::Div, Node::Q(0), Node::Const(1000.0))
            } else {
                Node::Q(i)
            }
        });
        assert!((wrapped.eval(&[5000.0, 2.0]) - 10.0).abs() < 1e-12);
    }
}
