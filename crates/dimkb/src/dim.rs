//! Dimension vectors: the fundamental attribute of quantities.
//!
//! Following §II-A of the paper, every quantity `q` has a dimensional formula
//!
//! ```text
//! dim(q) = L^α M^β H^γ E^σ T^ε A^ζ I^η
//! ```
//!
//! over the seven base quantities of the SI (Table III of the paper): amount
//! of substance (A), electric current (E), length (L), luminous intensity
//! (I), mass (M), thermodynamic temperature (H) and time (T). A quantity
//! whose seven exponents are all zero is *dimensionless* (symbol D).
//!
//! [`DimVec`] stores the seven integer exponents and implements the
//! *dimension laws*: only quantities with identical dimensions may be added,
//! subtracted or compared, while multiplication/division of quantities adds/
//! subtracts their exponent vectors.

use std::fmt;
use std::ops::{Div, Mul};
use std::str::FromStr;

/// The seven dimension bases, in the fixed order used by the paper's
/// `DimensionVec` feature (`A0E0L0I0M1H0T-2D0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Base {
    /// Amount of substance (mole).
    Amount,
    /// Electric current (ampere).
    Current,
    /// Length (metre).
    Length,
    /// Luminous intensity (candela).
    Luminous,
    /// Mass (kilogram).
    Mass,
    /// Thermodynamic temperature (kelvin).
    Temperature,
    /// Time (second).
    Time,
}

impl Base {
    /// All seven bases in `DimensionVec` order.
    pub const ALL: [Base; 7] = [
        Base::Amount,
        Base::Current,
        Base::Length,
        Base::Luminous,
        Base::Mass,
        Base::Temperature,
        Base::Time,
    ];

    /// One-letter dimension symbol used in dimensional formulas (Table III).
    pub fn symbol(self) -> char {
        match self {
            Base::Amount => 'A',
            Base::Current => 'E',
            Base::Length => 'L',
            Base::Luminous => 'I',
            Base::Mass => 'M',
            Base::Temperature => 'H',
            Base::Time => 'T',
        }
    }

    /// The SI base unit measuring this dimension.
    pub fn base_unit(self) -> &'static str {
        match self {
            Base::Amount => "mole",
            Base::Current => "ampere",
            Base::Length => "metre",
            Base::Luminous => "candela",
            Base::Mass => "kilogram",
            Base::Temperature => "kelvin",
            Base::Time => "second",
        }
    }

    /// The SI base unit symbol.
    pub fn base_unit_symbol(self) -> &'static str {
        match self {
            Base::Amount => "mol",
            Base::Current => "A",
            Base::Length => "m",
            Base::Luminous => "cd",
            Base::Mass => "kg",
            Base::Temperature => "K",
            Base::Time => "s",
        }
    }
}

/// A dimension vector: the seven integer exponents of a dimensional formula.
///
/// `DimVec` is the value of the `DimensionVec` feature in `DimUnitKB`
/// (Table II). Two quantities are *comparable* iff their `DimVec`s are equal
/// (the dimension law).
///
/// # Examples
///
/// ```
/// use dimkb::{DimVec, Base};
///
/// let force = DimVec::from_exponents(&[(Base::Length, 1), (Base::Mass, 1), (Base::Time, -2)]);
/// assert_eq!(force.formula(), "LMT⁻²");
/// assert_eq!(force.vector_form(), "A0E0L1I0M1H0T-2D0");
///
/// let length = DimVec::base(Base::Length);
/// let surface_tension = force / length; // MT⁻², the "dyn/cm" trap of Fig. 1
/// assert_eq!(surface_tension.formula(), "MT⁻²");
/// assert!(!surface_tension.comparable(force));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DimVec {
    exps: [i8; 7],
}

impl DimVec {
    /// The dimensionless vector (all exponents zero; symbol D).
    pub const DIMENSIONLESS: DimVec = DimVec { exps: [0; 7] };

    /// Builds a vector with a single base exponent of 1.
    pub fn base(base: Base) -> Self {
        let mut v = DimVec::DIMENSIONLESS;
        v.exps[base as usize] = 1;
        v
    }

    /// Builds a vector from `(base, exponent)` pairs. Later pairs for the
    /// same base accumulate.
    pub fn from_exponents(pairs: &[(Base, i8)]) -> Self {
        let mut v = DimVec::DIMENSIONLESS;
        for &(b, e) in pairs {
            v.exps[b as usize] = v.exps[b as usize].saturating_add(e);
        }
        v
    }

    /// The exponent of `base` in this vector.
    pub fn exponent(&self, base: Base) -> i8 {
        self.exps[base as usize]
    }

    /// All seven exponents in `DimensionVec` order (A, E, L, I, M, H, T).
    pub fn exponents(&self) -> [i8; 7] {
        self.exps
    }

    /// True iff every exponent is zero.
    pub fn is_dimensionless(&self) -> bool {
        self.exps.iter().all(|&e| e == 0)
    }

    /// The dimension law: two quantities may be added, subtracted or
    /// compared iff their dimensions are identical.
    pub fn comparable(&self, other: DimVec) -> bool {
        *self == other
    }

    /// Raises the dimension to an integer power (e.g. `L.powi(3)` is volume).
    pub fn powi(&self, n: i8) -> Self {
        let mut v = *self;
        for e in &mut v.exps {
            *e = e.saturating_mul(n);
        }
        v
    }

    /// The multiplicative inverse (all exponents negated).
    pub fn recip(&self) -> Self {
        self.powi(-1)
    }

    /// The paper's canonical vector form, e.g. `A0E0L1I0M1H0T-2D0`.
    /// The trailing `D` flag is 1 for dimensionless vectors and 0 otherwise.
    pub fn vector_form(&self) -> String {
        let mut s = String::with_capacity(24);
        for b in Base::ALL {
            s.push(b.symbol());
            let e = self.exponent(b);
            s.push_str(&e.to_string());
        }
        s.push('D');
        s.push(if self.is_dimensionless() { '1' } else { '0' });
        s
    }

    /// The conventional dimensional formula, e.g. `LMT⁻²`; `D` when
    /// dimensionless. Positive exponents come first, then negatives.
    pub fn formula(&self) -> String {
        if self.is_dimensionless() {
            return "D".to_string();
        }
        let mut pos = String::new();
        let mut neg = String::new();
        for b in Base::ALL {
            let e = self.exponent(b);
            if e == 0 {
                continue;
            }
            let target = if e > 0 { &mut pos } else { &mut neg };
            target.push(b.symbol());
            if e != 1 {
                target.push_str(&superscript(e));
            }
        }
        pos + &neg
    }

    /// Parses a whitespace-separated exponent list such as `"L3 T-1"` or a
    /// canonical vector form such as `"A0E0L3I0M0H0T-1D0"`.
    pub fn parse(s: &str) -> Result<Self, DimParseError> {
        let s = s.trim();
        if s.is_empty() || s == "D" || s == "1" {
            return Ok(DimVec::DIMENSIONLESS);
        }
        let mut v = DimVec::DIMENSIONLESS;
        let mut chars = s.chars().peekable();
        let mut saw_any = false;
        while let Some(c) = chars.next() {
            if c.is_whitespace() {
                continue;
            }
            let base = match c {
                'A' => Some(Base::Amount),
                'E' => Some(Base::Current),
                'L' => Some(Base::Length),
                'I' => Some(Base::Luminous),
                'M' => Some(Base::Mass),
                'H' => Some(Base::Temperature),
                'T' => Some(Base::Time),
                'D' => None, // trailing dimensionless flag; consume its digit
                _ => return Err(DimParseError::UnknownBase(c)),
            };
            let mut num = String::new();
            if let Some(sign) = chars.next_if(|c| matches!(c, '-' | '+')) {
                num.push(sign);
            }
            while let Some(d) = chars.next_if(char::is_ascii_digit) {
                num.push(d);
            }
            let exp: i8 = if num.is_empty() {
                1
            } else {
                num.parse().map_err(|_| DimParseError::BadExponent(num.clone()))?
            };
            if let Some(b) = base {
                v.exps[b as usize] = v.exps[b as usize].saturating_add(exp);
                saw_any = true;
            }
        }
        if !saw_any && !s.contains('D') {
            return Err(DimParseError::Empty);
        }
        Ok(v)
    }
}

/// Error parsing a dimensional formula string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DimParseError {
    /// A character that is not one of the seven base symbols (or D).
    UnknownBase(char),
    /// An exponent that does not fit in `i8`.
    BadExponent(String),
    /// The input contained no base symbols.
    Empty,
}

impl fmt::Display for DimParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimParseError::UnknownBase(c) => write!(f, "unknown dimension base symbol {c:?}"),
            DimParseError::BadExponent(s) => write!(f, "exponent {s:?} out of range"),
            DimParseError::Empty => write!(f, "empty dimensional formula"),
        }
    }
}

impl std::error::Error for DimParseError {}

impl FromStr for DimVec {
    type Err = DimParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DimVec::parse(s)
    }
}

impl Mul for DimVec {
    type Output = DimVec;

    fn mul(self, rhs: DimVec) -> DimVec {
        let mut v = self;
        for (e, r) in v.exps.iter_mut().zip(rhs.exps) {
            *e = e.saturating_add(r);
        }
        v
    }
}

impl Div for DimVec {
    type Output = DimVec;

    fn div(self, rhs: DimVec) -> DimVec {
        let mut v = self;
        for (e, r) in v.exps.iter_mut().zip(rhs.exps) {
            *e = e.saturating_sub(r);
        }
        v
    }
}

impl fmt::Display for DimVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.formula())
    }
}

fn superscript(e: i8) -> String {
    let digits = e.abs().to_string();
    let mut s = String::new();
    if e < 0 {
        s.push('⁻');
    }
    for d in digits.chars() {
        s.push(match d {
            '0' => '⁰',
            '1' => '¹',
            '2' => '²',
            '3' => '³',
            '4' => '⁴',
            '5' => '⁵',
            '6' => '⁶',
            '7' => '⁷',
            '8' => '⁸',
            '9' => '⁹',
            _ => unreachable!("digits of an integer"),
        });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dim(s: &str) -> DimVec {
        DimVec::parse(s).expect("valid dim")
    }

    #[test]
    fn dimensionless_roundtrip() {
        let d = DimVec::DIMENSIONLESS;
        assert!(d.is_dimensionless());
        assert_eq!(d.vector_form(), "A0E0L0I0M0H0T0D1");
        assert_eq!(d.formula(), "D");
        assert_eq!(DimVec::parse(&d.vector_form()).unwrap(), d);
    }

    #[test]
    fn force_formula_matches_paper_example() {
        // dim(poundal) = LMT⁻² (Fig. 1 of the paper)
        let force = dim("L M T-2");
        assert_eq!(force.formula(), "LMT⁻²");
        assert_eq!(force.vector_form(), "A0E0L1I0M1H0T-2D0");
    }

    #[test]
    fn surface_tension_differs_from_force() {
        // dim(dyn/cm) = MT⁻², the unit trap of Fig. 1.
        let force = dim("L M T-2");
        let tension = force / DimVec::base(Base::Length);
        assert_eq!(tension, dim("M T-2"));
        assert!(!tension.comparable(force));
    }

    #[test]
    fn mul_div_are_inverse() {
        let a = dim("L2 T-3");
        let b = dim("M H-1");
        assert_eq!(a * b / b, a);
        assert_eq!(a / a, DimVec::DIMENSIONLESS);
    }

    #[test]
    fn powi_and_recip() {
        let l = DimVec::base(Base::Length);
        assert_eq!(l.powi(3), dim("L3"));
        assert_eq!(l.powi(3).recip(), dim("L-3"));
        assert_eq!(l.powi(0), DimVec::DIMENSIONLESS);
    }

    #[test]
    fn parse_vector_form_with_negatives() {
        let v = dim("A0E0L1I0M1H0T-2D0");
        assert_eq!(v.exponent(Base::Length), 1);
        assert_eq!(v.exponent(Base::Mass), 1);
        assert_eq!(v.exponent(Base::Time), -2);
        assert_eq!(v.exponent(Base::Current), 0);
    }

    #[test]
    fn parse_implicit_exponent_one() {
        assert_eq!(dim("L"), DimVec::base(Base::Length));
        assert_eq!(dim("LT-1"), dim("L1 T-1"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(DimVec::parse("X2"), Err(DimParseError::UnknownBase('X')));
        assert!(DimVec::parse("L999").is_err());
    }

    #[test]
    fn formula_orders_positive_before_negative() {
        assert_eq!(dim("T-1 L3").formula(), "L³T⁻¹");
    }

    #[test]
    fn display_uses_formula() {
        assert_eq!(dim("M T-2").to_string(), "MT⁻²");
    }

    #[test]
    fn vector_form_roundtrips_for_all_bases() {
        for b in Base::ALL {
            let v = DimVec::base(b);
            assert_eq!(DimVec::parse(&v.vector_form()).unwrap(), v, "base {b:?}");
        }
    }

    #[test]
    fn base_metadata_is_consistent() {
        assert_eq!(Base::Mass.base_unit(), "kilogram");
        assert_eq!(Base::Mass.base_unit_symbol(), "kg");
        assert_eq!(Base::Temperature.symbol(), 'H');
        assert_eq!(Base::ALL.len(), 7);
    }
}
