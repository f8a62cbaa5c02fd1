//! The unit record: the full `DimUnitKB` schema of Table II.

use crate::dim::DimVec;
use crate::kind::KindId;
use std::fmt;

/// Index of a unit inside a [`crate::DimUnitKb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitId(pub u32);

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U{}", self.0)
    }
}

/// Affine conversion to the SI-coherent unit of the same dimension:
/// `si_value = value * factor + offset`.
///
/// `offset` is non-zero only for the relative temperature scales
/// (°C, °F, °Ré); such units cannot appear inside compound unit
/// expressions (the usual SI rule).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Conversion {
    /// Multiplicative factor to the coherent SI unit.
    pub factor: f64,
    /// Additive offset to the coherent SI unit (0 for almost all units).
    pub offset: f64,
}

impl Conversion {
    /// A purely multiplicative conversion.
    pub const fn linear(factor: f64) -> Self {
        Conversion { factor, offset: 0.0 }
    }

    /// An affine conversion (temperature scales).
    pub const fn affine(factor: f64, offset: f64) -> Self {
        Conversion { factor, offset }
    }

    /// True iff this conversion has a non-zero offset.
    pub fn is_affine(&self) -> bool {
        self.offset != 0.0
    }

    /// Converts a value in this unit to the coherent SI unit.
    pub fn to_si(&self, value: f64) -> f64 {
        value * self.factor + self.offset
    }

    /// Converts a value in the coherent SI unit to this unit.
    pub fn from_si(&self, si_value: f64) -> f64 {
        (si_value - self.offset) / self.factor
    }
}

/// A unit record as stored in `DimUnitKB` (Table II of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// `UnitID`: stable index within the knowledge base.
    pub id: UnitId,
    /// QUDT-style identifier code, e.g. `DYN-PER-CentiM`.
    pub code: String,
    /// `Label_en`: English name, e.g. `dyne per centimetre`.
    pub label_en: String,
    /// `Label_zh`: Chinese name, e.g. `达因每厘米`.
    pub label_zh: String,
    /// `Symbol`: symbolic expression, e.g. `dyn/cm`.
    pub symbol: String,
    /// `Alias`: alternative textual expressions.
    pub aliases: Vec<String>,
    /// `Description`: a descriptive text for the unit.
    pub description: String,
    /// `Keywords`: descriptive keywords used by context-based linking.
    pub keywords: Vec<String>,
    /// `Frequency`: commonness in real-world text, in `[δ, 1]` (Eq. 2).
    pub frequency: f64,
    /// `QuantityKind`: the kind of quantity this unit measures.
    pub kind: KindId,
    /// `DimensionVec`: the dimension vector of this unit.
    pub dim: DimVec,
    /// `ConversionVal`: the conversion to the coherent SI unit.
    pub conversion: Conversion,
    /// True if this unit was produced by SI-prefix expansion of a base
    /// record rather than curated directly.
    pub prefixed: bool,
}

impl Unit {
    /// All surface forms under which this unit may be mentioned in text:
    /// English label, Chinese label, symbol, and every alias.
    pub fn surface_forms(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.label_en.as_str())
            .chain(std::iter::once(self.label_zh.as_str()))
            .chain(std::iter::once(self.symbol.as_str()))
            .chain(self.aliases.iter().map(String::as_str))
            .filter(|s| !s.is_empty())
    }

    /// Magnitude of the unit relative to the coherent SI unit, ignoring
    /// offsets (used by the magnitude-comparison task).
    pub fn magnitude(&self) -> f64 {
        self.conversion.factor
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.label_en, self.symbol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::{Base, DimVec};

    fn sample() -> Unit {
        Unit {
            id: UnitId(7),
            code: "CentiM".into(),
            label_en: "centimetre".into(),
            label_zh: "厘米".into(),
            symbol: "cm".into(),
            aliases: vec!["centimeter".into(), "公分".into()],
            description: "one hundredth of a metre".into(),
            keywords: vec!["length".into()],
            frequency: 0.9,
            kind: KindId(0),
            dim: DimVec::base(Base::Length),
            conversion: Conversion::linear(0.01),
            prefixed: true,
        }
    }

    #[test]
    fn linear_conversion_roundtrip() {
        let c = Conversion::linear(0.01);
        assert!((c.to_si(250.0) - 2.5).abs() < 1e-12);
        assert!((c.from_si(2.5) - 250.0).abs() < 1e-12);
        assert!(!c.is_affine());
    }

    #[test]
    fn affine_conversion_celsius() {
        let celsius = Conversion::affine(1.0, 273.15);
        assert!((celsius.to_si(25.0) - 298.15).abs() < 1e-9);
        assert!((celsius.from_si(273.15) - 0.0).abs() < 1e-9);
        assert!(celsius.is_affine());
    }

    #[test]
    fn affine_conversion_fahrenheit() {
        let f = Conversion::affine(5.0 / 9.0, 459.67 * 5.0 / 9.0);
        assert!((f.to_si(32.0) - 273.15).abs() < 1e-9);
        assert!((f.to_si(212.0) - 373.15).abs() < 1e-9);
    }

    #[test]
    fn surface_forms_cover_all_representations() {
        let u = sample();
        let forms: Vec<&str> = u.surface_forms().collect();
        assert_eq!(forms, vec!["centimetre", "厘米", "cm", "centimeter", "公分"]);
    }

    #[test]
    fn display_and_magnitude() {
        let u = sample();
        assert_eq!(u.to_string(), "centimetre (cm)");
        assert!((u.magnitude() - 0.01).abs() < 1e-15);
    }
}
