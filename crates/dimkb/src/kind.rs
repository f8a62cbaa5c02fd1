//! Quantity kinds: the `QuantityKind` feature of `DimUnitKB` (Table II).
//!
//! A quantity kind (e.g. `VolumeFlowRate`, `ForcePerLength`) names *what is
//! being measured*. Every kind has a single dimension vector, but several
//! kinds may share one dimension (e.g. `Energy` and `Torque` are both
//! `L²MT⁻²`) — which is exactly why kind and dimension are separate features.

use crate::dim::DimVec;
use std::fmt;

/// Index of a quantity kind inside a [`crate::DimUnitKb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KindId(pub u32);

impl fmt::Display for KindId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "K{}", self.0)
    }
}

/// A quantity kind record.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantityKind {
    /// Stable index within the knowledge base.
    pub id: KindId,
    /// CamelCase English name, e.g. `VolumeFlowRate`.
    pub name_en: String,
    /// Chinese name, e.g. `体积流量`.
    pub name_zh: String,
    /// The dimension every unit of this kind shares.
    pub dim: DimVec,
}

impl QuantityKind {
    /// Splits the CamelCase English name into space-separated words
    /// (`VolumeFlowRate` → `volume flow rate`), used as default keywords.
    pub fn words(&self) -> Vec<String> {
        let mut words = Vec::with_capacity(self.word_count());
        self.push_words(&mut words);
        words
    }

    /// How many words [`Self::words`] returns.
    pub(crate) fn word_count(&self) -> usize {
        let mut chars = self.name_en.chars();
        chars.next().map_or(0, |_| 1 + chars.filter(|c| c.is_uppercase()).count())
    }

    /// Appends [`Self::words`] to `out`: a word starts at every uppercase
    /// char but the first char, and is lowercased char by char.
    pub(crate) fn push_words(&self, out: &mut Vec<String>) {
        let name = self.name_en.as_str();
        let mut start = 0;
        let ends = name.char_indices().filter(|&(i, c)| i > 0 && c.is_uppercase()).map(|(i, _)| i);
        for end in ends.chain((!name.is_empty()).then_some(name.len())) {
            let mut word = String::with_capacity(end - start);
            word.extend(name[start..end].chars().flat_map(char::to_lowercase));
            out.push(word);
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::Base;

    #[test]
    fn words_splits_camel_case() {
        let k = QuantityKind {
            id: KindId(0),
            name_en: "VolumeFlowRate".into(),
            name_zh: "体积流量".into(),
            dim: DimVec::from_exponents(&[(Base::Length, 3), (Base::Time, -1)]),
        };
        assert_eq!(k.words(), vec!["volume", "flow", "rate"]);
    }

    #[test]
    fn words_handles_single_word() {
        let k = QuantityKind {
            id: KindId(1),
            name_en: "Length".into(),
            name_zh: "长度".into(),
            dim: DimVec::base(Base::Length),
        };
        assert_eq!(k.words(), vec!["length"]);
    }

    #[test]
    fn kind_id_display() {
        assert_eq!(KindId(42).to_string(), "K42");
    }
}
