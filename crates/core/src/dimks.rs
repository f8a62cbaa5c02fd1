//! DimKS: the dimensional knowledge system (§III) — DimUnitKB plus the
//! unit linking module, whose `Pr(u|c)` is exact keyword overlap.

use dimkb::DimUnitKb;
use dimlink::{Annotator, LinkResult, LinkerConfig, QuantityMention, UnitLinker};
use std::sync::Arc;

/// The assembled knowledge system.
pub struct DimKs {
    kb: Arc<DimUnitKb>,
    annotator: Annotator,
}

impl DimKs {
    /// The standard system: the shared KB and the default linker.
    pub fn standard() -> Self {
        let kb = DimUnitKb::shared();
        let annotator =
            Annotator::new(UnitLinker::with_config(kb.clone(), LinkerConfig::default()));
        DimKs { kb, annotator }
    }

    /// The knowledge base.
    pub fn kb(&self) -> &Arc<DimUnitKb> {
        &self.kb
    }

    /// The annotator (linker + number scanner).
    pub fn annotator(&self) -> &Annotator {
        &self.annotator
    }

    /// Links a unit mention in context (Definition 1).
    pub fn link(&self, mention: &str, context: &str) -> Vec<LinkResult> {
        self.annotator.linker().link(mention, context)
    }

    /// Annotates the quantities of a text.
    pub fn annotate(&self, text: &str) -> Vec<QuantityMention> {
        self.annotator.annotate(text)
    }

    /// Pairwise comparability of all quantities found in a text — the
    /// Fig. 1 "unit trap" detector. Returns `(index_a, index_b, comparable)`
    /// for every quantity pair, alongside the mentions themselves.
    pub fn comparability(&self, text: &str) -> (Vec<QuantityMention>, Vec<(usize, usize, bool)>) {
        let mentions = self.annotate(text);
        let mut pairs = Vec::new();
        for i in 0..mentions.len() {
            for j in i + 1..mentions.len() {
                let a = self.kb.unit(mentions[i].best_unit()).dim;
                let b = self.kb.unit(mentions[j].best_unit()).dim;
                pairs.push((i, j, a.comparable(b)));
            }
        }
        (mentions, pairs)
    }

    /// Compares the first two quantities of a text through unit conversion
    /// — the paper's introductory example ("LeBron James is taller than
    /// Stephen Curry" from 2.06 m vs 188 cm). Returns the mentions and the
    /// ordering of the first relative to the second; `None` when fewer
    /// than two quantities are found or the dimension law forbids the
    /// comparison.
    pub fn compare_first_two(
        &self,
        text: &str,
    ) -> Option<(QuantityMention, QuantityMention, std::cmp::Ordering)> {
        let mut mentions = self.annotate(text).into_iter();
        let a = mentions.next()?;
        let b = mentions.next()?;
        let b_in_a_units = self.kb.convert(b.value, b.best_unit(), a.best_unit()).ok()?;
        let ordering = a.value.partial_cmp(&b_in_a_units)?;
        Some((a, b, ordering))
    }

    /// Converts the first quantity of `text` into `target_unit`, applying
    /// the dimension law; returns `None` when nothing links or the law
    /// forbids the conversion.
    pub fn convert_mention(&self, text: &str, target_unit: &str) -> Option<f64> {
        let mention = self.annotate(text).into_iter().next()?;
        let target = *self.annotator.linker().link(target_unit, text).first().map(|r| &r.unit)?;
        self.kb.convert(mention.value, mention.best_unit(), target).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_system_resolves_fig1() {
        let ks = DimKs::standard();
        let links = ks.link("dyn/cm", "surface tension");
        assert_eq!(ks.kb().unit(links[0].unit).code, "DYN-PER-CentiM");
        let ms = ks.annotate("其表面张力为0.1 N/m。");
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn compare_first_two_settles_the_intro_example() {
        let ks = DimKs::standard();
        let (a, b, ordering) = ks
            .compare_first_two(
                "LeBron James's height is 2.06 meters and Stephen Curry's height is 188 cm.",
            )
            .expect("two comparable quantities");
        assert_eq!(a.value, 2.06);
        assert_eq!(b.value, 188.0);
        assert_eq!(ordering, std::cmp::Ordering::Greater, "LeBron is taller");
        // Incomparable pair refuses.
        assert!(ks.compare_first_two("0.1 poundal versus 30 dyn/cm").is_none());
    }
}
