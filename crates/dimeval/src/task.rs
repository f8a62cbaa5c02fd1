//! DimEval task definitions (Definitions 2–8 of the paper).

use dimkb::{KindId, UnitId};

/// The three capability categories of DimEval (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Identifying quantities and matching them to kinds.
    BasicPerception,
    /// Comparability, dimension arithmetic, dimension prediction.
    DimensionPerception,
    /// Magnitude comparison and unit conversion.
    ScalePerception,
}

impl Category {
    /// All categories.
    pub const ALL: [Category; 3] =
        [Category::BasicPerception, Category::DimensionPerception, Category::ScalePerception];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Category::BasicPerception => "Basic Perception",
            Category::DimensionPerception => "Dimension Perception",
            Category::ScalePerception => "Scale Perception",
        }
    }
}

/// The seven DimEval tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Def. 2: extract quantities (value + unit) from text.
    QuantityExtraction,
    /// Def. 3: select the unit describing a given quantity kind.
    QuantityKindMatch,
    /// Def. 4: determine which unit is comparable (same dimension).
    ComparableAnalysis,
    /// Def. 5: select the unit whose dimension fits a masked slot.
    DimensionPrediction,
    /// Def. 6: select the unit matching the dimension of a unit expression.
    DimensionArithmetic,
    /// Def. 7: identify the unit of largest magnitude.
    MagnitudeComparison,
    /// Def. 8: determine the conversion factor between two units.
    UnitConversion,
}

impl TaskKind {
    /// All seven tasks in paper order.
    pub const ALL: [TaskKind; 7] = [
        TaskKind::QuantityExtraction,
        TaskKind::QuantityKindMatch,
        TaskKind::ComparableAnalysis,
        TaskKind::DimensionPrediction,
        TaskKind::DimensionArithmetic,
        TaskKind::MagnitudeComparison,
        TaskKind::UnitConversion,
    ];

    /// The six multiple-choice tasks (everything but extraction).
    pub const CHOICE: [TaskKind; 6] = [
        TaskKind::QuantityKindMatch,
        TaskKind::ComparableAnalysis,
        TaskKind::DimensionPrediction,
        TaskKind::DimensionArithmetic,
        TaskKind::MagnitudeComparison,
        TaskKind::UnitConversion,
    ];

    /// The category this task probes.
    pub fn category(self) -> Category {
        match self {
            TaskKind::QuantityExtraction | TaskKind::QuantityKindMatch => Category::BasicPerception,
            TaskKind::ComparableAnalysis
            | TaskKind::DimensionPrediction
            | TaskKind::DimensionArithmetic => Category::DimensionPerception,
            TaskKind::MagnitudeComparison | TaskKind::UnitConversion => Category::ScalePerception,
        }
    }

    /// Short display name matching the paper's table headers.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::QuantityExtraction => "Quantity Extraction",
            TaskKind::QuantityKindMatch => "QuanKind Match",
            TaskKind::ComparableAnalysis => "Comparable Analysis",
            TaskKind::DimensionPrediction => "Dimension Pred.",
            TaskKind::DimensionArithmetic => "Dimension Arith.",
            TaskKind::MagnitudeComparison => "Magnitude Comp.",
            TaskKind::UnitConversion => "Unit Conversion",
        }
    }
}

/// Structured payload of a choice item, so mechanical solvers can reason
/// over ids instead of re-parsing the prompt.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemMeta {
    /// QuantityKind match: the kind and candidate units.
    KindMatch {
        /// The queried kind.
        kind: KindId,
        /// Candidate units, parallel to the options.
        options: Vec<UnitId>,
    },
    /// Comparable analysis: reference unit and candidates.
    Comparable {
        /// The reference unit.
        reference: UnitId,
        /// Candidate units.
        options: Vec<UnitId>,
    },
    /// Dimension prediction: masked sentence plus candidates.
    DimPrediction {
        /// The narrow kind implied by the context.
        gold_kind: KindId,
        /// Candidate units.
        options: Vec<UnitId>,
    },
    /// Dimension arithmetic: the expression as unit powers in order, with
    /// candidates.
    DimArithmetic {
        /// The unit-power expression `u1^e1 · u2^e2 · …`.
        expr: Vec<(UnitId, i8)>,
        /// Candidate units.
        options: Vec<UnitId>,
    },
    /// Magnitude comparison: candidates of one dimension.
    Magnitude {
        /// Candidate units.
        options: Vec<UnitId>,
    },
    /// Unit conversion: the unit pair and the candidate factors.
    Conversion {
        /// Source unit.
        from: UnitId,
        /// Target unit.
        to: UnitId,
        /// Candidate factors, parallel to the options.
        factors: Vec<f64>,
    },
}

impl ItemMeta {
    /// The candidate units, when the options are units.
    pub fn unit_options(&self) -> Option<&[UnitId]> {
        match self {
            ItemMeta::KindMatch { options, .. }
            | ItemMeta::Comparable { options, .. }
            | ItemMeta::DimPrediction { options, .. }
            | ItemMeta::DimArithmetic { options, .. }
            | ItemMeta::Magnitude { options } => Some(options),
            ItemMeta::Conversion { .. } => None,
        }
    }
}

/// A multiple-choice DimEval item (m = 4 options, like the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct ChoiceItem {
    /// Which task this item belongs to.
    pub task: TaskKind,
    /// The natural-language prompt.
    pub question: String,
    /// The m option strings, labelled (A)–(D) in the prompt.
    pub options: Vec<String>,
    /// Gold option index.
    pub answer: usize,
    /// The templated chain-of-thought rationale `R` (§IV-D).
    pub rationale: String,
    /// Structured payload.
    pub meta: ItemMeta,
}

/// A gold quantity for the extraction task: the value and unit surface.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldExtraction {
    /// Numeric value.
    pub value: f64,
    /// Unit surface form as written in the text.
    pub unit_surface: String,
}

/// A quantity-extraction item (Def. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionItem {
    /// The input text.
    pub text: String,
    /// Gold quantities.
    pub gold: Vec<GoldExtraction>,
}

/// A solver's extracted quantity: parsed value plus unit surface.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedQuantity {
    /// Parsed numeric value.
    pub value: f64,
    /// The unit text as extracted.
    pub unit_surface: String,
}

/// Anything that can take the DimEval benchmark.
///
/// `answer` may return `None` to abstain (the paper observes LLMs declining
/// questions they are unsure about, which depresses F1 relative to
/// precision).
pub trait DimEvalSolver {
    /// Display name for result tables.
    fn name(&self) -> String;

    /// Answer a multiple-choice item; `None` abstains.
    fn answer(&mut self, item: &ChoiceItem) -> Option<usize>;

    /// Extract quantities from text (Def. 2).
    fn extract(&mut self, text: &str) -> Vec<ExtractedQuantity>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_partition_tasks() {
        let mut counts = std::collections::HashMap::new();
        for t in TaskKind::ALL {
            *counts.entry(t.category()).or_insert(0usize) += 1;
        }
        assert_eq!(counts[&Category::BasicPerception], 2);
        assert_eq!(counts[&Category::DimensionPerception], 3);
        assert_eq!(counts[&Category::ScalePerception], 2);
    }

    #[test]
    fn choice_excludes_extraction() {
        assert!(!TaskKind::CHOICE.contains(&TaskKind::QuantityExtraction));
        assert_eq!(TaskKind::CHOICE.len(), 6);
    }

    #[test]
    fn unit_options_present_except_conversion() {
        let meta = ItemMeta::Conversion { from: UnitId(0), to: UnitId(1), factors: vec![1.0] };
        assert!(meta.unit_options().is_none());
        let meta = ItemMeta::Magnitude { options: vec![UnitId(0)] };
        assert_eq!(meta.unit_options().unwrap().len(), 1);
    }
}
