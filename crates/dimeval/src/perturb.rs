//! NUMCoT-style unit-perturbation suite.
//!
//! NUMCoT (PAPERS.md) shows language models break precisely on
//! numeral/unit conversion steps. This suite measures whether the
//! `dim-verify` checker catches such breaks *when they are injected
//! deliberately*: a quantity's unit is mutated mid-problem while the
//! gold equation and answer stay fixed, and detection means the checker
//! no longer accepts the gold solution. Three mutation classes, from
//! hardest to easiest for a dimension checker:
//!
//! * **Prefix swap** (`米`→`厘米`, `千克`→`克`): the dimension vector is
//!   unchanged — only the conversion-law (scale) layer can catch it;
//! * **Cross-lingual** (`千克`→`斤`): a same-dimension Chinese folk unit
//!   with a different factor — again scale-layer territory;
//! * **Cross-dimension** (`千克`→`米`): the dimension law itself breaks.
//!
//! Every mutation targets a quantity the gold equation actually uses,
//! so a miss is the checker's miss, not a vacuous one. Mutation choice
//! is driven by per-item seed streams ([`dim_par::seed_for`]) keyed on
//! the problem index, so rates are identical at every thread width.

use dim_mwp::MwpProblem;
use dim_par::{par_map_indexed, seed_for, Parallelism};
use dim_verify::verify_problem;
use dimkb::prefix::SI_PREFIXES;
use dimkb::{DimUnitKb, Unit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-item seed stream salt for mutation choice.
const PERTURB_SALT: u64 = 0x9E27;

/// Relative difference under which two conversion factors count equal
/// (a synonym swap is not a perturbation).
const FACTOR_TOL: f64 = 1e-9;

/// Fixed replacement pool for cross-dimension mutations: everyday units
/// spanning mass, length, volume, and time.
const CROSS_DIM_POOL: &[&str] = &["KiloGM", "M", "L", "HR", "KiloM", "GM", "MIN"];

/// A class of unit mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationClass {
    /// Same base unit, different SI prefix (`米`→`厘米`).
    PrefixSwap,
    /// Same dimension, Chinese folk unit with a different factor
    /// (`千克`→`斤`).
    CrossLingual,
    /// A unit of a different dimension entirely (`千克`→`米`).
    CrossDimension,
}

impl MutationClass {
    /// All classes, in report order.
    pub const ALL: [MutationClass; 3] =
        [MutationClass::PrefixSwap, MutationClass::CrossLingual, MutationClass::CrossDimension];

    /// Stable report label.
    pub fn name(self) -> &'static str {
        match self {
            MutationClass::PrefixSwap => "prefix-swap",
            MutationClass::CrossLingual => "cross-lingual",
            MutationClass::CrossDimension => "cross-dimension",
        }
    }

    fn salt(self) -> u64 {
        match self {
            MutationClass::PrefixSwap => 1,
            MutationClass::CrossLingual => 2,
            MutationClass::CrossDimension => 3,
        }
    }
}

/// One applied mutation, for inspection and reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct Mutation {
    /// Mutation class applied.
    pub class: MutationClass,
    /// Index of the mutated quantity.
    pub quantity: usize,
    /// Unit code before the mutation.
    pub from: String,
    /// Unit code after the mutation.
    pub to: String,
}

/// One row of the detection-rate table.
#[derive(Debug, Clone, PartialEq)]
pub struct PerturbRow {
    /// Mutation class.
    pub class: MutationClass,
    /// Problems where the class applied (an eligible quantity and a
    /// replacement unit existed).
    pub n: usize,
    /// Mutations the checker flagged.
    pub detected: usize,
}

impl PerturbRow {
    /// Detection rate in `[0, 1]` (0 when the class never applied).
    pub fn rate(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.detected as f64 / self.n as f64
        }
    }
}

/// Strips one SI prefix from a QUDT-style code (`KiloM` → `M`),
/// returning the family base code. Prefixed codes are generated as
/// `Kilo` + base, i.e. the capitalized English prefix name.
fn base_code(code: &str) -> &str {
    for p in SI_PREFIXES {
        let Some((head, rest)) = code.split_at_checked(p.name_en.len()) else {
            continue;
        };
        if !rest.is_empty()
            && head.eq_ignore_ascii_case(p.name_en)
            && head.ends_with(&p.name_en[1..])
        {
            return rest;
        }
    }
    code
}

fn factors_differ(a: f64, b: f64) -> bool {
    (a - b).abs() > FACTOR_TOL * a.abs().max(b.abs())
}

/// A usable, linearly-convertible replacement unit.
fn usable(u: &Unit) -> bool {
    !u.conversion.is_affine() && !u.label_zh.is_empty()
}

/// Replacement candidates for `orig` under `class`, sorted by code for
/// determinism.
fn replacements<'a>(kb: &'a DimUnitKb, orig: &Unit, class: MutationClass) -> Vec<&'a Unit> {
    let mut out: Vec<&Unit> = match class {
        MutationClass::PrefixSwap => kb
            .units()
            .iter()
            .filter(|u| {
                u.code != orig.code
                    && u.dim == orig.dim
                    && base_code(&u.code) == base_code(&orig.code)
                    && factors_differ(u.conversion.factor, orig.conversion.factor)
                    && usable(u)
            })
            .collect(),
        MutationClass::CrossLingual => kb
            .units()
            .iter()
            .filter(|u| {
                u.code != orig.code
                    && u.dim == orig.dim
                    && u.code.ends_with("-ZH")
                    && factors_differ(u.conversion.factor, orig.conversion.factor)
                    && usable(u)
            })
            .collect(),
        MutationClass::CrossDimension => CROSS_DIM_POOL
            .iter()
            .filter_map(|code| kb.unit_by_code(code))
            .filter(|u| u.dim != orig.dim && usable(u))
            .collect(),
    };
    out.sort_by(|a, b| a.code.cmp(&b.code));
    out
}

/// Applies one `class` mutation to `problem`, choosing the target
/// quantity and replacement unit from `rng`. Returns `None` when no
/// equation-relevant quantity has a replacement in this class.
pub fn mutate(
    problem: &MwpProblem,
    kb: &DimUnitKb,
    class: MutationClass,
    rng: &mut StdRng,
) -> Option<(MwpProblem, Mutation)> {
    let eligible: Vec<usize> = problem
        .equation
        .used_quantities()
        .into_iter()
        .filter(|&i| {
            problem.quantities.get(i).is_some_and(|q| !q.is_percent && q.unit_code.is_some())
        })
        .collect();
    if eligible.is_empty() {
        return None;
    }
    let start = rng.gen_range(0..eligible.len());
    for offset in 0..eligible.len() {
        let qi = *eligible.get((start + offset) % eligible.len())?;
        let q = problem.quantities.get(qi)?;
        let orig = q.unit_code.as_deref().and_then(|c| kb.unit_by_code(c));
        let Some(orig) = orig else { continue };
        let options = replacements(kb, orig, class);
        if options.is_empty() {
            continue;
        }
        let pick = options.get(rng.gen_range(0..options.len()))?;
        let mut mutated = problem.clone();
        let mq = mutated.quantities.get_mut(qi)?;
        mq.unit_code = Some(pick.code.clone());
        mq.surface = pick.label_zh.clone();
        let record = Mutation {
            class,
            quantity: qi,
            from: orig.code.clone(),
            to: pick.code.clone(),
        };
        return Some((mutated, record));
    }
    None
}

/// Per-class detection rates over an evaluation set: each problem is
/// mutated once per class (when the class applies) and the gold
/// solution re-verified; detection means the checker rejects it.
pub fn detection_rates(
    problems: &[MwpProblem],
    kb: &DimUnitKb,
    seed: u64,
    par: Parallelism,
) -> Vec<PerturbRow> {
    MutationClass::ALL
        .iter()
        .map(|&class| {
            let per_item = par_map_indexed(par, problems, |i, p| {
                let mut rng =
                    StdRng::seed_from_u64(seed_for(seed ^ PERTURB_SALT ^ class.salt(), i as u64));
                match mutate(p, kb, class, &mut rng) {
                    None => (0usize, 0usize),
                    Some((mutated, _)) => {
                        let detected = !verify_problem(&mutated, kb).accepted();
                        (1, usize::from(detected))
                    }
                }
            });
            PerturbRow {
                class,
                n: per_item.iter().map(|r| r.0).sum(),
                detected: per_item.iter().map(|r| r.1).sum(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_mwp::{generate, GenConfig, Source};

    fn problems() -> Vec<MwpProblem> {
        let mut ps = generate(Source::Math23k, &GenConfig { count: 60, seed: 31 });
        ps.extend(generate(Source::Ape210k, &GenConfig { count: 60, seed: 32 }));
        ps
    }

    #[test]
    fn prefix_swap_keeps_the_dimension() {
        let kb = DimUnitKb::shared();
        let ps = problems();
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = 0;
        for p in &ps {
            if let Some((mutated, m)) = mutate(p, &kb, MutationClass::PrefixSwap, &mut rng) {
                seen += 1;
                let from = kb.dim_of_code(&m.from).expect("original resolves");
                let to = kb.dim_of_code(&m.to).expect("replacement resolves");
                assert_eq!(from, to, "prefix swap changed the dimension: {m:?}");
                let q = &mutated.quantities[m.quantity];
                assert_eq!(q.unit_code.as_deref(), Some(m.to.as_str()));
            }
        }
        assert!(seen > 0, "prefix swap must apply to some problems");
    }

    #[test]
    fn cross_dimension_changes_the_dimension() {
        let kb = DimUnitKb::shared();
        let ps = problems();
        let mut rng = StdRng::seed_from_u64(6);
        let mut seen = 0;
        for p in &ps {
            if let Some((_, m)) = mutate(p, &kb, MutationClass::CrossDimension, &mut rng) {
                seen += 1;
                let from = kb.dim_of_code(&m.from).expect("original resolves");
                let to = kb.dim_of_code(&m.to).expect("replacement resolves");
                assert!(from != to, "cross-dimension swap kept the dimension: {m:?}");
            }
        }
        assert!(seen > 0);
    }

    #[test]
    fn every_class_applies_and_detects_nonzero() {
        let kb = DimUnitKb::shared();
        let ps = problems();
        let rows = detection_rates(&ps, &kb, 2024, Parallelism::new(1));
        assert_eq!(rows.len(), MutationClass::ALL.len());
        for row in &rows {
            assert!(row.n > 0, "class {:?} never applied", row.class);
            assert!(row.detected > 0, "class {:?} never detected: {row:?}", row.class);
            assert!(row.detected <= row.n);
        }
    }

    #[test]
    fn rates_are_identical_across_thread_widths() {
        let kb = DimUnitKb::shared();
        let ps = problems();
        let w1 = detection_rates(&ps, &kb, 7, Parallelism::new(1));
        let w4 = detection_rates(&ps, &kb, 7, Parallelism::new(4));
        assert_eq!(w1, w4);
    }

    #[test]
    fn base_code_strips_exactly_one_prefix() {
        assert_eq!(base_code("KiloM"), "M");
        assert_eq!(base_code("CentiM"), "M");
        assert_eq!(base_code("KiloGM"), "GM");
        assert_eq!(base_code("M"), "M");
        assert_eq!(base_code("MIN"), "MIN");
        assert_eq!(base_code("TONNE"), "TONNE");
    }
}
