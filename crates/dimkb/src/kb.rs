//! `DimUnitKB`: the dimensional unit knowledge base (§III-A of the paper).

use crate::data;
use crate::dim::DimVec;
use crate::error::KbError;
use crate::freq::{frequencies, PopularitySource, SyntheticPopularity};
use crate::intern::LinkIndex;
use crate::kind::{KindId, QuantityKind};
use crate::prefix::SI_PREFIXES;
use crate::spec::{KindSpec, UnitSpec};
use crate::unit::{Conversion, Unit, UnitId};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The dimensional unit knowledge base.
///
/// Stores every [`Unit`] with the full Table II schema, the
/// [`QuantityKind`] taxonomy, and the derived indexes used throughout the
/// framework: the *naming dictionary* (surface form → candidate units) that
/// powers unit linking, plus kind and dimension indexes.
///
/// # Examples
///
/// ```
/// use dimkb::DimUnitKb;
///
/// let kb = DimUnitKb::shared();
/// let poundal = kb.unit_by_code("PDL").expect("curated");
/// let dyn_per_cm = kb.unit_by_code("DYN-PER-CentiM").expect("curated");
/// // The Fig. 1 unit trap: poundal (LMT⁻²) is NOT comparable to dyn/cm (MT⁻²).
/// assert!(!poundal.dim.comparable(dyn_per_cm.dim));
/// ```
#[derive(Debug, Clone)]
pub struct DimUnitKb {
    units: Vec<Unit>,
    kinds: Vec<QuantityKind>,
    by_code: HashMap<String, UnitId>,
    kind_by_name: HashMap<String, KindId>,
    by_kind: HashMap<KindId, Vec<UnitId>>,
    by_dim: HashMap<DimVec, Vec<UnitId>>,
    /// Inverted token→unit index for free-text search, built lazily on the
    /// first [`crate::search::search`] call against this KB.
    search_index: OnceLock<crate::search::SearchIndex>,
    /// The naming dictionary, built with the KB.
    link_index: LinkIndex,
}

static STANDARD: OnceLock<Arc<DimUnitKb>> = OnceLock::new();

impl DimUnitKb {
    /// Builds the standard knowledge base from the curated tables in
    /// [`crate::data`], with SI-prefix expansion and Eq. 1–2 frequency
    /// scoring.
    pub fn standard() -> Self {
        Self::from_specs(data::all_kinds(), &data::all_units(), &SyntheticPopularity)
    }

    /// A process-wide shared copy of [`DimUnitKb::standard`].
    pub fn shared() -> Arc<Self> {
        STANDARD.get_or_init(|| Arc::new(Self::standard())).clone()
    }

    /// Builds a knowledge base from explicit specifications.
    pub fn from_specs(
        kinds: &[KindSpec],
        units: &[&UnitSpec],
        popularity: &dyn PopularitySource,
    ) -> Self {
        let mut builder = Builder::default();
        for spec in kinds {
            builder.add_kind_family(spec);
        }
        for spec in units {
            builder.add_curated(spec);
        }
        builder.expand_prefixes();
        builder.expand_rates();
        builder.finish(popularity)
    }

    /// A sub-knowledge-base containing only the units accepted by `keep`
    /// (kinds are retained in full so `KindId`s remain stable). Frequencies
    /// are preserved from the parent. Used for the WolframAlpha engine's KB
    /// and Table IV's UoM subset (simulated models sample a
    /// `KnowledgeView` instead).
    pub fn subset(&self, mut keep: impl FnMut(&Unit) -> bool) -> Self {
        let units = self.units.iter().filter(|u| keep(u)).cloned();
        Self::from_units(units, self.kinds.clone(), self.kind_by_name.clone())
    }

    /// Numbers the units densely in order and builds every index over them.
    fn from_units(
        units: impl Iterator<Item = Unit>,
        kinds: Vec<QuantityKind>,
        kind_by_name: HashMap<String, KindId>,
    ) -> Self {
        let units: Vec<Unit> =
            units.enumerate().map(|(i, unit)| Unit { id: UnitId(i as u32), ..unit }).collect();
        let mut by_code = HashMap::with_capacity(units.len());
        let (mut by_kind, mut by_dim) = (HashMap::new(), HashMap::new());
        for unit in &units {
            by_code.insert(unit.code.clone(), unit.id);
            by_kind.entry(unit.kind).or_insert_with(Vec::new).push(unit.id);
            by_dim.entry(unit.dim).or_insert_with(Vec::new).push(unit.id);
        }
        let link_index = LinkIndex::build(&units);
        let search_index = OnceLock::new();
        DimUnitKb { units, kinds, by_code, kind_by_name, by_kind, by_dim, search_index, link_index }
    }

    /// The unit with the given id. Panics on a foreign id — ids are only
    /// produced by this KB's own queries.
    pub fn unit(&self, id: UnitId) -> &Unit {
        &self.units[id.0 as usize]
    }

    /// The kind with the given id.
    pub fn kind(&self, id: KindId) -> &QuantityKind {
        &self.kinds[id.0 as usize]
    }

    /// All units.
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// All quantity kinds.
    pub fn kinds(&self) -> &[QuantityKind] {
        &self.kinds
    }

    /// Looks up a unit by its stable code.
    pub fn unit_by_code(&self, code: &str) -> Option<&Unit> {
        self.by_code.get(code).map(|&id| self.unit(id))
    }

    /// Looks up a quantity kind by its English name.
    pub fn kind_by_name(&self, name: &str) -> Option<&QuantityKind> {
        self.kind_by_name.get(name).map(|&id| self.kind(id))
    }

    /// Naming-dictionary lookup. A case-exact match wins (so `mW` and `MW`
    /// stay distinct); otherwise the lookup falls back to the
    /// case-insensitive index. Returns every unit the surface form may
    /// refer to.
    pub fn lookup(&self, surface: &str) -> &[UnitId] {
        self.link_index.lookup(surface, &mut String::new())
    }

    /// Iterates over the case-insensitive naming dictionary (normalized
    /// surface form → candidate units) in ascending key order. This is the
    /// retrieval source for candidate generation in unit linking.
    pub fn naming_dictionary(&self) -> impl Iterator<Item = (&str, &[UnitId])> {
        self.link_index.entries()
    }

    /// Units measuring the given kind.
    pub fn units_of_kind(&self, kind: KindId) -> &[UnitId] {
        self.by_kind.get(&kind).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Units with exactly the given dimension.
    pub fn units_with_dim(&self, dim: DimVec) -> &[UnitId] {
        self.by_dim.get(&dim).map(Vec::as_slice).unwrap_or(&[])
    }

    // ---- Dimension-resolution helpers (dim-verify) ------------------------
    //
    // The solution checker needs to go straight from a unit code or a
    // surface form to a dimension vector / linear SI scale, without
    // materializing the `Unit` record at every equation leaf.

    /// The dimension vector of a unit code; `None` for unknown codes.
    pub fn dim_of_code(&self, code: &str) -> Option<DimVec> {
        self.unit_by_code(code).map(|u| u.dim)
    }

    /// The multiplicative SI factor of a unit code; `None` for unknown
    /// codes and for affine conversions (temperature scales have no
    /// single factor).
    pub fn linear_scale_of_code(&self, code: &str) -> Option<f64> {
        self.unit_by_code(code)
            .filter(|u| !u.conversion.is_affine())
            .map(|u| u.conversion.factor)
    }

    /// The dimension vector a surface form resolves to through the
    /// naming dictionary (first candidate, in dictionary preference
    /// order); `None` for unknown surfaces.
    pub fn dim_of_surface(&self, surface: &str) -> Option<DimVec> {
        self.lookup(surface).first().map(|&id| self.unit(id).dim)
    }

    /// The multiplicative SI factor a surface form resolves to (first
    /// candidate); `None` for unknown surfaces and affine conversions.
    pub fn linear_scale_of_surface(&self, surface: &str) -> Option<f64> {
        self.lookup(surface)
            .first()
            .map(|&id| self.unit(id))
            .filter(|u| !u.conversion.is_affine())
            .map(|u| u.conversion.factor)
    }

    /// Whether two units share a dimension (the dimension law).
    pub fn comparable(&self, a: UnitId, b: UnitId) -> bool {
        self.unit(a).dim == self.unit(b).dim
    }

    /// Converts `value` from one unit to another, honouring affine
    /// (temperature) conversions. Fails on a dimension mismatch.
    pub fn convert(&self, value: f64, from: UnitId, to: UnitId) -> Result<f64, KbError> {
        let (f, t) = (self.unit(from), self.unit(to));
        if f.dim != t.dim {
            return Err(KbError::DimensionMismatch { from: f.dim, to: t.dim });
        }
        Ok(t.conversion.from_si(f.conversion.to_si(value)))
    }

    /// The multiplicative factor β of the unit-conversion task (Def. 8):
    /// `value[from] × β = value[to]`. Affine units have no single factor and
    /// are rejected.
    pub fn conversion_factor(&self, from: UnitId, to: UnitId) -> Result<f64, KbError> {
        let (f, t) = (self.unit(from), self.unit(to));
        if f.dim != t.dim {
            return Err(KbError::DimensionMismatch { from: f.dim, to: t.dim });
        }
        if f.conversion.is_affine() {
            return Err(KbError::AffineInCompound(f.label_en.clone()));
        }
        if t.conversion.is_affine() {
            return Err(KbError::AffineInCompound(t.label_en.clone()));
        }
        Ok(f.conversion.factor / t.conversion.factor)
    }

    /// The inverted search index for this KB, built on first use. Clones
    /// carry the already-built index; `subset` starts empty.
    pub(crate) fn search_index(&self) -> &crate::search::SearchIndex {
        self.search_index.get_or_init(|| crate::search::SearchIndex::build(self))
    }

    /// The interned naming dictionary (symbol tables over both
    /// dictionaries plus the length-bucketed fuzzy prefilter), built with
    /// the KB and shared by every linker over it.
    pub fn link_index(&self) -> &LinkIndex {
        &self.link_index
    }
}

/// Whitespace-normalizes a surface form, preserving case (the case-exact
/// naming-dictionary key).
pub fn normalize_cased(surface: &str) -> String {
    let mut out = String::with_capacity(surface.len());
    normalize_cased_into(surface, &mut out);
    out
}

/// [`normalize_cased`] into a caller-provided buffer (cleared first), so hot
/// paths can normalize without allocating. Returns the buffer's contents.
pub fn normalize_cased_into<'a>(surface: &str, out: &'a mut String) -> &'a str {
    out.clear();
    let mut last_space = true;
    for c in surface.trim().chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            out.push(c);
            last_space = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Normalizes a surface form for case-insensitive naming-dictionary lookup.
pub fn normalize(surface: &str) -> String {
    let mut out = String::with_capacity(surface.len());
    normalize_into(surface, &mut out);
    out
}

/// [`normalize`] into a caller-provided buffer (cleared first). Returns the
/// buffer's contents.
pub fn normalize_into<'a>(surface: &str, out: &'a mut String) -> &'a str {
    out.clear();
    let mut last_space = true;
    for c in surface.trim().chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            out.extend(c.to_lowercase());
            last_space = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

#[derive(Default)]
struct Builder {
    kinds: Vec<QuantityKind>,
    kind_by_name: HashMap<String, KindId>,
    /// (unit-without-frequency, base popularity, prefixable)
    pending: Vec<(Unit, f64, bool)>,
    codes: HashMap<String, usize>,
}

impl Builder {
    fn add_kind_family(&mut self, spec: &KindSpec) {
        let dim = DimVec::parse(spec.dim).unwrap_or_else(|e| {
            // lint:allow(no_panic, KIND_SPECS dimensions are curated constants parsed once per process; a bad literal is a compile-time-class data bug caught by the kb tests)
            panic!("kind {} has invalid dimension {:?}: {e}", spec.name_en, spec.dim)
        });
        self.add_kind(spec.name_en, spec.name_zh, dim);
        for (en, zh) in spec.narrow {
            self.add_kind(en, zh, dim);
        }
    }

    fn add_kind(&mut self, en: &str, zh: &str, dim: DimVec) {
        let id = KindId(self.kinds.len() as u32);
        self.kinds.push(QuantityKind { id, name_en: en.to_string(), name_zh: zh.to_string(), dim });
        self.kind_by_name.insert(en.to_string(), id);
    }

    fn kind_id(&self, name: &str) -> KindId {
        *self
            .kind_by_name
            .get(name)
            // lint:allow(no_panic, unit specs and kind specs are curated constants registered together at build time; a dangling kind name is a data bug the kb tests catch, not a runtime input)
            .unwrap_or_else(|| panic!("unit references unknown kind {name:?}"))
    }

    fn add_curated(&mut self, spec: &UnitSpec) {
        let kind_id = self.kind_id(spec.kind);
        let kind = &self.kinds[kind_id.0 as usize];
        let mut keywords: Vec<String> = kind.words();
        keywords.extend(spec.kw.iter().map(|s| s.to_string()));
        let description = if spec.desc.is_empty() {
            default_description(spec.en, &kind.name_en, spec.factor, spec.offset)
        } else {
            spec.desc.to_string()
        };
        let unit = Unit {
            id: UnitId(0), // assigned in finish()
            code: spec.code.to_string(),
            label_en: spec.en.to_string(),
            label_zh: spec.zh.to_string(),
            symbol: spec.sym.to_string(),
            aliases: spec.aliases.iter().map(|s| s.to_string()).collect(),
            description,
            keywords,
            frequency: 0.0, // assigned in finish()
            kind: kind_id,
            dim: kind.dim,
            conversion: Conversion::affine(spec.factor, spec.offset),
            prefixed: false,
        };
        self.push_unit(unit, spec.pop, spec.prefixable);
    }

    fn push_unit(&mut self, unit: Unit, pop: f64, prefixable: bool) {
        if self.codes.insert(unit.code.clone(), self.pending.len()).is_some() {
            // lint:allow(no_panic, unit codes come from the curated spec tables; a collision is a build-time data bug the kb uniqueness tests catch, not a runtime input)
            panic!("duplicate unit code {:?}", unit.code);
        }
        self.pending.push((unit, pop, prefixable));
    }

    /// Expands every prefixable curated unit with the 20 SI prefixes,
    /// mirroring how QUDT reaches its unit count. The prefixed unit's
    /// popularity is the base popularity scaled by the prefix commonness —
    /// producing the paper's "centimetre frequent, decimetre rare" pattern.
    fn expand_prefixes(&mut self) {
        let prefixable: Vec<(Unit, f64)> = self
            .pending
            .iter()
            .filter(|(_, _, p)| *p)
            .map(|(u, pop, _)| (u.clone(), *pop))
            .collect();
        for (base, base_pop) in prefixable {
            for prefix in SI_PREFIXES {
                let code = format!("{}{}", capitalize(prefix.name_en), base.code);
                if self.codes.contains_key(&code) {
                    continue;
                }
                let label_en = format!("{}{}", prefix.name_en, base.label_en);
                let label_zh = format!("{}{}", prefix.name_zh, base.label_zh);
                let symbol = format!("{}{}", prefix.symbol, base.symbol);
                let mut aliases: Vec<String> = base
                    .aliases
                    .iter()
                    .filter(|a| !a.contains(' ') && a.is_ascii())
                    .map(|a| format!("{}{}", prefix.name_en, a))
                    .collect();
                if symbol.contains('µ') {
                    aliases.push(symbol.replace('µ', "u"));
                }
                let mut keywords = base.keywords.clone();
                keywords.push(prefix.name_en.to_string());
                let factor = base.conversion.factor * prefix.factor();
                let unit = Unit {
                    id: UnitId(0),
                    code,
                    label_en,
                    label_zh,
                    symbol,
                    aliases,
                    description: format!(
                        "{} {} ({}× the {})",
                        prefix.name_en,
                        base.label_en,
                        format_factor(prefix.factor()),
                        base.label_en
                    ),
                    keywords,
                    frequency: 0.0,
                    kind: base.kind,
                    dim: base.dim,
                    conversion: Conversion::linear(factor),
                    prefixed: true,
                };
                let pop = (base_pop * prefix.commonness).max(0.05);
                self.push_unit(unit, pop, false);
            }
        }
    }

    /// Expands common stock/flow units into per-time rate units
    /// (litre → litre per minute), the other big QUDT growth pattern.
    /// Collisions with curated codes are skipped; dimensions that no kind
    /// covers are skipped too.
    fn expand_rates(&mut self) {
        const RATE_BASES: &[&str] = &[
            "L", "MilliL", "MicroL", "MegaL", "M3", "CM3", "GM", "KiloGM", "TONNE",
            "MilliGM", "MicroGM", "M", "KiloM", "CentiM", "MilliM", "MI", "FT", "MOL",
            "MilliMOL", "MicroMOL", "J", "KiloJ", "KiloCAL", "KiloWH", "BIT", "KiloBIT",
            "MegaBIT", "GigaBIT", "BYTE", "KiloBYTE", "MegaBYTE", "GigaBYTE", "TeraBYTE",
            "GAL-US", "FT3", "REV", "RAD-ANGLE", "DEG-ANGLE", "C", "KiloGM-PER-M3",
        ];
        const RATE_TIMES: &[(&str, f64)] = &[
            ("SEC", 1.0),
            ("MIN", 60.0),
            ("HR", 3600.0),
            ("DAY", 86_400.0),
            ("WK", 604_800.0),
            ("YR", 31_557_600.0),
        ];
        // Non-time denominators of the same QUDT growth family:
        // per-area (yield, flux), per-mass (specific X), per-mole (molar X),
        // per-distance (consumption, fares).
        const OTHER_DENOMS: &[&str] = &["M2", "KiloGM", "MOL", "HA", "L", "KiloM"];
        const OTHER_NUMERATORS: &[&str] = &[
            "W", "J", "KiloJ", "N", "LM", "GM", "KiloGM", "TONNE", "L", "MilliL", "MOL",
            "MilliGM", "KiloWH", "KiloCAL", "M3",
        ];
        // Dimension → kind index for assigning generated units.
        let mut kind_by_dim: HashMap<DimVec, KindId> = HashMap::new();
        for kind in &self.kinds {
            kind_by_dim.entry(kind.dim).or_insert(kind.id);
        }
        let snapshot: Vec<(Unit, f64)> = self
            .pending
            .iter()
            .filter(|(u, _, _)| RATE_BASES.contains(&u.code.as_str()))
            .map(|(u, pop, _)| (u.clone(), *pop))
            .collect();
        let times: Vec<(Unit, f64, f64)> = self
            .pending
            .iter()
            .filter_map(|(u, pop, _)| {
                RATE_TIMES
                    .iter()
                    .find(|(c, _)| *c == u.code)
                    .map(|(_, secs)| (u.clone(), *pop, *secs))
            })
            .collect();
        let other_pairs: Vec<(Unit, f64, Unit, f64)> = {
            let numerators: Vec<(Unit, f64)> = self
                .pending
                .iter()
                .filter(|(u, _, _)| OTHER_NUMERATORS.contains(&u.code.as_str()))
                .map(|(u, pop, _)| (u.clone(), *pop))
                .collect();
            let denominators: Vec<(Unit, f64)> = self
                .pending
                .iter()
                .filter(|(u, _, _)| OTHER_DENOMS.contains(&u.code.as_str()))
                .map(|(u, pop, _)| (u.clone(), *pop))
                .collect();
            numerators
                .iter()
                .flat_map(|(n, np)| {
                    denominators.iter().map(move |(d, dp)| (n.clone(), *np, d.clone(), *dp))
                })
                .collect()
        };
        // Existing Chinese labels guard against semantic duplicates
        // (the curated t/h would otherwise reappear as TONNE-PER-HR).
        let existing_zh: std::collections::HashSet<String> =
            self.pending.iter().map(|(u, _, _)| u.label_zh.clone()).collect();
        for (base, base_pop) in snapshot {
            for (time, time_pop, secs) in &times {
                let code = format!("{}-PER-{}", base.code, time.code);
                if self.codes.contains_key(&code) {
                    continue;
                }
                let label_zh = format!("{}每{}", base.label_zh, time.label_zh);
                if existing_zh.contains(&label_zh) {
                    continue;
                }
                let dim = base.dim / time.dim;
                let Some(&kind) = kind_by_dim.get(&dim) else { continue };
                let unit = Unit {
                    id: UnitId(0),
                    code,
                    label_en: format!("{} per {}", base.label_en, time.label_en),
                    label_zh,
                    symbol: format!("{}/{}", base.symbol, time.symbol),
                    aliases: Vec::new(),
                    description: format!(
                        "{} per {}: a rate of {}",
                        base.label_en,
                        time.label_en,
                        self.kinds[kind.0 as usize].name_en
                    ),
                    keywords: {
                        let mut kw = self.kinds[kind.0 as usize].name_en
                            .chars()
                            .collect::<String>()
                            .to_lowercase()
                            .split_whitespace()
                            .map(str::to_string)
                            .collect::<Vec<_>>();
                        kw.push("rate".to_string());
                        kw.push("per".to_string());
                        kw
                    },
                    frequency: 0.0,
                    kind,
                    dim,
                    conversion: Conversion::linear(base.conversion.factor / secs),
                    prefixed: false,
                };
                let pop = (base_pop.min(*time_pop) * 0.2).max(0.05);
                self.push_unit(unit, pop, false);
            }
        }
        for (num, num_pop, den, den_pop) in other_pairs {
            if num.code == den.code {
                continue;
            }
            let code = format!("{}-PER-{}", num.code, den.code);
            if self.codes.contains_key(&code) {
                continue;
            }
            let label_zh = format!("{}每{}", num.label_zh, den.label_zh);
            if existing_zh.contains(&label_zh) {
                continue;
            }
            let dim = num.dim / den.dim;
            let Some(&kind) = kind_by_dim.get(&dim) else { continue };
            if dim.is_dimensionless() {
                continue; // L per L etc. degenerate to ratios
            }
            let unit = Unit {
                id: UnitId(0),
                code,
                label_en: format!("{} per {}", num.label_en, den.label_en),
                label_zh,
                symbol: format!("{}/{}", num.symbol, den.symbol),
                aliases: Vec::new(),
                description: format!(
                    "{} per {}: a {}",
                    num.label_en,
                    den.label_en,
                    self.kinds[kind.0 as usize].name_en
                ),
                keywords: {
                    let mut kw: Vec<String> = self.kinds[kind.0 as usize]
                        .name_en
                        .to_lowercase()
                        .split_whitespace()
                        .map(str::to_string)
                        .collect();
                    kw.push("per".to_string());
                    kw
                },
                frequency: 0.0,
                kind,
                dim,
                conversion: Conversion::linear(num.conversion.factor / den.conversion.factor),
                prefixed: false,
            };
            let pop = (num_pop.min(den_pop) * 0.15).max(0.05);
            self.push_unit(unit, pop, false);
        }
    }

    fn finish(self, popularity: &dyn PopularitySource) -> DimUnitKb {
        let items: Vec<(&str, f64)> =
            self.pending.iter().map(|(u, pop, _)| (u.code.as_str(), *pop)).collect();
        let freqs = frequencies(popularity, &items);
        let units = self.pending.into_iter().zip(freqs);
        let units = units.map(|((unit, _, _), frequency)| Unit { frequency, ..unit });
        DimUnitKb::from_units(units, self.kinds, self.kind_by_name)
    }
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

fn default_description(en: &str, kind: &str, factor: f64, offset: f64) -> String {
    if offset != 0.0 {
        format!("{en}: a unit of {kind} (affine scale)")
    } else if (factor - 1.0).abs() < f64::EPSILON {
        format!("{en}: the coherent SI unit of {kind}")
    } else {
        format!("{en}: a unit of {kind} equal to {} SI coherent units", format_factor(factor))
    }
}

fn format_factor(f: f64) -> String {
    if (1e-3..1e7).contains(&f) {
        let s = format!("{f}");
        if s.len() <= 12 {
            return s;
        }
    }
    format!("{f:e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_kb_is_large() {
        let kb = DimUnitKb::shared();
        assert!(kb.units().len() >= 900, "got {} units", kb.units().len());
        assert!(kb.kinds().len() >= 120, "got {} kinds", kb.kinds().len());
    }

    #[test]
    fn kilogram_comes_from_prefix_expansion_and_is_coherent() {
        let kb = DimUnitKb::shared();
        let kg = kb.unit_by_code("KiloGM").expect("kilogram expanded from gram");
        assert_eq!(kg.label_en, "kilogram");
        assert_eq!(kg.label_zh, "千克");
        assert_eq!(kg.symbol, "kg");
        assert!((kg.conversion.factor - 1.0).abs() < 1e-12);
        assert!(kg.prefixed);
    }

    #[test]
    fn naming_dictionary_resolves_aliases_and_chinese() {
        let kb = DimUnitKb::shared();
        assert!(!kb.lookup("kilometer").is_empty());
        assert!(!kb.lookup("千米").is_empty());
        assert!(!kb.lookup("km").is_empty());
        assert!(!kb.lookup("公里").is_empty() || !kb.lookup("千米").is_empty());
    }

    #[test]
    fn ambiguous_degree_has_multiple_candidates() {
        let kb = DimUnitKb::shared();
        // "度" is both the Chinese degree-Celsius colloquialism and the
        // angle degree's Chinese label prefix; at minimum it must resolve.
        let ids = kb.lookup("degree");
        assert!(!ids.is_empty());
    }

    #[test]
    fn convert_metres_to_centimetres() {
        let kb = DimUnitKb::shared();
        let m = kb.unit_by_code("M").unwrap().id;
        let cm = kb.unit_by_code("CentiM").unwrap().id;
        assert!((kb.convert(2.5, m, cm).unwrap() - 250.0).abs() < 1e-9);
        assert!((kb.conversion_factor(m, cm).unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn convert_rejects_dimension_mismatch() {
        let kb = DimUnitKb::shared();
        let m = kb.unit_by_code("M").unwrap().id;
        let s = kb.unit_by_code("SEC").unwrap().id;
        assert!(matches!(
            kb.convert(1.0, m, s),
            Err(KbError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn affine_temperature_conversion() {
        let kb = DimUnitKb::shared();
        let c = kb.unit_by_code("DEG-C").unwrap().id;
        let f = kb.unit_by_code("DEG-F").unwrap().id;
        let k = kb.unit_by_code("K").unwrap().id;
        assert!((kb.convert(100.0, c, f).unwrap() - 212.0).abs() < 1e-9);
        assert!((kb.convert(0.0, c, k).unwrap() - 273.15).abs() < 1e-9);
        assert!(kb.conversion_factor(c, f).is_err(), "affine units have no single β");
    }

    #[test]
    fn frequency_ordering_centimetre_beats_decimetre() {
        let kb = DimUnitKb::shared();
        let cm = kb.unit_by_code("CentiM").unwrap();
        let dm = kb.unit_by_code("DeciM").unwrap();
        assert!(
            cm.frequency > dm.frequency,
            "paper §III-A4: centimetre ({}) must outrank decimetre ({})",
            cm.frequency,
            dm.frequency
        );
    }

    #[test]
    fn frequencies_are_within_delta_one() {
        let kb = DimUnitKb::shared();
        for unit in kb.units() {
            assert!(
                unit.frequency >= crate::freq::DELTA - 1e-9 && unit.frequency <= 1.0 + 1e-9,
                "{}: {}",
                unit.code,
                unit.frequency
            );
        }
    }

    #[test]
    fn units_with_dim_groups_comparable_units() {
        let kb = DimUnitKb::shared();
        let n = kb.unit_by_code("N").unwrap();
        let ids = kb.units_with_dim(n.dim);
        assert!(ids.iter().any(|&id| kb.unit(id).code == "PDL"), "poundal shares force dim");
        assert!(ids.iter().all(|&id| kb.unit(id).dim == n.dim));
    }

    #[test]
    fn subset_preserves_lookup_and_frequency() {
        let kb = DimUnitKb::shared();
        let sub = kb.subset(|u| !u.prefixed);
        assert!(sub.units().len() < kb.units().len());
        let m = sub.unit_by_code("M").expect("curated units kept");
        assert_eq!(m.frequency, kb.unit_by_code("M").unwrap().frequency);
        assert!(sub.unit_by_code("KiloGM").is_none());
        // Ids are re-assigned densely.
        for (i, unit) in sub.units().iter().enumerate() {
            assert_eq!(unit.id.0 as usize, i);
        }
    }

    #[test]
    fn normalize_collapses_case_and_whitespace() {
        assert_eq!(normalize("  Square   Metre "), "square metre");
        assert_eq!(normalize("KM"), "km");
        assert_eq!(normalize("千米"), "千米");
    }

    #[test]
    fn case_exact_lookup_separates_prefix_symbols() {
        let kb = DimUnitKb::shared();
        let label = |s: &str| {
            kb.lookup(s).iter().map(|&id| kb.unit(id).label_en.clone()).collect::<Vec<_>>()
        };
        assert_eq!(label("MW"), vec!["megawatt"]);
        assert_eq!(label("mW"), vec!["milliwatt"]);
        assert_eq!(label("t"), vec!["tonne"]);
        assert_eq!(label("T"), vec!["tesla"]);
        // Case-insensitive fallback still resolves sloppy input.
        assert!(!kb.lookup("KM").is_empty());
        assert!(!kb.lookup("Mw").is_empty());
    }

    #[test]
    fn micro_symbol_gets_ascii_alias() {
        let kb = DimUnitKb::shared();
        assert!(!kb.lookup("um").is_empty(), "µm should have ascii alias um");
    }

    #[test]
    fn dimension_resolution_helpers() {
        let kb = DimUnitKb::shared();
        let metre = DimVec::parse("L1").expect("length vector");
        assert_eq!(kb.dim_of_code("KiloM"), Some(metre));
        assert_eq!(kb.dim_of_code("NO-SUCH"), None);
        assert_eq!(kb.linear_scale_of_code("KiloM"), Some(1000.0));
        assert_eq!(kb.linear_scale_of_code("DEG-C"), None, "affine units have no single factor");
        assert_eq!(kb.dim_of_surface("千米"), Some(metre));
        assert_eq!(kb.linear_scale_of_surface("千米"), Some(1000.0));
        assert_eq!(kb.dim_of_surface("不是单位"), None);
    }
}
