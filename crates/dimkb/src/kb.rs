//! `DimUnitKB`: the dimensional unit knowledge base (§III-A of the paper).
//!
//! The build is one pass of the [`Builder`] over the curated tables:
//! curated units, then SI-prefix and rate expansion (each expanded unit
//! reads its base units in place, by index), then Eq. 1–2 frequencies; and
//! [`DimUnitKb::from_units`] numbers the units and builds every index over
//! them. Code and kind-name lookups are hash indexes over the records'
//! own strings, and the per-kind and per-dimension unit lists are runs of
//! one flat array each, so past the unit records themselves the build
//! makes a few dozen allocations.

use crate::data;
use crate::dim::DimVec;
use crate::error::KbError;
use crate::freq::{frequencies, PopularitySource, SyntheticPopularity};
use crate::intern::{group_by_key, KeyIndex, LinkIndex};
use crate::kind::{KindId, QuantityKind};
use crate::prefix::{SiPrefix, SI_PREFIXES};
use crate::spec::{KindSpec, UnitSpec};
use crate::unit::{Conversion, Unit, UnitId};
use dim_embed::tokenize::is_cjk;
use std::collections::HashMap;
use std::fmt::Write;
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
    /// Shared with every subset, whose `KindId`s are the parent's.
    kinds: Arc<[QuantityKind]>,
    /// Unit ids by `code`.
    by_code: KeyIndex,
    /// Kind ids by `name_en`.
    kind_by_name: KeyIndex,
    /// `kind_units[kind_runs[k]..kind_runs[k + 1]]` are kind `k`'s units,
    /// in id order.
    kind_runs: Vec<u32>,
    kind_units: Vec<UnitId>,
    /// Each dimension's `[start, end)` run of `dim_units`, in id order.
    by_dim: HashMap<DimVec, [u32; 2]>,
    dim_units: Vec<UnitId>,
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
        kinds: Arc<[QuantityKind]>,
        kind_by_name: KeyIndex,
    ) -> Self {
        let units: Vec<Unit> =
            units.enumerate().map(|(i, unit)| Unit { id: UnitId(i as u32), ..unit }).collect();
        let mut by_code = KeyIndex::with_capacity(units.len());
        for id in 0..units.len() as u32 {
            by_code.insert(id, |i| units[i as usize].code.as_bytes());
        }
        // Unit ids are positions, so the grouped positions are the ids.
        let unit_kinds: Vec<u32> = units.iter().map(|u| u.kind.0).collect();
        let (kind_runs, by_kind) = group_by_key(&unit_kinds, kinds.len());
        let kind_units = by_kind.into_iter().map(UnitId).collect();
        // A stable sort keeps id order within each dimension's run.
        let mut dim_units: Vec<UnitId> = units.iter().map(|u| u.id).collect();
        dim_units.sort_by_key(|id| units[id.0 as usize].dim.exponents());
        let mut by_dim: HashMap<DimVec, [u32; 2]> = HashMap::new();
        for (i, id) in dim_units.iter().enumerate() {
            by_dim.entry(units[id.0 as usize].dim).or_insert([i as u32; 2])[1] = i as u32 + 1;
        }
        let link_index = LinkIndex::build(&units);
        DimUnitKb {
            units,
            kinds,
            by_code,
            kind_by_name,
            kind_runs,
            kind_units,
            by_dim,
            dim_units,
            search_index: OnceLock::new(),
            link_index,
        }
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
        let id = self.by_code.get(code.as_bytes(), |i| self.units[i as usize].code.as_bytes())?;
        Some(&self.units[id as usize])
    }

    /// Looks up a quantity kind by its English name.
    pub fn kind_by_name(&self, name: &str) -> Option<&QuantityKind> {
        let name_of = |i: u32| self.kinds[i as usize].name_en.as_bytes();
        let id = self.kind_by_name.get(name.as_bytes(), name_of)?;
        Some(&self.kinds[id as usize])
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
        let k = kind.0 as usize;
        match (self.kind_runs.get(k), self.kind_runs.get(k + 1)) {
            (Some(&start), Some(&end)) => &self.kind_units[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Units with exactly the given dimension.
    pub fn units_with_dim(&self, dim: DimVec) -> &[UnitId] {
        let run = self.by_dim.get(&dim);
        run.map_or(&[], |&[start, end]| &self.dim_units[start as usize..end as usize])
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
    push_normalized(surface, false, &mut out);
    out
}

/// [`normalize_cased`] into a caller-provided buffer (cleared first), so hot
/// paths can normalize without allocating. Returns the buffer's contents.
pub fn normalize_cased_into<'a>(surface: &str, out: &'a mut String) -> &'a str {
    out.clear();
    push_normalized(surface, false, out);
    out
}

/// Normalizes a surface form for case-insensitive naming-dictionary lookup.
pub fn normalize(surface: &str) -> String {
    let mut out = String::with_capacity(surface.len());
    push_normalized(surface, true, &mut out);
    out
}

/// [`normalize`] into a caller-provided buffer (cleared first). Returns the
/// buffer's contents.
pub fn normalize_into<'a>(surface: &str, out: &'a mut String) -> &'a str {
    out.clear();
    push_normalized(surface, true, out);
    out
}

/// True for the non-ASCII chars that normalization copies unchanged: CJK
/// ideographs and CJK and fullwidth punctuation. None is whitespace or has
/// a lowercase form other than itself; a test checks every one.
fn is_caseless_cjk(c: char) -> bool {
    is_cjk(c)
        || matches!(c,
            '\u{3001}'..='\u{303F}'   // CJK symbols and punctuation, bar U+3000 (a space)
            | '\u{FF01}'..='\u{FF20}' // fullwidth punctuation and digits
            | '\u{FF3B}'..='\u{FF40}' // between the fullwidth capitals and small letters
            | '\u{FF5B}'..='\u{FF65}' // fullwidth and halfwidth CJK punctuation
        )
}

/// Appends `surface` to `out` trimmed, with each whitespace run collapsed
/// to one space, and lowercased when `fold_case`. ASCII chars take
/// `to_ascii_lowercase`, which equals `char::to_lowercase` on ASCII, and
/// [`is_caseless_cjk`] chars are pushed unchanged. A trimmed form of
/// printable ASCII, single spaces and caseless CJK (most forms and most
/// annotator candidates) is already collapsed, so it is copied whole.
pub(crate) fn push_normalized(surface: &str, fold_case: bool, out: &mut String) {
    let start = out.len();
    let trimmed = surface.trim();
    let mut after_space = false;
    let collapsed = trimmed.chars().all(|c| {
        let ok = if c.is_ascii() {
            c.is_ascii_graphic() || (c == ' ' && !after_space)
        } else {
            is_caseless_cjk(c)
        };
        after_space = c == ' ';
        ok
    });
    if collapsed {
        out.push_str(trimmed);
        if fold_case {
            out[start..].make_ascii_lowercase();
        }
        return;
    }
    let mut last_space = true;
    for c in trimmed.chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            if !fold_case || is_caseless_cjk(c) {
                out.push(c);
            } else if c.is_ascii() {
                out.push(c.to_ascii_lowercase());
            } else {
                out.extend(c.to_lowercase());
            }
            last_space = false;
        }
    }
    if out.len() > start && out.ends_with(' ') {
        out.pop();
    }
}

/// Turns `buf`, holding `normalize_cased(surface)`, into
/// `normalize(surface)`. Case folding works char by char and never turns a
/// char into whitespace, so the folded key is the case-exact key with each
/// char folded: when every non-ASCII char is [`is_caseless_cjk`] that is
/// the ASCII fold, done in place; any other key is normalized afresh.
pub(crate) fn fold_cased_key(surface: &str, buf: &mut String) {
    if buf.chars().all(|c| c.is_ascii() || is_caseless_cjk(c)) {
        buf.make_ascii_lowercase();
    } else {
        normalize_into(surface, buf);
    }
}

/// The KB under construction. Expansion reads the units it expands in
/// place, by index into `pending`, and builds each candidate code and
/// Chinese label in a reused buffer, so a skipped candidate costs no
/// allocation and an accepted one allocates only its own fields.
#[derive(Default)]
struct Builder {
    kinds: Vec<QuantityKind>,
    /// Kind ids by `name_en`; a repeated name resolves to its last kind.
    kind_by_name: KeyIndex,
    /// (unit-without-frequency, base popularity, prefixable)
    pending: Vec<(Unit, f64, bool)>,
    /// Indexes of `pending` by unit code.
    codes: KeyIndex,
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
        self.kind_by_name.insert(id.0, |i| self.kinds[i as usize].name_en.as_bytes());
    }

    fn kind_id(&self, name: &str) -> KindId {
        let name_of = |i: u32| self.kinds[i as usize].name_en.as_bytes();
        let id = self.kind_by_name.get(name.as_bytes(), name_of);
        // lint:allow(no_panic, unit specs and kind specs are curated constants registered together at build time; a dangling kind name is a data bug the kb tests catch, not a runtime input)
        KindId(id.unwrap_or_else(|| panic!("unit references unknown kind {name:?}")))
    }

    fn has_code(&self, code: &str) -> bool {
        self.codes.get(code.as_bytes(), |i| self.pending[i as usize].0.code.as_bytes()).is_some()
    }

    fn add_curated(&mut self, spec: &UnitSpec) {
        let kind_id = self.kind_id(spec.kind);
        let kind = &self.kinds[kind_id.0 as usize];
        let mut keywords = Vec::with_capacity(kind.word_count() + spec.kw.len());
        kind.push_words(&mut keywords);
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
        let id = self.pending.len() as u32;
        self.pending.push((unit, pop, prefixable));
        if self.codes.insert(id, |i| self.pending[i as usize].0.code.as_bytes()).is_some() {
            // lint:allow(no_panic, unit codes come from the curated spec tables; a collision is a build-time data bug the kb uniqueness tests catch, not a runtime input)
            panic!("duplicate unit code {:?}", self.pending[id as usize].0.code);
        }
    }

    /// Expands every prefixable curated unit with the 20 SI prefixes,
    /// mirroring how QUDT reaches its unit count. The prefixed unit's
    /// popularity is the base popularity scaled by the prefix commonness —
    /// producing the paper's "centimetre frequent, decimetre rare" pattern.
    fn expand_prefixes(&mut self) {
        let mut code = String::new();
        for base in 0..self.pending.len() {
            if !self.pending[base].2 {
                continue;
            }
            for prefix in SI_PREFIXES {
                code.clear();
                let mut name = prefix.name_en.chars();
                code.extend(name.next().into_iter().flat_map(char::to_uppercase));
                code.push_str(name.as_str());
                code.push_str(&self.pending[base].0.code);
                if self.has_code(&code) {
                    continue;
                }
                let (unit, base_pop, _) = &self.pending[base];
                let unit_pop = (base_pop * prefix.commonness).max(0.05);
                let unit = prefixed(unit, prefix, &code);
                self.push_unit(unit, unit_pop, false);
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
        // The units each family expands, by index, in pending order; all
        // are taken before the first rate unit is added.
        let among = |codes: &[&str]| -> Vec<usize> {
            let pending = self.pending.iter().enumerate();
            let found = pending.filter(|(_, (u, _, _))| codes.contains(&u.code.as_str()));
            found.map(|(i, _)| i).collect()
        };
        let (bases, numerators, denominators) =
            (among(RATE_BASES), among(OTHER_NUMERATORS), among(OTHER_DENOMS));
        let times: Vec<(usize, f64)> = self
            .pending
            .iter()
            .enumerate()
            .filter_map(|(i, (u, _, _))| {
                RATE_TIMES.iter().find(|(c, _)| *c == u.code).map(|&(_, secs)| (i, secs))
            })
            .collect();
        let pairs = numerators.iter().flat_map(|&n| denominators.iter().map(move |&d| (n, d)));
        let pairs: Vec<(usize, usize)> = pairs.collect();
        // The Chinese labels present before rate expansion guard against
        // semantic duplicates (the curated t/h would otherwise reappear as
        // TONNE-PER-HR); rate units added here do not join them.
        let existing = self.pending.len();
        let mut existing_zh = KeyIndex::with_capacity(existing);
        for id in 0..existing as u32 {
            existing_zh.insert(id, |i| self.pending[i as usize].0.label_zh.as_bytes());
        }
        let (mut code, mut label_zh) = (String::new(), String::new());
        for &base in &bases {
            for &(time, secs) in &times {
                let (b, t) = (&self.pending[base].0, &self.pending[time].0);
                if !self.rate_candidate(b, t, &existing_zh, &mut code, &mut label_zh) {
                    continue;
                }
                let dim = b.dim / t.dim;
                let Some(&kind) = kind_by_dim.get(&dim) else { continue };
                let kind_name = &self.kinds[kind.0 as usize].name_en;
                let mut keywords = Vec::with_capacity(3);
                keywords.extend(kind_name.split_whitespace().map(str::to_lowercase));
                keywords.extend(["rate", "per"].map(str::to_string));
                let description = [&b.label_en, " per ", &t.label_en, ": a rate of ", kind_name];
                let unit = Unit {
                    description: description.concat(),
                    keywords,
                    conversion: Conversion::linear(b.conversion.factor / secs),
                    ..rate_unit(b, t, &code, &label_zh, kind, dim)
                };
                let pop = (self.pending[base].1.min(self.pending[time].1) * 0.2).max(0.05);
                self.push_unit(unit, pop, false);
            }
        }
        for (num, den) in pairs {
            let (n, d) = (&self.pending[num].0, &self.pending[den].0);
            if n.code == d.code
                || !self.rate_candidate(n, d, &existing_zh, &mut code, &mut label_zh)
            {
                continue;
            }
            let dim = n.dim / d.dim;
            let Some(&kind) = kind_by_dim.get(&dim) else { continue };
            if dim.is_dimensionless() {
                continue; // L per L etc. degenerate to ratios
            }
            let kind_name = &self.kinds[kind.0 as usize].name_en;
            let mut keywords = Vec::with_capacity(2);
            keywords.extend(kind_name.split_whitespace().map(str::to_lowercase));
            keywords.push("per".to_string());
            let unit = Unit {
                description: [&n.label_en, " per ", &d.label_en, ": a ", kind_name].concat(),
                keywords,
                conversion: Conversion::linear(n.conversion.factor / d.conversion.factor),
                ..rate_unit(n, d, &code, &label_zh, kind, dim)
            };
            let pop = (self.pending[num].1.min(self.pending[den].1) * 0.15).max(0.05);
            self.push_unit(unit, pop, false);
        }
    }

    /// Writes the code and Chinese label of the rate unit `num` per `den`
    /// into the buffers, and says whether it is new: neither its code nor
    /// (among the units before rate expansion) its Chinese label is taken.
    fn rate_candidate(
        &self,
        num: &Unit,
        den: &Unit,
        existing_zh: &KeyIndex,
        code: &mut String,
        label_zh: &mut String,
    ) -> bool {
        code.clear();
        code.extend([num.code.as_str(), "-PER-", &den.code]);
        if self.has_code(code) {
            return false;
        }
        label_zh.clear();
        label_zh.extend([num.label_zh.as_str(), "每", &den.label_zh]);
        let zh_of = |i: u32| self.pending[i as usize].0.label_zh.as_bytes();
        existing_zh.get(label_zh.as_bytes(), zh_of).is_none()
    }

    fn finish(self, popularity: &dyn PopularitySource) -> DimUnitKb {
        let items: Vec<(&str, f64)> =
            self.pending.iter().map(|(u, pop, _)| (u.code.as_str(), *pop)).collect();
        let freqs = frequencies(popularity, &items);
        let units = self.pending.into_iter().zip(freqs);
        let units = units.map(|((unit, _, _), frequency)| Unit { frequency, ..unit });
        DimUnitKb::from_units(units, self.kinds.into(), self.kind_by_name)
    }
}

/// `base` expanded with `prefix` under `code`.
fn prefixed(base: &Unit, prefix: &SiPrefix, code: &str) -> Unit {
    let symbol = [prefix.symbol, &base.symbol].concat();
    let mut aliases = Vec::with_capacity(base.aliases.len() + 1);
    let words = base.aliases.iter().filter(|a| !a.contains(' ') && a.is_ascii());
    aliases.extend(words.map(|a| [prefix.name_en, a].concat()));
    if symbol.contains('µ') {
        aliases.push(symbol.replace('µ', "u"));
    }
    let mut keywords = Vec::with_capacity(base.keywords.len() + 1);
    keywords.extend(base.keywords.iter().cloned());
    keywords.push(prefix.name_en.to_string());
    let capacity = prefix.name_en.len() + 2 * base.label_en.len() + 40;
    let mut description = String::with_capacity(capacity);
    description.extend([prefix.name_en, " ", &base.label_en, " ("]);
    push_factor(&mut description, prefix.factor());
    description.extend(["× the ", &base.label_en, ")"]);
    Unit {
        id: UnitId(0),
        code: code.to_string(),
        label_en: [prefix.name_en, &base.label_en].concat(),
        label_zh: [prefix.name_zh, &base.label_zh].concat(),
        symbol,
        aliases,
        description,
        keywords,
        frequency: 0.0,
        kind: base.kind,
        dim: base.dim,
        conversion: Conversion::linear(base.conversion.factor * prefix.factor()),
        prefixed: true,
    }
}

/// The fields every rate unit `num` per `den` shares; the caller sets the
/// description, keywords and conversion.
fn rate_unit(
    num: &Unit,
    den: &Unit,
    code: &str,
    label_zh: &str,
    kind: KindId,
    dim: DimVec,
) -> Unit {
    Unit {
        id: UnitId(0),
        code: code.to_string(),
        label_en: [&num.label_en, " per ", &den.label_en].concat(),
        label_zh: label_zh.to_string(),
        symbol: [&num.symbol, "/", &den.symbol].concat(),
        aliases: Vec::new(),
        description: String::new(),
        keywords: Vec::new(),
        frequency: 0.0,
        kind,
        dim,
        conversion: Conversion::linear(1.0),
        prefixed: false,
    }
}

fn default_description(en: &str, kind: &str, factor: f64, offset: f64) -> String {
    if offset != 0.0 {
        [en, ": a unit of ", kind, " (affine scale)"].concat()
    } else if (factor - 1.0).abs() < f64::EPSILON {
        [en, ": the coherent SI unit of ", kind].concat()
    } else {
        let mut out = String::with_capacity(en.len() + kind.len() + 60);
        out.extend([en, ": a unit of ", kind, " equal to "]);
        push_factor(&mut out, factor);
        out.push_str(" SI coherent units");
        out
    }
}

/// Appends `f` as a description prints it: plain when that fits in 12
/// chars and `f` is in `[1e-3, 1e7)`, else in exponent form.
fn push_factor(out: &mut String, f: f64) {
    let start = out.len();
    if (1e-3..1e7).contains(&f) {
        let _ = write!(out, "{f}");
        if out.len() - start <= 12 {
            return;
        }
        out.truncate(start);
    }
    let _ = write!(out, "{f:e}");
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
    fn folding_the_cased_key_equals_normalizing() {
        let kb = DimUnitKb::shared();
        let forms = kb.units().iter().flat_map(|u| u.surface_forms());
        let odd = ["  Square   Metre ", "KM²", "平方 Km", "\tΣΑΣ\u{3000}米 ", "İx", "米，重", "Ｋｍ。", "", " "];
        let mut buf = String::new();
        for s in forms.chain(odd) {
            normalize_cased_into(s, &mut buf);
            fold_cased_key(s, &mut buf);
            assert_eq!(buf, normalize(s), "surface {s:?}");
        }
    }

    #[test]
    fn normalization_matches_its_char_by_char_definition() {
        // Trim, collapse each whitespace run to one space, and (folding)
        // lowercase char by char — spelled out, against the fast paths.
        fn spec(s: &str, fold: bool) -> String {
            let words = s.split_whitespace();
            let joined = words.collect::<Vec<_>>().join(" ");
            if fold { joined.chars().flat_map(char::to_lowercase).collect() } else { joined }
        }
        use rand::{Rng, SeedableRng};
        let alphabet: Vec<char> = "aZ9 /²°µΣİǅ米千，。\u{3000}\u{3001}\t\nＫｍ！".chars().collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut buf = String::new();
        for _ in 0..4000 {
            let len = rng.gen_range(0..8);
            let s: String = (0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect();
            assert_eq!(normalize_cased(&s), spec(&s, false), "{s:?}");
            assert_eq!(normalize(&s), spec(&s, true), "{s:?}");
            normalize_cased_into(&s, &mut buf);
            fold_cased_key(&s, &mut buf);
            assert_eq!(buf, spec(&s, true), "{s:?}");
        }
    }

    #[test]
    fn caseless_cjk_chars_are_caseless() {
        // `push_normalized` copies these chars instead of folding them and
        // counts them as collapsed; both hold only if no one is whitespace
        // and folding is the identity on every one. That includes every
        // `is_cjk` char.
        let (mut caseless, mut cjk) = (0, 0);
        for c in (0..=u32::from(char::MAX)).filter_map(char::from_u32) {
            if is_cjk(c) {
                assert!(is_caseless_cjk(c), "{c:?}");
                cjk += 1;
            }
            if is_caseless_cjk(c) {
                assert!(!c.is_whitespace() && c.to_lowercase().eq([c]), "{c:?} is not caseless");
                caseless += 1;
            }
        }
        assert_eq!(cjk, 0x9FFF - 0x4E00 + 1 + 0x4DBF - 0x3400 + 1 + 0xFAFF - 0xF900 + 1);
        assert_eq!(caseless, cjk + 0x3F + 0x20 + 0x6 + 0xB);
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
