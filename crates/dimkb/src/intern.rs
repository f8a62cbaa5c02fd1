//! Symbol interning and the KB's naming dictionary.
//!
//! The naming dictionary (§III-A) maps a normalized surface form to its
//! candidate units. It exists once per KB, as the [`LinkIndex`] that
//! `DimUnitKb` builds from its units at construction (the standard build
//! and every `subset`); `DimUnitKb::lookup`, `naming_dictionary` and the
//! linker all read it.
//!
//! * [`SymbolTable`] — FNV-1a-indexed open-addressing table mapping interned
//!   strings to dense `u32` ids. Ids are **deterministic**: they are the
//!   rank of the key in sorted order, independent of insertion order, hash
//!   seeds, or thread interleavings.
//! * [`LinkIndex`] — per-symbol unit lists for the case-exact and
//!   case-insensitive dictionaries, plus length-bucketed
//!   `(Symbol, signature)` arrays for the Levenshtein lower-bound prefilter.
//!
//! Lookups never allocate: callers pass a reusable `String` scratch buffer
//! that the normalizers write into.

use crate::kb::{normalize, normalize_cased, normalize_cased_into, normalize_into};
use crate::unit::{Unit, UnitId};

/// FNV-1a over a byte string: the symbol-table index's hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// 64-bit occupancy mask over hashed char values. For two strings with
/// masks `m` and `k`, every bit set in `m & !k` marks a char value present
/// only in the mention — each such distinct value needs at least one edit,
/// so `max(popcount(m & !k), popcount(k & !m))` lower-bounds the
/// Levenshtein distance. Hash collisions merge bits and can only weaken
/// the bound, never overstate it.
pub fn char_signature(s: &str) -> u64 {
    let mut mask = 0u64;
    for c in s.chars() {
        mask |= 1u64 << (((c as u64).wrapping_mul(0x9E3779B97F4A7C15)) >> 58);
    }
    mask
}

/// An interned string id. `Symbol(i)` resolves to the `i`-th key of its
/// [`SymbolTable`] in sorted order — ids are dense, deterministic, and
/// stable for a given key set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub u32);

/// Sentinel for an empty hash slot (`u32::MAX` can never be a symbol id:
/// tables are bounded far below four billion keys).
const EMPTY: u32 = u32::MAX;

/// An immutable string interner: dense ids over a fixed key set, indexed by
/// an FNV-1a open-addressing table (linear probing, ≤ 50% load).
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// Sorted, deduplicated keys; `Symbol(i)` is `strings[i]`.
    strings: Vec<String>,
    /// Probe table of symbol ids (or [`EMPTY`]); power-of-two length.
    slots: Vec<u32>,
    /// `slots.len() - 1`, for masking hashes.
    mask: usize,
}

impl SymbolTable {
    /// Builds a table over the given keys. Duplicates collapse; ids are the
    /// sorted rank of each key, so any insertion order (and any thread
    /// width on the caller's side) yields the identical table.
    pub fn build<I>(keys: I) -> SymbolTable
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut strings: Vec<String> = keys.into_iter().map(Into::into).collect();
        strings.sort_unstable();
        strings.dedup();
        SymbolTable::from_sorted(strings)
    }

    /// Builds a table over keys that are already sorted and distinct.
    fn from_sorted(strings: Vec<String>) -> SymbolTable {
        let cap = (strings.len().max(1) * 2).next_power_of_two();
        let mut table = SymbolTable { strings, slots: vec![EMPTY; cap], mask: cap - 1 };
        for i in 0..table.strings.len() {
            let mut slot = (fnv1a(table.strings[i].as_bytes()) as usize) & table.mask;
            while table.slots[slot] != EMPTY {
                slot = (slot + 1) & table.mask;
            }
            table.slots[slot] = i as u32;
        }
        table
    }

    /// Looks a key up without allocating.
    pub fn get(&self, key: &str) -> Option<Symbol> {
        let mut slot = (fnv1a(key.as_bytes()) as usize) & self.mask;
        loop {
            let id = *self.slots.get(slot)?;
            if id == EMPTY {
                return None;
            }
            if self.strings.get(id as usize).map(String::as_str) == Some(key) {
                return Some(Symbol(id));
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// The string a symbol was interned from. Panics on a foreign symbol —
    /// symbols are only produced by this table's own `get`/iteration.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when no keys are interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// All keys in symbol-id (= sorted) order.
    pub fn strings(&self) -> &[String] {
        &self.strings
    }
}

/// One char-length bucket of the fuzzy-match prefilter, struct-of-arrays:
/// `syms[i]` and `sigs[i]` describe the same naming-dictionary key. Keys
/// are in sorted order (ascending symbol id).
#[derive(Debug, Clone, Default)]
pub struct LenBucket {
    /// Interned keys of this char length.
    pub syms: Vec<Symbol>,
    /// [`char_signature`] of each key, parallel to `syms`.
    pub sigs: Vec<u64>,
}

/// The KB's naming dictionary: interned case-exact and case-insensitive
/// dictionaries plus the length-bucketed prefilter tables. Built once with
/// the KB (see [`crate::DimUnitKb::link_index`]); linkers share it.
#[derive(Debug, Clone, Default)]
pub struct LinkIndex {
    /// Interner over case-insensitive normalized surface forms.
    norm: SymbolTable,
    /// Interner over case-exact normalized surface forms.
    cased: SymbolTable,
    /// Candidate units per `norm` symbol, in unit order.
    norm_units: Vec<Vec<UnitId>>,
    /// Candidate units per `cased` symbol, in unit order.
    cased_units: Vec<Vec<UnitId>>,
    /// [`LinkIndex::lookup`] of each `norm` key string (a normalized key
    /// can still case-exact-match the cased dictionary, and that match
    /// wins).
    fuzzy_units: Vec<Vec<UnitId>>,
    /// Prefilter buckets indexed by key char length.
    buckets: Vec<LenBucket>,
}

impl LinkIndex {
    /// Builds the index from a KB's units (ids equal to their positions)
    /// in one pass: each surface form is normalized once per dictionary,
    /// and each dictionary is sorted once.
    pub(crate) fn build(units: &[Unit]) -> LinkIndex {
        let (mut norm_pairs, mut cased_pairs) = (Vec::new(), Vec::new());
        for unit in units {
            for form in unit.surface_forms() {
                norm_pairs.push((normalize(form), unit.id));
                // Case-exact keys: symbols distinguish mW from MW and t from T.
                cased_pairs.push((normalize_cased(form), unit.id));
            }
        }
        let (norm, norm_units) = group(norm_pairs);
        let (cased, cased_units) = group(cased_pairs);
        let fuzzy_units = norm
            .strings()
            .iter()
            .zip(&norm_units)
            .map(|(key, ids)| {
                cased.get(key).map_or(ids, |sym| &cased_units[sym.0 as usize]).clone()
            })
            .collect();
        let max_len = norm.strings().iter().map(|k| k.chars().count()).max().unwrap_or(0);
        let mut buckets = vec![LenBucket::default(); max_len + 1];
        // Symbol ids ascend in sorted-key order, so each bucket comes out
        // sorted by key string — the deterministic candidate order the
        // linker's fuzzy scan relies on.
        for (i, key) in norm.strings().iter().enumerate() {
            let bucket = &mut buckets[key.chars().count()];
            bucket.syms.push(Symbol(i as u32));
            bucket.sigs.push(char_signature(key));
        }
        LinkIndex { norm, cased, norm_units, cased_units, fuzzy_units, buckets }
    }

    /// Naming-dictionary lookup: a case-exact match wins, then the
    /// case-insensitive dictionary answers. `buf` is a reusable
    /// normalization buffer, so the lookup does not allocate.
    pub fn lookup<'a>(&'a self, surface: &str, buf: &mut String) -> &'a [UnitId] {
        if let Some(sym) = self.cased.get(normalize_cased_into(surface, buf)) {
            return &self.cased_units[sym.0 as usize];
        }
        match self.norm.get(normalize_into(surface, buf)) {
            Some(sym) => &self.norm_units[sym.0 as usize],
            None => &[],
        }
    }

    /// The candidate units a fuzzy match on `sym` (a `norm` symbol from a
    /// prefilter bucket) resolves to — the precomputed `lookup` of its key.
    pub fn fuzzy_units(&self, sym: Symbol) -> &[UnitId] {
        &self.fuzzy_units[sym.0 as usize]
    }

    /// Resolves a `norm` symbol back to its key string.
    pub fn key(&self, sym: Symbol) -> &str {
        self.norm.resolve(sym)
    }

    /// The prefilter bucket for keys of exactly `char_len` chars, if any.
    pub fn bucket(&self, char_len: usize) -> Option<&LenBucket> {
        self.buckets.get(char_len).filter(|b| !b.syms.is_empty())
    }

    /// The interner over case-insensitive normalized surface forms.
    pub fn norm_table(&self) -> &SymbolTable {
        &self.norm
    }

    /// The case-insensitive dictionary, in ascending key order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&str, &[UnitId])> {
        let keys = self.norm.strings().iter().map(String::as_str);
        keys.zip(self.norm_units.iter().map(Vec::as_slice))
    }
}

/// Sorts `(key, unit)` pairs by key, stably so a key's units stay in unit
/// order, and groups each run of equal keys into one key with its
/// de-duplicated unit list.
fn group(mut pairs: Vec<(String, UnitId)>) -> (SymbolTable, Vec<Vec<UnitId>>) {
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let (mut keys, mut lists): (Vec<String>, Vec<Vec<UnitId>>) = (Vec::new(), Vec::new());
    for (key, id) in pairs {
        match lists.last_mut() {
            Some(ids) if keys.last() == Some(&key) => {
                if ids.last() != Some(&id) {
                    ids.push(id);
                }
            }
            _ => {
                keys.push(key);
                lists.push(vec![id]);
            }
        }
    }
    (SymbolTable::from_sorted(keys), lists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DimUnitKb;
    use std::collections::HashMap;

    #[test]
    fn ids_are_sorted_rank_and_order_independent() {
        let a = SymbolTable::build(["metre", "km", "千克", "dyn/cm"]);
        let b = SymbolTable::build(["千克", "dyn/cm", "km", "metre", "km"]);
        assert_eq!(a.strings(), b.strings());
        for key in ["metre", "km", "千克", "dyn/cm"] {
            assert_eq!(a.get(key), b.get(key));
            let sym = a.get(key).expect("interned");
            assert_eq!(a.resolve(sym), key);
        }
        assert_eq!(a.len(), 4, "duplicate collapsed");
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn empty_table_rejects_everything() {
        let t = SymbolTable::build(Vec::<String>::new());
        assert!(t.is_empty());
        assert_eq!(t.get(""), None);
        assert_eq!(t.get("x"), None);
    }

    /// The naming dictionaries built the naive way: one `HashMap` per
    /// dictionary, filled one surface form at a time, each key's ids in
    /// unit order without repeats.
    struct NaiveNaming {
        norm: HashMap<String, Vec<UnitId>>,
        cased: HashMap<String, Vec<UnitId>>,
    }

    impl NaiveNaming {
        fn new(kb: &DimUnitKb) -> Self {
            let mut naive = NaiveNaming { norm: HashMap::new(), cased: HashMap::new() };
            for unit in kb.units() {
                for form in unit.surface_forms() {
                    let cased = normalize_cased(form);
                    for (map, key) in [(&mut naive.norm, normalize(form)), (&mut naive.cased, cased)] {
                        let ids = map.entry(key).or_default();
                        if !ids.contains(&unit.id) {
                            ids.push(unit.id);
                        }
                    }
                }
            }
            naive
        }

        /// Case-exact match first, then case-insensitive.
        fn lookup(&self, surface: &str) -> &[UnitId] {
            self.cased
                .get(&normalize_cased(surface))
                .or_else(|| self.norm.get(&normalize(surface)))
                .map_or(&[], Vec::as_slice)
        }
    }

    /// Asserts `kb`'s naming dictionary equals the naive one: `lookup` on
    /// every surface form and key plus a few probes, `fuzzy_units` on every
    /// key, and `naming_dictionary` entry for entry in ascending key order.
    fn assert_matches_naive(kb: &DimUnitKb) -> NaiveNaming {
        let naive = NaiveNaming::new(kb);
        let idx = kb.link_index();
        let mut buf = String::new();
        let probes =
            ["km", "KM", " km ", "mW", "MW", "Mw", "千克", "平方厘米", "nonsense", "", "°C", "pt", "PT"];
        let forms = kb.units().iter().flat_map(|u| u.surface_forms());
        let keys = naive.norm.keys().chain(naive.cased.keys()).map(String::as_str);
        for surface in probes.into_iter().chain(forms).chain(keys) {
            assert_eq!(kb.lookup(surface), naive.lookup(surface), "surface = {surface:?}");
            let via_index = idx.lookup(surface, &mut buf);
            assert_eq!(via_index, naive.lookup(surface), "surface = {surface:?}");
        }
        for key in naive.norm.keys() {
            let sym = idx.norm_table().get(key).expect("every key is interned");
            assert_eq!(idx.fuzzy_units(sym), naive.lookup(key), "key = {key:?}");
        }
        let dict: Vec<(&str, &[UnitId])> = kb.naming_dictionary().collect();
        assert!(dict.windows(2).all(|w| w[0].0 < w[1].0), "keys must strictly ascend");
        let mut expected: Vec<(&str, &[UnitId])> =
            naive.norm.iter().map(|(k, v)| (k.as_str(), v.as_slice())).collect();
        expected.sort_unstable();
        assert_eq!(dict, expected);
        naive
    }

    #[test]
    fn naming_dictionary_matches_naive_reference() {
        assert_matches_naive(&DimUnitKb::standard());
    }

    #[test]
    fn subset_naming_dictionary_is_its_parents_filtered_and_remapped() {
        let parent = DimUnitKb::standard();
        let parent_naive = assert_matches_naive(&parent);
        let sub = parent.subset(|u| u.id.0 % 3 != 1);
        assert!(sub.units().len() < parent.units().len());
        let sub_naive = assert_matches_naive(&sub);
        let remap = |ids: &[UnitId]| -> Vec<UnitId> {
            let kept = ids.iter().filter_map(|&id| sub.unit_by_code(&parent.unit(id).code));
            kept.map(|u| u.id).collect()
        };
        // Each dictionary separately is its parent's, filtered and remapped;
        // a key whose units all left the subset leaves with them.
        let dicts = [(&parent_naive.norm, &sub_naive.norm), (&parent_naive.cased, &sub_naive.cased)];
        for (parent_map, sub_map) in dicts {
            for (key, ids) in parent_map {
                let got = sub_map.get(key).map_or(&[][..], Vec::as_slice);
                assert_eq!(got, remap(ids).as_slice(), "key = {key:?}");
            }
        }
        // So `lookup` is the parent's, filtered and remapped — except that a
        // case-exact key left empty falls back to the case-insensitive one.
        let parent_ids = |map: &HashMap<String, Vec<UnitId>>, key: String| {
            remap(map.get(&key).map_or(&[], Vec::as_slice))
        };
        for unit in parent.units() {
            for surface in unit.surface_forms() {
                let cased = parent_ids(&parent_naive.cased, normalize_cased(surface));
                let expected = if cased.is_empty() {
                    parent_ids(&parent_naive.norm, normalize(surface))
                } else {
                    cased
                };
                assert_eq!(sub.lookup(surface), expected.as_slice(), "surface = {surface:?}");
            }
        }
    }

    #[test]
    fn buckets_cover_every_norm_key_in_sorted_order() {
        let kb = DimUnitKb::shared();
        let idx = kb.link_index();
        let mut covered = 0usize;
        for len in 0..=64 {
            let Some(bucket) = idx.bucket(len) else { continue };
            assert_eq!(bucket.syms.len(), bucket.sigs.len());
            let mut prev: Option<&str> = None;
            for (i, &sym) in bucket.syms.iter().enumerate() {
                let key = idx.key(sym);
                assert_eq!(key.chars().count(), len);
                assert_eq!(bucket.sigs[i], char_signature(key));
                if let Some(p) = prev {
                    assert!(p < key, "bucket keys must ascend: {p:?} vs {key:?}");
                }
                prev = Some(key);
            }
            covered += bucket.syms.len();
        }
        assert_eq!(covered, idx.norm_table().len());
    }
}
