//! Symbol interning and the per-KB link index.
//!
//! The unit-linking hot path (`dimlink`) used to flow `String` clones of
//! unit names, aliases, and mention candidates through every stage:
//! candidate generation re-allocated the whole naming dictionary per
//! linker, every lookup allocated one or two normalized key `String`s, and
//! the Levenshtein prefilter carried `(String, u64)` pairs per key. This
//! module replaces all of that with a [`Symbol`]`(u32)` interner built
//! **once per KB** (beside the inverted search index) and a [`LinkIndex`]
//! holding struct-of-arrays candidate tables:
//!
//! * [`SymbolTable`] — FNV-1a-indexed open-addressing table mapping interned
//!   strings to dense `u32` ids. Ids are **deterministic**: they are the
//!   rank of the key in sorted order, independent of insertion order, hash
//!   seeds, or thread interleavings (the table is built single-threaded
//!   behind the KB's `OnceLock`).
//! * [`LinkIndex`] — per-symbol unit lists for the case-exact and
//!   case-insensitive naming dictionaries, plus length-bucketed
//!   `(Symbol, signature)` arrays for the Levenshtein lower-bound prefilter.
//!
//! Lookups never allocate: callers pass a reusable `String` scratch buffer
//! that the normalizers write into.

use crate::kb::{normalize_cased_into, normalize_into, DimUnitKb};
use crate::unit::UnitId;

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

/// The per-KB link index: interned naming dictionaries plus the
/// length-bucketed prefilter tables. Built once per KB behind a `OnceLock`
/// (see [`DimUnitKb::link_index`]) — linkers share it instead of
/// re-deriving per-instance candidate tables.
#[derive(Debug, Clone, Default)]
pub struct LinkIndex {
    /// Interner over case-insensitive normalized surface forms.
    norm: SymbolTable,
    /// Interner over case-exact normalized surface forms.
    cased: SymbolTable,
    /// Candidate units per `norm` symbol (same contents and order as the
    /// KB's case-insensitive naming dictionary).
    norm_units: Vec<Vec<UnitId>>,
    /// Candidate units per `cased` symbol.
    cased_units: Vec<Vec<UnitId>>,
    /// Precomputed [`DimUnitKb::lookup`] result for each `norm` key string
    /// (a normalized key can still case-exact-match the cased dictionary,
    /// and that match must win — same precedence as `lookup`).
    fuzzy_units: Vec<Vec<UnitId>>,
    /// Prefilter buckets indexed by key char length.
    buckets: Vec<LenBucket>,
}

impl LinkIndex {
    /// Builds the index from a KB's naming dictionaries.
    pub(crate) fn build(kb: &DimUnitKb) -> LinkIndex {
        let norm = SymbolTable::build(kb.naming.keys().cloned());
        let cased = SymbolTable::build(kb.naming_cased.keys().cloned());
        let norm_units: Vec<Vec<UnitId>> = norm
            .strings()
            .iter()
            .map(|k| kb.naming.get(k).cloned().unwrap_or_default())
            .collect();
        let cased_units: Vec<Vec<UnitId>> = cased
            .strings()
            .iter()
            .map(|k| kb.naming_cased.get(k).cloned().unwrap_or_default())
            .collect();
        // The fuzzy pass scores *normalized* keys but resolves candidates
        // through the same case-precedence rule as `DimUnitKb::lookup`.
        let fuzzy_units: Vec<Vec<UnitId>> = norm
            .strings()
            .iter()
            .map(|k| kb.lookup(k).to_vec())
            .collect();
        let max_len = norm.strings().iter().map(|k| k.chars().count()).max().unwrap_or(0);
        let mut buckets = vec![LenBucket::default(); max_len + 1];
        // Symbol ids ascend in sorted-key order, so each bucket comes out
        // sorted by key string — the deterministic candidate order the
        // linker's fuzzy scan relies on.
        for (i, key) in norm.strings().iter().enumerate() {
            let len = key.chars().count();
            let bucket = &mut buckets[len];
            bucket.syms.push(Symbol(i as u32));
            bucket.sigs.push(char_signature(key));
        }
        LinkIndex { norm, cased, norm_units, cased_units, fuzzy_units, buckets }
    }

    /// Naming-dictionary lookup with [`DimUnitKb::lookup`] semantics
    /// (case-exact match wins, then case-insensitive) but zero allocation:
    /// `buf` is a reusable normalization buffer.
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
    /// prefilter bucket) resolves to — precomputed `lookup` of the key.
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
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn link_index_lookup_matches_kb_lookup() {
        let kb = DimUnitKb::shared();
        let idx = kb.link_index();
        let mut buf = String::new();
        for surface in ["km", "KM", " km ", "mW", "MW", "千克", "平方厘米", "nonsense", "", "°C"] {
            assert_eq!(idx.lookup(surface, &mut buf), kb.lookup(surface), "surface = {surface:?}");
        }
        // Every dictionary key resolves identically through both paths
        // (cased precedence included: e.g. "pt" case-exact-matches a
        // narrower unit set than its case-insensitive entry).
        for (key, _) in kb.naming_dictionary() {
            assert_eq!(idx.lookup(key, &mut buf), kb.lookup(key), "key = {key:?}");
            assert_eq!(idx.fuzzy_units(idx.norm_table().get(key).expect("interned")), kb.lookup(key));
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
