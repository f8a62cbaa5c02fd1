//! Symbol interning and the KB's naming dictionary.
//!
//! The naming dictionary (§III-A) maps a normalized surface form to its
//! candidate units. It exists once per KB, as the [`LinkIndex`] that
//! `DimUnitKb` builds from its units at construction (the standard build
//! and every `subset`); `DimUnitKb::lookup`, `naming_dictionary` and the
//! linker all read it.
//!
//! * `KeyIndex` — an FNV-1a open-addressing table of dense `u32` ids
//!   whose string keys live elsewhere (in an arena, or in the records the
//!   ids number); the KB's code, kind-name and dictionary lookups all probe
//!   one.
//! * [`SymbolTable`] — interned strings in one arena, indexed by a
//!   `KeyIndex`. Ids are **deterministic**: they are the rank of the key in
//!   sorted order, independent of insertion order, hash seeds, or thread
//!   interleavings.
//! * [`LinkIndex`] — the case-exact and case-insensitive dictionaries, each
//!   key's candidate units one run of a shared flat array, plus
//!   length-bucketed `(Symbol, signature)` arrays for the Levenshtein
//!   lower-bound prefilter.
//!
//! Lookups never allocate: callers pass a reusable `String` scratch buffer
//! that the normalizers write into.

use crate::kb::{fold_cased_key, normalize_cased_into, push_normalized};
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

/// Sentinel for an empty hash slot (`u32::MAX` can never be an id: tables
/// are bounded far below four billion keys).
const EMPTY: u32 = u32::MAX;

/// A hash index over dense `u32` ids whose keys are stored elsewhere:
/// every operation takes `key_of`, which resolves an id to its key bytes.
/// FNV-1a, linear probing, at most 50% load. Its storage is one `u32`
/// array, whatever the keys: it never copies one.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyIndex {
    /// Ids (or [`EMPTY`]); a power-of-two length, or empty before the
    /// first insert.
    slots: Vec<u32>,
    /// Occupied slots.
    len: usize,
}

impl KeyIndex {
    /// An index with room for `keys` ids before it grows.
    pub(crate) fn with_capacity(keys: usize) -> KeyIndex {
        KeyIndex { slots: vec![EMPTY; (keys.max(1) * 2).next_power_of_two()], len: 0 }
    }

    /// The slot holding `key`'s id, or the empty slot where it belongs.
    /// `slots` must be non-empty and not full.
    fn probe<'k>(&self, key: &[u8], key_of: &impl Fn(u32) -> &'k [u8]) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = (fnv1a(key) as usize) & mask;
        loop {
            let id = self.slots[slot];
            if id == EMPTY || key_of(id) == key {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The id whose key is `key`, without allocating.
    pub(crate) fn get<'k>(&self, key: &[u8], key_of: impl Fn(u32) -> &'k [u8]) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let id = self.slots[self.probe(key, &key_of)];
        (id != EMPTY).then_some(id)
    }

    /// Indexes `id` under `key_of(id)`. An id already holding that key is
    /// replaced and returned, as `HashMap::insert` returns the old value.
    pub(crate) fn insert<'k>(&mut self, id: u32, key_of: impl Fn(u32) -> &'k [u8]) -> Option<u32> {
        if (self.len + 1) * 2 > self.slots.len() {
            let grown = vec![EMPTY; (self.slots.len() * 2).max(8)];
            let old = std::mem::replace(&mut self.slots, grown);
            for old_id in old.into_iter().filter(|&i| i != EMPTY) {
                let slot = self.probe(key_of(old_id), &key_of);
                self.slots[slot] = old_id;
            }
        }
        let slot = self.probe(key_of(id), &key_of);
        let old = std::mem::replace(&mut self.slots[slot], id);
        if old == EMPTY {
            self.len += 1;
            None
        } else {
            Some(old)
        }
    }
}

/// An immutable string interner: dense ids over a fixed key set, the keys
/// held as spans of one arena and indexed by a `KeyIndex`.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// The arena the keys are spans of.
    text: String,
    /// `[start, end)` of each key in `text`; `Symbol(i)` is `spans[i]`.
    /// Keys ascend and are distinct.
    spans: Vec<[u32; 2]>,
    index: KeyIndex,
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
        let mut keys: Vec<String> = keys.into_iter().map(Into::into).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut text = String::with_capacity(keys.iter().map(String::len).sum());
        let mut spans = Vec::with_capacity(keys.len());
        for key in &keys {
            let start = text.len() as u32;
            text.push_str(key);
            spans.push([start, text.len() as u32]);
        }
        SymbolTable::from_spans(text, spans)
    }

    /// Builds a table over spans of `text` whose keys ascend and are
    /// distinct.
    fn from_spans(text: String, spans: Vec<[u32; 2]>) -> SymbolTable {
        let mut index = KeyIndex::with_capacity(spans.len());
        for id in 0..spans.len() as u32 {
            index.insert(id, |i| span_bytes(&text, spans[i as usize]));
        }
        SymbolTable { text, spans, index }
    }

    /// Looks a key up without allocating.
    pub fn get(&self, key: &str) -> Option<Symbol> {
        let key_of = |i: u32| span_bytes(&self.text, self.spans[i as usize]);
        self.index.get(key.as_bytes(), key_of).map(Symbol)
    }

    /// The string a symbol was interned from. Panics on a foreign symbol —
    /// symbols are only produced by this table's own `get`/iteration.
    pub fn resolve(&self, sym: Symbol) -> &str {
        let [start, end] = self.spans[sym.0 as usize];
        &self.text[start as usize..end as usize]
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no keys are interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// All keys in symbol-id (= sorted) order.
    pub fn strings(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.spans.len() as u32).map(|i| self.resolve(Symbol(i)))
    }
}

/// The bytes of an arena span.
fn span_bytes(text: &str, [start, end]: [u32; 2]) -> &[u8] {
    &text.as_bytes()[start as usize..end as usize]
}

/// One char-length bucket of the fuzzy-match prefilter, struct-of-arrays:
/// `syms[i]` and `sigs[i]` describe the same naming-dictionary key. Keys
/// are in sorted order (ascending symbol id).
#[derive(Debug, Clone, Copy)]
pub struct LenBucket<'a> {
    /// Interned keys of this char length.
    pub syms: &'a [Symbol],
    /// [`char_signature`] of each key, parallel to `syms`.
    pub sigs: &'a [u64],
}

/// The KB's naming dictionary: interned case-exact and case-insensitive
/// dictionaries plus the length-bucketed prefilter tables. Built once with
/// the KB (see [`crate::DimUnitKb::link_index`]); linkers share it.
///
/// Flat throughout: each dictionary's keys are spans of one arena, every
/// key's candidate units are one run of `ids`, and the buckets are runs of
/// two parallel arrays, so the whole index is a dozen allocations.
#[derive(Debug, Clone, Default)]
pub struct LinkIndex {
    /// Interner over case-insensitive normalized surface forms.
    norm: SymbolTable,
    /// Interner over case-exact normalized surface forms.
    cased: SymbolTable,
    /// Candidate units of every key of both dictionaries, each key's in
    /// unit order without repeats.
    ids: Vec<UnitId>,
    /// `ids[norm_runs[i]..norm_runs[i + 1]]` are `norm` symbol `i`'s units.
    norm_runs: Vec<u32>,
    /// `ids[cased_runs[i]..cased_runs[i + 1]]` are `cased` symbol `i`'s units.
    cased_runs: Vec<u32>,
    /// [`LinkIndex::lookup`] of each `norm` key string, as a span of `ids`
    /// (a normalized key can still case-exact-match the cased dictionary,
    /// and that match wins).
    fuzzy_spans: Vec<[u32; 2]>,
    /// `bucket_syms[bucket_starts[n]..bucket_starts[n + 1]]` are the `norm`
    /// keys of `n` chars, ascending; `bucket_sigs` is parallel.
    bucket_starts: Vec<u32>,
    bucket_syms: Vec<Symbol>,
    bucket_sigs: Vec<u64>,
}

impl LinkIndex {
    /// Builds the index from a KB's units (ids equal to their positions)
    /// in one pass: each surface form is normalized once per dictionary,
    /// straight into that dictionary's arena, and each dictionary is
    /// sorted once.
    pub(crate) fn build(units: &[Unit]) -> LinkIndex {
        let (mut forms, mut bytes) = (0, 0);
        for form in units.iter().flat_map(Unit::surface_forms) {
            forms += 1;
            bytes += form.len();
        }
        let mut norm = Pairs::with_capacity(forms, bytes);
        let mut cased = Pairs::with_capacity(forms, bytes);
        for unit in units {
            for form in unit.surface_forms() {
                norm.push(form, true, unit.id);
                // Case-exact keys: symbols distinguish mW from MW and t from T.
                cased.push(form, false, unit.id);
            }
        }
        let mut ids = Vec::with_capacity(2 * forms);
        let (norm, norm_runs) = norm.group(&mut ids);
        let (cased, cased_runs) = cased.group(&mut ids);
        let run = |runs: &[u32], i: usize| [runs[i], runs[i + 1]];
        let fuzzy_spans = norm
            .strings()
            .enumerate()
            .map(|(i, key)| match cased.get(key) {
                Some(sym) => run(&cased_runs, sym.0 as usize),
                None => run(&norm_runs, i),
            })
            .collect();
        // Symbol ids ascend in sorted-key order, so each bucket comes out
        // sorted by key string — the deterministic candidate order the
        // linker's fuzzy scan relies on.
        let (lens, sigs): (Vec<u32>, Vec<u64>) =
            norm.strings().map(|k| (k.chars().count() as u32, char_signature(k))).unzip();
        let max_len = lens.iter().max().map_or(0, |&len| len as usize);
        let (bucket_starts, order) = group_by_key(&lens, max_len + 1);
        let bucket_syms = order.iter().map(|&i| Symbol(i)).collect();
        let bucket_sigs = order.iter().map(|&i| sigs[i as usize]).collect();
        LinkIndex {
            norm,
            cased,
            ids,
            norm_runs,
            cased_runs,
            fuzzy_spans,
            bucket_starts,
            bucket_syms,
            bucket_sigs,
        }
    }

    /// The units of span `[start, end)` of `ids`.
    fn units(&self, [start, end]: [u32; 2]) -> &[UnitId] {
        &self.ids[start as usize..end as usize]
    }

    /// The units of symbol `sym` of the dictionary whose runs are `runs`.
    fn run(&self, runs: &[u32], sym: Symbol) -> &[UnitId] {
        let i = sym.0 as usize;
        self.units([runs[i], runs[i + 1]])
    }

    /// Naming-dictionary lookup: a case-exact match wins, then the
    /// case-insensitive dictionary answers. `buf` is a reusable
    /// normalization buffer, so the lookup does not allocate.
    pub fn lookup<'a>(&'a self, surface: &str, buf: &mut String) -> &'a [UnitId] {
        if let Some(sym) = self.cased.get(normalize_cased_into(surface, buf)) {
            return self.run(&self.cased_runs, sym);
        }
        fold_cased_key(surface, buf);
        match self.norm.get(buf) {
            Some(sym) => self.run(&self.norm_runs, sym),
            None => &[],
        }
    }

    /// The candidate units a fuzzy match on `sym` (a `norm` symbol from a
    /// prefilter bucket) resolves to — the precomputed `lookup` of its key.
    pub fn fuzzy_units(&self, sym: Symbol) -> &[UnitId] {
        self.units(self.fuzzy_spans[sym.0 as usize])
    }

    /// Resolves a `norm` symbol back to its key string.
    pub fn key(&self, sym: Symbol) -> &str {
        self.norm.resolve(sym)
    }

    /// The prefilter bucket for keys of exactly `char_len` chars, if any.
    pub fn bucket(&self, char_len: usize) -> Option<LenBucket<'_>> {
        let start = *self.bucket_starts.get(char_len)? as usize;
        let end = *self.bucket_starts.get(char_len + 1)? as usize;
        (start < end).then(|| LenBucket {
            syms: &self.bucket_syms[start..end],
            sigs: &self.bucket_sigs[start..end],
        })
    }

    /// The interner over case-insensitive normalized surface forms.
    pub fn norm_table(&self) -> &SymbolTable {
        &self.norm
    }

    /// The case-insensitive dictionary, in ascending key order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&str, &[UnitId])> {
        let syms = (0..self.norm.len() as u32).map(Symbol);
        syms.map(|sym| (self.norm.resolve(sym), self.run(&self.norm_runs, sym)))
    }
}

/// Groups the indices `0..keys.len()` by key (every key below
/// `key_count`) with a counting sort. Returns `starts` and `order`: key
/// `k`'s indices are `order[starts[k]..starts[k + 1]]`, ascending.
pub(crate) fn group_by_key(keys: &[u32], key_count: usize) -> (Vec<u32>, Vec<u32>) {
    let mut starts = vec![0u32; key_count + 1];
    for &k in keys {
        starts[k as usize + 1] += 1;
    }
    for k in 1..starts.len() {
        starts[k] += starts[k - 1];
    }
    let mut next = starts.clone();
    let mut order = vec![0u32; keys.len()];
    for (i, &k) in keys.iter().enumerate() {
        let slot = &mut next[k as usize];
        order[*slot as usize] = i as u32;
        *slot += 1;
    }
    (starts, order)
}

/// One dictionary's `(key, unit)` pairs under construction, the keys
/// normalized into one arena in the order the pairs arrive (unit order).
struct Pairs {
    text: String,
    pairs: Vec<Pair>,
}

/// A `(key, unit)` pair: the key is `text[start..end]`, and `prefix` is its
/// first eight bytes, big-endian and zero-padded, so most comparisons in
/// the sort read no arena bytes.
#[derive(Clone, Copy)]
struct Pair {
    prefix: u64,
    start: u32,
    end: u32,
    unit: UnitId,
}

impl Pairs {
    fn with_capacity(pairs: usize, bytes: usize) -> Pairs {
        Pairs { text: String::with_capacity(bytes), pairs: Vec::with_capacity(pairs) }
    }

    /// Normalizes `form` (case-folded when `fold_case`) onto the arena and
    /// records it as a key of `unit`.
    fn push(&mut self, form: &str, fold_case: bool, unit: UnitId) {
        let start = self.text.len();
        push_normalized(form, fold_case, &mut self.text);
        let key = &self.text.as_bytes()[start..];
        let mut prefix = [0u8; 8];
        let n = key.len().min(8);
        prefix[..n].copy_from_slice(&key[..n]);
        let (start, end) = (start as u32, self.text.len() as u32);
        self.pairs.push(Pair { prefix: u64::from_be_bytes(prefix), start, end, unit });
    }

    /// Sorts the pairs by (key, unit) and groups each run of equal keys
    /// into one symbol, appending its de-duplicated units to `ids`. Pairs
    /// arrive in unit order, so this is the stable sort by key. Returns
    /// the interner and each symbol's run start in `ids`, plus the end.
    fn group(self, ids: &mut Vec<UnitId>) -> (SymbolTable, Vec<u32>) {
        let Pairs { text, mut pairs } = self;
        let key = |p: &Pair| &text.as_bytes()[p.start as usize..p.end as usize];
        pairs.sort_unstable_by(|a, b| {
            a.prefix.cmp(&b.prefix).then_with(|| key(a).cmp(key(b))).then(a.unit.cmp(&b.unit))
        });
        let mut spans: Vec<[u32; 2]> = Vec::with_capacity(pairs.len());
        let mut runs: Vec<u32> = Vec::with_capacity(pairs.len() + 1);
        let mut last: Option<Pair> = None;
        for p in pairs {
            match last {
                Some(l) if l.prefix == p.prefix && key(&l) == key(&p) => {
                    if ids.last() != Some(&p.unit) {
                        ids.push(p.unit);
                    }
                }
                _ => {
                    spans.push([p.start, p.end]);
                    runs.push(ids.len() as u32);
                    ids.push(p.unit);
                    last = Some(p);
                }
            }
        }
        runs.push(ids.len() as u32);
        (SymbolTable::from_spans(text, spans), runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::{normalize, normalize_cased};
    use crate::DimUnitKb;
    use std::collections::HashMap;

    #[test]
    fn ids_are_sorted_rank_and_order_independent() {
        let a = SymbolTable::build(["metre", "km", "千克", "dyn/cm"]);
        let b = SymbolTable::build(["千克", "dyn/cm", "km", "metre", "km"]);
        assert_eq!(a.strings().collect::<Vec<_>>(), b.strings().collect::<Vec<_>>());
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
