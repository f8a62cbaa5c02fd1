//! Pins the standard KB, and the 540-unit subset the WolframAlpha-style
//! engine builds, to one FNV-1a digest each. The digest folds in every
//! unit field in id order, every kind, every naming-dictionary entry, every
//! fuzzy-match candidate list, every length bucket and the lookup of every
//! surface form, so any change to how the KB is built that moves a single
//! byte of it fails here.

use dimkb::{DimUnitKb, Symbol, UnitId};

/// Digest of `DimUnitKb::standard()`.
const STANDARD_DIGEST: u64 = 0x28de7f22f9c84a96;

/// Digest of the top-540 English subset `WolframEngine::new` builds.
const WOLFRAM_SUBSET_DIGEST: u64 = 0x3413f5c682161a79;

/// FNV-1a over length-prefixed fields, so adjacent fields cannot trade
/// bytes without changing the digest.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn ids(&mut self, ids: &[UnitId]) {
        self.u64(ids.len() as u64);
        for id in ids {
            self.u64(u64::from(id.0));
        }
    }
}

fn digest(kb: &DimUnitKb) -> u64 {
    let mut h = Fnv(0xcbf29ce484222325);
    h.u64(kb.units().len() as u64);
    for (i, u) in kb.units().iter().enumerate() {
        assert_eq!(u.id.0 as usize, i, "ids are positions");
        for field in [&u.code, &u.label_en, &u.label_zh, &u.symbol] {
            h.str(field);
        }
        h.u64(u.aliases.len() as u64);
        u.aliases.iter().for_each(|a| h.str(a));
        h.str(&u.description);
        h.u64(u.keywords.len() as u64);
        u.keywords.iter().for_each(|k| h.str(k));
        h.u64(u.frequency.to_bits());
        h.u64(u64::from(u.kind.0));
        h.bytes(&u.dim.exponents().map(|e| e as u8));
        h.u64(u.conversion.factor.to_bits());
        h.u64(u.conversion.offset.to_bits());
        h.u64(u64::from(u.prefixed));
    }
    h.u64(kb.kinds().len() as u64);
    for k in kb.kinds() {
        h.u64(u64::from(k.id.0));
        h.str(&k.name_en);
        h.str(&k.name_zh);
        h.bytes(&k.dim.exponents().map(|e| e as u8));
    }
    for (key, ids) in kb.naming_dictionary() {
        h.str(key);
        h.ids(ids);
    }
    let idx = kb.link_index();
    let keys = idx.norm_table().len();
    for sym in (0..keys as u32).map(Symbol) {
        h.ids(idx.fuzzy_units(sym));
    }
    for len in 0..=keys {
        let Some(bucket) = idx.bucket(len) else { continue };
        h.u64(len as u64);
        for (sym, sig) in bucket.syms.iter().zip(bucket.sigs) {
            h.u64(u64::from(sym.0));
            h.u64(*sig);
        }
    }
    for form in kb.units().iter().flat_map(|u| u.surface_forms()) {
        h.ids(kb.lookup(form));
    }
    h.0
}

#[test]
fn standard_kb_digest_is_pinned() {
    let kb = DimUnitKb::standard();
    assert_eq!(digest(&kb), STANDARD_DIGEST, "got {:#018x}", digest(&kb));
}

#[test]
fn wolfram_subset_digest_is_pinned() {
    // `WolframEngine::new`'s selection: English units only, stably sorted
    // by descending frequency, the first 540 kept.
    let full = DimUnitKb::shared();
    let mut ranked: Vec<&dimkb::Unit> =
        full.units().iter().filter(|u| !u.code.ends_with("-ZH")).collect();
    ranked.sort_by(|a, b| b.frequency.total_cmp(&a.frequency));
    ranked.truncate(540);
    let keep: std::collections::HashSet<UnitId> = ranked.iter().map(|u| u.id).collect();
    let sub = full.subset(|u| keep.contains(&u.id));
    assert_eq!(sub.units().len(), 540);
    assert_eq!(digest(&sub), WOLFRAM_SUBSET_DIGEST, "got {:#018x}", digest(&sub));
}
