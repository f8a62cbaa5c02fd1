//! Pins the standard KB's duplicate units: two or more unit records that
//! a shared surface form names and that mean the same thing.
//!
//! Definition used here: a key of the case-insensitive naming dictionary
//! (`DimUnitKb::naming_dictionary`, normalized surface form → units) is a
//! duplicate key when it names two or more units and all of them have the
//! same dimension vector and the same conversion (factor and offset, bit
//! for bit). Each duplicate key contributes its sorted unit codes as one
//! group. Counting exact `lookup` keys instead (case-exact wins) gives a
//! different, smaller key count; this test counts dictionary keys.
//!
//! The pinned groups are today's duplicates, not an endorsement of them:
//! a new duplicate fails here loudly, and a merge that removes one must
//! remove its group below.

use dimkb::DimUnitKb;
use std::collections::BTreeSet;

/// Every unit-code group some duplicate key names, sorted.
const PINNED_GROUPS: &[&[&str]] = &[
    &["BHP-BOILER", "HP-BOILER"],
    &["CUSEC", "FT3-PER-SEC"],
    &["DEG-ANGLE-PER-SEC", "DEG-PER-SEC"],
    &["DRY-QT", "QT-US-DRY"],
    &["GAL-PER-MIN", "GAL-US-PER-MIN"],
    &["GEE", "GN"],
    &["GON", "GRADIAN"],
    &["IN", "IN-SCREEN"],
    &["KARAT", "KARAT-PURITY"],
    &["KCAL", "KiloCAL"],
    &["KJ-PER-KG", "KiloJ-PER-KiloGM"],
    &["KJ-PER-M2", "KiloJ-PER-M2"],
    &["KM-PER-HR", "KMH"],
    &["KM-PER-L", "KM-PER-L-GAS"],
    &["MB-PER-SEC", "MegaBYTE-PER-SEC"],
    &["MBPS", "MegaBIT-PER-SEC"],
    &["MI-PER-HR", "MPH"],
    &["MIL", "MIL-THOU"],
    &["OZT", "TROY-OZ"],
    &["PDL", "POUNDAL"],
    &["SUI-ZH", "YR"],
    &["W-PER-KG", "W-PER-KiloGM"],
    &["WAN", "WAN-ZH"],
];

/// How many dictionary keys are duplicate keys.
const PINNED_KEYS: usize = 55;

#[test]
fn duplicate_units_are_pinned() {
    let kb = DimUnitKb::shared();
    let mut keys = 0usize;
    let mut groups: BTreeSet<Vec<String>> = BTreeSet::new();
    for (_, ids) in kb.naming_dictionary() {
        if ids.len() < 2 {
            continue;
        }
        let first = kb.unit(ids[0]);
        let same = ids.iter().map(|&id| kb.unit(id)).all(|u| {
            u.dim == first.dim
                && u.conversion.factor.to_bits() == first.conversion.factor.to_bits()
                && u.conversion.offset.to_bits() == first.conversion.offset.to_bits()
        });
        if !same {
            continue;
        }
        keys += 1;
        let mut codes: Vec<String> = ids.iter().map(|&id| kb.unit(id).code.clone()).collect();
        codes.sort();
        groups.insert(codes);
    }
    let pinned: BTreeSet<Vec<String>> = PINNED_GROUPS
        .iter()
        .map(|g| g.iter().map(|c| c.to_string()).collect())
        .collect();
    let new: Vec<_> = groups.difference(&pinned).collect();
    let gone: Vec<_> = pinned.difference(&groups).collect();
    assert!(new.is_empty() && gone.is_empty(), "new duplicate groups {new:?}; gone {gone:?}");
    assert_eq!(keys, PINNED_KEYS, "duplicate dictionary keys");
}
