//! Integration tests for the higher-level public APIs: the unit-trap
//! detector, mention conversion, and benchmark serialization.

use dimension_perception::core::DimKs;
use dimension_perception::kb::DimUnitKb;

#[test]
fn comparability_flags_the_fig1_trap() {
    let ks = DimKs::standard();
    let (mentions, pairs) =
        ks.comparability("The tension is 0.1 poundal, or equivalently 30 dyn/cm.");
    assert_eq!(mentions.len(), 2);
    assert_eq!(pairs.len(), 1);
    assert!(!pairs[0].2, "poundal vs dyn/cm must be flagged incomparable");
}

#[test]
fn comparability_accepts_consistent_text() {
    let ks = DimKs::standard();
    let (mentions, pairs) =
        ks.comparability("LeBron is 2.06 meters tall while Curry is 188 cm tall.");
    assert_eq!(mentions.len(), 2);
    assert!(pairs[0].2, "metres and centimetres are comparable");
}

#[test]
fn convert_mention_applies_the_dimension_law() {
    let ks = DimKs::standard();
    let v = ks.convert_mention("重量是150千克", "斤").expect("converts");
    assert!((v - 300.0).abs() < 1e-9, "150 kg = 300 jin, got {v}");
    // Cross-dimension conversion is refused.
    assert!(ks.convert_mention("重量是150千克", "米").is_none());
}

#[test]
fn kb_statistics_meet_design_floor() {
    // DESIGN.md promises a QUDT-comparable KB; hold the floor in CI.
    let kb = DimUnitKb::shared();
    let stats = dimension_perception::kb::stats::statistics(&kb);
    assert!(stats.units >= 1200, "units {}", stats.units);
    assert!(stats.quantity_kinds >= 100, "kinds {}", stats.quantity_kinds);
    assert!(stats.dim_vectors >= 80, "dim vectors {}", stats.dim_vectors);
}
