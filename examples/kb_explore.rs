//! Explores DimUnitKB: schema, frequency feature, naming dictionary,
//! ambiguity.
//!
//! ```sh
//! cargo run --example kb_explore
//! ```

use dimension_perception::kb::{stats, DimUnitKb};

fn main() {
    let kb = DimUnitKb::shared();

    // Full Table II schema of one record.
    let u = kb.unit_by_code("DYN-PER-CentiM").unwrap();
    println!("UnitID        {}", u.id);
    println!("Code          {}", u.code);
    println!("Label_en      {}", u.label_en);
    println!("Label_zh      {}", u.label_zh);
    println!("Symbol        {}", u.symbol);
    println!("Alias         {:?}", u.aliases);
    println!("Description   {}", u.description);
    println!("Keywords      {:?}", u.keywords);
    println!("Frequency     {:.3}", u.frequency);
    println!("QuantityKind  {}", kb.kind(u.kind).name_en);
    println!("DimensionVec  {}  ({})", u.dim.vector_form(), u.dim);
    println!("ConversionVal {}\n", u.conversion.factor);

    // Ambiguity in the naming dictionary (the 'degree' problem of §III-B).
    for mention in ["degree", "m", "度"] {
        let ids = kb.lookup(mention);
        let names: Vec<&str> = ids.iter().map(|&id| kb.unit(id).label_en.as_str()).collect();
        println!("mention {mention:?} may refer to: {names:?}");
    }

    // The frequency feature orders units by commonness.
    println!("\ntop 10 units by frequency:");
    for (id, f) in stats::top_units(&kb, 10) {
        println!("  {:<20} {:.3}", kb.unit(id).label_en, f);
    }
}
