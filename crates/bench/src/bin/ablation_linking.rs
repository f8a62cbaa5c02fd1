//! Ablation of the unit-linking score components (§III-B):
//! `Pr(u)·Pr(u|m)·Pr(u|c)` with each factor knocked out.
//!
//! Exact surface forms resolve trivially, so the evaluation perturbs gold
//! mentions the way real text does — lowercased symbols (`mw` for `MW`),
//! dropped characters (`kilometr`), ambiguous short forms — and measures
//! how each scoring factor recovers the right unit.

fn main() {
    dim_bench::run(|_| print!("{}", dim_bench::render::ablation_linking()));
}
