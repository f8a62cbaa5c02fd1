//! Algorithm 2: the bootstrapping retrieval method (§IV-C2).
//!
//! Maintains a growing *mention set* `M` (unit surface forms) and a
//! *predicate set* `P`, alternating three steps for δ iterations:
//!
//! 1. grow `P` from triples whose objects mention some `m ∈ M`;
//! 2. filter `P` by the ratio of quantity-like triples (DimKS annotation),
//!    keeping predicates with ratio ≥ τ;
//! 3. grow `M` from unit mentions in the objects of the kept predicates.
//!
//! Finally all triples of the kept predicates are retrieved. The paper then
//! feeds the triplets to ChatGPT to verbalize them into sentences; here the
//! verbalizer is template-based (see [`verbalize`]).

use dim_kgraph::{PredicateId, SynthKg, TripleId};
use dimlink::Annotator;
use std::collections::{BTreeMap, BTreeSet};

static ALGO2_SPAN: dim_obs::Histogram = dim_obs::Histogram::new("algo2.run");
static ALGO2_PREDICATES: dim_obs::Counter = dim_obs::Counter::new("algo2.predicates");
static ALGO2_TRIPLES: dim_obs::Counter = dim_obs::Counter::new("algo2.triples");
static ALGO2_MENTIONS: dim_obs::Counter = dim_obs::Counter::new("algo2.mentions");

/// Configuration for the bootstrapping retrieval.
#[derive(Debug, Clone, Copy)]
pub struct Algo2Config {
    /// Quantity-ratio threshold τ for keeping a predicate.
    pub tau: f64,
    /// Bootstrapping iterations δ (the paper uses 5).
    pub iterations: usize,
    /// Number of high-frequency seed units for `M₀`.
    pub seed_mentions: usize,
    /// Fan-out for the per-predicate ratio and mention-regrowth passes.
    pub parallelism: dim_par::Parallelism,
}

impl Default for Algo2Config {
    fn default() -> Self {
        Algo2Config {
            tau: 0.6,
            iterations: 5,
            seed_mentions: 40,
            parallelism: dim_par::Parallelism::SEQUENTIAL,
        }
    }
}

/// Output of the bootstrap, with retrieval quality vs the KG's gold labels.
#[derive(Debug, Clone)]
pub struct Algo2Output {
    /// Retrieved (hopefully quantitative) triples.
    pub triplets: Vec<TripleId>,
    /// The final predicate set.
    pub predicates: Vec<PredicateId>,
    /// The final mention set.
    pub mentions: Vec<String>,
    /// Precision of the retrieved triples against gold.
    pub precision: f64,
    /// Recall against all gold quantitative triples.
    pub recall: f64,
    /// `(|P|, |M|)` after each iteration — the growth trace.
    pub growth: Vec<(usize, usize)>,
}

/// Is this object string quantity-like according to DimKS? True when the
/// annotator finds a mention covering most of the object.
fn object_is_quantity(annotator: &Annotator, object: &str) -> bool {
    annotator
        .annotate(object)
        .iter()
        .any(|m| (m.end - m.start) * 2 >= object.len())
}

/// Runs the bootstrapping retrieval over a knowledge graph.
pub fn bootstrap_retrieve(
    kg: &SynthKg,
    annotator: &Annotator,
    config: Algo2Config,
) -> Algo2Output {
    let _span = ALGO2_SPAN.span();
    let kb = annotator.linker().kb();
    // M₀: surface forms of the highest-frequency units.
    let mut mentions: BTreeSet<String> = dimkb::stats::top_units(kb, config.seed_mentions)
        .into_iter()
        .flat_map(|(id, _)| {
            let u = kb.unit(id);
            [u.label_zh.clone(), u.symbol.clone()]
        })
        .filter(|s| !s.is_empty())
        .collect();
    let mut kept: BTreeSet<PredicateId> = BTreeSet::new();
    let mut growth = Vec::new();

    // Memoized per-predicate quantity ratios (objects don't change).
    let mut ratio_cache: BTreeMap<PredicateId, f64> = BTreeMap::new();

    for _ in 0..config.iterations {
        // Step 1: predicates reachable from the mention set.
        let mut p: BTreeSet<PredicateId> = BTreeSet::new();
        for m in &mentions {
            for tid in kg.store.find_by_object_mention(m) {
                p.insert(kg.store.triple(tid).predicate);
            }
        }
        // Step 2: filter by quantity ratio. Ratios for not-yet-seen
        // predicates are computed in parallel (each is an independent
        // annotate pass over that predicate's objects), then cached in
        // BTreeMap order — the filter itself stays sequential and
        // deterministic.
        let uncached: Vec<PredicateId> =
            p.iter().copied().filter(|pid| !ratio_cache.contains_key(pid)).collect();
        let ratios = dim_par::par_map_coarse(config.parallelism, &uncached, |_, &pid| {
            let triples = kg.store.find_by_predicate(pid);
            if triples.is_empty() {
                return 0.0;
            }
            let q = triples
                .iter()
                .filter(|&&tid| object_is_quantity(annotator, &kg.store.triple(tid).object))
                .count();
            q as f64 / triples.len() as f64
        });
        ratio_cache.extend(uncached.into_iter().zip(ratios));
        p.retain(|pid| ratio_cache[pid] >= config.tau);
        kept = p.clone();
        // Step 3: regrow the mention set from the kept predicates' objects
        // (parallel per predicate; the BTreeSet union is order-insensitive).
        let kept_list: Vec<PredicateId> = p.iter().copied().collect();
        let grown = dim_par::par_map_coarse(config.parallelism, &kept_list, |_, &pid| {
            let mut surfaces = Vec::new();
            for &tid in kg.store.find_by_predicate(pid) {
                for qm in annotator.annotate(&kg.store.triple(tid).object) {
                    surfaces.push(qm.unit_surface);
                }
            }
            surfaces
        });
        let m: BTreeSet<String> = grown.into_iter().flatten().collect();
        if !m.is_empty() {
            mentions = m;
        }
        growth.push((kept.len(), mentions.len()));
    }

    // Retrieve the final triples.
    let mut triplets: Vec<TripleId> = Vec::new();
    for &pid in &kept {
        triplets.extend_from_slice(kg.store.find_by_predicate(pid));
    }
    triplets.sort_unstable();
    triplets.dedup();

    let retrieved_quant = triplets.iter().filter(|&&t| kg.is_quantitative(t)).count();
    let precision = if triplets.is_empty() {
        0.0
    } else {
        retrieved_quant as f64 / triplets.len() as f64
    };
    let recall = if kg.quantitative_count() == 0 {
        0.0
    } else {
        retrieved_quant as f64 / kg.quantitative_count() as f64
    };

    ALGO2_PREDICATES.add(kept.len() as u64);
    ALGO2_TRIPLES.add(triplets.len() as u64);
    ALGO2_MENTIONS.add(mentions.len() as u64);
    Algo2Output {
        triplets,
        predicates: kept.into_iter().collect(),
        mentions: mentions.into_iter().collect(),
        precision,
        recall,
        growth,
    }
}

/// Verbalizes a triple into a sentence and a masked variant (the ChatGPT
/// substitution): `<LeBron, height, 2.06m>` →
/// `勒布朗的身高是2.06m。` / `勒布朗的身高是[MASK]。`.
pub fn verbalize(kg: &SynthKg, id: TripleId) -> (String, String) {
    let t = kg.store.triple(id);
    let subject = kg.store.entity_name(t.subject);
    let predicate = kg.store.predicate_name(t.predicate);
    let sentence = format!("{subject}的{predicate}是{object}。", object = t.object);
    let masked = format!("{subject}的{predicate}是[MASK]。");
    (sentence, masked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_kgraph::{synthesize, SynthConfig};
    use dimkb::DimUnitKb;
    use dimlink::{LinkerConfig, UnitLinker};

    fn run() -> (SynthKg, Algo2Output) {
        let kb = DimUnitKb::shared();
        let kg = synthesize(&kb, &SynthConfig { entities_per_type: 40, seed: 21 });
        let annotator = Annotator::new(UnitLinker::new(kb, None, LinkerConfig::default()));
        let out = bootstrap_retrieve(&kg, &annotator, Algo2Config::default());
        (kg, out)
    }

    #[test]
    fn bootstrap_finds_quantity_predicates_with_high_precision() {
        let (_, out) = run();
        assert!(!out.triplets.is_empty());
        assert!(out.precision > 0.85, "precision {}", out.precision);
        assert!(out.recall > 0.5, "recall {}", out.recall);
    }

    #[test]
    fn decoy_predicates_are_filtered() {
        let (kg, out) = run();
        let names: Vec<&str> =
            out.predicates.iter().map(|&p| kg.store.predicate_name(p)).collect();
        assert!(!names.contains(&"颜色"), "colour is not a quantity predicate: {names:?}");
        assert!(!names.contains(&"型号"), "model codes are not quantities: {names:?}");
        assert!(
            names.contains(&"身高") || names.contains(&"高度"),
            "height-like predicates must be kept: {names:?}"
        );
    }

    #[test]
    fn mention_set_grows_beyond_seeds() {
        let (_, out) = run();
        assert!(!out.mentions.is_empty());
        assert_eq!(out.growth.len(), Algo2Config::default().iterations);
    }

    #[test]
    fn verbalizer_produces_masked_pairs() {
        let (kg, out) = run();
        let (sentence, masked) = verbalize(&kg, out.triplets[0]);
        assert!(sentence.ends_with("。"));
        assert!(masked.contains("[MASK]"));
        assert!(!masked.contains(&kg.store.triple(out.triplets[0]).object));
    }

    #[test]
    fn parallel_bootstrap_matches_sequential() {
        let kb = DimUnitKb::shared();
        let kg = synthesize(&kb, &SynthConfig { entities_per_type: 40, seed: 21 });
        let annotator = Annotator::new(UnitLinker::new(kb, None, LinkerConfig::default()));
        let seq = bootstrap_retrieve(&kg, &annotator, Algo2Config::default());
        let par = bootstrap_retrieve(
            &kg,
            &annotator,
            Algo2Config { parallelism: dim_par::Parallelism::new(4), ..Default::default() },
        );
        assert_eq!(seq.triplets, par.triplets);
        assert_eq!(seq.predicates, par.predicates);
        assert_eq!(seq.mentions, par.mentions);
        assert_eq!(seq.growth, par.growth);
    }

    #[test]
    fn bootstrap_is_deterministic() {
        let (_, a) = run();
        let (_, b) = run();
        assert_eq!(a.triplets, b.triplets);
        assert_eq!(a.mentions, b.mentions);
    }
}
