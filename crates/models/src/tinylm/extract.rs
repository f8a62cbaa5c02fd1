//! The trainable quantity extractor: candidate spans scored by a logistic
//! model — TinyLM's answer to Def. 2 (quantity extraction).
//!
//! Candidate generation is purely textual (numbers plus the character runs
//! that follow); *which* runs are units is learned from the annotated
//! dataset produced by Algorithm 1, not looked up in the KB — the model
//! has to acquire unit knowledge from data, like the fine-tuned LLM it
//! stands in for.

use crate::tinylm::features::extraction_features;
use crate::tinylm::linear::LinearModel;
use dim_embed::tokenize::is_cjk;
use dimeval::{ExtractedQuantity, ExtractionItem};
use dimlink::scan_numbers;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One extraction candidate inside a text.
#[derive(Debug, Clone)]
struct Candidate {
    value: f64,
    unit_surface: String,
    feats: Vec<u32>,
    /// Which scanned number this candidate belongs to.
    number_idx: usize,
}

/// Generates all candidates of a text (several surface lengths per number).
fn candidates(text: &str) -> Vec<Candidate> {
    let mut out = Vec::new();
    for (ni, num) in scan_numbers(text).into_iter().enumerate() {
        let mut unit_start = num.end;
        if text[unit_start..].starts_with(' ') {
            unit_start += 1;
        }
        let rest = &text[unit_start..];
        let prev: String = text[..num.start].chars().rev().take(2).collect();
        let surfaces: Vec<String> = match rest.chars().next() {
            Some(c) if is_cjk(c) => {
                let chars: Vec<char> = rest.chars().take(4).collect();
                (1..=chars.len()).map(|n| chars[..n].iter().collect()).collect()
            }
            Some(c) if c.is_ascii_alphabetic() || "°µΩ%‰".contains(c) => {
                let run_end = rest
                    .char_indices()
                    .find(|&(_, ch)| {
                        !(ch.is_ascii_alphanumeric() || "°µΩ%‰/·*^²³⁻¹".contains(ch))
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(rest.len());
                let run = &rest[..run_end];
                if run.is_empty() {
                    continue;
                }
                vec![run.to_string()]
            }
            _ => continue,
        };
        for surface in surfaces {
            let next: String = rest[surface.len()..].chars().take(1).collect();
            let feats = extraction_features(&surface, &prev, &next);
            out.push(Candidate { value: num.value, unit_surface: surface, feats, number_idx: ni });
        }
    }
    out
}

/// The trainable extractor.
#[derive(Debug, Clone)]
pub struct ExtractionModel {
    model: LinearModel,
}

impl ExtractionModel {
    /// A task-naive extractor (tiny random weights → near-random spans).
    pub fn naive(seed: u64) -> Self {
        ExtractionModel { model: LinearModel::random(0.3, 0.002, seed ^ 0xE1) }
    }

    /// Trains on Algorithm-1 annotated data. Returns the last-epoch loss.
    pub fn train(&mut self, items: &[ExtractionItem], epochs: usize, seed: u64) -> f32 {
        // Candidates, their features and labels never change between
        // epochs, and building them draws no randomness: build them once.
        let labelled: Vec<Vec<(Vec<u32>, bool)>> = items
            .iter()
            .map(|item| {
                candidates(&item.text)
                    .into_iter()
                    .map(|cand| {
                        let label = item.gold.iter().any(|g| {
                            (g.value - cand.value).abs() <= 1e-9 * g.value.abs().max(1.0)
                                && g.unit_surface == cand.unit_surface
                        });
                        (cand.feats, label)
                    })
                    .collect()
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut last = 0.0;
        for _ in 0..epochs {
            let mut total = 0.0;
            let mut n = 0usize;
            let mut order: Vec<usize> = (0..items.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for &i in &order {
                for (feats, label) in &labelled[i] {
                    total += self.model.sgd_logistic(feats, *label);
                    n += 1;
                }
            }
            last = if n == 0 { 0.0 } else { total / n as f32 };
        }
        last
    }

    /// Extracts quantities: per scanned number, the highest-probability
    /// candidate above 0.5 (longer surfaces win ties).
    pub fn extract(&self, text: &str) -> Vec<ExtractedQuantity> {
        let mut best: std::collections::BTreeMap<usize, (f32, usize, ExtractedQuantity)> =
            std::collections::BTreeMap::new();
        for cand in candidates(text) {
            let p = self.model.prob(&cand.feats);
            if p < 0.5 {
                continue;
            }
            let len = cand.unit_surface.chars().count();
            let entry = (p, len, ExtractedQuantity {
                value: cand.value,
                unit_surface: cand.unit_surface,
            });
            match best.get(&cand.number_idx) {
                Some((bp, bl, _)) if (*bp, *bl) >= (p, len) => {}
                _ => {
                    best.insert(cand.number_idx, entry);
                }
            }
        }
        best.into_values().map(|(_, _, q)| q).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimeval::algo1;
    use dimkb::DimUnitKb;
    use dimlink::{Annotator, LinkerConfig, UnitLinker};

    fn training_data() -> Vec<ExtractionItem> {
        let kb = DimUnitKb::shared();
        let corpus =
            dim_corpus::generate(&kb, &dim_corpus::CorpusConfig { sentences: 400, seed: 71 });
        let annotator = Annotator::new(UnitLinker::with_config(kb, LinkerConfig::default()));
        let mlm = algo1::train_filter(&corpus);
        algo1::semi_automated_annotate(&annotator, &mlm, &corpus, algo1::Algo1Config::default())
            .dataset
    }

    #[test]
    fn training_learns_units_from_data() {
        let data = training_data();
        let (train, test) = data.split_at(data.len() * 4 / 5);
        let mut m = ExtractionModel::naive(1);
        m.train(train, 4, 2);
        let mut score = dimeval::ExtractionScore::default();
        for item in test {
            score.push(&item.gold, &m.extract(&item.text));
        }
        assert!(score.qe.f1() > 0.5, "trained QE F1 {}", score.qe.f1());
        // The naive model must be much worse.
        let naive = ExtractionModel::naive(1);
        let mut nscore = dimeval::ExtractionScore::default();
        for item in test {
            nscore.push(&item.gold, &naive.extract(&item.text));
        }
        assert!(
            score.qe.f1() > nscore.qe.f1() + 0.2,
            "trained {} vs naive {}",
            score.qe.f1(),
            nscore.qe.f1()
        );
    }

    #[test]
    fn longest_surface_wins_when_confident() {
        let data = training_data();
        let mut m = ExtractionModel::naive(3);
        m.train(&data, 4, 4);
        let out = m.extract("这块地面积25平方厘米。");
        if let Some(q) = out.first() {
            assert_eq!(q.value, 25.0);
        }
    }

    #[test]
    fn candidates_cover_cjk_and_ascii() {
        let c = candidates("重150千克 and 2.5 kg");
        assert!(c.iter().any(|x| x.unit_surface == "千克"));
        assert!(c.iter().any(|x| x.unit_surface == "kg"));
    }
}
