//! A sparse linear model trained by SGD — the learnable core of TinyLM.
//!
//! Minimizes the same objective as the paper's Eq. 3 (negative
//! log-likelihood of the target given the input) in its linear special
//! case: softmax cross-entropy over candidate scores.
//!
//! The weight table is copy-on-write: a clone shares its parent's table
//! until one of them takes an SGD step, so a stage that clones a trained
//! model and only trains its MWP decoder never copies the 4 MB table.

use crate::tinylm::features::FEATURE_DIM;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A hashed-feature linear scorer.
#[derive(Debug, Clone)]
pub struct LinearModel {
    /// Shared between clones until written: each SGD step calls
    /// `Arc::make_mut` once, which copies the table only while it is shared.
    weights: Arc<Vec<f32>>,
    /// SGD learning rate.
    pub lr: f32,
}

impl LinearModel {
    /// Zero-initialized model.
    pub fn zeros(lr: f32) -> Self {
        LinearModel { weights: Arc::new(vec![0.0; FEATURE_DIM]), lr }
    }

    /// Small random initialization — an instruction-tuned-but-task-naive
    /// prior (the LLaMA_IFT starting point).
    pub fn random(lr: f32, scale: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = (0..FEATURE_DIM).map(|_| rng.gen_range(-scale..scale)).collect();
        LinearModel { weights: Arc::new(weights), lr }
    }

    /// The score of a feature set.
    pub fn score(&self, feats: &[u32]) -> f32 {
        feats.iter().map(|&f| self.weights[f as usize]).sum()
    }

    /// Adds `delta` to every feature weight.
    pub fn update(&mut self, feats: &[u32], delta: f32) {
        let weights = Arc::make_mut(&mut self.weights);
        add(weights, feats, delta);
    }

    /// One softmax cross-entropy SGD step over candidate feature sets;
    /// returns the loss. `gold` indexes the correct candidate. `exps` is
    /// scratch the caller reuses across steps; its contents are overwritten.
    pub fn sgd_softmax(
        &mut self,
        candidates: &[Vec<u32>],
        gold: usize,
        exps: &mut Vec<f32>,
    ) -> f32 {
        exps.clear();
        exps.extend(candidates.iter().map(|c| self.score(c)));
        let max = exps.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for e in exps.iter_mut() {
            *e = (*e - max).exp();
        }
        let z: f32 = exps.iter().sum();
        let weights = Arc::make_mut(&mut self.weights);
        let mut loss = 0.0;
        for (i, c) in candidates.iter().enumerate() {
            let p = exps[i] / z;
            let y = f32::from(i == gold);
            add(weights, c, -self.lr * (p - y));
            if i == gold {
                loss = -p.max(1e-9).ln();
            }
        }
        loss
    }

    /// One logistic-regression SGD step (binary label); returns the loss.
    pub fn sgd_logistic(&mut self, feats: &[u32], label: bool) -> f32 {
        let s = self.score(feats);
        let p = 1.0 / (1.0 + (-s).exp());
        let y = f32::from(label);
        self.update(feats, -self.lr * (p - y));
        if label {
            -p.max(1e-9).ln()
        } else {
            -(1.0 - p).max(1e-9).ln()
        }
    }

    /// The sigmoid probability of a feature set.
    pub fn prob(&self, feats: &[u32]) -> f32 {
        1.0 / (1.0 + (-self.score(feats)).exp())
    }
}

/// Adds `delta` to the weight of every feature in `feats`.
fn add(weights: &mut [f32], feats: &[u32], delta: f32) {
    for &f in feats {
        weights[f as usize] += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tinylm::features::feat;

    #[test]
    fn softmax_learns_a_separable_choice() {
        let mut m = LinearModel::zeros(0.5);
        let good = vec![feat("good"), feat("shared")];
        let bad = vec![feat("bad"), feat("shared")];
        for _ in 0..50 {
            m.sgd_softmax(&[good.clone(), bad.clone()], 0, &mut Vec::new());
        }
        assert!(m.score(&good) > m.score(&bad));
    }

    #[test]
    fn logistic_learns_binary_separation() {
        let mut m = LinearModel::zeros(0.5);
        let pos = vec![feat("unit")];
        let neg = vec![feat("devicecode")];
        for _ in 0..50 {
            m.sgd_logistic(&pos, true);
            m.sgd_logistic(&neg, false);
        }
        assert!(m.prob(&pos) > 0.9);
        assert!(m.prob(&neg) < 0.1);
    }

    #[test]
    fn loss_decreases_with_training() {
        let mut m = LinearModel::zeros(0.2);
        let cands = vec![vec![feat("a")], vec![feat("b")], vec![feat("c")]];
        let first = m.sgd_softmax(&cands, 1, &mut Vec::new());
        for _ in 0..30 {
            m.sgd_softmax(&cands, 1, &mut Vec::new());
        }
        let last = m.sgd_softmax(&cands, 1, &mut Vec::new());
        assert!(last < first);
    }

    #[test]
    fn a_clone_shares_its_weights_until_its_first_update() {
        let original = LinearModel::random(0.1, 0.01, 5);
        let mut clone = original.clone();
        assert!(Arc::ptr_eq(&original.weights, &clone.weights));
        assert_eq!(clone.score(&[1, 2, 3]), original.score(&[1, 2, 3]));
        clone.update(&[1], 0.5);
        assert!(!Arc::ptr_eq(&original.weights, &clone.weights));
        // Once unshared, later steps write the clone's own table in place.
        let before = Arc::as_ptr(&clone.weights);
        clone.sgd_logistic(&[2], true);
        clone.sgd_softmax(&[vec![3], vec![4]], 0, &mut Vec::new());
        assert_eq!(Arc::as_ptr(&clone.weights), before);
    }

    #[test]
    fn training_a_clone_leaves_the_original_bit_identical() {
        let original = LinearModel::random(0.3, 0.02, 9);
        let probes: Vec<Vec<u32>> =
            vec![vec![feat("good"), feat("shared")], vec![feat("bad"), feat("shared")], vec![7, 8]];
        let before: Vec<u32> = probes.iter().map(|p| original.score(p).to_bits()).collect();
        let mut clone = original.clone();
        for _ in 0..20 {
            clone.sgd_softmax(&probes, 0, &mut Vec::new());
            clone.sgd_logistic(&probes[1], false);
        }
        let after: Vec<u32> = probes.iter().map(|p| original.score(p).to_bits()).collect();
        assert_eq!(before, after);
        assert!(clone.score(&probes[0]) > original.score(&probes[0]), "the clone did train");
    }

    /// The softmax step as it was before it took a scratch buffer: two
    /// fresh `Vec`s per step.
    fn sgd_softmax_two_vecs(m: &mut LinearModel, candidates: &[Vec<u32>], gold: usize) -> f32 {
        let scores: Vec<f32> = candidates.iter().map(|c| m.score(c)).collect();
        let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = scores.iter().map(|s| (s - max).exp()).collect();
        let z: f32 = exps.iter().sum();
        let weights = Arc::make_mut(&mut m.weights);
        let mut loss = 0.0;
        for (i, c) in candidates.iter().enumerate() {
            let p = exps[i] / z;
            let y = f32::from(i == gold);
            add(weights, c, -m.lr * (p - y));
            if i == gold {
                loss = -p.max(1e-9).ln();
            }
        }
        loss
    }

    #[test]
    fn scratch_softmax_step_is_bit_identical_to_two_vec_step() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut fast = LinearModel::random(0.15, 0.02, 3);
        let mut slow = fast.clone();
        let mut scratch = Vec::new();
        let mut touched = Vec::new();
        for _ in 0..500 {
            // Few distinct features, so candidates and steps collide.
            let candidates: Vec<Vec<u32>> = (0..rng.gen_range(1..=9))
                .map(|_| (0..rng.gen_range(0..6)).map(|_| rng.gen_range(0..64u32)).collect())
                .collect();
            let gold = rng.gen_range(0..candidates.len());
            let a = fast.sgd_softmax(&candidates, gold, &mut scratch);
            let b = sgd_softmax_two_vecs(&mut slow, &candidates, gold);
            assert_eq!(a.to_bits(), b.to_bits());
            touched.extend(candidates.into_iter().flatten());
        }
        assert!(!touched.is_empty());
        for f in touched {
            let (a, b) = (fast.weights[f as usize], slow.weights[f as usize]);
            assert_eq!(a.to_bits(), b.to_bits(), "feature {f}");
        }
    }

    #[test]
    fn random_init_is_deterministic() {
        let a = LinearModel::random(0.1, 0.01, 5);
        let b = LinearModel::random(0.1, 0.01, 5);
        assert_eq!(a.score(&[1, 2, 3]), b.score(&[1, 2, 3]));
    }
}
